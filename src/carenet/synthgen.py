"""Deterministic synthetic micro-FTIR generator.

Produces hypercubes with known tissue/paraffin/slide composition,
class-dependent band amplitudes, polynomial baselines, multiplicative
scatter, and additive noise. Every end-to-end test uses this module as its
ground truth, so generation must be a pure function of (config, seed).

Stream contract. A panel of P patients has 2P + 1 cubes, and gen_cube
makes any one of them from (config, index) alone. Index 2i is the CA core of
patient i + 1 (patients go subtype by subtype: the first n_patients[0] are
LA, and so on), index 2i + 1 is that patient's AT core, and index 2P is the
H2O image. Cube `index` draws from PCG64(SeedSequence(config.seed,
spawn_key=(index,))), which is child `index` of
SeedSequence(config.seed).spawn(2P + 1). A core draws role by role (tissue,
paraffin, slide), each role's pixels in row-major order in chunks of
DRAW_CHUNK (4096) pixels; the H2O image is one chunk of all its pixels. Per
chunk of n rows the draws are, in this order:

1. tissue: n paraffin fractions, then n H2O fractions; H2O: (n, 6) line
   factors; paraffin and slide: nothing;
2. n scale factors, n baseline constants, (n, 4) baseline coefficients;
3. the (n, n_points) standard normals of the noise, in C order (none when
   noise_sigma is 0).

A core then draws its spikes: the pixels, then their channels. The
arithmetic walks each chunk in blocks of ROW_BLOCK rows and draws each
block's normals into a reused buffer; normals fill in C order, so the blocks
do not change the stream. Per row, in float64 and in this order, a
spectrum is chem * scale + coefs @ powers + normals * noise_sigma, rounded
once to the cube's float32; chem is base + par_f * paraffin + h2o_f * h2o
for tissue, the paraffin profile, zero on slide, and factors @ lines for
H2O. The two matrix products run per block, and a BLAS may round the last
float64 bit of a product's edge rows differently for a different row count
(or thread count); that has not survived the float32 rounding in any cube
checked (tests/test_synthgen.py compares every role and class against a
whole-chunk oracle).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import SUBTYPES, HyperCube, PatientRecord
from .errors import DataError
from .spectral import BIOFINGERPRINT_BAND, RAW_AXIS, WavenumberAxis, band_slice

__all__ = [
    "BandSpec",
    "SynthConfig",
    "gen_spectrum",
    "gen_cube",
    "gen_panel",
    "DEFAULT_TISSUE_BANDS",
    "PARAFFIN_BANDS",
    "H2O_LINES",
]

ROLE_SLIDE = 0
ROLE_TISSUE = 1
ROLE_PARAFFIN = 2
ROLE_H2O = 3

# Pixels per draw chunk of one role (the H2O image is one chunk). The chunks
# fix the rng stream, so this never changes.
DRAW_CHUNK = 4096
# Rows per arithmetic block: two float64 (ROW_BLOCK, n_points) buffers, 1.6 MB
# each on the 1580-point raw axis, stay cache-resident. Not part of the stream.
ROW_BLOCK = 128

CLASS_LABELS = ("AT",) + SUBTYPES


@dataclass(frozen=True)
class BandSpec:
    """One Gaussian absorption band with per-class amplitude modulation.

    The effective amplitude for class c at separation s is
    amplitude * (1 + s * (modulation[c] - 1)); classes absent from the
    modulation map sit at factor 1, so separation 0 makes all classes equal.
    """

    center: float
    sigma: float
    amplitude: float
    modulation: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.sigma <= 0:
            raise DataError(f"band sigma must be positive, got {self.sigma}")
        if self.amplitude < 0:
            raise DataError(f"band amplitude must be >= 0, got {self.amplitude}")
        for label, factor in self.modulation:
            if label not in CLASS_LABELS:
                raise DataError(f"unknown class label {label!r} in band modulation")
            if factor < 0:
                raise DataError("modulation factors must be >= 0")

    def class_amplitude(self, class_label: str, separation: float) -> float:
        factor = dict(self.modulation).get(class_label, 1.0)
        amp = self.amplitude * (1.0 + separation * (factor - 1.0))
        return max(amp, 0.0)


# Tissue bands: protein amides plus nucleic-acid/glycogen features, with the
# type- and subtype-discriminative modulations placed inside the regions the
# trained models are expected to light up. Embedded paraffin and water vapor
# are added separately on top of these.
DEFAULT_TISSUE_BANDS: tuple[BandSpec, ...] = (
    BandSpec(3290.0, 60.0, 0.40),
    BandSpec(2920.0, 16.0, 0.50),
    BandSpec(2850.0, 12.0, 0.30),
    BandSpec(1655.0, 22.0, 1.00),
    BandSpec(1545.0, 18.0, 0.70),
    BandSpec(1310.0, 14.0, 0.35),
    BandSpec(1080.0, 18.0, 0.30),
    BandSpec(1030.0, 12.0, 0.25),
    # type discrimination (any cancer class vs adjacent tissue)
    BandSpec(1620.0, 14.0, 0.15, (("LA", 2.5), ("LB", 2.5), ("HER2", 2.5), ("TNBC", 2.5))),
    BandSpec(1240.0, 12.0, 0.12, (("LA", 2.0), ("LB", 2.0), ("HER2", 2.0), ("TNBC", 2.0))),
    # subtype discrimination, one exclusive band per class
    BandSpec(1715.0, 12.0, 0.12, (("LA", 3.0),)),
    BandSpec(1580.0, 5.0, 0.12, (("LB", 3.0),)),
    BandSpec(1530.0, 8.0, 0.12, (("HER2", 3.0),)),
    BandSpec(1635.0, 10.0, 0.12, (("TNBC", 3.0),)),
)

PARAFFIN_BANDS: tuple[BandSpec, ...] = (
    BandSpec(1462.0, 8.0, 1.00),
    BandSpec(1373.0, 7.0, 0.60),
)

H2O_LINES: tuple[BandSpec, ...] = (
    BandSpec(1700.0, 5.0, 0.060),
    BandSpec(1652.0, 4.0, 0.080),
    BandSpec(1559.0, 4.0, 0.070),
    BandSpec(1508.0, 3.0, 0.050),
    BandSpec(1420.0, 4.0, 0.050),
    BandSpec(1340.0, 4.0, 0.040),
)


@dataclass(frozen=True)
class SynthConfig:
    """Everything the generator needs; a (config, seed) pair fixes the panel."""

    n_patients: tuple[int, int, int, int] = (2, 2, 2, 2)  # (LA, LB, HER2, TNBC)
    image_size: int = 32
    noise_sigma: float = 0.01
    baseline_const_range: tuple[float, float] = (0.005, 0.02)
    baseline_coef_range: tuple[float, float] = (-0.004, 0.004)
    scale_range: tuple[float, float] = (0.85, 1.2)
    class_separation: float = 1.0
    tissue_bands: tuple[BandSpec, ...] = DEFAULT_TISSUE_BANDS
    tissue_paraffin_range: tuple[float, float] = (0.25, 0.55)
    tissue_h2o_range: tuple[float, float] = (0.0, 0.8)
    spike_fraction: float = 0.0
    spike_amplitude: float = 30.0
    axis: WavenumberAxis = RAW_AXIS
    seed: int = 0

    def __post_init__(self):
        def is_count(value) -> bool:
            return isinstance(value, (int, np.integer)) and not isinstance(value, bool)

        def is_finite_real(value) -> bool:
            return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value))

        if (not isinstance(self.n_patients, tuple) or len(self.n_patients) != len(SUBTYPES)
                or not all(is_count(n) for n in self.n_patients)):
            raise DataError(f"n_patients must be {len(SUBTYPES)} integer counts, "
                            f"got {self.n_patients!r}")
        if any(n < 0 for n in self.n_patients):
            raise DataError("patient counts must be >= 0")
        if not is_count(self.image_size):
            raise DataError(f"image_size must be an integer, got {self.image_size!r}")
        if self.image_size < 4:
            raise DataError("image_size must be >= 4")
        for name in ("noise_sigma", "class_separation", "spike_fraction", "spike_amplitude"):
            if not is_finite_real(getattr(self, name)):
                raise DataError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("baseline_const_range", "baseline_coef_range", "scale_range",
                     "tissue_paraffin_range", "tissue_h2o_range"):
            pair = getattr(self, name)
            if (not isinstance(pair, tuple) or len(pair) != 2
                    or not all(map(is_finite_real, pair)) or pair[1] < pair[0]):
                raise DataError(f"{name} must be two finite numbers (low, high) with "
                                f"low <= high, got {pair!r}")
        if self.noise_sigma < 0 or not 0.0 <= self.spike_fraction <= 1.0:
            raise DataError("noise_sigma must be >= 0 and spike_fraction in [0, 1]")

    @property
    def total_patients(self) -> int:
        return sum(self.n_patients)


@dataclass
class GroundTruth:
    """Per-cube generator truth: pixel roles and injected spike positions."""

    role: np.ndarray   # (rows, cols) int8, ROLE_* codes
    spike: np.ndarray  # (rows, cols) bool

    @property
    def tissue_mask(self) -> np.ndarray:
        return self.role == ROLE_TISSUE

    @property
    def paraffin_mask(self) -> np.ndarray:
        return self.role == ROLE_PARAFFIN


def _band_profile(bands, class_label, separation, values) -> np.ndarray:
    out = np.zeros_like(values)
    for band in bands:
        amp = band.class_amplitude(class_label, separation)
        if amp > 0.0:
            out += amp * np.exp(-0.5 * ((values - band.center) / band.sigma) ** 2)
    return out


def _fill_rows(dest: np.ndarray, rows: np.ndarray, class_label: str, role: int, rng,
               config: SynthConfig) -> None:
    """Generate one draw chunk of spectra of one pixel role into dest[rows].

    The chunk's per-row uniforms are drawn first, then its noise block by
    block (see the module docstring); dest is float32 cube rows or float64.
    """
    values = config.axis.values
    count = rows.size
    if role == ROLE_TISSUE:
        base = _band_profile(config.tissue_bands, class_label, config.class_separation, values)
        par = _band_profile(PARAFFIN_BANDS, class_label, 0.0, values)
        h2o = _band_profile(H2O_LINES, class_label, 0.0, values)
        par_f = rng.uniform(*config.tissue_paraffin_range, count)[:, None]
        h2o_f = rng.uniform(*config.tissue_h2o_range, count)[:, None]
    elif role == ROLE_PARAFFIN:
        par = _band_profile(PARAFFIN_BANDS, class_label, 0.0, values)
    elif role == ROLE_H2O:  # water-vapor environment image: per-line amplitude jitter
        lines = np.stack([_band_profile((b,), class_label, 0.0, values) for b in H2O_LINES])
        factors = rng.uniform(0.7, 1.4, (count, len(H2O_LINES)))
    scale = rng.uniform(*config.scale_range, count)[:, None]
    coefs = np.empty((count, 5))
    coefs[:, 0] = rng.uniform(*config.baseline_const_range, count)
    coefs[:, 1:] = rng.uniform(*config.baseline_coef_range, (count, 4))
    mid = 0.5 * (values[0] + values[-1])
    halfspan = 0.5 * abs(values[0] - values[-1])
    powers = np.vander((values - mid) / halfspan, 5, increasing=True).T  # (5, n_points)

    block = np.empty((min(ROW_BLOCK, count), values.size))
    term = np.empty_like(block)
    for start in range(0, count, ROW_BLOCK):
        part = slice(start, start + ROW_BLOCK)
        out, tmp = block[:count - start], term[:count - start]
        if role == ROLE_TISSUE:
            np.multiply(par_f[part], par, out=out)
            out += base
            out += np.multiply(h2o_f[part], h2o, out=tmp)
        elif role == ROLE_PARAFFIN:
            out[...] = par
        elif role == ROLE_SLIDE:
            out[...] = 0.0
        else:
            np.matmul(factors[part], lines, out=out)
        out *= scale[part]
        out += np.matmul(coefs[part], powers, out=tmp)
        if config.noise_sigma > 0.0:
            out += np.multiply(rng.standard_normal(out=tmp), config.noise_sigma, out=tmp)
        dest[rows[part]] = out


def gen_spectrum(class_label: str, role: str, rng: np.random.Generator,
                 config: SynthConfig | None = None) -> np.ndarray:
    """One float64 spectrum on config.axis; role is tissue|paraffin|slide|h2o."""
    config = config or SynthConfig()
    codes = {"tissue": ROLE_TISSUE, "paraffin": ROLE_PARAFFIN, "slide": ROLE_SLIDE, "h2o": ROLE_H2O}
    if role not in codes:
        raise DataError(f"unknown role {role!r}")
    if class_label not in CLASS_LABELS:
        raise DataError(f"unknown class label {class_label!r}")
    out = np.empty((1, config.axis.n_points))
    _fill_rows(out, np.arange(1), class_label, codes[role], rng, config)
    return out[0]


def _role_map(size: int) -> np.ndarray:
    """Fixed cube geometry: tissue disc, paraffin ring, slide corners."""
    center = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.sqrt((yy - center) ** 2 + (xx - center) ** 2)
    role = np.full((size, size), ROLE_SLIDE, dtype=np.int8)
    role[r <= 0.62 * size / 2.0] = ROLE_TISSUE
    role[(r > 0.62 * size / 2.0) & (r <= 0.92 * size / 2.0)] = ROLE_PARAFFIN
    return role


def _patients(config: SynthConfig) -> list[PatientRecord]:
    """The panel's patients in id order; patient i + 1 owns cores 2i and 2i + 1."""
    subtypes = [subtype for subtype, count in zip(SUBTYPES, config.n_patients)
                for _ in range(count)]
    return [PatientRecord(patient_id=i + 1, subtype=subtype, ca_core_id=2 * i,
                          at_core_id=2 * i + 1) for i, subtype in enumerate(subtypes)]


def _fill_core(data: np.ndarray, class_label: str, rng: np.random.Generator,
               config: SynthConfig) -> GroundTruth:
    """Draw one core into its (pixels, n_points) rows, role by role, then its spikes."""
    size = config.image_size
    role = _role_map(size)
    flat_role = role.ravel()
    for code in (ROLE_TISSUE, ROLE_PARAFFIN, ROLE_SLIDE):
        idx = np.flatnonzero(flat_role == code)
        for start in range(0, idx.size, DRAW_CHUNK):
            _fill_rows(data, idx[start:start + DRAW_CHUNK], class_label, code, rng, config)

    spike = np.zeros(size * size, dtype=bool)
    if config.spike_fraction > 0.0:
        # spikes land inside the biofingerprint region: anything outside is
        # truncated away downstream and could never be flagged
        sel = band_slice(config.axis, BIOFINGERPRINT_BAND)
        tissue_idx = np.flatnonzero(flat_role == ROLE_TISSUE)
        n_spike = int(round(config.spike_fraction * tissue_idx.size))
        if n_spike:
            chosen = rng.choice(tissue_idx, size=n_spike, replace=False)
            channels = rng.integers(sel.start, sel.stop, size=n_spike)
            data[chosen, channels] += config.spike_amplitude
            spike[chosen] = True
    return GroundTruth(role=role, spike=spike.reshape(size, size))


def gen_cube(config: SynthConfig, index: int) -> tuple[HyperCube, GroundTruth | None]:
    """Cube `index` of config's panel and its ground truth (None for the H2O image).

    A pure function of (config, index); the module docstring maps an index
    to its cube and rng. An index outside 0..2P is a DataError.
    """
    n_cores = 2 * config.total_patients
    if not 0 <= index <= n_cores:
        raise DataError(f"cube index {index} is outside this panel's 0..{n_cores}")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(config.seed, spawn_key=(index,))))
    size, n_points = config.image_size, config.axis.n_points
    try:
        data = np.empty((size * size, n_points), dtype=np.float32)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an index can hold
        gib = size * size * n_points * 4 / 2**30
        raise DataError(f"image_size {size}: a {size}x{size}x{n_points} float32 cube "
                        f"({gib:.3g} GiB) cannot be allocated") from exc

    if index == n_cores:  # the H2O image
        _fill_rows(data, np.arange(size * size), "AT", ROLE_H2O, rng, config)
        truth, core_id, patient_id, core_type, subtype = None, -1, -1, "H2O", "none"
    else:
        patient = _patients(config)[index // 2]
        core_id, patient_id = index, patient.patient_id
        core_type, subtype = ("AT", "none") if index % 2 else ("CA", patient.subtype)
        truth = _fill_core(data, "AT" if index % 2 else subtype, rng, config)
    cube = HyperCube(intensities=data.reshape(size, size, n_points), axis=config.axis,
                     core_id=core_id, patient_id=patient_id, core_type=core_type,
                     subtype=subtype)
    return cube, truth


def gen_panel(config: SynthConfig, emit) -> list[PatientRecord]:
    """Generate a whole panel, one cube at a time; returns its patient records.

    Calls emit(*gen_cube(config, i)) for i = 0..2P: the cores in id order,
    then the H2O image (truth None). Each cube is handed over as soon as it
    exists and not kept, so only one is alive at a time.
    """
    patients = _patients(config)
    if not patients:
        raise DataError("panel needs at least one patient")
    for index in range(2 * len(patients) + 1):
        emit(*gen_cube(config, index))
    return patients
