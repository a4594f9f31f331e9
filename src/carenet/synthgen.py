"""Deterministic synthetic micro-FTIR generator.

Produces hypercubes with known tissue/paraffin/slide composition,
class-dependent band amplitudes, polynomial baselines, multiplicative
scatter, and additive noise. Every end-to-end test uses this module as its
ground truth, so generation must be a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SUBTYPES, HyperCube
from .errors import DataError
from .pipeline import PatientRecord
from .spectral import BIOFINGERPRINT_BAND, RAW_AXIS, WavenumberAxis, band_slice

__all__ = [
    "BandSpec",
    "SynthConfig",
    "Panel",
    "gen_spectrum",
    "gen_cube",
    "gen_panel",
    "tissue_profile",
    "class_mean_separation",
    "DEFAULT_TISSUE_BANDS",
    "PARAFFIN_BANDS",
    "H2O_LINES",
]

ROLE_SLIDE = 0
ROLE_TISSUE = 1
ROLE_PARAFFIN = 2

CLASS_LABELS = ("AT", "LA", "LB", "HER2", "TNBC")


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
        if any(n < 0 for n in self.n_patients):
            raise DataError("patient counts must be >= 0")
        if self.image_size < 4:
            raise DataError("image_size must be >= 4")
        for name in ("baseline_const_range", "baseline_coef_range", "scale_range",
                     "tissue_paraffin_range", "tissue_h2o_range"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise DataError(f"{name} must be (low, high) with low <= high")
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


@dataclass
class Panel:
    """One synthetic cohort: patient records, their cubes, and an H2O image."""

    config: SynthConfig
    patients: list[PatientRecord]
    cubes: dict[int, HyperCube]
    ground_truth: dict[int, GroundTruth]
    h2o_cube: HyperCube


def _band_profile(bands, class_label, separation, values) -> np.ndarray:
    out = np.zeros_like(values)
    for band in bands:
        amp = band.class_amplitude(class_label, separation)
        if amp > 0.0:
            out += amp * np.exp(-0.5 * ((values - band.center) / band.sigma) ** 2)
    return out


def tissue_profile(config: SynthConfig, class_label: str) -> np.ndarray:
    """Noiseless tissue band sum for one class (no baseline, scale 1)."""
    if class_label not in CLASS_LABELS:
        raise DataError(f"unknown class label {class_label!r}")
    return _band_profile(config.tissue_bands, class_label, config.class_separation,
                         config.axis.values)


def class_mean_separation(config: SynthConfig, class_a: str, class_b: str) -> float:
    """Distance between two classes' noiseless tissue profiles.

    This is what a linear discriminant can exploit at best, so it serves as
    the separability oracle: it must never decrease when class_separation
    grows.
    """
    return float(np.linalg.norm(tissue_profile(config, class_a) - tissue_profile(config, class_b)))


def _baseline_rows(count: int, values: np.ndarray, rng, config: SynthConfig) -> np.ndarray:
    mid = 0.5 * (values[0] + values[-1])
    halfspan = 0.5 * abs(values[0] - values[-1])
    t = (values - mid) / halfspan
    powers = np.vander(t, 5, increasing=True).T  # (5, n_points)
    coefs = np.empty((count, 5))
    coefs[:, 0] = rng.uniform(*config.baseline_const_range, count)
    coefs[:, 1:] = rng.uniform(*config.baseline_coef_range, (count, 4))
    return coefs @ powers


def _spectra_block(class_label: str, role: int, count: int, rng, config: SynthConfig) -> np.ndarray:
    """(count, n_points) float64 spectra for one pixel role."""
    values = config.axis.values
    sep = config.class_separation

    if role == ROLE_TISSUE:
        base = _band_profile(config.tissue_bands, class_label, sep, values)
        par = _band_profile(PARAFFIN_BANDS, class_label, 0.0, values)
        h2o = _band_profile(H2O_LINES, class_label, 0.0, values)
        par_f = rng.uniform(*config.tissue_paraffin_range, count)
        h2o_f = rng.uniform(*config.tissue_h2o_range, count)
        chem = base[None, :] + par_f[:, None] * par + h2o_f[:, None] * h2o
    elif role == ROLE_PARAFFIN:
        par = _band_profile(PARAFFIN_BANDS, class_label, 0.0, values)
        chem = np.broadcast_to(par, (count, values.size)).copy()
    elif role == ROLE_SLIDE:
        chem = np.zeros((count, values.size))
    else:  # water-vapor environment image: per-line amplitude jitter
        lines = np.stack([_band_profile((b,), class_label, 0.0, values) for b in H2O_LINES])
        factors = rng.uniform(0.7, 1.4, (count, len(H2O_LINES)))
        chem = factors @ lines

    scale = rng.uniform(*config.scale_range, count)
    out = scale[:, None] * chem + _baseline_rows(count, values, rng, config)
    if config.noise_sigma > 0.0:
        out += rng.standard_normal((count, values.size)) * config.noise_sigma
    return out


ROLE_H2O = 3


def gen_spectrum(class_label: str, role: str, rng: np.random.Generator,
                 config: SynthConfig | None = None) -> np.ndarray:
    """One float64 spectrum on config.axis; role is tissue|paraffin|slide|h2o."""
    config = config or SynthConfig()
    codes = {"tissue": ROLE_TISSUE, "paraffin": ROLE_PARAFFIN, "slide": ROLE_SLIDE, "h2o": ROLE_H2O}
    if role not in codes:
        raise DataError(f"unknown role {role!r}")
    if class_label not in CLASS_LABELS:
        raise DataError(f"unknown class label {class_label!r}")
    return _spectra_block(class_label, codes[role], 1, rng, config)[0]


def _role_map(size: int) -> np.ndarray:
    """Fixed cube geometry: tissue disc, paraffin ring, slide corners."""
    center = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.sqrt((yy - center) ** 2 + (xx - center) ** 2)
    role = np.full((size, size), ROLE_SLIDE, dtype=np.int8)
    role[r <= 0.62 * size / 2.0] = ROLE_TISSUE
    role[(r > 0.62 * size / 2.0) & (r <= 0.92 * size / 2.0)] = ROLE_PARAFFIN
    return role


def gen_cube(class_label: str, core_type: str, patient_id: int, core_id: int,
             rng: np.random.Generator, config: SynthConfig) -> tuple[HyperCube, GroundTruth]:
    """One imaged core with its ground-truth role and spike masks."""
    size = config.image_size
    n_points = config.axis.n_points
    role = _role_map(size)
    flat_role = role.ravel()

    data = np.empty((size * size, n_points), dtype=np.float32)
    # role blocks generated in fixed order (and fixed chunking) so the rng
    # stream is reproducible; chunks bound the float64 temporaries on
    # full-size 320x320 mosaics
    chunk = 4096
    for code in (ROLE_TISSUE, ROLE_PARAFFIN, ROLE_SLIDE):
        idx = np.flatnonzero(flat_role == code)
        for start in range(0, idx.size, chunk):
            part = idx[start:start + chunk]
            data[part] = _spectra_block(class_label, code, part.size, rng, config)

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

    cube = HyperCube(
        intensities=data.reshape(size, size, n_points),
        axis=config.axis,
        core_id=core_id,
        patient_id=patient_id,
        core_type=core_type,
        subtype=class_label if core_type == "CA" else "none",
    )
    return cube, GroundTruth(role=role, spike=spike.reshape(size, size))


def gen_panel(config: SynthConfig) -> Panel:
    """Full synthetic cohort: one CA and one AT cube per patient, plus H2O."""
    if config.total_patients < 1:
        raise DataError("panel needs at least one patient")
    n_cubes = 2 * config.total_patients
    seeds = np.random.SeedSequence(config.seed).spawn(n_cubes + 1)

    patients: list[PatientRecord] = []
    cubes: dict[int, HyperCube] = {}
    truth: dict[int, GroundTruth] = {}
    core_id = 0
    patient_id = 0
    for subtype, count in zip(SUBTYPES, config.n_patients):
        for _ in range(count):
            patient_id += 1
            ca_id, at_id = core_id, core_id + 1
            rng_ca = np.random.Generator(np.random.PCG64(seeds[ca_id]))
            rng_at = np.random.Generator(np.random.PCG64(seeds[at_id]))
            cubes[ca_id], truth[ca_id] = gen_cube(subtype, "CA", patient_id, ca_id, rng_ca, config)
            cubes[at_id], truth[at_id] = gen_cube("AT", "AT", patient_id, at_id, rng_at, config)
            patients.append(PatientRecord(patient_id=patient_id, subtype=subtype,
                                          ca_core_id=ca_id, at_core_id=at_id))
            core_id += 2

    rng_h2o = np.random.Generator(np.random.PCG64(seeds[n_cubes]))
    size = config.image_size
    h2o_data = _spectra_block("AT", ROLE_H2O, size * size, rng_h2o, config)
    h2o_cube = HyperCube(
        intensities=h2o_data.astype(np.float32).reshape(size, size, config.axis.n_points),
        axis=config.axis,
        core_id=-1,
        patient_id=-1,
        core_type="H2O",
        subtype="none",
    )
    return Panel(config=config, patients=patients, cubes=cubes, ground_truth=truth,
                 h2o_cube=h2o_cube)
