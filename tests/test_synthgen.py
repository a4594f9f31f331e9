import numpy as np
import pytest

from carenet.errors import DataError
from carenet.spectral import BIOFINGERPRINT_BAND, Band, band_slice, integrate_band_rows
from carenet.synthgen import (
    CLASS_LABELS,
    DRAW_CHUNK,
    H2O_LINES,
    PARAFFIN_BANDS,
    ROLE_H2O,
    ROLE_PARAFFIN,
    ROLE_SLIDE,
    ROLE_TISSUE,
    ROW_BLOCK,
    BandSpec,
    SynthConfig,
    _band_profile,
    _role_map,
    gen_cube,
    gen_panel,
    gen_spectrum,
)
from tests.conftest import collect_panel


def tissue_profile(config: SynthConfig, class_label: str) -> np.ndarray:
    """Oracle: noiseless tissue band sum for one class (no baseline, scale 1)."""
    assert class_label in CLASS_LABELS
    return _band_profile(config.tissue_bands, class_label, config.class_separation,
                         config.axis.values)


def class_mean_separation(config: SynthConfig, class_a: str, class_b: str) -> float:
    """Oracle: distance between two classes' noiseless tissue profiles.

    This is what a linear discriminant can exploit at best, so it must never
    decrease when class_separation grows.
    """
    return float(np.linalg.norm(tissue_profile(config, class_a) - tissue_profile(config, class_b)))


def spectra_block_oracle(class_label: str, role: int, count: int, rng,
                         config: SynthConfig) -> np.ndarray:
    """Oracle: one draw chunk as (count, n_points) float64, built whole-block.

    The same draws in the same order as the generator, but every term is a
    full (count, n_points) temporary and the noise is one draw.
    """
    values = config.axis.values
    if role == ROLE_TISSUE:
        base = tissue_profile(config, class_label)
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
    else:
        lines = np.stack([_band_profile((b,), class_label, 0.0, values) for b in H2O_LINES])
        chem = rng.uniform(0.7, 1.4, (count, len(H2O_LINES))) @ lines
    scale = rng.uniform(*config.scale_range, count)
    mid = 0.5 * (values[0] + values[-1])
    halfspan = 0.5 * abs(values[0] - values[-1])
    powers = np.vander((values - mid) / halfspan, 5, increasing=True).T
    coefs = np.empty((count, 5))
    coefs[:, 0] = rng.uniform(*config.baseline_const_range, count)
    coefs[:, 1:] = rng.uniform(*config.baseline_coef_range, (count, 4))
    out = scale[:, None] * chem + coefs @ powers
    if config.noise_sigma > 0.0:
        out += rng.standard_normal((count, values.size)) * config.noise_sigma
    return out


def cube_oracle(class_label: str, rng, config: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (float32 (pixels, n_points) rows, spike mask) of one core."""
    size = config.image_size
    flat_role = _role_map(size).ravel()
    data = np.empty((size * size, config.axis.n_points), dtype=np.float32)
    for code in (ROLE_TISSUE, ROLE_PARAFFIN, ROLE_SLIDE):
        idx = np.flatnonzero(flat_role == code)
        for start in range(0, idx.size, 4096):
            part = idx[start:start + 4096]
            data[part] = spectra_block_oracle(class_label, code, part.size, rng, config)
    spike = np.zeros(size * size, dtype=bool)
    if config.spike_fraction > 0.0:
        sel = band_slice(config.axis, BIOFINGERPRINT_BAND)
        tissue_idx = np.flatnonzero(flat_role == ROLE_TISSUE)
        n_spike = int(round(config.spike_fraction * tissue_idx.size))
        if n_spike:
            chosen = rng.choice(tissue_idx, size=n_spike, replace=False)
            channels = rng.integers(sel.start, sel.stop, size=n_spike)
            data[chosen, channels] += config.spike_amplitude
            spike[chosen] = True
    return data, spike


def noiseless_config(**kw):
    base = dict(noise_sigma=0.0, scale_range=(1.0, 1.0),
                baseline_const_range=(0.01, 0.01), baseline_coef_range=(0.0, 0.0))
    base.update(kw)
    return SynthConfig(**base)


class TestGenSpectrum:
    def test_tissue_amide_area_dwarfs_slide(self):
        config = SynthConfig(seed=7)
        rng = np.random.default_rng(7)
        tissue = gen_spectrum("LA", "tissue", rng, config)
        slide = gen_spectrum("LA", "slide", rng, config)
        band = Band(1700, 1500)
        tissue_area, slide_area = integrate_band_rows(np.stack([tissue, slide]), config.axis, band)
        slide_area = abs(slide_area)
        assert tissue_area >= 10 * max(slide_area, 1e-9)

    def test_noiseless_equals_analytic_construction(self):
        config = noiseless_config(tissue_paraffin_range=(0.4, 0.4), tissue_h2o_range=(0.0, 0.0))
        rng = np.random.default_rng(0)
        spec = gen_spectrum("HER2", "tissue", rng, config)
        assert spec.dtype == np.float64 and spec.shape == (config.axis.n_points,)

        values = config.axis.values
        expected = tissue_profile(config, "HER2")
        expected = expected + 0.4 * _band_profile(PARAFFIN_BANDS, "HER2", 0.0, values)
        expected = expected + 0.01  # constant baseline term only
        np.testing.assert_allclose(spec, expected, atol=1e-12)

    def test_paraffin_peaks_at_expected_wavenumbers(self):
        config = noiseless_config(baseline_const_range=(0.0, 0.0))
        rng = np.random.default_rng(3)
        spec = gen_spectrum("AT", "paraffin", rng, config)
        values = config.axis.values
        top = values[int(np.argmax(spec))]
        assert abs(top - 1462.0) <= config.axis.spacing
        # second family: strongest point within 1400-1350
        window = (values <= 1400) & (values >= 1350)
        second = values[window][int(np.argmax(spec[window]))]
        assert abs(second - 1373.0) <= config.axis.spacing

    def test_unknown_role_rejected(self):
        with pytest.raises(DataError):
            gen_spectrum("AT", "mystery", np.random.default_rng(0))


class TestGenPanel:
    def test_counts(self):
        panel = collect_panel(SynthConfig(n_patients=(2, 2, 2, 2), image_size=8, seed=1))
        assert len(panel.patients) == 8
        assert len(panel.cubes) == 16
        ca = sum(1 for c in panel.cubes.values() if c.core_type == "CA")
        at = sum(1 for c in panel.cubes.values() if c.core_type == "AT")
        assert (ca, at) == (8, 8)

    def test_deterministic_per_seed(self):
        config = SynthConfig(n_patients=(1, 1, 1, 1), image_size=8, seed=42)
        a = collect_panel(config)
        b = collect_panel(config)
        for core_id in a.cubes:
            np.testing.assert_array_equal(a.cubes[core_id].intensities,
                                          b.cubes[core_id].intensities)
        np.testing.assert_array_equal(a.h2o_cube.intensities, b.h2o_cube.intensities)

    def test_masks_partition_cube(self):
        panel = collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=16, seed=5))
        truth = panel.ground_truth[0]
        roles = truth.role
        assert set(np.unique(roles)) <= {ROLE_SLIDE, ROLE_TISSUE, ROLE_PARAFFIN}
        assert (truth.tissue_mask | truth.paraffin_mask | (roles == ROLE_SLIDE)).all()
        assert not (truth.tissue_mask & truth.paraffin_mask).any()

    def test_spike_injection_marks_ground_truth(self):
        config = SynthConfig(n_patients=(1, 0, 0, 0), image_size=16, seed=5,
                             spike_fraction=0.05)
        panel = collect_panel(config)
        truth = panel.ground_truth[0]
        assert truth.spike.sum() > 0
        assert (truth.spike <= truth.tissue_mask).all()  # spikes only on tissue

    def test_any_cube_from_config_and_index(self):
        config = SynthConfig(n_patients=(1, 0, 1, 0), image_size=12, seed=6,
                             spike_fraction=0.05)
        emitted = []
        patients = gen_panel(config, lambda cube, truth: emitted.append((cube, truth)))
        assert [cube.core_id for cube, _ in emitted] == [0, 1, 2, 3, -1]
        assert [(p.patient_id, p.subtype, p.ca_core_id, p.at_core_id) for p in patients] == [
            (1, "LA", 0, 1), (2, "HER2", 2, 3)]
        # the H2O image first, then the cores in reverse order
        for index in (4, 3, 2, 1, 0):
            cube, truth = gen_cube(config, index)
            expected, expected_truth = emitted[index]
            assert np.array_equal(cube.intensities, expected.intensities), index
            assert ((cube.core_id, cube.patient_id, cube.core_type, cube.subtype)
                    == (expected.core_id, expected.patient_id, expected.core_type,
                        expected.subtype))
            if expected_truth is None:
                assert truth is None and cube.core_type == "H2O"
            else:
                assert np.array_equal(truth.role, expected_truth.role)
                assert np.array_equal(truth.spike, expected_truth.spike)
        assert [emitted[i][0].subtype for i in range(4)] == ["LA", "none", "HER2", "none"]

    @pytest.mark.parametrize("index", [-1, 5])
    def test_index_outside_the_panel_is_data_error(self, index):
        config = SynthConfig(n_patients=(1, 0, 1, 0), image_size=8)
        with pytest.raises(DataError, match="outside"):
            gen_cube(config, index)

    def test_separation_oracle_monotone(self):
        seps = [0.0, 0.5, 1.0, 2.0, 4.0]
        pairs = [("AT", "HER2"), ("LA", "LB"), ("TNBC", "HER2")]
        for a, b in pairs:
            dists = [class_mean_separation(SynthConfig(class_separation=s), a, b) for s in seps]
            assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(dists, dists[1:]))

    def test_separation_zero_collapses_classes(self):
        config = SynthConfig(class_separation=0.0)
        assert class_mean_separation(config, "AT", "TNBC") == 0.0
        assert class_mean_separation(config, "LA", "LB") == 0.0


class TestStreamOracle:
    """The row-blocked generator against the whole-block oracle, bit for bit.

    The cube is compared in float32, its stored dtype. Row blocking can move
    the last float64 bit of a BLAS product at the edge tiles of the baseline
    and H2O matrix products (so can the BLAS thread count); the cast to
    float32 absorbs that at these seeds.
    """

    @pytest.mark.parametrize("kw", [
        dict(image_size=20),
        dict(image_size=33, spike_fraction=0.05),
        dict(image_size=37, noise_sigma=0.0),
        dict(image_size=29, class_separation=2.5),
    ], ids=["plain", "spikes", "noiseless", "separation"])
    def test_every_class_matches_oracle(self, kw):
        # one patient per subtype: cores 0, 2, 4, 6 are LA, LB, HER2, TNBC, core 1 is AT
        config = SynthConfig(n_patients=(1, 1, 1, 1), seed=3, **kw)
        for index, label in ((1, "AT"), (0, "LA"), (2, "LB"), (4, "HER2"), (6, "TNBC")):
            cube, truth = gen_cube(config, index)
            seed = np.random.SeedSequence(config.seed, spawn_key=(index,))
            data, spike = cube_oracle(label, np.random.Generator(np.random.PCG64(seed)), config)
            assert cube.intensities.dtype == np.float32
            assert np.array_equal(cube.spectra_matrix(), data), label
            assert np.array_equal(truth.spike.ravel(), spike), label
            if config.spike_fraction > 0.0:
                assert spike.any()

    @pytest.mark.parametrize("size", [70, 120])
    def test_panel_matches_oracle_past_one_chunk(self, size):
        config = SynthConfig(n_patients=(0, 0, 1, 0), image_size=size, seed=9,
                             spike_fraction=0.01, class_separation=1.5)
        role_rows = np.bincount(_role_map(size).ravel())
        if size == 120:  # tissue spans two draw chunks, the second partial
            assert DRAW_CHUNK < role_rows[ROLE_TISSUE] < 2 * DRAW_CHUNK
        assert any(n % ROW_BLOCK for n in role_rows)
        assert size * size > DRAW_CHUNK and size * size % ROW_BLOCK  # H2O: one chunk
        panel = collect_panel(config)
        seeds = np.random.SeedSequence(config.seed).spawn(3)
        for core_id, label in ((0, "HER2"), (1, "AT")):
            rng = np.random.Generator(np.random.PCG64(seeds[core_id]))
            data, spike = cube_oracle(label, rng, config)
            assert np.array_equal(panel.cubes[core_id].spectra_matrix(), data)
            assert np.array_equal(panel.ground_truth[core_id].spike.ravel(), spike)
        rng = np.random.Generator(np.random.PCG64(seeds[2]))
        h2o = spectra_block_oracle("AT", ROLE_H2O, size * size, rng, config).astype(np.float32)
        assert panel.h2o_cube.intensities.dtype == np.float32
        assert np.array_equal(panel.h2o_cube.spectra_matrix(), h2o)

    def test_gen_spectrum_matches_oracle(self):
        config = SynthConfig(class_separation=1.7)
        roles = {"tissue": ROLE_TISSUE, "paraffin": ROLE_PARAFFIN,
                 "slide": ROLE_SLIDE, "h2o": ROLE_H2O}
        for i, label in enumerate(CLASS_LABELS):
            for name, code in roles.items():
                spec = gen_spectrum(label, name, np.random.default_rng(i), config)
                expected = spectra_block_oracle(label, code, 1, np.random.default_rng(i), config)
                assert spec.dtype == np.float64
                assert np.array_equal(spec, expected[0]), (label, name)


class TestBandSpec:
    def test_validation(self):
        with pytest.raises(DataError):
            BandSpec(1500.0, -1.0, 0.5)
        with pytest.raises(DataError):
            BandSpec(1500.0, 5.0, 0.5, (("XX", 2.0),))

    def test_modulation_scaling(self):
        band = BandSpec(1500.0, 5.0, 0.2, (("HER2", 3.0),))
        assert band.class_amplitude("HER2", 1.0) == pytest.approx(0.6)
        assert band.class_amplitude("HER2", 0.0) == pytest.approx(0.2)
        assert band.class_amplitude("LA", 1.0) == pytest.approx(0.2)
        assert band.class_amplitude("HER2", 0.5) == pytest.approx(0.4)
