import numpy as np
import pytest

from carenet.errors import DataError
from carenet.spectral import Band, integrate_band_rows
from carenet.synthgen import (
    CLASS_LABELS,
    PARAFFIN_BANDS,
    ROLE_PARAFFIN,
    ROLE_SLIDE,
    ROLE_TISSUE,
    BandSpec,
    SynthConfig,
    _band_profile,
    gen_panel,
    gen_spectrum,
)


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
        panel = gen_panel(SynthConfig(n_patients=(2, 2, 2, 2), image_size=8, seed=1))
        assert len(panel.patients) == 8
        assert len(panel.cubes) == 16
        ca = sum(1 for c in panel.cubes.values() if c.core_type == "CA")
        at = sum(1 for c in panel.cubes.values() if c.core_type == "AT")
        assert (ca, at) == (8, 8)

    def test_deterministic_per_seed(self):
        config = SynthConfig(n_patients=(1, 1, 1, 1), image_size=8, seed=42)
        a = gen_panel(config)
        b = gen_panel(config)
        for core_id in a.cubes:
            np.testing.assert_array_equal(a.cubes[core_id].intensities,
                                          b.cubes[core_id].intensities)
        np.testing.assert_array_equal(a.h2o_cube.intensities, b.h2o_cube.intensities)

    def test_masks_partition_cube(self):
        panel = gen_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=16, seed=5))
        truth = panel.ground_truth[0]
        roles = truth.role
        assert set(np.unique(roles)) <= {ROLE_SLIDE, ROLE_TISSUE, ROLE_PARAFFIN}
        assert (truth.tissue_mask | truth.paraffin_mask | (roles == ROLE_SLIDE)).all()
        assert not (truth.tissue_mask & truth.paraffin_mask).any()

    def test_spike_injection_marks_ground_truth(self):
        config = SynthConfig(n_patients=(1, 0, 0, 0), image_size=16, seed=5,
                             spike_fraction=0.05)
        panel = gen_panel(config)
        truth = panel.ground_truth[0]
        assert truth.spike.sum() > 0
        assert (truth.spike <= truth.tissue_mask).all()  # spikes only on tissue

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
