import numpy as np
import pytest

from carenet import gradcam, model as model_module
from carenet.errors import DataError
from carenet.gradcam import (
    Heatmap1D,
    class_average,
    gradcam_spectrum,
    top_bands,
    write_heatmap_csv,
    write_heatmap_svg,
)
from carenet.model import FORWARD_CHUNK, INPUT_LENGTH, CarenetModel
from carenet.spectral import WavenumberAxis, minmax_normalize_rows
from tests.conftest import traced_peak

AXIS = WavenumberAxis(1800.0, 900.0, 467)
FEATURE_LENGTH = 30  # the trunk's output length, which the cams keep


def live_head(model, rng):
    """A non-zero dense head, so the pooled gradients (and the maps) are non-zero.

    CarenetModel zero-initializes the head, which makes every map 0. A random
    head still gives an all-zero (rectified) map for a class whose weights
    oppose the pooled features; the generator of seed 9 gives every class of
    both heads a positive map on the `spectra` fixture.
    """
    model.dense.w.value = rng.standard_normal(model.dense.w.value.shape).astype(np.float32)
    return model


@pytest.fixture(scope="module")
def type_model():
    return live_head(CarenetModel("type", seed=5), np.random.default_rng(9))


@pytest.fixture(scope="module")
def subtype_model():
    return live_head(CarenetModel("subtype", seed=5), np.random.default_rng(9))


@pytest.fixture(scope="module")
def spectra():
    rng = np.random.default_rng(8)
    return rng.random((6, INPUT_LENGTH)).astype(np.float32)


class TestGradcamSpectrum:
    def test_nonnegative_and_feature_length(self, type_model, spectra):
        maps = gradcam_spectrum(type_model, spectra)
        assert maps.shape == (6, FEATURE_LENGTH)
        assert np.all(maps >= 0.0)
        assert maps.max() > 0.0

    def test_subtype_all_classes(self, subtype_model, spectra):
        for cls in range(4):
            maps = gradcam_spectrum(subtype_model, spectra, target_class=cls)
            assert maps.shape == (6, FEATURE_LENGTH)
            assert np.all(maps >= 0.0)
            assert maps.max() > 0.0

    def test_type_head_only_exposes_ca(self, type_model, spectra):
        with pytest.raises(DataError):
            gradcam_spectrum(type_model, spectra, target_class=0)

    def test_class_out_of_range(self, subtype_model, spectra):
        with pytest.raises(DataError):
            gradcam_spectrum(subtype_model, spectra, target_class=7)

    @pytest.mark.parametrize("head,target", [("type", 1), ("subtype", 2)])
    def test_chunked_maps_equal_one_shot(self, head, target, monkeypatch):
        rng = np.random.default_rng(9)
        model = live_head(CarenetModel(head, seed=5), rng)
        x = rng.random((FORWARD_CHUNK + 5, INPUT_LENGTH)).astype(np.float32)
        chunked = gradcam_spectrum(model, x, target_class=target)
        monkeypatch.setattr(model_module, "FORWARD_CHUNK", x.shape[0])
        one_shot = gradcam_spectrum(model, x, target_class=target)
        assert chunked.max() > 0.0
        np.testing.assert_array_equal(chunked, one_shot)

    def test_no_spectra_rejected(self, type_model):
        with pytest.raises(DataError):
            gradcam_spectrum(type_model, np.empty((0, INPUT_LENGTH), np.float32))

    def test_cams_match_hand_computation(self, type_model, spectra):
        # recompute the 30-point cam from the trunk features and the head's gradient
        feats = type_model.trunk_forward(spectra)
        logits, _ = type_model.head_forward(feats)
        dscore = np.ones_like(logits)
        dfeats = type_model.head_backward_to_features(dscore)
        cam = np.einsum("bc,bcl->bl", dfeats.mean(axis=2), feats)
        cam = np.maximum(cam, 0.0)
        maps = gradcam_spectrum(type_model, spectra)
        assert maps.max() > 0.0 and maps.dtype == np.float64
        np.testing.assert_allclose(maps, cam, rtol=1e-6, atol=1e-6 * cam.max())

    def test_memory_grows_by_the_cams_alone(self, type_model):
        # the spectra exist before tracing starts, as the CLI's container does;
        # per-row 467-point float64 maps would add 3.7 KB a row, 3.6 MB in all
        x = np.random.default_rng(2).random((1024, INPUT_LENGTH)).astype(np.float32)

        def attribute(rows):
            return class_average({"CA": gradcam_spectrum(type_model, x[:rows])})

        attribute(64)  # warm-up: grows this thread's scratch
        _, small = traced_peak(attribute, 64)
        _, large = traced_peak(attribute, 1024)
        # only the cams may grow: float32 chunks, their concatenation and its
        # float64 copy, 16 bytes a feature, 0.46 MB over 960 rows (0.14-0.17
        # MB measured)
        assert large - small <= 960 * 16 * FEATURE_LENGTH, (small, large)


class TestClassAverage:
    def test_equals_mean_of_per_row_maps(self, rng):
        cams = rng.random((11, FEATURE_LENGTH))
        positions = np.linspace(0.0, FEATURE_LENGTH - 1.0, INPUT_LENGTH)
        per_row = np.stack([np.interp(positions, np.arange(FEATURE_LENGTH), row)
                            for row in cams])
        expected, _ = minmax_normalize_rows(per_row.mean(axis=0)[None, :])
        out = class_average({"CA": cams})["CA"]
        np.testing.assert_allclose(out.values, expected[0], rtol=0.0, atol=1e-12)

    def test_full_length_maps_are_not_reinterpolated(self, rng):
        maps = rng.random((5, INPUT_LENGTH))
        expected, _ = minmax_normalize_rows(maps.mean(axis=0)[None, :])
        np.testing.assert_array_equal(class_average({"CA": maps})["CA"].values, expected[0])

    def test_interpolation_pins_endpoints(self):
        # a mean cam of 1 at the first feature, 2 at the last and 0 between:
        # only pinned endpoints map to exactly 0.5 and 1 after min-max
        cams = np.zeros((4, FEATURE_LENGTH))
        cams[:, 0] = [0.5, 1.5, 1.0, 1.0]
        cams[:, -1] = [2.0, 2.0, 1.0, 3.0]
        out = class_average({"CA": cams})["CA"]
        assert (out.values[0], out.values[-1]) == (0.5, 1.0)

    def test_identical_heatmaps_average_to_member(self, rng):
        base = rng.random(INPUT_LENGTH)
        maps = np.stack([base, base, base])
        out = class_average({"CA": maps})["CA"]
        expected = (base - base.min()) / (base.max() - base.min())
        np.testing.assert_allclose(out.values, expected, atol=1e-12)
        assert out.n_samples == 3 and not out.degenerate

    def test_constant_average_flagged_degenerate(self):
        maps = np.full((4, INPUT_LENGTH), 2.5)
        out = class_average({"LA": maps})["LA"]
        assert out.degenerate
        np.testing.assert_array_equal(out.values, 0.0)

    def test_permutation_invariant(self, rng):
        maps = rng.random((9, INPUT_LENGTH))
        a = class_average({"x": maps})["x"]
        b = class_average({"x": maps[rng.permutation(9)]})["x"]
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            class_average({"CA": np.empty((0, INPUT_LENGTH))})

    def test_output_range(self, rng):
        out = class_average({"c": rng.random((5, INPUT_LENGTH))})["c"]
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0


class TestTopBands:
    def test_all_zero_gives_empty(self, monkeypatch):
        monkeypatch.setattr(gradcam, "SVG_SHADE_THRESHOLD", 0.5)
        hm = Heatmap1D(np.zeros(INPUT_LENGTH), "CA")
        assert top_bands(hm, AXIS) == []

    def test_single_triangular_bump(self, monkeypatch):
        monkeypatch.setattr(gradcam, "SVG_SHADE_THRESHOLD", 0.5)
        values = np.zeros(INPUT_LENGTH)
        values[200:221] = np.concatenate([np.linspace(0, 1, 11), np.linspace(1, 0, 11)[1:]])
        hm = Heatmap1D(values, "CA")
        bands = top_bands(hm, AXIS)
        assert len(bands) == 1
        high, low, peak = bands[0]
        assert peak == 1.0
        axis_values = AXIS.values
        assert high == axis_values[205] and low == axis_values[215]

    def test_two_bumps_above_threshold(self):
        values = np.zeros(INPUT_LENGTH)
        values[50:61] = 0.9
        values[300:321] = 0.8
        hm = Heatmap1D(values, "CA")
        bands = top_bands(hm, AXIS)
        assert len(bands) == 2
        assert bands[0][0] > bands[1][0]  # reported high-to-low


class TestExports:
    def test_csv(self, tmp_path, rng):
        hm = class_average({"CA": rng.random((3, INPUT_LENGTH))})["CA"]
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(hm, AXIS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "wavenumber,importance"
        assert len(lines) == 1 + INPUT_LENGTH
        wn, imp = lines[1].split(",")
        assert float(wn) == pytest.approx(AXIS.values[0])
        assert 0.0 <= float(imp) <= 1.0

    def test_svg(self, tmp_path, rng):
        hm = class_average({"CA": rng.random((3, INPUT_LENGTH))})["CA"]
        path = tmp_path / "heatmap.svg"
        write_heatmap_svg(hm, AXIS, path)
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "polyline" in text
