import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carenet import spectral
from carenet.errors import DataError
from carenet.spectral import (
    BIOFINGERPRINT_BAND,
    RAW_AXIS,
    Band,
    WavenumberAxis,
    band_slice,
    integrate_band_rows,
    minmax_normalize_rows,
    savgol_smooth,
    sub_axis,
)
from tests.conftest import traced_peak


class TestBuildAxis:
    def test_biofingerprint_spacing(self):
        axis = WavenumberAxis(1800.0, 900.0, 467)
        assert axis.spacing == pytest.approx(900 / 466)
        assert axis.spacing == pytest.approx(1.93133, abs=1e-5)

    def test_two_point_axis(self):
        axis = WavenumberAxis(10.0, 0.0, 2)
        np.testing.assert_allclose(axis.values, [10.0, 0.0])
        assert axis.spacing == 10.0

    def test_non_descending_rejected(self):
        with pytest.raises(DataError):
            WavenumberAxis(900.0, 1800.0, 467)

    def test_single_point_rejected(self):
        with pytest.raises(DataError):
            WavenumberAxis(1800.0, 900.0, 1)

    def test_values_strictly_decreasing(self):
        axis = WavenumberAxis(3950.0, 900.0, 1580)
        assert np.all(np.diff(axis.values) < 0)


def cut_band(axis, y, band):
    """band_slice + sub_axis, the way the pipeline cuts a band out of a matrix."""
    sel = band_slice(axis, band)
    return sub_axis(axis, sel), y[..., sel]


def band_area(axis, y, band):
    """integrate_band_rows on one spectrum as a one-row matrix."""
    return integrate_band_rows(np.asarray(y)[None, :], axis, band)[0]


class TestTruncate:
    def test_full_range_is_identity(self):
        axis = WavenumberAxis(1800.0, 900.0, 467)
        y = np.linspace(0, 1, 467)
        out_axis, out = cut_band(axis, y, Band(1800, 900))
        assert out_axis == axis
        np.testing.assert_array_equal(out, y)

    def test_raw_axis_to_biofingerprint_gives_467_points(self):
        out_axis, out = cut_band(RAW_AXIS, np.zeros((3, RAW_AXIS.n_points)), BIOFINGERPRINT_BAND)
        assert out_axis.n_points == 467 and out.shape == (3, 467)
        assert out_axis.end_wn == 900.0
        assert abs(out_axis.start_wn - 1800.0) <= RAW_AXIS.spacing / 2

    def test_band_outside_axis_rejected(self):
        axis = WavenumberAxis(1800.0, 900.0, 467)
        with pytest.raises(DataError):
            band_slice(axis, Band(2000, 1900))

    def test_idempotent(self):
        y = np.sin(np.linspace(0, 20, RAW_AXIS.n_points)) + 2
        band = Band(1700, 1200)
        once_axis, once = cut_band(RAW_AXIS, y, band)
        twice_axis, twice = cut_band(once_axis, once, band)
        assert once_axis == twice_axis
        np.testing.assert_array_equal(once, twice)


class TestIntegrateBand:
    def test_constant_gives_width(self):
        axis = WavenumberAxis(1800.0, 900.0, 901)  # 1 cm^-1 grid, band edges on-grid
        assert band_area(axis, np.ones(901), Band(1700, 1500)) == pytest.approx(200.0, rel=1e-12)

    def test_zero_spectrum(self):
        axis = WavenumberAxis(1800.0, 900.0, 467)
        assert band_area(axis, np.zeros(467), Band(1700, 1500)) == 0.0

    def test_linear_ramp_matches_trapezoid_oracle(self):
        axis = WavenumberAxis(1800.0, 900.0, 467)
        y = np.linspace(3.0, 7.0, 467)
        band = Band(1650, 1100)
        # oracle: extended-precision pairwise trapezoid over the same slice
        sel = band_slice(axis, band)
        ylong = y[sel].astype(np.longdouble)
        expected = float(np.longdouble(axis.spacing) * (0.5 * (ylong[:-1] + ylong[1:])).sum())
        assert band_area(axis, y, band) == pytest.approx(expected, rel=1e-12)

    def test_linearity(self, rng):
        axis = WavenumberAxis(1800.0, 900.0, 467)
        x = rng.standard_normal(467)
        y = rng.standard_normal(467)
        a, b = 2.5, -1.25
        band = Band(1600, 1000)
        combined = band_area(axis, a * x + b * y, band)
        separate = a * band_area(axis, x, band) + b * band_area(axis, y, band)
        assert combined == pytest.approx(separate, rel=1e-9)

    def test_rows_matches_scalar(self, rng):
        axis = WavenumberAxis(1800.0, 900.0, 467)
        rows = rng.standard_normal((5, 467))
        band = Band(1700, 1500)
        per_row = integrate_band_rows(rows, axis, band)
        for i in range(5):
            assert per_row[i] == pytest.approx(band_area(axis, rows[i], band))


class TestSavitzkyGolay:
    def test_quadratic_reproduced_exactly(self):
        x = np.arange(100, dtype=float)
        y = (0.3 * x**2 - 2.0 * x + 5.0)[None, :]
        out = savgol_smooth(y)
        np.testing.assert_allclose(out, y, atol=1e-10)

    def test_constant_unchanged(self):
        out = savgol_smooth(np.full((1, 50), 3.25))
        np.testing.assert_allclose(out, np.full((1, 50), 3.25), atol=1e-12)

    def test_matches_per_window_least_squares_oracle(self, rng):
        y = rng.standard_normal(60)
        window, order = spectral.SAVGOL_WINDOW, spectral.SAVGOL_POLY_ORDER
        half = window // 2
        out = savgol_smooth(y[None, :])[0]

        def fit_eval(window_vals, eval_offset):
            offsets = np.arange(window) - half
            coefs = np.polynomial.polynomial.polyfit(offsets, window_vals, order)
            return np.polynomial.polynomial.polyval(eval_offset - half, coefs)

        expected = np.empty_like(y)
        for i in range(y.size):
            if i < half:
                expected[i] = fit_eval(y[:window], i)
            elif i >= y.size - half:
                expected[i] = fit_eval(y[-window:], i - (y.size - window))
            else:
                expected[i] = fit_eval(y[i - half : i + half + 1], half)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_even_window_rejected(self, monkeypatch):
        monkeypatch.setattr(spectral, "SAVGOL_WINDOW", 10)
        with pytest.raises(DataError):
            savgol_smooth(np.zeros((1, 30)))

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(DataError):
            savgol_smooth(np.zeros((1, 5)))

    def test_spectrum_wrapper(self):
        # one spectrum as a one-row matrix keeps its shape; a quadratic survives
        y = np.linspace(0, 1, 467)[None, :] ** 2
        out = savgol_smooth(y)
        assert out.shape == (1, 467)
        np.testing.assert_allclose(out, y, atol=1e-10)

    def test_one_dimensional_rejected(self):
        with pytest.raises(DataError):
            savgol_smooth(np.zeros(30))

    def test_matrix_rows_match_single(self, rng):
        rows = rng.standard_normal((4, 40))
        batch = savgol_smooth(rows)
        for i in range(4):
            np.testing.assert_allclose(batch[i], savgol_smooth(rows[i:i + 1])[0], atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 11), (3, 12), (700, 467)])
    def test_bitwise_equal_to_three_concatenated_products(self, rng, shape):
        y = rng.standard_normal(shape).cumsum(axis=1)
        window, half = 11, 5
        offsets = np.arange(window, dtype=np.float64) - half
        vand = np.vander(offsets, 3, increasing=True)
        hat = vand @ np.linalg.pinv(vand)
        expected = np.concatenate([
            y[:, :window] @ hat[:half].T,
            np.lib.stride_tricks.sliding_window_view(y, window, axis=1) @ hat[half],
            y[:, -window:] @ hat[half + 1:].T,
        ], axis=1)
        assert savgol_smooth(y).tobytes() == expected.tobytes()

    def test_output_is_the_only_row_sized_allocation(self, rng):
        y = rng.standard_normal((3000, 467))
        out, peak = traced_peak(savgol_smooth, y)
        assert out.shape == y.shape
        assert peak < 1.2 * y.nbytes, peak / y.nbytes

    @settings(max_examples=30, deadline=None)
    @given(
        coefs=st.tuples(
            st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
        ),
        n=st.integers(11, 80),
    )
    def test_degree_two_polynomials_fixed(self, coefs, n):
        a, b, c = coefs
        x = np.linspace(-1, 1, n)
        y = (a + b * x + c * x**2)[None, :]
        np.testing.assert_allclose(savgol_smooth(y), y, atol=1e-10)


class TestMinmaxNormalize:
    def test_simple(self):
        normalized, keep = minmax_normalize_rows(np.array([[2.0, 4.0, 6.0]]))
        assert keep[0]
        np.testing.assert_allclose(normalized[0], [0.0, 0.5, 1.0])

    def test_idempotent(self, rng):
        once, _ = minmax_normalize_rows(rng.uniform(-3, 9, (1, 100)))
        twice, _ = minmax_normalize_rows(once)
        np.testing.assert_array_equal(once, twice)
        assert once.min() == 0.0
        assert once.max() == 1.0

    def test_rows_flags_degenerate(self):
        rows = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        normalized, keep = minmax_normalize_rows(rows)
        np.testing.assert_array_equal(keep, [True, False])
        np.testing.assert_allclose(normalized[0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(normalized[1], 0.0)
