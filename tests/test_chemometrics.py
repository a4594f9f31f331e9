from dataclasses import replace

import numpy as np
import pytest

from carenet import chemometrics
from carenet.chemometrics import (
    H2O_MASK_BAND,
    PARAFFIN_MASK_BAND,
    emsc_build_model,
    emsc_correct_rows,
    interferent_block,
    pca_fit,
    rank_estimate,
    remove_outliers,
    scores_and_residuals,
)
from carenet.errors import DataError, NumericalError
from carenet.pipeline import _smooth_in_place
from carenet.spectral import Band, WavenumberAxis, band_slice, savgol_smooth
from tests.conftest import traced_peak

AXIS = WavenumberAxis(1800.0, 900.0, 467)


def tissue_like(values):
    return (
        np.exp(-0.5 * ((values - 1655) / 22) ** 2)
        + 0.7 * np.exp(-0.5 * ((values - 1545) / 18) ** 2)
        + 0.3 * np.exp(-0.5 * ((values - 1080) / 18) ** 2)
    )


def paraffin_like(values, a=1.0, b=0.6):
    return a * np.exp(-0.5 * ((values - 1462) / 8) ** 2) + b * np.exp(
        -0.5 * ((values - 1373) / 7) ** 2
    )


def h2o_like(values, amps):
    centers = (1700, 1652, 1559, 1508, 1420)
    out = np.zeros_like(values)
    for amp, c in zip(amps, centers):
        out += amp * np.exp(-0.5 * ((values - c) / 4.0) ** 2)
    return out


def leading(data, k):
    """pca_fit keeping its k leading components."""
    model = pca_fit(data)
    return replace(model, loadings=model.loadings[:k],
                   explained_variance=model.explained_variance[:k])


class TestPcaFit:
    def test_rank_one_explains_everything(self, rng):
        direction = rng.standard_normal(30)
        data = np.outer(rng.standard_normal(10), direction) + 5.0
        model = leading(data, 1)
        ratio = model.explained_variance / model.total_variance
        assert ratio[0] == pytest.approx(1.0, abs=1e-10)

    def test_axis_aligned_variances(self):
        # rows (+-2, 0) and (0, +-1): covariance diag(8/3, 2/3), ratios (0.8, 0.2)
        data = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = leading(data, 2)
        np.testing.assert_allclose(model.explained_variance / model.total_variance,
                                   [0.8, 0.2], atol=1e-12)
        np.testing.assert_allclose(np.abs(model.loadings[0]), [1.0, 0.0], atol=1e-12)

    def test_variance_threshold_selector(self):
        # exact ratios (0.7, 0.25, 0.05): cumulative hits 0.99 only at p=3. The
        # directions are orthonormal quadratics on one smoothing window, which
        # interferent_block's smoothing keeps as they are
        directions = np.linalg.qr(np.vander(np.arange(11.0), 3))[0].T
        data = np.array([sign * np.sqrt(share) * d
                         for share, d in zip((0.7, 0.25, 0.05), directions)
                         for sign in (1.0, -1.0)])
        block = interferent_block(data, WavenumberAxis(11.0, 1.0, 11), Band(11.0, 1.0))
        assert block.shape[0] == 1 + 3  # the mean, then the three loadings

    def test_loadings_orthonormal(self, rng):
        data = rng.standard_normal((40, 12))
        model = leading(data, 5)
        gram = model.loadings @ model.loadings.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)
        assert model.explained_variance.sum() / model.total_variance <= 1 + 1e-12

    def test_reconstruction_with_all_components(self, rng):
        data = rng.standard_normal((15, 8))
        model = leading(data, 8)
        centered = data - model.mean
        recon = (centered @ model.loadings.T) @ model.loadings
        np.testing.assert_allclose(recon, centered, atol=1e-8)

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericalError):
            pca_fit(np.ones((5, 4)))


def scores_one(model, x):
    """scores_and_residuals on one spectrum as a one-row matrix."""
    scores, t2, q = scores_and_residuals(model, np.asarray(x)[None, :])
    return scores[0], float(t2[0]), float(q[0])


class TestScoresAndResiduals:
    @pytest.fixture()
    def model(self, rng):
        data = rng.standard_normal((50, 20)) * np.linspace(3, 0.5, 20)
        return leading(data, 4), data

    def test_mean_spectrum_scores_zero(self, model):
        pca, _ = model
        scores, t2, q = scores_one(pca, pca.mean)
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)
        assert t2 == pytest.approx(0.0, abs=1e-20)
        assert q == pytest.approx(0.0, abs=1e-20)

    def test_unit_mahalanobis_step(self, model):
        pca, _ = model
        x = pca.mean + pca.loadings[0] * np.sqrt(pca.explained_variance[0])
        _, t2, q = scores_one(pca, x)
        assert t2 == pytest.approx(1.0, rel=1e-9)
        assert q == pytest.approx(0.0, abs=1e-16)

    def test_matches_direct_projection_oracle(self, model, rng):
        pca, _ = model
        x = rng.standard_normal(20)
        scores, t2, q = scores_one(pca, x)
        centered = x - pca.mean
        t_oracle = np.array([pca.loadings[i] @ centered for i in range(4)])
        t2_oracle = sum(t_oracle[i] ** 2 / pca.explained_variance[i] for i in range(4))
        recon = sum(t_oracle[i] * pca.loadings[i] for i in range(4))
        q_oracle = float(((centered - recon) ** 2).sum())
        np.testing.assert_allclose(scores, t_oracle, rtol=1e-9)
        assert t2 == pytest.approx(t2_oracle, rel=1e-9)
        assert q == pytest.approx(q_oracle, rel=1e-9)

    def test_row_order_invariance(self, rng):
        data = rng.standard_normal((30, 10))
        perm = rng.permutation(30)
        m1 = leading(data, 3)
        m2 = leading(data[perm], 3)
        x = rng.standard_normal(10)
        _, t2a, qa = scores_one(m1, x)
        _, t2b, qb = scores_one(m2, x)
        assert t2a == pytest.approx(t2b, rel=1e-9)
        assert qa == pytest.approx(qb, rel=1e-9)


class TestRemoveOutliers:
    def test_clean_gaussian_rejection_fraction(self):
        rng = np.random.default_rng(2024)
        data = rng.standard_normal((500, 40))
        report = remove_outliers(data)[1]
        kept = data[report.kept]
        frac = 1.0 - report.kept.mean()
        assert 0.05 <= frac <= 0.12
        assert kept.shape[0] == report.kept.sum()

    def test_gross_spike_rejected(self, rng):
        data = rng.standard_normal((200, 50))
        data[17, 31] += 100.0
        _, report = remove_outliers(data)
        assert not report.kept[17]

    def test_components_stop_at_the_numerical_rank(self, rng):
        assert remove_outliers(low_rank(rng, 120, 40, 3, 0.0))[0].n_components == 3
        model = remove_outliers(rng.standard_normal((120, 40)))[0]
        assert model.n_components == chemometrics.OUTLIER_PCS

    def test_identical_rows_degenerate(self):
        with pytest.raises(NumericalError):
            remove_outliers(np.ones((50, 20)))

    def test_threshold_idempotence(self, rng):
        data = rng.standard_normal((300, 30))
        report = remove_outliers(data)[1]
        kept = data[report.kept]
        _, t2, q = scores_and_residuals(
            leading(data, report.n_components), kept
        )
        # re-checking the kept rows against the same thresholds rejects nothing
        assert np.all(t2 <= report.t2_threshold)
        assert np.all(q <= report.q_threshold)

    def test_deterministic(self, rng):
        data = rng.standard_normal((100, 20))
        _, r1 = remove_outliers(data)
        _, r2 = remove_outliers(data)
        np.testing.assert_array_equal(r1.kept, r2.kept)

    def test_statistics_bitwise_equal_to_fit_then_score(self, rng, monkeypatch):
        # one shared centring gives the values of a separate fit and scoring
        monkeypatch.setattr(chemometrics, "OUTLIER_PCS", 6)
        data = rng.standard_normal((2500, 60)).cumsum(axis=1)  # > one residual block
        model, report = remove_outliers(data)
        fitted = leading(data, 6)
        for name in ("mean", "loadings", "explained_variance"):
            assert getattr(model, name).tobytes() == getattr(fitted, name).tobytes(), name
        _, t2, q = scores_and_residuals(fitted, data)
        assert report.t2.tobytes() == t2.tobytes()
        assert report.q.tobytes() == q.tobytes()

    def test_holds_no_centred_copy_and_no_kept_copy(self, rng):
        data = rng.standard_normal((6000, 200))
        _, peak = traced_peak(remove_outliers, data)
        # centred row blocks, the Gram matrix and the statistics, no (n, p) copy
        assert peak < 0.6 * data.nbytes, peak / data.nbytes


def test_residual_is_formed_a_block_at_a_time(rng):
    data = rng.standard_normal((6000, 200))
    model = leading(data, 10)
    _, peak = traced_peak(scores_and_residuals, model, data)
    assert peak < 0.6 * data.nbytes, peak / data.nbytes  # no centred rows, no (n, p) product


def test_gram_is_summed_a_block_at_a_time(rng):
    data = rng.standard_normal((6000, 200))
    _, peak = traced_peak(pca_fit, data)
    assert peak < 0.6 * data.nbytes, peak / data.nbytes  # no centred copy of the rows


def h2o_block(spectra):
    return interferent_block(spectra, AXIS, H2O_MASK_BAND)


def float32_spectra(rng, n, p):
    """n random-walk rows of p points, stored in float32."""
    return (1.0 + 0.05 * rng.standard_normal((n, p)).cumsum(axis=1)).astype(np.float32)


def band_mask(band):
    mask = np.zeros(AXIS.n_points)
    mask[band_slice(AXIS, band)] = 1.0
    return mask


class TestFloat32Rows:
    """float32 rows give bitwise the results of their float64 upcast."""

    # more rows than columns, over three row blocks; fewer (the snapshot path)
    @pytest.mark.parametrize("n", [2500, 40], ids=["gram_blocks", "snapshot"])
    def test_pca_fit(self, rng, n):
        rows = float32_spectra(rng, n, 60)
        got, want = pca_fit(rows), pca_fit(rows.astype(np.float64))
        for name in ("mean", "loadings", "explained_variance"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_remove_outliers(self, rng):
        rows = float32_spectra(rng, 2500, 60)
        got, want = remove_outliers(rows)[1], remove_outliers(rows.astype(np.float64))[1]
        for name in ("t2", "q", "kept"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    # more rows than columns, with and without gross outliers; fewer (the snapshot path)
    @pytest.mark.parametrize("n, spikes", [(2500, False), (2500, True), (300, False)],
                             ids=["gram_blocks", "gram_spikes", "snapshot"])
    def test_interferent_block_is_the_chain_before_it(self, rng, n, spikes):
        # the float64 oracle is the chain the block stands for: an outlier
        # pass, the kept rows smoothed in place, then a PCA of them
        rows = float32_spectra(rng, n, AXIS.n_points)
        if spikes:
            # rejected rows whose scatter dwarfs the kept rows' in the Gram
            # it is subtracted from
            rows[::25] *= 100
        kept = remove_outliers(rows.astype(np.float64))[1].kept
        if spikes:
            assert not kept[::25].any()
        oracle = rows[kept].astype(np.float64)
        _smooth_in_place(oracle)
        model = pca_fit(oracle)
        ratios = np.cumsum(model.explained_variance) / model.total_variance
        k = int(np.searchsorted(ratios, 0.99 - 1e-12) + 1)
        want = np.vstack([model.mean, model.loadings[:k]]) * band_mask(H2O_MASK_BAND)

        got = h2o_block(rows)
        assert got.tobytes() == h2o_block(rows.astype(np.float64)).tobytes()
        assert got.shape == want.shape  # the same k
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
        signs = np.sign((got[1:] * want[1:]).sum(axis=1))[:, None]
        assert np.abs(signs * got[1:] - want[1:]).max() <= 1e-10
        if n < AXIS.n_points:  # the snapshot path still gathers, smooths and fits
            assert got.tobytes() == want.tobytes()

    def test_identical_rows_give_their_smoothed_mean(self):
        rows = np.tile(tissue_like(AXIS.values).astype(np.float32), (40, 1))
        want = savgol_smooth(rows.astype(np.float64)).mean(axis=0) * band_mask(H2O_MASK_BAND)
        assert h2o_block(rows).tobytes() == want[None, :].tobytes()
        assert h2o_block(rows.astype(np.float64)).tobytes() == want[None, :].tobytes()


@pytest.mark.parametrize("n", [600, 2500, 5000])
def test_interferent_pca_smooths_no_row_and_reads_only_rejected_ones(rng, monkeypatch, n):
    # n >= p rows: the PCA comes from the outlier fit's Gram, so smoothing
    # runs on the mean and twice on a p x p matrix whatever n is, and once
    # the pass is done, the rows it kept are never read again
    rows = float32_spectra(rng, n, AXIS.n_points)
    want = h2o_block(rows.copy())
    smoothed = []

    def counting_smooth(y):
        smoothed.append(np.shape(y))
        return savgol_smooth(y)

    def poisoning_pass(data):
        model, report = remove_outliers(data)
        data[report.kept] = np.nan  # a kept row read from here on poisons the block
        return model, report

    monkeypatch.setattr(chemometrics, "savgol_smooth", counting_smooth)
    monkeypatch.setattr(chemometrics, "remove_outliers", poisoning_pass)
    got = h2o_block(rows)
    assert np.isnan(rows).any()  # the pass did poison the caller's rows
    assert got.tobytes() == want.tobytes()
    p = AXIS.n_points
    assert sorted(smoothed) == [(1, p), (p, p), (p, p)]


def test_float32_paraffin_rows_get_no_float64_copy(rng):
    # as many paraffin rows as a large core has: the block reads them in row
    # blocks, and no float64 or kept copy of them is made
    paraffin = float32_spectra(rng, 12288, AXIS.n_points)
    h2o = float32_spectra(rng, 50, AXIS.n_points)
    _, peak = traced_peak(emsc_build_model, tissue_like(AXIS.values), paraffin,
                          h2o_block(h2o), AXIS)
    float64_copy = paraffin.size * 8
    assert peak < 0.5 * float64_copy, peak / float64_copy


class TestEmscModel:
    def values(self):
        return AXIS.values

    def build(self, rng, n_par=12, n_h2o=12):
        """Well-posed EMSC fixture.

        The interferent sets vary strongly along a few directions and barely
        along the rest, so the 99% PCA truncates; the masked means then keep
        mass outside the kept loadings and every design column is genuinely
        independent (coefficient recovery would be non-unique otherwise).
        """
        values = self.values()
        m = tissue_like(values)
        paraffin = np.stack([
            paraffin_like(values, 1.0 + 0.2 * rng.standard_normal(),
                          0.6 + 1e-3 * rng.standard_normal())
            for _ in range(n_par)
        ])
        base_amps = np.array([0.06, 0.08, 0.07, 0.05, 0.05])
        jitter_scale = np.array([0.02, 0.015, 1e-4, 1e-4, 1e-4])
        h2o = np.stack([
            h2o_like(values, base_amps + jitter_scale * rng.standard_normal(5))
            for _ in range(n_h2o)
        ])
        return emsc_build_model(m, paraffin, h2o_block(h2o), AXIS), m, paraffin, h2o

    def test_column_count(self, rng):
        model, _, _, _ = self.build(rng)
        expected = 1 + 5 + (1 + model.n_paraffin_pcs) + (1 + model.n_h2o_pcs)
        assert model.n_columns == expected
        np.testing.assert_array_equal(model.design[:, 0], model.reference)

    def test_single_paraffin_spectrum_gives_mean_only(self, rng):
        values = self.values()
        model = emsc_build_model(
            tissue_like(values),
            paraffin_like(values)[None, :],
            h2o_block(np.stack([h2o_like(values, 0.05 + 0.01 * rng.random(5))
                                for _ in range(5)])),
            AXIS,
        )
        assert model.n_paraffin_pcs == 0

    def test_rank_two_with_small_second_share_gives_one_pc(self):
        values = self.values()
        base = paraffin_like(values)
        tiny = np.exp(-0.5 * ((values - 1400) / 5.0) ** 2)
        # variation: dominant direction 'base' plus a <1%-variance direction
        rows = [base * (1 + s) + tiny * 0.001 * t
                for s, t in [(-0.3, 1), (-0.1, -1), (0.1, 1), (0.3, -1)]]
        h2o = np.stack([h2o_like(values, [0.05] * 5), h2o_like(values, [0.06] * 5)])
        model = emsc_build_model(tissue_like(values), np.stack(rows), h2o_block(h2o), AXIS)
        assert model.n_paraffin_pcs == 1

    def test_paraffin_basis_zero_outside_mask(self, rng):
        model, _, _, _ = self.build(rng)
        sel = band_slice(AXIS, PARAFFIN_MASK_BAND)
        outside = np.ones(AXIS.n_points, dtype=bool)
        outside[sel] = False
        par_block = model.design[:, model.paraffin_cols]
        assert np.all(par_block[outside] == 0.0)
        h2o_block = model.design[:, model.h2o_cols]
        sel_h2o = band_slice(AXIS, H2O_MASK_BAND)
        outside_h2o = np.ones(AXIS.n_points, dtype=bool)
        outside_h2o[sel_h2o] = False
        assert np.all(h2o_block[outside_h2o] == 0.0)

    def test_axis_mismatch_rejected(self, rng):
        values = self.values()
        with pytest.raises(DataError):
            emsc_build_model(tissue_like(values)[:100], np.ones((3, 467)),
                             h2o_block(np.ones((3, 467))), AXIS)

    def test_empty_interferents_rejected(self, rng):
        values = self.values()
        with pytest.raises(DataError):
            emsc_build_model(tissue_like(values), np.empty((0, 467)),
                             h2o_block(np.ones((3, 467))), AXIS)


def emsc_one(x, model):
    """emsc_correct_rows on one spectrum as a one-row matrix."""
    corrected, coefs, usable = emsc_correct_rows(np.asarray(x)[None, :], model)
    return corrected[0], coefs[0], bool(usable[0])


class TestEmscCorrect:
    def test_pure_reference_recovers_identity(self, rng):
        model, m, _, _ = TestEmscModel().build(rng)
        corrected, coefs, usable = emsc_one(m, model)
        assert usable
        assert coefs[0] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(coefs[1:], 0.0, atol=1e-9)
        np.testing.assert_allclose(corrected, m, atol=1e-9)

    def test_scaled_reference_recovers_reference(self, rng):
        model, m, _, _ = TestEmscModel().build(rng)
        for alpha in (0.5, 1.0, 2.0):
            corrected, coefs, _ = emsc_one(alpha * m, model)
            assert coefs[0] == pytest.approx(alpha, rel=1e-12)
            np.testing.assert_allclose(corrected, m, atol=1e-9)

    def test_forward_mixture_recovered(self, rng):
        model, m, _, _ = TestEmscModel().build(rng)
        values = AXIS.values
        mid = 0.5 * (values[0] + values[-1])
        t = (values - mid) / (0.5 * (values[0] - values[-1]))
        masked_par_mean = model.design[:, model.paraffin_cols][:, 0]
        x = 2.0 * m + 0.3 * masked_par_mean + (0.05 + 0.02 * t)
        corrected, coefs, _ = emsc_one(x, model)
        assert coefs[0] == pytest.approx(2.0, abs=1e-6)
        assert coefs[model.paraffin_cols][0] == pytest.approx(0.3, abs=1e-6)
        assert coefs[model.baseline_cols][0] == pytest.approx(0.05, abs=1e-6)
        assert coefs[model.baseline_cols][1] == pytest.approx(0.02, abs=1e-6)
        np.testing.assert_allclose(corrected, m, atol=1e-6)

    def test_interferent_only_spectrum_flagged(self, rng):
        model, _, _, _ = TestEmscModel().build(rng)
        x = model.design[:, model.paraffin_cols][:, 0] * 0.8
        x = x + model.design[:, model.h2o_cols][:, 0] * 0.2
        corrected, _, usable = emsc_correct_rows(x[None, :], model)
        np.testing.assert_array_equal(usable, [False])
        np.testing.assert_array_equal(corrected, 0.0)

    def test_rows_flags_match_scalar(self, rng):
        model, m, _, _ = TestEmscModel().build(rng)
        bad = model.design[:, model.paraffin_cols][:, 0]
        rows = np.stack([m, bad, 1.5 * m])
        corrected, coefs, usable = emsc_correct_rows(rows, model)
        np.testing.assert_array_equal(usable, [True, False, True])
        np.testing.assert_allclose(corrected[0], m, atol=1e-9)
        np.testing.assert_allclose(corrected[2], m, atol=1e-9)
        assert coefs[2, 0] == pytest.approx(1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# float64 SVD / lstsq oracles for the Gram-eigh PCA and the EMSC projector


def svd_pca(data):
    """Reference PCA: variances and loadings from an SVD of the centred rows."""
    centered = data - data.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    return svals ** 2 / (data.shape[0] - 1), vt


def svd_keep_mask(data, n_pcs=10, confidence=0.95):
    """Reference T2/Q keep mask: SVD rank at a 1e-10 ratio, SVD loadings."""
    variances, vt = svd_pca(data)
    svals = np.sqrt(variances)
    k = min(n_pcs, int((svals > svals[0] * 1e-10).sum()))
    centered = data - data.mean(axis=0)
    scores = centered @ vt[:k].T
    t2 = (scores ** 2 / variances[:k]).sum(axis=1)
    q = ((centered - scores @ vt[:k]) ** 2).sum(axis=1)
    return (t2 <= np.quantile(t2, confidence)) & (q <= np.quantile(q, confidence))


def low_rank(rng, n, p, rank, noise):
    data = (rng.standard_normal((n, rank)) * [5.0, 2.0, 1.0][:rank]) @ \
        np.linalg.qr(rng.standard_normal((p, rank)))[0].T
    return data + 3.0 + noise * rng.standard_normal((n, p))


class TestGramPcaOracle:
    # (n, p) both ways round: p x p Gram for n >= p, n x n Gram for n < p
    @pytest.mark.parametrize("shape", [(120, 40), (30, 90)], ids=["tall", "wide"])
    @pytest.mark.parametrize("case", ["full_rank", "rank3", "rank3_noise"])
    def test_matches_svd(self, rng, case, shape):
        n, p = shape
        if case == "full_rank":
            data, k = rng.standard_normal((n, p)) * np.geomspace(8.0, 0.5, p), 5
        else:
            data, k = low_rank(rng, n, p, 3, 1e-9 if case == "rank3_noise" else 0.0), 3
        model = leading(data, k)
        variances, vt = svd_pca(data)
        lam0 = variances[0]
        assert np.abs(model.explained_variance - variances[:k]).max() <= 1e-12 * lam0
        assert model.total_variance == pytest.approx(variances.sum(), rel=1e-12)
        np.testing.assert_allclose(np.abs(model.loadings), np.abs(vt[:k]), atol=1e-8)
        np.testing.assert_allclose(model.loadings.T @ model.loadings, vt[:k].T @ vt[:k],
                                   atol=1e-8)

    def test_rank_reads_the_gram_spectrum(self, rng):
        assert rank_estimate(rng.standard_normal((50, 12))) == 12
        assert rank_estimate(rng.standard_normal((12, 50))) == 11  # centring removes one
        assert rank_estimate(low_rank(rng, 120, 40, 3, 0.0)) == 3
        # 1e-9 noise sits below what a Gram eigenvalue resolves (an SVD's
        # 1e-10 singular-value ratio would count it as full rank)
        assert rank_estimate(low_rank(rng, 120, 40, 3, 1e-9)) == 3
        assert rank_estimate(low_rank(rng, 30, 90, 3, 1e-9)) == 3
        assert rank_estimate(np.ones((5, 4))) == 0

    @pytest.mark.parametrize("shape", [(300, 40), (100, 160)], ids=["tall", "wide"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_keep_mask_matches_svd_path(self, seed, shape):
        n, p = shape
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, p)) * np.geomspace(4.0, 0.2, p)
        data[rng.choice(n, 5, replace=False), rng.integers(0, p)] += 20.0
        _, report = remove_outliers(data)
        np.testing.assert_array_equal(report.kept, svd_keep_mask(data))

    def test_overflowing_gram_is_numerical_error_or_matches_svd(self, rng, monkeypatch):
        # float32 cubes cannot get here; a 1e200-scaled float64 matrix squares past
        # float64 in the Gram, where eigh would raise a raw LinAlgError
        data = rng.standard_normal((60, 8)) * 1e200
        try:
            model = leading(data, 3)
        except NumericalError:
            pass
        else:
            np.testing.assert_allclose(model.explained_variance, svd_pca(data)[0][:3],
                                       rtol=1e-10)
        monkeypatch.setattr(chemometrics, "OUTLIER_PCS", 3)
        try:
            _, report = remove_outliers(data)
        except NumericalError:
            pass
        else:
            np.testing.assert_array_equal(report.kept, svd_keep_mask(data, n_pcs=3))


class TestEmscProjectorOracle:
    # a column duplicated exactly, or to 1e-14: a singular value between pinv's
    # default cutoff (1e-15) and lstsq's (eps * max(shape) ~ 1e-13), relative
    @pytest.mark.parametrize("duplicate", [None, 0.0, 1e-14], ids=["full", "exact", "near"])
    def test_matches_per_row_lstsq(self, rng, duplicate):
        _, m, paraffin, h2o = TestEmscModel().build(rng)
        block = h2o_block(h2o)
        if duplicate is not None:  # rank-deficient: both sides give the minimum-norm fit
            block = np.vstack([block, block[:1] + duplicate * rng.standard_normal(AXIS.n_points)])
        model = emsc_build_model(m, paraffin, block, AXIS)
        deficient = duplicate is not None
        assert np.linalg.matrix_rank(model.design) == model.n_columns - deficient
        rows = (rng.uniform(0.5, 2.0, (20, 1)) * m
                + rng.uniform(-0.05, 0.05, (20, model.n_columns)) @ model.design.T
                + 1e-3 * rng.standard_normal((20, AXIS.n_points)))
        corrected, coefs, usable = emsc_correct_rows(rows, model)
        assert usable.all()
        for i, x in enumerate(rows):
            oracle = np.linalg.lstsq(model.design, x, rcond=None)[0]
            np.testing.assert_allclose(coefs[i], oracle, atol=1e-10)
            fit = model.design[:, 1:] @ oracle[1:]
            np.testing.assert_allclose(corrected[i], (x - fit) / oracle[0], atol=1e-10)
