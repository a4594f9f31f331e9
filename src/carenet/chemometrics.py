"""PCA, Hotelling T2 / Q-residual outlier rejection, and EMSC correction.

The EMSC design matrix stacks the tissue reference, a polynomial baseline
evaluated on the axis rescaled to [-1, 1], and masked interferent blocks
(per-block global mean plus PCA loadings, zeroed outside the block's band).
Correction solves one least-squares problem per spectrum against that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .spectral import Band, WavenumberAxis, band_slice

__all__ = [
    "PcaModel",
    "OutlierReport",
    "EmscModel",
    "pca_fit",
    "scores_and_residuals",
    "remove_outliers",
    "write_outlier_report",
    "emsc_build_model",
    "emsc_correct_rows",
    "PARAFFIN_MASK_BAND",
    "H2O_MASK_BAND",
]

PARAFFIN_MASK_BAND = Band(1500.0, 1350.0)
H2O_MASK_BAND = Band(1800.0, 1300.0)

_VARIANCE_TINY = 1e-12
_BASELINE_ORDER = 4
_REF_COEF_FLOOR = 1e-6


@dataclass
class PcaModel:
    """Loadings are orthonormal rows; explained_variance is per retained component."""

    mean: np.ndarray                # (p,)
    loadings: np.ndarray            # (n_components, p)
    explained_variance: np.ndarray  # (n_components,)
    total_variance: float

    @property
    def n_components(self) -> int:
        return self.loadings.shape[0]

    @property
    def explained_variance_ratio(self) -> np.ndarray:
        return self.explained_variance / self.total_variance


@dataclass
class OutlierReport:
    t2: np.ndarray
    q: np.ndarray
    kept: np.ndarray
    t2_threshold: float
    q_threshold: float
    n_components: int

    def __post_init__(self):
        rejected = ~self.kept
        flagged = (self.t2 > self.t2_threshold) | (self.q > self.q_threshold)
        if not np.array_equal(rejected, flagged):
            raise DataError("keep flags inconsistent with thresholds")


def pca_fit(data: np.ndarray, n_components: int | None = None,
            variance_threshold: float | None = None) -> PcaModel:
    """PCA via SVD of mean-centered rows.

    Exactly one selector applies: a fixed component count, or the smallest
    count whose cumulative explained-variance ratio reaches the threshold.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError("PCA needs a 2-D matrix with at least 2 rows")
    if (n_components is None) == (variance_threshold is None):
        raise DataError("choose exactly one of n_components / variance_threshold")

    mean = data.mean(axis=0)
    centered = data - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    variances = svals ** 2 / (data.shape[0] - 1)
    total = float(variances.sum())
    if total <= _VARIANCE_TINY:
        raise NumericalError("data has (numerically) zero variance; PCA is degenerate")

    if variance_threshold is not None:
        if not 0.0 < variance_threshold <= 1.0:
            raise DataError("variance threshold must be in (0, 1]")
        ratios = np.cumsum(variances) / total
        p = int(np.searchsorted(ratios, variance_threshold - 1e-12) + 1)
    else:
        p = int(n_components)
        if p < 1 or p > svals.size:
            raise DataError(
                f"cannot extract {p} components from {data.shape[0]}x{data.shape[1]} data"
            )
    return PcaModel(mean=mean, loadings=vt[:p].copy(),
                    explained_variance=variances[:p].copy(), total_variance=total)


def rank_estimate(data: np.ndarray) -> int:
    """Numerical rank of the mean-centered data (for clamping component counts)."""
    data = np.asarray(data, dtype=np.float64)
    centered = data - data.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return 0
    return int((svals > svals[0] * 1e-10).sum())


def scores_and_residuals(model: PcaModel, spectra: np.ndarray):
    """Scores, Hotelling T2, and Q residual for one spectrum or a matrix.

    Components with vanishing variance are excluded from T2
    since dividing by them would make the statistic meaningless.
    """
    x = np.asarray(spectra, dtype=np.float64)
    single = x.ndim == 1
    rows = np.atleast_2d(x)
    if rows.shape[1] != model.mean.shape[0]:
        raise DataError("spectrum length does not match PCA model")

    centered = rows - model.mean
    scores = centered @ model.loadings.T
    lam = model.explained_variance
    usable = lam >= _VARIANCE_TINY
    t2 = (scores[:, usable] ** 2 / lam[usable]).sum(axis=1)
    residual = centered - scores @ model.loadings
    q = (residual ** 2).sum(axis=1)
    if single:
        return scores[0], float(t2[0]), float(q[0])
    return scores, t2, q


def remove_outliers(data: np.ndarray, n_pcs: int = 10,
                    confidence: float = 0.95) -> tuple[np.ndarray, OutlierReport]:
    """Single-pass T2-vs-Q rejection at empirical percentile thresholds.

    Thresholds are the `confidence` quantiles of T2 and Q over the data; a
    spectrum exceeding either is rejected. Thresholds are not re-fit after
    rejection.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("expected a 2-D spectra matrix")
    if data.shape[0] <= n_pcs:
        raise DataError(f"need more than {n_pcs} rows, got {data.shape[0]}")
    rank = rank_estimate(data)
    if rank == 0:
        raise NumericalError("all spectra are identical; outlier statistics are degenerate")

    model = pca_fit(data, n_components=min(n_pcs, rank))
    _, t2, q = scores_and_residuals(model, data)
    t2_thr = float(np.quantile(t2, confidence))
    q_thr = float(np.quantile(q, confidence))
    kept = (t2 <= t2_thr) & (q <= q_thr)
    if not kept.any():
        raise NumericalError("outlier removal rejected every spectrum")
    report = OutlierReport(t2=t2, q=q, kept=kept, t2_threshold=t2_thr,
                           q_threshold=q_thr, n_components=model.n_components)
    return data[kept], report


def write_outlier_report(report: OutlierReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# t2_threshold={report.t2_threshold!r} q_threshold={report.q_threshold!r} "
                 f"n_components={report.n_components}\n")
        fh.write("spectrum_index,T2,Q,kept\n")
        for i in range(report.t2.shape[0]):
            fh.write(f"{i},{report.t2[i]!r},{report.q[i]!r},{int(report.kept[i])}\n")


# ---------------------------------------------------------------------------
# EMSC


@dataclass
class EmscModel:
    """Assembled least-squares design for spectra on a fixed axis."""

    axis: WavenumberAxis
    reference: np.ndarray       # (p,) tissue reference, first design column
    design: np.ndarray          # (p, m)
    n_paraffin_pcs: int
    n_h2o_pcs: int

    @property
    def n_columns(self) -> int:
        return self.design.shape[1]

    @property
    def baseline_cols(self) -> slice:
        return slice(1, 1 + _BASELINE_ORDER + 1)

    @property
    def paraffin_cols(self) -> slice:
        start = 1 + _BASELINE_ORDER + 1
        return slice(start, start + 1 + self.n_paraffin_pcs)

    @property
    def h2o_cols(self) -> slice:
        start = 1 + _BASELINE_ORDER + 1 + 1 + self.n_paraffin_pcs
        return slice(start, start + 1 + self.n_h2o_pcs)


def _masked_interferent_basis(spectra: np.ndarray, axis: WavenumberAxis, band: Band,
                              variance_threshold: float) -> tuple[np.ndarray, int]:
    """Global mean plus PCA loadings, all zeroed outside the band."""
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.ndim != 2 or spectra.shape[0] == 0:
        raise DataError("interferent set must be a non-empty 2-D matrix")
    if spectra.shape[1] != axis.n_points:
        raise DataError("interferent spectra do not match the model axis")

    mean = spectra.mean(axis=0)
    basis = mean[None, :].copy()
    n_pcs = 0
    if spectra.shape[0] >= 2:
        try:
            model = pca_fit(spectra, variance_threshold=variance_threshold)
        except NumericalError:
            pass  # identical spectra: the mean says everything there is to say
        else:
            basis = np.vstack([mean, model.loadings])
            n_pcs = model.n_components

    mask = np.zeros(axis.n_points, dtype=np.float64)
    mask[band_slice(axis, band)] = 1.0
    return basis * mask, n_pcs


def emsc_build_model(tissue_mean: np.ndarray, paraffin_spectra: np.ndarray,
                     h2o_spectra: np.ndarray, axis: WavenumberAxis,
                     variance_threshold: float = 0.99,
                     paraffin_band: Band = PARAFFIN_MASK_BAND,
                     h2o_band: Band = H2O_MASK_BAND) -> EmscModel:
    """Assemble the EMSC design: reference | baseline | paraffin | H2O blocks."""
    reference = np.asarray(tissue_mean, dtype=np.float64)
    if reference.shape != (axis.n_points,):
        raise DataError("tissue reference does not match the model axis")

    values = axis.values
    mid = 0.5 * (values[0] + values[-1])
    halfspan = 0.5 * (values[0] - values[-1])
    t = (values - mid) / halfspan
    baseline = np.vander(t, _BASELINE_ORDER + 1, increasing=True)  # (p, 5)

    par_basis, n_par = _masked_interferent_basis(paraffin_spectra, axis, paraffin_band,
                                                 variance_threshold)
    h2o_basis, n_h2o = _masked_interferent_basis(h2o_spectra, axis, h2o_band,
                                                 variance_threshold)

    design = np.column_stack([reference, baseline, par_basis.T, h2o_basis.T])
    if not np.all(np.isfinite(design)):
        raise NumericalError("EMSC design matrix contains non-finite values")
    return EmscModel(axis=axis, reference=reference, design=design,
                     n_paraffin_pcs=n_par, n_h2o_pcs=n_h2o)


def emsc_correct_rows(rows: np.ndarray, model: EmscModel):
    """Least-squares EMSC for a matrix of spectra.

    Returns (corrected, coefficients, usable): rows whose reference
    coefficient is numerically zero are not tissue-like; they come back
    zeroed with usable=False for the caller to discard.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.axis.n_points:
        raise DataError("spectra must be (n, axis.n_points)")
    coefs, _, _, _ = np.linalg.lstsq(model.design, rows.T, rcond=None)
    coefs = coefs.T  # (n, m)
    ref = coefs[:, 0]
    usable = np.abs(ref) >= _REF_COEF_FLOOR
    fit_without_ref = coefs[:, 1:] @ model.design[:, 1:].T
    corrected = np.zeros_like(rows)
    safe_ref = np.where(usable, ref, 1.0)
    corrected[usable] = ((rows - fit_without_ref) / safe_ref[:, None])[usable]
    return corrected, coefs, usable

