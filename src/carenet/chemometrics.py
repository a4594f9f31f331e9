"""PCA, Hotelling T2 / Q-residual outlier rejection, and EMSC correction.

PCA factors the Gram matrix of the centred rows (p x p, or n x n for fewer
rows than columns) with one symmetric eigendecomposition; the n x p left
singular factor is never formed. Rows may be float32 or float64: the mean,
the p x p Gram, and scores, T2 and Q are all formed a ROW_BLOCK-row block
at a time, each block upcast and centred into one reused float64 buffer, so
no (n, p) float64 or centred copy of the rows is held. float32 -> float64
is exact and the sums run in the order of the whole-matrix expressions, so
float32 rows give bitwise the results of their float64 upcast. Only the
snapshot path for fewer rows than columns centres the whole matrix, a copy
smaller than the p x p Gram it replaces.

An interferent block (the water-vapour image, a core's paraffin pixels)
gets the chain's treatment of tissue before its PCA: one outlier pass, then
Savitzky-Golay smoothing. Smoothing is linear, so the PCA of the kept,
smoothed rows comes from the outlier fit's own p x p Gram matrix: the
rejected rows' scatter is taken out, the result is re-centred on the kept
mean and smoothed on both sides. The image is read once for the fit's mean,
once for its Gram and once for its T2/Q scores, then only its rejected rows;
no kept or smoothed copy of it exists.

The EMSC design matrix stacks the tissue reference, a polynomial baseline
evaluated on the axis rescaled to [-1, 1], and masked interferent blocks
(per-block global mean plus PCA loadings, zeroed outside the block's band).
Its pseudo-inverse is computed once per model, so correcting a matrix of
spectra is one projection onto the design rather than a least-squares
solve per spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericalError
from .spectral import Band, WavenumberAxis, band_slice, savgol_smooth

__all__ = [
    "PcaModel",
    "OutlierReport",
    "EmscModel",
    "pca_fit",
    "scores_and_residuals",
    "remove_outliers",
    "outlier_pass",
    "row_mean",
    "interferent_block",
    "emsc_build_model",
    "emsc_correct_rows",
    "PARAFFIN_MASK_BAND",
    "H2O_MASK_BAND",
    "ROW_BLOCK",
]

PARAFFIN_MASK_BAND = Band(1500.0, 1350.0)
H2O_MASK_BAND = Band(1800.0, 1300.0)

_VARIANCE_TINY = 1e-12
_BASELINE_ORDER = 4
_REF_COEF_FLOOR = 1e-6
_INTERFERENT_VARIANCE = 0.99  # explained-variance share kept per interferent block
OUTLIER_PCS = 10  # components of the T2/Q outlier model
OUTLIER_CONFIDENCE = 0.95  # quantile of T2 and of Q above which a spectrum is rejected
# rows read, upcast, smoothed, centred or moved at a time, here and by the
# pipeline's in-place steps. A 9216 x 467 Gram takes as long at 1024-4096-row
# blocks as in one product, and longer at 256 (one BLAS thread).
ROW_BLOCK = 1024


@dataclass
class PcaModel:
    """Loadings are orthonormal rows; explained_variance is per retained component."""

    mean: np.ndarray                # (p,)
    loadings: np.ndarray            # (n_components, p)
    explained_variance: np.ndarray  # (n_components,)
    total_variance: float
    # (p, p) Gram matrix of the rows centred on mean, as fitted; None when
    # the fit had fewer rows than columns and formed the n x n one instead
    gram: np.ndarray | None = None

    @property
    def n_components(self) -> int:
        return self.loadings.shape[0]


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


def _float_rows(data) -> np.ndarray:
    """data as an array, float32 left as it is and anything else as float64."""
    data = np.asarray(data)
    return data if data.dtype == np.float32 else data.astype(np.float64, copy=False)


def _read_blocks(data: np.ndarray, index: np.ndarray | None = None, spare: int = 0):
    """(rows slice, block) per ROW_BLOCK rows of data, or of data[index].

    Each slice of the rows is upcast to float64 into block[spare:]; the first
    `spare` rows of block are the caller's. Every block is a view of the same
    buffer, so it is valid only until the next one is drawn.
    """
    n = data.shape[0] if index is None else index.size
    buf = np.empty((spare + min(n, ROW_BLOCK), data.shape[1]))
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        block = buf[:spare + rows.stop - start]
        block[spare:] = data[rows] if index is None else data[index[rows]]
        yield rows, block


def _row_blocks(data: np.ndarray, mean: np.ndarray, index: np.ndarray | None = None):
    """(rows slice, rows - mean) per ROW_BLOCK rows, as `_read_blocks` draws them."""
    for rows, block in _read_blocks(data, index):
        block -= mean
        yield rows, block


def row_mean(data: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Mean of the rows of data, or of data[index], in float64.

    The rows are read a ROW_BLOCK at a time, and the running total is
    reduced together with each block, as its first row, so the rows are
    added in the order of numpy's axis-0 sum over the whole matrix: the mean
    is bitwise `data[index].astype(np.float64).mean(axis=0)`, with no
    gathered copy. A sum of per-block sums is not.
    """
    total = None
    for _, block in _read_blocks(data, index, spare=1):
        if total is None:
            total = np.add.reduce(block[1:], axis=0)
        else:
            block[0] = total
            total = np.add.reduce(block, axis=0)
    return total / (data.shape[0] if index is None else index.size)


def _eigen(gram: np.ndarray, n: int):
    """(variances, eigenvectors as columns) of the centred Gram matrix of n
    rows, sorted descending, with roundoff below zero clipped."""
    if not np.all(np.isfinite(gram)):
        raise NumericalError("PCA Gram matrix overflows float64")
    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"PCA eigendecomposition failed: {exc}") from exc
    return np.maximum(eigvals[::-1], 0.0) / (n - 1), eigvecs[:, ::-1]


def _variance_spectrum(data: np.ndarray, mean: np.ndarray):
    """(variances, loadings, Gram) of all min(n, p) principal components of
    the rows of data centred on mean, C = data - mean.

    One eigendecomposition of the smaller Gram matrix of C: C'C (p x p) for
    n >= p, summed a row block at a time and returned; for fewer rows than
    columns C C' (n x n), whose eigenvectors u give the loadings as the
    normalised C'u (the snapshot method), and no Gram is returned.
    """
    n, p = data.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if n < p:
            centered = data - mean
            gram = centered @ centered.T
        else:
            gram = np.zeros((p, p))
            for _, block in _row_blocks(data, mean):
                gram += block.T @ block
    variances, eigvecs = _eigen(gram, n)
    if n >= p:
        return variances, eigvecs.T, gram
    eigvecs = centered.T @ eigvecs
    norms = np.linalg.norm(eigvecs, axis=0)
    eigvecs /= np.where(norms > 0.0, norms, 1.0)
    return variances, eigvecs.T, None


def _numerical_rank(variances: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of variances above the roundoff level of a Gram eigendecomposition."""
    if variances.size == 0 or variances[0] <= 0.0:
        return 0
    return int((variances > variances[0] * max(shape) * np.finfo(np.float64).eps).sum())


def _model(mean: np.ndarray, variances: np.ndarray, loadings: np.ndarray,
           gram: np.ndarray | None = None) -> PcaModel:
    """PcaModel of these components; (numerically) zero total variance raises."""
    total = float(variances.sum())
    if total <= _VARIANCE_TINY:
        raise NumericalError("data has (numerically) zero variance; PCA is degenerate")
    # C order, so the T2/Q products read the rows of a leading slice contiguously
    return PcaModel(mean=mean, loadings=np.ascontiguousarray(loadings),
                    explained_variance=variances, total_variance=total, gram=gram)


def pca_fit(data: np.ndarray) -> PcaModel:
    """PCA from the eigendecomposition of the centred rows' Gram matrix.

    Rows may be float32 or float64; the model is float64. Returns all
    min(n, p) components by descending variance; each caller keeps the
    leading ones its own rule selects.
    """
    data = _float_rows(data)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError("PCA needs a 2-D matrix with at least 2 rows")
    mean = row_mean(data)
    return _model(mean, *_variance_spectrum(data, mean))


def rank_estimate(data: np.ndarray) -> int:
    """Numerical rank of the mean-centred data (for clamping component counts).

    Counts Gram eigenvalues above lambda_0 * max(n, p) * eps. The Gram matrix
    squares the singular values, so its eigenvalues cannot resolve the 1e-10
    singular-value ratio an SVD-based rank would use; directions below this
    relative level are roundoff and are not counted.
    """
    data = _float_rows(data)
    variances = _variance_spectrum(data, row_mean(data))[0]
    return _numerical_rank(variances, data.shape)


def scores_and_residuals(model: PcaModel, rows: np.ndarray):
    """Scores, Hotelling T2, and Q residual for each row of an (n, p) matrix.

    Components with vanishing variance are excluded from T2
    since dividing by them would make the statistic meaningless. The rows,
    float32 or float64, are upcast, centred and their residual formed a
    block at a time; rows is only read.
    """
    rows = _float_rows(rows)
    if rows.ndim != 2 or rows.shape[1] != model.mean.shape[0]:
        raise DataError("spectra must be (n, p) rows matching the PCA model")
    scores = np.empty((rows.shape[0], model.n_components))
    q = np.empty(rows.shape[0])
    for block_rows, block in _row_blocks(rows, model.mean):
        np.matmul(block, model.loadings.T, out=scores[block_rows])
        block -= scores[block_rows] @ model.loadings
        q[block_rows] = np.square(block, out=block).sum(axis=1)
    lam = model.explained_variance
    usable = lam >= _VARIANCE_TINY
    t2 = (scores[:, usable] ** 2 / lam[usable]).sum(axis=1)
    return scores, t2, q


def remove_outliers(data: np.ndarray) -> tuple[PcaModel, OutlierReport]:
    """Single-pass T2-vs-Q rejection at empirical percentile thresholds.

    The data (float32 or float64, only read) is factored once: the model
    keeps the leading OUTLIER_PCS components that lie above the numerical
    rank cutoff of `rank_estimate` (identical spectra leave none and raise
    NumericalError). Thresholds are the OUTLIER_CONFIDENCE quantiles of T2
    and Q over the data; a spectrum exceeding either is rejected.
    Thresholds are not re-fit after rejection. Returns (model, report); the
    model keeps the fit's Gram matrix, from which `interferent_block` builds
    its PCA, and the kept rows are `data[report.kept]`, left to the caller
    to take, or not.
    """
    data = _float_rows(data)
    if data.ndim != 2:
        raise DataError("expected a 2-D spectra matrix")
    if data.shape[0] <= OUTLIER_PCS:
        raise DataError(f"need more than {OUTLIER_PCS} rows, got {data.shape[0]}")

    model = pca_fit(data)
    # >= 1 component: the fit passed, so the data has variance
    k = min(OUTLIER_PCS, _numerical_rank(model.explained_variance, data.shape))
    model = replace(model, loadings=model.loadings[:k],
                    explained_variance=model.explained_variance[:k])
    _, t2, q = scores_and_residuals(model, data)
    t2_thr = float(np.quantile(t2, OUTLIER_CONFIDENCE))
    q_thr = float(np.quantile(q, OUTLIER_CONFIDENCE))
    kept = (t2 <= t2_thr) & (q <= q_thr)
    if not kept.any():
        raise NumericalError("outlier removal rejected every spectrum")
    report = OutlierReport(t2=t2, q=q, kept=kept, t2_threshold=t2_thr,
                           q_threshold=q_thr, n_components=model.n_components)
    return model, report


def _outlier_fit(rows: np.ndarray) -> tuple[PcaModel | None, np.ndarray]:
    """(model, keep mask) of one `remove_outliers` pass; a pass with nothing
    to model has no model and keeps everything."""
    try:
        model, report = remove_outliers(rows)
    except (DataError, NumericalError):
        return None, np.ones(rows.shape[0], dtype=bool)
    return model, report.kept


def outlier_pass(rows: np.ndarray) -> np.ndarray:
    """Keep mask from one T2/Q pass; a pass with nothing to model keeps everything.

    Identical spectra give every point the same (zero) statistics, and fewer
    rows than components leave too little data to model; either way there
    is nothing to reject, so the pass is skipped rather than failed.
    """
    return _outlier_fit(rows)[1]


# ---------------------------------------------------------------------------
# EMSC


@dataclass
class EmscModel:
    """Assembled design for spectra on a fixed axis, with its pseudo-inverse."""

    axis: WavenumberAxis
    reference: np.ndarray       # (p,) tissue reference, first design column
    design: np.ndarray          # (p, m)
    projector: np.ndarray       # (m, p) pseudo-inverse of design
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


def _kept_gram(spectra: np.ndarray, fit: PcaModel, kept: np.ndarray):
    """(mean, centred Gram) of spectra[kept], from the outlier fit of all of them.

    The fit's Gram G of every row about the mean mu loses the rejected rows'
    scatter, summed a ROW_BLOCK-row block at a time, and is re-centred on
    the kept mean: G_kept = G - sum_rej (x - mu)(x - mu)' - n_kept d d',
    with d = mean_kept - mu = -sum_rej (x - mu) / n_kept. Only the rejected
    rows are read. The fit's Gram is updated in place.
    """
    rejected = np.flatnonzero(~kept)
    n_kept = kept.size - rejected.size
    gram, shift = fit.gram, np.zeros(spectra.shape[1])
    for _, block in _row_blocks(spectra, fit.mean, rejected):
        gram -= block.T @ block
        shift += block.sum(axis=0)
    d = shift / -n_kept
    gram -= n_kept * np.outer(d, d)
    return fit.mean + d, gram


def interferent_block(spectra: np.ndarray, axis: WavenumberAxis, band: Band) -> np.ndarray:
    """Global mean plus 99%-variance PCA loadings as rows, all zeroed outside the band.

    The spectra are an interferent's raw rows, float32 or float64, and are
    only read. They get what tissue gets before EMSC: one `outlier_pass`,
    then `savgol_smooth`, and the PCA is of the kept, smoothed rows.
    Smoothing is a linear map H on each row, so those rows have mean H m and
    centred Gram H G H', where m and G are the kept rows' own: the PCA comes
    from the outlier fit's Gram (`_kept_gram`) and two smoothings of a p x p
    matrix, and no kept row is read again or smoothed. A fit with fewer rows
    than columns has no p x p Gram, and a pass with nothing to model has no
    fit; then the kept rows are gathered, smoothed and fitted. Row 0 is the
    mean; the rows after it are the loadings, so a block has
    `block.shape[0] - 1` principal components.
    """
    spectra = _float_rows(spectra)
    if spectra.ndim != 2 or spectra.shape[0] == 0:
        raise DataError("interferent set must be a non-empty 2-D matrix")
    if spectra.shape[1] != axis.n_points:
        raise DataError("interferent spectra do not match the model axis")

    fit, kept = _outlier_fit(spectra)
    if fit is None or fit.gram is None:
        # fewer rows than columns, or rows the pass found nothing to model in
        rows, gram = savgol_smooth(spectra[kept]), None
        mean = rows.mean(axis=0)
    else:
        mean, gram = _kept_gram(spectra, fit, kept)
        mean = savgol_smooth(mean[None, :])[0]  # H m
        gram = savgol_smooth(savgol_smooth(gram).T)  # (G H')' H' = H G H'
    try:
        if gram is None:
            model = pca_fit(rows)
        else:
            variances, vectors = _eigen(gram, int(kept.sum()))
            model = _model(mean, variances, vectors.T)
    except (DataError, NumericalError):
        # one row, or identical rows: the mean says everything there is to say
        basis = mean[None, :]
    else:
        ratios = np.cumsum(model.explained_variance) / model.total_variance
        k = int(np.searchsorted(ratios, _INTERFERENT_VARIANCE - 1e-12) + 1)
        basis = np.vstack([model.mean, model.loadings[:k]])

    mask = np.zeros(axis.n_points, dtype=np.float64)
    mask[band_slice(axis, band)] = 1.0
    return basis * mask


def emsc_build_model(tissue_mean: np.ndarray, paraffin_spectra: np.ndarray,
                     h2o_block: np.ndarray, axis: WavenumberAxis) -> EmscModel:
    """Assemble the EMSC design: reference | baseline | paraffin | H2O blocks.

    The paraffin block is the `interferent_block` of the core's raw paraffin
    spectra (float32 or float64), built here; the H2O block is the
    panel-wide `interferent_block` of the water-vapour spectra, built once
    and shared by every core.
    """
    reference = np.asarray(tissue_mean, dtype=np.float64)
    if reference.shape != (axis.n_points,):
        raise DataError("tissue reference does not match the model axis")
    h2o_block = np.asarray(h2o_block, dtype=np.float64)
    if h2o_block.ndim != 2 or h2o_block.shape[0] == 0 or h2o_block.shape[1] != axis.n_points:
        raise DataError("H2O block must be a non-empty (k, axis.n_points) matrix")

    values = axis.values
    mid = 0.5 * (values[0] + values[-1])
    halfspan = 0.5 * (values[0] - values[-1])
    t = (values - mid) / halfspan
    baseline = np.vander(t, _BASELINE_ORDER + 1, increasing=True)  # (p, 5)
    par_block = interferent_block(paraffin_spectra, axis, PARAFFIN_MASK_BAND)

    design = np.column_stack([reference, baseline, par_block.T, h2o_block.T])
    if not np.all(np.isfinite(design)):
        raise NumericalError("EMSC design matrix contains non-finite values")
    # lstsq(rcond=None)'s cutoff; pinv's own default (1e-15) would keep more
    rcond = np.finfo(np.float64).eps * max(design.shape)
    try:
        projector = np.linalg.pinv(design, rcond=rcond)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"EMSC design pseudo-inverse failed: {exc}") from exc
    return EmscModel(axis=axis, reference=reference, design=design, projector=projector,
                     n_paraffin_pcs=par_block.shape[0] - 1,
                     n_h2o_pcs=h2o_block.shape[0] - 1)


def emsc_correct_rows(rows: np.ndarray, model: EmscModel):
    """Least-squares EMSC for a matrix of spectra, by the model's projector.

    Returns (corrected, coefficients, usable): rows whose reference
    coefficient is numerically zero are not tissue-like; they come back
    zeroed with usable=False for the caller to discard.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.axis.n_points:
        raise DataError("spectra must be (n, axis.n_points)")
    coefs = rows @ model.projector.T  # (n, m)
    ref = coefs[:, 0]
    usable = np.abs(ref) >= _REF_COEF_FLOOR
    safe_ref = np.where(usable, ref, 1.0)
    # (rows - fitted interferents) / reference, in the one (n, p) output
    corrected = coefs[:, 1:] @ model.design[:, 1:].T
    np.subtract(rows, corrected, out=corrected)
    corrected /= safe_ref[:, None]
    corrected[~usable] = 0.0
    return corrected, coefs, usable
