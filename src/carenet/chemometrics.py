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
Savitzky-Golay smoothing. Its kept rows are gathered and smoothed a row
block at a time, once for the mean and once for the Gram matrix, so neither
a kept copy nor a smoothed float64 copy of the image exists.

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
# blocks as in one product, and longer at 256 (one BLAS thread). Smoothing
# a block is bitwise the same whether the pipeline or an interferent PCA
# does it only while both use this one size.
ROW_BLOCK = 1024


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


def _reader(data: np.ndarray):
    """read(rows, out) for the rows of data: out = data[rows], upcast to float64."""
    return lambda rows, out: np.copyto(out, data[rows])


def _read_blocks(read, shape: tuple[int, int], spare: int = 0):
    """(rows slice, block) per ROW_BLOCK rows of the (n, p) rows read gives.

    read(rows, out) writes that slice of the rows, in float64, into
    out = block[spare:]; the first `spare` rows of block are the caller's.
    Every block is a view of the same buffer, so it is valid only until the
    next one is drawn.
    """
    n, p = shape
    buf = np.empty((spare + min(n, ROW_BLOCK), p))
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        block = buf[:spare + rows.stop - start]
        read(rows, block[spare:])
        yield rows, block


def _row_blocks(read, shape: tuple[int, int], mean: np.ndarray):
    """(rows slice, rows - mean) per ROW_BLOCK rows, as `_read_blocks` draws them."""
    for rows, block in _read_blocks(read, shape):
        block -= mean
        yield rows, block


def _row_mean(read, shape: tuple[int, int]) -> np.ndarray:
    """Mean of the rows read gives, in float64.

    The running total is reduced together with each block, as its first
    row, so the rows are added in the order of numpy's axis-0 sum over the
    whole matrix: the mean is bitwise `rows.astype(np.float64).mean(axis=0)`.
    A sum of per-block sums is not.
    """
    total = None
    for _, block in _read_blocks(read, shape, spare=1):
        if total is None:
            total = np.add.reduce(block[1:], axis=0)
        else:
            block[0] = total
            total = np.add.reduce(block, axis=0)
    return total / shape[0]


def _variance_spectrum(read, shape: tuple[int, int], mean: np.ndarray):
    """(variances, loadings) of all min(n, p) principal components of the
    rows read(rows) gives, centred on mean, C = rows - mean.

    One eigendecomposition of the smaller Gram matrix of C, sorted
    descending, with roundoff below zero clipped: C'C (p x p) for n >= p,
    summed a row block at a time; for fewer rows than columns C C' (n x n),
    whose eigenvectors u give the loadings as the normalised C'u (the
    snapshot method).
    """
    n, p = shape
    wide = n < p
    with np.errstate(over="ignore", invalid="ignore"):
        if wide:
            centered = np.empty(shape)
            for rows, block in _row_blocks(read, shape, mean):
                centered[rows] = block
            gram = centered @ centered.T
        else:
            gram = np.zeros((p, p))
            for _, block in _row_blocks(read, shape, mean):
                gram += block.T @ block
    if not np.all(np.isfinite(gram)):
        raise NumericalError("PCA Gram matrix overflows float64")
    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"PCA eigendecomposition failed: {exc}") from exc
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    if wide:
        eigvecs = centered.T @ eigvecs
        norms = np.linalg.norm(eigvecs, axis=0)
        eigvecs /= np.where(norms > 0.0, norms, 1.0)
    variances = np.maximum(eigvals, 0.0) / (n - 1)
    return variances, eigvecs.T


def _numerical_rank(variances: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of variances above the roundoff level of a Gram eigendecomposition."""
    if variances.size == 0 or variances[0] <= 0.0:
        return 0
    return int((variances > variances[0] * max(shape) * np.finfo(np.float64).eps).sum())


def _pca(read, shape: tuple[int, int]) -> PcaModel:
    """`pca_fit` of the (n, p) rows read(rows) gives, a row block at a time."""
    if shape[0] < 2:
        raise DataError("PCA needs a 2-D matrix with at least 2 rows")
    mean = _row_mean(read, shape)
    variances, loadings = _variance_spectrum(read, shape, mean)
    total = float(variances.sum())
    if total <= _VARIANCE_TINY:
        raise NumericalError("data has (numerically) zero variance; PCA is degenerate")
    # C order, so the T2/Q products read the rows of a leading slice contiguously
    return PcaModel(mean=mean, loadings=np.ascontiguousarray(loadings),
                    explained_variance=variances, total_variance=total)


def pca_fit(data: np.ndarray) -> PcaModel:
    """PCA from the eigendecomposition of the centred rows' Gram matrix.

    Rows may be float32 or float64; the model is float64. Returns all
    min(n, p) components by descending variance; each caller keeps the
    leading ones its own rule selects.
    """
    data = _float_rows(data)
    if data.ndim != 2:
        raise DataError("PCA needs a 2-D matrix with at least 2 rows")
    return _pca(_reader(data), data.shape)


def rank_estimate(data: np.ndarray) -> int:
    """Numerical rank of the mean-centred data (for clamping component counts).

    Counts Gram eigenvalues above lambda_0 * max(n, p) * eps. The Gram matrix
    squares the singular values, so its eigenvalues cannot resolve the 1e-10
    singular-value ratio an SVD-based rank would use; directions below this
    relative level are roundoff and are not counted.
    """
    data = _float_rows(data)
    read = _reader(data)
    variances, _ = _variance_spectrum(read, data.shape, _row_mean(read, data.shape))
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
    for block_rows, block in _row_blocks(_reader(rows), rows.shape, model.mean):
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
    kept rows are `data[report.kept]`, left to the caller to take, or not.
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


def outlier_pass(rows: np.ndarray) -> np.ndarray:
    """Keep mask from one T2/Q pass; a pass with nothing to model keeps everything.

    Identical spectra give every point the same (zero) statistics, and fewer
    rows than components leave too little data to model; either way there
    is nothing to reject, so the pass is skipped rather than failed.
    """
    try:
        return remove_outliers(rows)[1].kept
    except (DataError, NumericalError):
        return np.ones(rows.shape[0], dtype=bool)


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


def interferent_block(spectra: np.ndarray, axis: WavenumberAxis, band: Band) -> np.ndarray:
    """Global mean plus 99%-variance PCA loadings as rows, all zeroed outside the band.

    The spectra are an interferent's raw rows, float32 or float64, and are
    only read. They get what tissue gets before EMSC: one `outlier_pass`,
    then `savgol_smooth`, and the PCA is of the kept, smoothed rows. Those
    are gathered and smoothed a ROW_BLOCK-row block at a time, once for the
    mean and once for the Gram matrix, in the blocks the pipeline smooths
    its tissue rows in. Row 0 is the mean; the rows after it are the
    loadings, so a block has `block.shape[0] - 1` principal components.
    """
    spectra = _float_rows(spectra)
    if spectra.ndim != 2 or spectra.shape[0] == 0:
        raise DataError("interferent set must be a non-empty 2-D matrix")
    if spectra.shape[1] != axis.n_points:
        raise DataError("interferent spectra do not match the model axis")

    kept = np.flatnonzero(outlier_pass(spectra))
    shape = (kept.size, spectra.shape[1])
    # gathered and upcast into one reused buffer: a new float64 block per read
    # took longer, in page faults, than its smoothing
    gathered = np.empty((min(kept.size, ROW_BLOCK), spectra.shape[1]))

    def smoothed(rows: slice, out: np.ndarray) -> None:
        block = gathered[:rows.stop - rows.start]
        block[...] = spectra[kept[rows]]
        savgol_smooth(block, out=out)

    try:
        model = _pca(smoothed, shape)
    except (DataError, NumericalError):
        # one row, or identical rows: the mean says everything there is to say
        basis = _row_mean(smoothed, shape)[None, :]
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
