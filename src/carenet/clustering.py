"""Two-step K-means segmentation of hypercubes into tissue, paraffin, slide.

The first pass clusters amide-band spectra (k=2) and calls the cluster with
the larger mean integrated amide area "tissue". The second pass zeroes the
tissue pixels, clusters the strongest paraffin band, and calls the larger
band-area cluster "paraffin". Pixels in neither mask are discarded as pure
slide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chemometrics import ROW_BLOCK, row_mean
from .dataset import HyperCube
from .errors import DataError, NumericalError
from .spectral import (
    AMIDE_BAND,
    PARAFFIN_PEAK_BAND,
    Band,
    band_slice,
    integrate_band_rows,
    sub_axis,
)

__all__ = [
    "KmeansResult",
    "PixelMask",
    "kmeans",
    "order_clusters_by_area",
    "select_tissue",
    "select_paraffin",
    "write_masks_pgm",
    "COVERAGE_FLOOR",
]

# Below this pixel fraction the selected cluster is implausibly small for a
# material assumed present in every core; the mask gets flagged, not dropped.
COVERAGE_FLOOR = 0.005

# A genuine material cluster integrates an order of magnitude more band area
# than the rejected cluster. A cube without the material splits roughly in
# half on noise or baseline spread, which the size floor alone can never
# catch; such splits cannot exceed ~3.5x contrast (a uniform spread cut at
# its middle), so 4 separates the two regimes.
AREA_CONTRAST_FLOOR = 4.0

# Lloyd iterations stop at this many, or once no centroid moves this far
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6


@dataclass
class KmeansResult:
    assignments: np.ndarray  # (n,) int
    centroids: np.ndarray    # (k, d)
    n_iter: int
    wcss_path: np.ndarray    # within-cluster sum of squares after each assignment


@dataclass
class PixelMask:
    """Boolean pixel grid for one material, with plausibility diagnostics.

    area_contrast is the ratio of the selected cluster's mean band area to
    the rejected cluster's; values near 1 mean the clustering only split
    noise.
    """

    mask: np.ndarray
    role: str  # tissue | paraffin
    low_coverage: bool = False
    area_contrast: float = np.inf

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise DataError("pixel mask must be 2-D")
        if self.role not in ("tissue", "paraffin"):
            raise DataError(f"unknown mask role {self.role!r}")

    @property
    def plausible(self) -> bool:
        return not self.low_coverage and self.area_contrast >= AREA_CONTRAST_FLOOR


def _squared_distances_to(points: np.ndarray, center, buf: np.ndarray) -> np.ndarray:
    """((points - center) ** 2).sum(axis=1), formed in buf a block of its rows at a time."""
    d2 = np.empty(points.shape[0])
    for start in range(0, points.shape[0], buf.shape[0]):
        rows = slice(start, start + buf.shape[0])
        block = buf[:d2[rows].size]
        np.subtract(points[rows], center, out=block)
        d2[rows] = np.square(block, out=block).sum(axis=1)
    return d2


def _squared_distances(points: np.ndarray, norms: np.ndarray,
                       centroids: np.ndarray) -> np.ndarray:
    # ||p - c||^2 expanded, norms being ||p||^2; clip the tiny negatives the
    # expansion can produce. 2 (p c') is bitwise (2 p) c', with no scaled copy
    d2 = (
        norms[:, None]
        - 2.0 * (points @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator,
               buf: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    d2 = _squared_distances_to(points, centroids[0], buf)
    for j in range(1, k):
        total = d2.sum()
        if not total > 0.0:
            raise NumericalError(f"k={k} exceeds the {j} distinct points available")
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _squared_distances_to(points, centroids[j], buf))
    return centroids


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> KmeansResult:
    """Lloyd's algorithm with k-means++ seeding; deterministic for a fixed seed.

    The point norms are formed once, and every distance pass over the
    points runs through one reused ROW_BLOCK-row buffer, so no (n, d)
    temporary is made. Each centroid update is `row_mean` of its members,
    bitwise their gathered mean with no gathered copy.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise DataError("kmeans expects a non-empty 2-D point matrix")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    buf = np.empty((min(points.shape[0], ROW_BLOCK), points.shape[1]))
    centroids = _kmeans_pp(points, k, rng, buf)
    norms = _squared_distances_to(points, 0.0, buf)

    assignments = np.zeros(points.shape[0], dtype=np.int64)
    wcss_path = []
    n_iter = 0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        d2 = _squared_distances(points, norms, centroids)
        assignments = d2.argmin(axis=1)
        point_d2 = d2[np.arange(points.shape[0]), assignments]
        wcss_path.append(float(point_d2.sum()))

        new_centroids = centroids.copy()
        for c in range(k):
            members = np.flatnonzero(assignments == c)
            if members.size:
                new_centroids[c] = row_mean(points, members)
            else:
                # repair: hand the empty cluster the point farthest from its centroid
                far = int(point_d2.argmax())
                new_centroids[c] = points[far]
                assignments[far] = c
                point_d2[far] = 0.0

        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break

    return KmeansResult(assignments=assignments, centroids=centroids,
                        n_iter=n_iter, wcss_path=np.array(wcss_path))


def order_clusters_by_area(assignments: np.ndarray, band_areas: np.ndarray,
                           valid: np.ndarray) -> tuple[np.ndarray, float]:
    """Relabel a 2-cluster assignment so the larger mean band area is cluster 1.

    Rows where valid is False are excluded from the means (zeroed-out tissue
    pixels in the second clustering step). Ties keep the existing labels.
    Returns (labels, area_contrast): the selected cluster's mean area over
    the magnitude of the rejected one's, inf when either cluster has no
    valid row or the rejected mean is numerically zero.
    """
    assignments = np.asarray(assignments)
    band_areas = np.asarray(band_areas, dtype=np.float64)
    means = np.zeros(2)
    both_present = True
    for c in (0, 1):
        members = (assignments == c) & valid
        if members.any():
            means[c] = band_areas[members].mean()
        else:
            both_present = False
    if means[0] > means[1]:
        labels, means = 1 - assignments, means[::-1]
    else:
        labels = assignments.copy()
    rejected, selected = float(means[0]), float(means[1])
    if not both_present or abs(rejected) < 1e-12:
        return labels, np.inf
    return labels, selected / abs(rejected)


def _select(cube: HyperCube, band: Band, role: str, seed: int,
            excluded: np.ndarray | None = None) -> PixelMask:
    """Cluster the band's spectra (k=2) and mask the larger-area cluster.

    Excluded pixels (a flat boolean per pixel) are replaced by zero vectors
    before clustering and kept out of the area ordering and of the mask.
    """
    sel = band_slice(cube.axis, band)
    spectra = cube.spectra_matrix()[:, sel].astype(np.float64)  # cut in float32, then upcast
    points, valid = spectra, np.ones(spectra.shape[0], dtype=bool)
    if excluded is not None:
        valid = ~excluded
        points = np.where(valid[:, None], spectra, 0.0)
    result = kmeans(points, 2, seed=seed)
    areas = integrate_band_rows(spectra, sub_axis(cube.axis, sel), band)
    labels, contrast = order_clusters_by_area(result.assignments, areas, valid)
    mask = ((labels == 1) & valid).reshape(cube.rows, cube.cols)
    return PixelMask(mask=mask, role=role, low_coverage=mask.mean() < COVERAGE_FLOOR,
                     area_contrast=contrast)


def select_tissue(cube: HyperCube, seed: int = 0) -> PixelMask:
    """First clustering step: amide-band k=2, larger-area cluster is tissue."""
    return _select(cube, AMIDE_BAND, "tissue", seed)


def select_paraffin(cube: HyperCube, tissue_mask: PixelMask, seed: int = 0) -> PixelMask:
    """Second clustering step on the strongest paraffin band.

    Tissue pixels are replaced by zero vectors before clustering and excluded
    from the area ordering and from the returned mask.
    """
    if tissue_mask.mask.shape != (cube.rows, cube.cols):
        raise DataError("tissue mask shape does not match cube")
    if tissue_mask.mask.all():
        mask = np.zeros((cube.rows, cube.cols), dtype=bool)
        return PixelMask(mask=mask, role="paraffin", low_coverage=True, area_contrast=0.0)
    return _select(cube, PARAFFIN_PEAK_BAND, "paraffin", seed, excluded=tissue_mask.mask.ravel())


def write_masks_pgm(path, tissue_mask: PixelMask, paraffin_mask: PixelMask) -> None:
    """Binary PGM (P5) visualization: tissue 255, paraffin 128, discard 0."""
    if tissue_mask.mask.shape != paraffin_mask.mask.shape:
        raise DataError("mask shapes differ")
    if np.any(tissue_mask.mask & paraffin_mask.mask):
        raise DataError("tissue and paraffin masks overlap")
    rows, cols = tissue_mask.mask.shape
    image = np.zeros((rows, cols), dtype=np.uint8)
    image[paraffin_mask.mask] = 128
    image[tissue_mask.mask] = 255
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
