"""1D Grad-CAM: wavenumber-importance heatmaps from the trained models.

Importance comes from the last residual stage's activation map: channel
weights are the length-averaged gradients of the target class score (the
pre-activation logit), and the weighted channel sum is rectified. Each
class's mean cam is linearly interpolated from the feature length back onto
the 467-point biofingerprint axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .model import INPUT_LENGTH, CarenetModel, forward_chunks
from .spectral import WavenumberAxis, minmax_normalize_rows

__all__ = [
    "Heatmap1D",
    "gradcam_spectrum",
    "class_average",
    "top_bands",
    "write_heatmap_csv",
    "write_heatmap_svg",
]


@dataclass
class Heatmap1D:
    """Normalized per-wavenumber importance for one class."""

    values: np.ndarray  # (467,) in [0, 1]
    class_label: str
    n_samples: int = 1
    degenerate: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (INPUT_LENGTH,):
            raise DataError(f"heatmap must have {INPUT_LENGTH} points")
        if not self.degenerate and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise DataError("normalized heatmap values must lie in [0, 1]")


def gradcam_spectrum(model: CarenetModel, spectra: np.ndarray,
                     target_class: int = 1) -> np.ndarray:
    """Raw (unnormalized) feature-length cams, one float64 row per input spectrum.

    target_class is a class code of the head (model.CLASS_NAMES) that its
    outputs score: any subtype, or CA (1) for the type head's single output.
    Gradients flow from the target class's pre-activation logit. Spectra go
    through the model by `forward_chunks`, as in training and evaluation.
    The trunk pass is forward-only (no trunk layer caches); only the head,
    which the gradient flows back through, caches.
    """
    x = np.asarray(spectra, dtype=np.float32)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] == 0:
        raise DataError("no spectra to attribute")
    scored = model.scored_classes
    if target_class not in scored:
        raise DataError(f"the {model.head} head's outputs score classes "
                        f"{scored.start}..{scored.stop - 1}, not {target_class}")
    col = target_class - scored.start
    cams = [_cam_rows(model, part, col)
            for _, part in forward_chunks(x, np.arange(x.shape[0]))]
    return np.concatenate(cams).astype(np.float64)


def _cam_rows(model: CarenetModel, x: np.ndarray, col: int) -> np.ndarray:
    """Rectified feature-length cams of one chunk: (batch, 30)."""
    feats = model.trunk_forward(x, cache=False)  # (B, C, L)
    logits, probs = model.head_forward(feats)
    if not np.all(np.isfinite(probs)):
        raise NumericalError("model produced non-finite outputs; refusing to attribute")

    dscore = np.zeros_like(logits)
    dscore[:, col] = 1.0
    dfeats = model.head_backward_to_features(dscore)

    weights = dfeats.mean(axis=2)                      # (B, C) pooled gradients
    cam = np.einsum("bc,bcl->bl", weights, feats)
    return np.maximum(cam, 0.0)


def class_average(cams_by_class: dict[str, np.ndarray]) -> dict[str, Heatmap1D]:
    """Mean cam per class on the 467-point axis, min-max normalized to [0, 1].

    Each class's mean is interpolated onto the axis once, endpoints pinned:
    the mean of per-row heatmaps, since interpolation is linear, and the
    mean itself for 467-point rows. A constant mean cannot be normalized;
    it comes back all-zero with the degenerate flag set.
    """
    out: dict[str, Heatmap1D] = {}
    for label, cams in cams_by_class.items():
        cams = np.atleast_2d(np.asarray(cams, dtype=np.float64))
        if cams.shape[0] == 0:
            raise DataError(f"class {label!r} has no cams to average")
        mean = cams.mean(axis=0)
        positions = np.linspace(0.0, mean.size - 1.0, INPUT_LENGTH)
        values, keep = minmax_normalize_rows(
            np.interp(positions, np.arange(mean.size), mean)[None, :])
        out[label] = Heatmap1D(values=values[0], class_label=label, n_samples=cams.shape[0],
                               degenerate=not keep[0])
    return out


# heatmap SVGs: canvas size in px, and the importance from which a band is shaded
SVG_WIDTH = 900
SVG_HEIGHT = 260
SVG_SHADE_THRESHOLD = 0.7


def top_bands(heatmap: Heatmap1D, axis: WavenumberAxis) -> list[tuple[float, float, float]]:
    """Maximal runs with importance >= SVG_SHADE_THRESHOLD as (high_wn, low_wn, peak)."""
    if axis.n_points != heatmap.values.shape[0]:
        raise DataError("axis does not match heatmap length")
    values = axis.values
    above = heatmap.values >= SVG_SHADE_THRESHOLD
    bands = []
    i = 0
    n = above.size
    while i < n:
        if above[i]:
            j = i
            while j + 1 < n and above[j + 1]:
                j += 1
            segment = heatmap.values[i:j + 1]
            bands.append((float(values[i]), float(values[j]), float(segment.max())))
            i = j + 1
        else:
            i += 1
    return bands


def write_heatmap_csv(heatmap: Heatmap1D, axis: WavenumberAxis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("wavenumber,importance\n")
        for wn, v in zip(axis.values, heatmap.values):
            fh.write(f"{wn:.6f},{v:.9g}\n")


def write_heatmap_svg(heatmap: Heatmap1D, axis: WavenumberAxis, path) -> None:
    """Line plot with the above-threshold bands shaded; no plotting stack needed."""
    values = axis.values
    width, height, pad = SVG_WIDTH, SVG_HEIGHT, 40
    span = values[0] - values[-1]

    def sx(wn: float) -> float:
        return pad + (values[0] - wn) / span * (width - 2 * pad)

    def sy(v: float) -> float:
        return height - pad - v * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for high, low, _peak in top_bands(heatmap, axis):
        x0, x1 = sx(high), sx(low)
        parts.append(
            f'<rect x="{x0:.2f}" y="{pad}" width="{max(x1 - x0, 1.0):.2f}" '
            f'height="{height - 2 * pad}" fill="#9ecae1" fill-opacity="0.5"/>'
        )
    points = " ".join(f"{sx(wn):.2f},{sy(v):.2f}" for wn, v in zip(values, heatmap.values))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#08519c" stroke-width="1.2"/>')
    parts.append(
        f'<text x="{pad}" y="{height - 8}" font-size="12" font-family="sans-serif">'
        f"{heatmap.class_label}: importance vs wavenumber (cm-1, descending), "
        f"shaded &#8805; {SVG_SHADE_THRESHOLD:g}</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
