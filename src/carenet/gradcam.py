"""1D Grad-CAM: wavenumber-importance heatmaps from the trained models.

Importance comes from the last residual stage's activation map: channel
weights are the length-averaged gradients of the target class score (the
pre-activation logit), the weighted channel sum is rectified, and
the result is linearly interpolated from the feature length back onto the
467-point biofingerprint axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .model import FORWARD_CHUNK, INPUT_LENGTH, CarenetModel
from .spectral import WavenumberAxis

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


def _upsample(cam: np.ndarray, out_len: int) -> np.ndarray:
    """Linear interpolation feature-index -> axis-index, endpoints pinned."""
    n = cam.shape[-1]
    positions = np.linspace(0.0, n - 1.0, out_len)
    return np.stack([np.interp(positions, np.arange(n), row) for row in np.atleast_2d(cam)])


def gradcam_spectrum(model: CarenetModel, spectra: np.ndarray,
                     target_class: int = 1) -> np.ndarray:
    """Raw (unnormalized) importance vectors, one row per input spectrum.

    target_class indexes the softmax output for the subtype head; the type
    head has a single output and target_class must be 1 (the CA activation).
    Gradients flow from the target class's pre-activation logit. Spectra go
    through the model FORWARD_CHUNK rows at a time, the same bound training
    and evaluation use. The trunk pass is forward-only (no trunk layer
    caches); only the head, which the gradient flows back through, caches.
    """
    x = np.asarray(spectra, dtype=np.float32)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] == 0:
        raise DataError("no spectra to attribute")
    if model.head == "type":
        if target_class != 1:
            raise DataError("the type head exposes only the CA activation (class 1)")
        col = 0
    else:
        if not 0 <= target_class < model.n_classes:
            raise DataError(f"class index {target_class} out of range")
        col = target_class
    cams = [_cam_rows(model, x[i:i + FORWARD_CHUNK], col)
            for i in range(0, x.shape[0], FORWARD_CHUNK)]
    return _upsample(np.concatenate(cams).astype(np.float64), INPUT_LENGTH)


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


def class_average(heatmaps_by_class: dict[str, np.ndarray]) -> dict[str, Heatmap1D]:
    """Mean heatmap per class, min-max normalized to [0, 1].

    A constant mean heatmap cannot be normalized; it comes back all-zero
    with the degenerate flag set.
    """
    out: dict[str, Heatmap1D] = {}
    for label, maps in heatmaps_by_class.items():
        maps = np.atleast_2d(np.asarray(maps, dtype=np.float64))
        if maps.shape[0] == 0:
            raise DataError(f"class {label!r} has no heatmaps to average")
        mean = maps.mean(axis=0)
        lo, hi = float(mean.min()), float(mean.max())
        if hi > lo:
            values = (mean - lo) / (hi - lo)
            degenerate = False
        else:
            values = np.zeros_like(mean)
            degenerate = True
        out[label] = Heatmap1D(values=values, class_label=label, n_samples=maps.shape[0],
                               degenerate=degenerate)
    return out


def top_bands(heatmap: Heatmap1D, axis: WavenumberAxis,
              threshold: float = 0.5) -> list[tuple[float, float, float]]:
    """Maximal runs with importance >= threshold as (high_wn, low_wn, peak)."""
    if axis.n_points != heatmap.values.shape[0]:
        raise DataError("axis does not match heatmap length")
    values = axis.values
    above = heatmap.values >= threshold
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


def write_heatmap_svg(heatmap: Heatmap1D, axis: WavenumberAxis, path,
                      threshold: float = 0.7, width: int = 900, height: int = 260) -> None:
    """Line plot with the above-threshold bands shaded; no plotting stack needed."""
    values = axis.values
    pad = 40
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
    for high, low, _peak in top_bands(heatmap, axis, threshold):
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
        f"shaded &#8805; {threshold:g}</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
