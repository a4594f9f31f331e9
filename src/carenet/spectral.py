"""Wavenumber-axis arithmetic and row-wise spectral primitives.

The primitives work row-wise on (n, points) matrices, one spectrum per row.
All math here runs in 64-bit floats: 32-bit rows are upcast on the way in,
and callers that store spectra in 32-bit downcast on the way out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

__all__ = [
    "WavenumberAxis",
    "Band",
    "band_slice",
    "sub_axis",
    "integrate_band_rows",
    "savgol_smooth",
    "SAVGOL_WINDOW",
    "SAVGOL_POLY_ORDER",
    "minmax_normalize_rows",
    "RAW_AXIS",
    "BIOFINGERPRINT_BAND",
    "AMIDE_BAND",
    "PARAFFIN_PEAK_BAND",
]


@dataclass(frozen=True)
class WavenumberAxis:
    """Uniformly spaced, strictly descending wavenumber grid (cm^-1)."""

    start_wn: float
    end_wn: float
    n_points: int

    def __post_init__(self):
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise DataError(f"axis needs an integer point count >= 2, got {self.n_points}")
        if not (self.start_wn > self.end_wn >= 0.0):
            raise DataError(
                "axis must descend through non-negative wavenumbers, "
                f"got start={self.start_wn}, end={self.end_wn}"
            )

    @property
    def spacing(self) -> float:
        """Grid step in cm^-1 (always positive)."""
        return (self.start_wn - self.end_wn) / (self.n_points - 1)

    @property
    def values(self) -> np.ndarray:
        """Axis values, descending from start_wn to end_wn."""
        return np.linspace(self.start_wn, self.end_wn, self.n_points)

    def covers(self, band: "Band") -> bool:
        half = 0.5 * self.spacing
        return band.high_wn <= self.start_wn + half and band.low_wn >= self.end_wn - half


@dataclass(frozen=True)
class Band:
    """A wavenumber interval, given high-to-low as conventional for FTIR."""

    high_wn: float
    low_wn: float

    def __post_init__(self):
        if not self.high_wn > self.low_wn:
            raise DataError(f"band must have high_wn > low_wn, got ({self.high_wn}, {self.low_wn})")


# Raw instrument-like axis and the bands the pipeline keeps reaching for.
RAW_AXIS = WavenumberAxis(3950.0, 900.0, 1580)
BIOFINGERPRINT_BAND = Band(1800.0, 900.0)
AMIDE_BAND = Band(1700.0, 1500.0)
PARAFFIN_PEAK_BAND = Band(1480.0, 1450.0)


def band_slice(axis: WavenumberAxis, band: Band) -> slice:
    """Contiguous index range of axis points inside the band.

    Grid points within half a spacing of either bound count as inside, so
    band edges quoted in round wavenumbers pick up their nearest grid point.
    """
    if not axis.covers(band):
        raise DataError(
            f"band ({band.high_wn}, {band.low_wn}) outside axis "
            f"[{axis.start_wn}, {axis.end_wn}]"
        )
    half = 0.5 * axis.spacing
    eps = 1e-9 * axis.spacing
    values = axis.values
    mask = (values >= band.low_wn - half - eps) & (values <= band.high_wn + half + eps)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise DataError(f"band ({band.high_wn}, {band.low_wn}) selects no axis points")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def sub_axis(axis: WavenumberAxis, sel: slice) -> WavenumberAxis:
    """The axis points picked by a band_slice result, as an axis of their own."""
    values = axis.values
    count = sel.stop - sel.start
    return WavenumberAxis(float(values[sel.start]), float(values[sel.stop - 1]), count)


def integrate_band_rows(rows: np.ndarray, axis: WavenumberAxis, band: Band) -> np.ndarray:
    """Trapezoidal band area per row of a (n, axis.n_points) matrix."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != axis.n_points:
        raise DataError("rows must be (n, axis.n_points)")
    sel = band_slice(axis, band)
    y = rows[:, sel]
    return axis.spacing * (y.sum(axis=1) - 0.5 * (y[:, 0] + y[:, -1]))


# Savitzky-Golay window (points, odd) and polynomial order
SAVGOL_WINDOW = 11
SAVGOL_POLY_ORDER = 2


@functools.cache
def _savgol_hat(window: int, poly_order: int) -> np.ndarray:
    """(window, window) least-squares fitted values at every in-window offset.

    Built once per (window, order) rather than once per call: its pinv runs
    an SVD, and the chain smooths a block of rows at a time.
    """
    offsets = np.arange(window, dtype=np.float64) - window // 2
    vand = np.vander(offsets, poly_order + 1, increasing=True)
    hat = vand @ np.linalg.pinv(vand)
    hat.flags.writeable = False
    return hat


def savgol_smooth(y: np.ndarray) -> np.ndarray:
    """Savitzky-Golay smoothing along each row of an (n, points) matrix.

    Interior points get the centered local least-squares fit of a
    SAVGOL_POLY_ORDER polynomial over SAVGOL_WINDOW points; the first and
    last half-window points are the polynomial fitted to the first/last full
    window, evaluated at their offsets, so the output keeps the input length.
    """
    window, poly_order = SAVGOL_WINDOW, SAVGOL_POLY_ORDER
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise DataError("spectra must be an (n, points) matrix")
    n = y.shape[1]
    if window % 2 == 0:
        raise DataError(f"window must be odd, got {window}")
    if window <= poly_order:
        raise DataError(f"window {window} must exceed polynomial order {poly_order}")
    if n < window:
        raise DataError(f"signal length {n} shorter than window {window}")

    half = window // 2
    hat = _savgol_hat(window, poly_order)

    out = np.empty(y.shape)  # head, interior and tail are written straight into it
    np.matmul(y[:, :window], hat[:half].T, out=out[:, :half])
    np.matmul(sliding_window_view(y, window, axis=1), hat[half], out=out[:, half:n - half])
    np.matmul(y[:, -window:], hat[half + 1 :].T, out=out[:, n - half:])
    return out


def minmax_normalize_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise min-max normalization.

    Returns (normalized, keep) where keep flags rows with a usable dynamic
    range; degenerate (constant) rows come back as zeros with keep=False and
    are the caller's to discard.
    """
    rows = np.asarray(rows, dtype=np.float64)
    lo = rows.min(axis=1, keepdims=True)
    hi = rows.max(axis=1, keepdims=True)
    span = hi - lo
    keep = span[:, 0] > 0.0
    safe = np.where(span > 0.0, span, 1.0)
    out = rows - lo
    out /= safe
    out[~keep] = 0.0
    return out, keep
