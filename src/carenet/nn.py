"""Minimal 1D deep-learning engine: layers, losses, Adam, LR scheduling.

Everything runs on numpy. Training arithmetic is float32; layers accept a
dtype so a float64 replay of the same graph can back gradient verification.
Backward passes write (not accumulate) parameter gradients, so no zero-grad
step is needed between batches.

A caching forward (the default, and what training runs) keeps what the
layer's backward needs: a convolution a reference to its input array, Dense
its input, ReLU, Sigmoid and Softmax their outputs. ReLU.backward takes its
mask from the cached output. So each activation is stored once: a block's
input is the previous ReLU's output, shared by the block's conv1, its
projection and the identity shortcut. The caches grow with the rows of the
last forward and dominate a training step's memory; callers bound them by
forwarding a fixed number of rows at a time (FORWARD_CHUNK in model.py).

A forward-only pass (cache=False on Conv1D, ReLU, ResidualBlock and the
model's trunk_forward/forward) keeps none of that: each conv and ReLU sets
its cache to None, so a later backward raises PipelineError instead of
reading a stale cache. Dense, GlobalAvgPool, Sigmoid and Softmax cache on
every pass; their caches are a few KB and Grad-CAM's head backward reads them.

Every conv pass, caching or not, pads its input into, and copies its column
matrix into, this thread's scratch: two named flat byte buffers ("padded",
"cols"), grown on demand to the largest pass on the thread so far, kept for
the thread's life and viewed per dtype, which every conv of every model on
the thread reuses. Conv1D.backward rebuilds the same columns there from the
cached input and runs the same GEMMs, so its gradients are bitwise those of
a kept column matrix. At FORWARD_CHUNK rows the largest pair
(stage 1, ~1.9 MB in float32) stays in a 2 MiB L2, where fresh buffers are
faulted in again on every pass. The scratch is per thread, so threads that
run different models never share it. Two rules keep this safe:
- no array a layer returns or caches may view the scratch, since the next
  conv overwrites it (the GEMMs write fresh outputs);
- nothing may write into an array handed to a caching conv until that conv's
  backward has run, since backward reads it again. The in-place writes here
  (`h += shortcut`, `g_main += g_short`, the training loop's `grad *= share`)
  hit only conv outputs and gradients.

Every layer takes and returns (batch, channels, length) arrays, but the
convolutions and GlobalAvgPool.backward produce them as transposed views of
(batch, length, channels) memory. numpy's elementwise ops (bias, ReLU, the
residual add, the ReLU mask) keep their inputs' memory order, so activations
and gradients stay channels-last from layer to layer and no transposing copy
sits between convolutions. Results never depend on memory order; a C-ordered
input only costs a copy.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import DataError, NumericalError, PipelineError

__all__ = [
    "Param",
    "Layer",
    "Conv1D",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Softmax",
    "GlobalAvgPool",
    "ResidualBlock",
    "he_normal",
    "make_rng",
    "bce_loss",
    "cce_loss",
    "Adam",
    "PlateauScheduler",
    "PROB_EPS",
]

PROB_EPS = 1e-7  # probability clamp for the cross-entropy losses

_scratch = threading.local()


def _scratch_array(name: str, shape: tuple, dtype) -> np.ndarray:
    """Uninitialized array over this thread's scratch buffer `name`."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_scratch, name, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def make_rng(seed: int) -> np.random.Generator:
    """The one RNG construction used for weights and shuffling: PCG64(seed)."""
    return np.random.Generator(np.random.PCG64(seed))


def he_normal(fan_in: int, shape, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """He-normal draw: N(0, 2/fan_in), i.i.d. per element."""
    if fan_in < 1:
        raise DataError(f"fan_in must be >= 1, got {fan_in}")
    std = math.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


class Param:
    """A trainable tensor and its gradient buffer."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)


class Layer:
    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def _need_cache(self, cache):
        if cache is None:
            raise PipelineError(f"{type(self).__name__}.backward called before forward")
        return cache


class Conv1D(Layer):
    """Strided cross-correlation with 'same' zero padding.

    Input and output are (batch, channels, length); output length is
    ceil(length/stride), padded as evenly as possible with the extra zero on
    the right.

    The engine is a channels-last im2col. Each pass pads the input into a
    (batch, length + pad, in) scratch buffer, where each k-tap window is k*in
    contiguous floats, so the column matrix is a row copy and the output is
    one GEMM against the weights laid out as (k*in, out). That output is
    (batch, out_len, out) memory returned as a (batch, out, out_len) view.
    A caching pass keeps only its input; backward rebuilds the columns from
    it, reads its gradient in the output's memory without a copy and
    scatters the k tap slabs of d(columns) back into a channels-last input
    gradient.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        if kernel_size % 2 == 0:
            raise DataError(f"kernel size must be odd, got {kernel_size}")
        if stride < 1:
            raise DataError(f"stride must be >= 1, got {stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        if rng is None:
            weights = np.zeros((out_channels, in_channels, kernel_size), dtype=dtype)
        else:
            weights = he_normal(in_channels * kernel_size,
                                (out_channels, in_channels, kernel_size), rng, dtype)
        self.w = Param(weights)
        self.b = Param(np.zeros(out_channels, dtype=dtype))
        self._cache = None

    def params(self):
        return [self.w, self.b]

    def spec(self):
        return {"kind": "conv1d", "in": self.in_channels, "out": self.out_channels,
                "kernel": self.kernel_size, "stride": self.stride}

    def _geometry(self, length: int):
        out_len = -(-length // self.stride)  # ceil
        pad_total = max((out_len - 1) * self.stride + self.kernel_size - length, 0)
        pad_left = pad_total // 2
        return out_len, pad_left, pad_total - pad_left

    def _columns(self, x):
        """x's (batch*out_len, k*in) columns in this thread's scratch, padded shape, left pad."""
        batch, _, length = x.shape
        out_len, pad_left, pad_right = self._geometry(length)
        xp = _scratch_array("padded", (batch, length + pad_left + pad_right, self.in_channels),
                            x.dtype)
        xp[:, :pad_left] = 0
        xp[:, pad_left + length:] = 0
        xp[:, pad_left : pad_left + length] = x.transpose(0, 2, 1)
        span = self.kernel_size * self.in_channels
        windows = np.lib.stride_tricks.sliding_window_view(
            xp.reshape(batch, -1), span, axis=1)[:, :: self.stride * self.in_channels]
        cols = _scratch_array("cols", (batch * out_len, span), x.dtype)
        cols.reshape(batch, out_len, span)[...] = windows[:, :out_len]
        return cols, xp.shape, pad_left

    def forward(self, x, *, cache: bool = True):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise DataError(f"conv1d expected (batch, {self.in_channels}, length), "
                            f"got {x.shape}")
        cols, _, _ = self._columns(x)
        self._cache = x if cache else None  # backward rebuilds cols from x
        out = cols @ self.w.value.transpose(2, 1, 0).reshape(cols.shape[1], self.out_channels)
        out += self.b.value
        return out.reshape(x.shape[0], -1, self.out_channels).transpose(0, 2, 1)

    def backward(self, grad):
        x = self._need_cache(self._cache)
        cols, xp_shape, pad_left = self._columns(x)
        batch, _, out_len = grad.shape
        g2 = grad.transpose(0, 2, 1).reshape(batch * out_len, self.out_channels)
        self.w.grad = np.ascontiguousarray(
            (cols.T @ g2).reshape(self.kernel_size, self.in_channels, self.out_channels)
            .transpose(2, 1, 0))
        # batch first, over long contiguous rows: an axis-0 sum of g2 would
        # loop once per row of out_channels floats
        self.b.grad = g2.reshape(batch, -1).sum(axis=0).reshape(out_len, -1).sum(axis=0)
        # one (batch*out_len, in) slab per tap, so col2im adds whole rows;
        # tap j of output t lands on padded position t*stride + j
        taps = np.ascontiguousarray(self.w.value.transpose(2, 0, 1))
        dcols = np.matmul(g2, taps).reshape(self.kernel_size, batch, out_len,
                                             self.in_channels)
        dxp = np.zeros(xp_shape, dtype=grad.dtype)
        for j in range(self.kernel_size):
            dxp[:, j : j + self.stride * out_len : self.stride] += dcols[j]
        return dxp[:, pad_left : pad_left + x.shape[2]].transpose(0, 2, 1)


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            weights = np.zeros((in_features, out_features), dtype=dtype)
        else:
            weights = he_normal(in_features, (in_features, out_features), rng, dtype)
        self.w = Param(weights)
        self.b = Param(np.zeros(out_features, dtype=dtype))
        self._cache = None

    def params(self):
        return [self.w, self.b]

    def spec(self):
        return {"kind": "dense", "in": self.in_features, "out": self.out_features}

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DataError(f"dense expected (batch, {self.in_features}), got {x.shape}")
        self._cache = x
        return x @ self.w.value + self.b.value

    def backward(self, grad):
        x = self._need_cache(self._cache)
        self.w.grad = x.T @ grad
        self.b.grad = grad.sum(axis=0)
        return grad @ self.w.value.T


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def spec(self):
        return {"kind": "relu"}

    def forward(self, x, *, cache: bool = True):
        out = np.maximum(x, x.dtype.type(0))
        self._cache = out if cache else None
        return out

    def backward(self, grad):
        out = self._need_cache(self._cache)
        return grad * (out > 0)


class Sigmoid(Layer):
    def __init__(self):
        self._cache = None

    def spec(self):
        return {"kind": "sigmoid"}

    def forward(self, x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._cache = out
        return out

    def backward(self, grad):
        out = self._need_cache(self._cache)
        return grad * out * (1.0 - out)


class Softmax(Layer):
    """Row softmax over the last axis."""

    def __init__(self):
        self._cache = None

    def spec(self):
        return {"kind": "softmax"}

    def forward(self, x):
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)
        self._cache = out
        return out

    def backward(self, grad):
        out = self._need_cache(self._cache)
        inner = (grad * out).sum(axis=-1, keepdims=True)
        return out * (grad - inner)


class GlobalAvgPool(Layer):
    """(batch, channels, length) -> (batch, channels) mean over length."""

    def __init__(self):
        self._cache = None

    def spec(self):
        return {"kind": "global_avg_pool"}

    def forward(self, x):
        if x.ndim != 3:
            raise DataError(f"global_avg_pool expected 3-D input, got {x.shape}")
        self._cache = x.shape
        return x.mean(axis=2)

    def backward(self, grad):
        batch, channels, length = self._need_cache(self._cache)
        scale = grad.dtype.type(1.0 / length)
        # channels-last memory, like every conv output, so no layer transposes
        spread = np.broadcast_to((grad * scale)[:, None, :], (batch, length, channels))
        return spread.copy().transpose(0, 2, 1)


class ResidualBlock(Layer):
    """conv(k3, stride) -> ReLU -> conv(k3) plus shortcut, then ReLU.

    The shortcut is the identity when shapes allow, otherwise a kernel-1
    projection convolution with the block's stride.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = Conv1D(in_channels, out_channels, 3, stride, rng=rng, dtype=dtype)
        self.relu1 = ReLU()
        self.conv2 = Conv1D(out_channels, out_channels, 3, 1, rng=rng, dtype=dtype)
        if stride != 1 or in_channels != out_channels:
            self.projection = Conv1D(in_channels, out_channels, 1, stride, rng=rng, dtype=dtype)
        else:
            self.projection = None
        self.relu_out = ReLU()

    def params(self):
        out = self.conv1.params() + self.conv2.params()
        if self.projection is not None:
            out += self.projection.params()
        return out

    def spec(self):
        return {"kind": "residual_block", "in": self.in_channels, "out": self.out_channels,
                "stride": self.stride, "projection": self.projection is not None}

    def forward(self, x, *, cache: bool = True):
        shortcut = x if self.projection is None else self.projection.forward(x, cache=cache)
        h = self.conv1.forward(x, cache=cache)
        h = self.conv2.forward(self.relu1.forward(h, cache=cache), cache=cache)
        h += shortcut  # conv2's output is a fresh buffer
        return self.relu_out.forward(h, cache=cache)

    def backward(self, grad):
        gs = self.relu_out.backward(grad)
        g_main = self.conv1.backward(self.relu1.backward(self.conv2.backward(gs)))
        g_short = gs if self.projection is None else self.projection.backward(gs)
        g_main += g_short  # conv1's input gradient is a fresh buffer
        return g_main


# ---------------------------------------------------------------------------
# losses


def _check_binary_targets(targets):
    if not np.all((targets == 0) | (targets == 1)):
        raise DataError("binary targets must be 0 or 1")


def bce_loss(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the probabilities.

    Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before the logs;
    the gradient is zero where the clamp is active.
    """
    probs = np.asarray(probs)
    targets = np.asarray(targets, dtype=np.float64).reshape(probs.shape)
    _check_binary_targets(targets)
    n = probs.size
    p = np.clip(probs.astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
    loss = float(-(targets * np.log(p) + (1.0 - targets) * np.log1p(-p)).sum() / n)
    interior = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    grad = np.where(interior, -(targets / p - (1.0 - targets) / (1.0 - p)) / n, 0.0)
    return loss, grad.astype(probs.dtype)


def cce_loss(probs: np.ndarray, one_hot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean categorical cross-entropy and its gradient w.r.t. the probabilities."""
    probs = np.asarray(probs)
    one_hot = np.asarray(one_hot, dtype=np.float64)
    if probs.ndim != 2 or one_hot.shape != probs.shape:
        raise DataError("cce_loss expects matching (batch, classes) matrices")
    if not np.all((one_hot == 0) | (one_hot == 1)) or not np.all(one_hot.sum(axis=1) == 1):
        raise DataError("targets must be one-hot rows")
    n = probs.shape[0]
    p = np.clip(probs.astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
    loss = float(-(one_hot * np.log(p)).sum() / n)
    interior = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    grad = np.where(interior, -(one_hot / p) / n, 0.0)
    return loss, grad.astype(probs.dtype)


# ---------------------------------------------------------------------------
# optimization


ADAM_BETA1 = 0.9  # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8  # keeps the step finite where the second moment is zero


class Adam:
    """Standard bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params: list[Param], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.t
        correction2 = 1.0 - ADAM_BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g.shape != p.value.shape:
                raise DataError("gradient shape does not match parameter")
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            p.value -= (self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.value.dtype)


PLATEAU_PATIENCE = 4  # epochs without improvement before the rate drops
PLATEAU_FACTOR = 0.5
PLATEAU_MIN_LR = 1e-4
PLATEAU_MIN_DELTA = 1e-8  # a smaller drop in the loss is no improvement


class PlateauScheduler:
    """Halve the learning rate after PLATEAU_PATIENCE epochs without improvement.

    Improvement means the monitored loss dropped below the best seen by more
    than PLATEAU_MIN_DELTA. The rate never falls below PLATEAU_MIN_LR.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.best = math.inf
        self.wait = 0

    def step(self, monitored_loss: float) -> float:
        if monitored_loss < self.best - PLATEAU_MIN_DELTA:
            self.best = monitored_loss
            self.wait = 0
        else:
            self.wait += 1
            if self.wait > PLATEAU_PATIENCE:
                self.lr = max(self.lr * PLATEAU_FACTOR, PLATEAU_MIN_LR)
                self.wait = 0
        return self.lr


def check_finite(name: str, value: np.ndarray | float) -> None:
    """Divergence guard used by the training loop."""
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"{name} diverged (NaN or inf encountered)")
