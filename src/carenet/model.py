"""Residual 1D CNN for spectrum classification, plus checkpoint I/O.

The architecture is fixed: a stride-2 stem conv (kernel 7, 16 filters), four
residual stages with filters (16, 32, 64, 128) of two blocks each (first
block of stages 2-4 downsamples by stride 2 through a kernel-1 projection
shortcut), global average pooling, and a dense head. The type head is one
sigmoid unit; the subtype head is four softmax units.

Checkpoints are CRNS containers (dataset.write_container) of kind
"checkpoint", so one validated reader guards them like every other binary
input.
"""

from __future__ import annotations

import numpy as np

from .dataset import CORE_TYPES, SUBTYPES, read_container, write_container
from .errors import DataError, parsing
from .nn import (
    Conv1D,
    Dense,
    GlobalAvgPool,
    ReLU,
    ResidualBlock,
    Sigmoid,
    Softmax,
    make_rng,
)

__all__ = [
    "CarenetModel",
    "save_checkpoint",
    "load_checkpoint",
    "INPUT_LENGTH",
    "FORWARD_CHUNK",
    "forward_chunks",
    "HEADS",
    "CLASS_NAMES",
    "STAGE_FILTERS",
    "BLOCKS_PER_STAGE",
]

INPUT_LENGTH = 467
HEADS = ("type", "subtype")
# Each head's class names in label-code order. A head's outputs score its
# last n_classes classes: the type head's one sigmoid unit scores CA.
CLASS_NAMES = {"type": CORE_TYPES, "subtype": SUBTYPES}
STAGE_FILTERS = (16, 32, 64, 128)
BLOCKS_PER_STAGE = 2
STEM_KERNEL = 7
STEM_STRIDE = 2
# Most rows in one forward pass: training slices (pipeline.train_fold sums a
# batch's gradients over slices of this many rows), evaluation and Grad-CAM.
# Layer caches grow with the rows of a caching pass, so this, not the batch
# size, sets training's live activation memory (~0.36 MB per float32 row: the
# ReLU outputs, which the convs share as their cached inputs); changing it
# changes training's float rounding, so it stays fixed. On one BLAS thread
# (2 vCPUs) a b=250 training step ran at 518/586/597/581/535 spectra/s in
# slices of 16/32/64/125/250, and forward-only passes (no caches, the conv
# transients in one per-thread scratch) at 1504/1672/1498/1320 spectra/s in
# passes of 10/32/64/250 rows (median of 5): at 32 rows the largest scratch
# pair still fits in the 2 MiB L2.
FORWARD_CHUNK = 32


def forward_chunks(spectra: np.ndarray, rows: np.ndarray):
    """(part, spectra[part]) for each FORWARD_CHUNK slice part of rows: every model pass."""
    for start in range(0, rows.size, FORWARD_CHUNK):
        part = rows[start:start + FORWARD_CHUNK]
        yield part, spectra[part]


class CarenetModel:
    """Layer graph with explicit trunk/head split (Grad-CAM needs the seam)."""

    def __init__(self, head: str, seed: int | None = 0, dtype=np.float32):
        """He-initialized from seed; seed=None gives zero weights and draws
        nothing (for a model whose parameters are set right after)."""
        if head not in HEADS:
            raise DataError(f"head must be one of {HEADS}, got {head!r}")
        self.head = head
        self.dtype = np.dtype(dtype)
        rng = None if seed is None else make_rng(seed)

        self.stem = Conv1D(1, STAGE_FILTERS[0], STEM_KERNEL, STEM_STRIDE, rng=rng, dtype=dtype)
        self.stem_relu = ReLU()
        self.blocks: list[ResidualBlock] = []
        in_ch = STAGE_FILTERS[0]
        for stage, filters in enumerate(STAGE_FILTERS):
            for block in range(BLOCKS_PER_STAGE):
                stride = 2 if stage > 0 and block == 0 else 1
                self.blocks.append(ResidualBlock(in_ch, filters, stride, rng=rng, dtype=dtype))
                in_ch = filters
        self.pool = GlobalAvgPool()
        self.n_classes = 1 if head == "type" else len(CLASS_NAMES[head])
        # Without normalization layers the residual trunk roughly doubles its
        # activation variance per block, so a He-initialized head would start
        # deep in sigmoid/softmax saturation where float32 gradients vanish.
        # Zero-initializing the head starts every probability at 0.5 (or
        # uniform) and lets the trunk wake up through the head's first steps.
        self.dense = Dense(STAGE_FILTERS[-1], self.n_classes, rng=None, dtype=dtype)
        self.activation = Sigmoid() if head == "type" else Softmax()

    @property
    def scored_classes(self) -> range:
        """Class codes of the outputs, in output order: the head's last n_classes."""
        n = len(CLASS_NAMES[self.head])
        return range(n - self.n_classes, n)

    # ---- forward / backward -------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 2:  # (batch, length) convenience
            x = x[:, None, :]
        if x.ndim != 3 or x.shape[1] != 1 or x.shape[2] != INPUT_LENGTH:
            raise DataError(f"model expects (batch, 1, {INPUT_LENGTH}) input, got {x.shape}")
        return x

    def trunk_forward(self, x: np.ndarray, *, cache: bool = True) -> np.ndarray:
        """Activation map after the last residual block: (batch, 128, 30).

        cache=False is a forward-only pass: no trunk layer keeps what its
        backward needs (see nn.py).
        """
        h = self.stem.forward(self._check_input(x), cache=cache)
        h = self.stem_relu.forward(h, cache=cache)
        for block in self.blocks:
            h = block.forward(h, cache=cache)
        return h

    def head_forward(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(logits, probabilities) from a trunk activation map."""
        logits = self.dense.forward(self.pool.forward(features))
        return logits, self.activation.forward(logits)

    def forward(self, x: np.ndarray, *, cache: bool = True) -> np.ndarray:
        """Class probabilities: (batch, 1) sigmoid or (batch, 4) softmax.

        cache=False is a forward-only pass, after which backward raises.
        """
        _, probs = self.head_forward(self.trunk_forward(x, cache=cache))
        return probs

    def backward(self, grad_probs: np.ndarray) -> np.ndarray:
        """Backpropagate from d(loss)/d(probabilities); fills every Param.grad."""
        g = self.activation.backward(grad_probs)
        g = self.head_backward_to_features(g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        return self.stem.backward(self.stem_relu.backward(g))

    def head_backward_to_features(self, grad_logits: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the trunk activation map, given d/d(logits)."""
        return self.pool.backward(self.dense.backward(grad_logits))

    # ---- bookkeeping ----------------------------------------------------------

    def parameters(self):
        return self.trunk_parameters() + self.dense.params()

    def trunk_parameters(self):
        params = self.stem.params()
        for block in self.blocks:
            params += block.params()
        return params

    def layer_specs(self) -> list[dict]:
        specs = [self.stem.spec(), self.stem_relu.spec()]
        specs += [block.spec() for block in self.blocks]
        specs.append(self.pool.spec())
        specs.append(self.dense.spec())
        specs.append(self.activation.spec())
        return specs

    def astype(self, dtype) -> "CarenetModel":
        """Copy of this model with parameters cast (float64 replay mode)."""
        clone = CarenetModel(self.head, seed=None, dtype=dtype)
        clone.set_parameter_values([p.value for p in self.parameters()])
        return clone

    def set_parameter_values(self, values: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(values) != len(params):
            raise DataError("parameter list length mismatch")
        for p, v in zip(params, values):
            if p.value.shape != v.shape:
                raise DataError("parameter shape mismatch")
            p.value = v.astype(p.value.dtype)
            p.grad = np.zeros_like(p.value)

    def parameter_values(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]


# ---------------------------------------------------------------------------
# checkpoints
#
# A checkpoint is a CRNS container (see dataset.py) of kind "checkpoint": one
# float32 array per model.parameters() entry, named by its index, and meta
# recording the head, the input length and the layer graph it was saved from.


def _param_name(index: int) -> str:
    return f"param{index:02d}"


def save_checkpoint(model: CarenetModel, path, metadata: dict | None = None) -> None:
    arrays = {_param_name(i): p.value.astype(np.float32)
              for i, p in enumerate(model.parameters())}
    write_container(path, arrays, {
        "kind": "checkpoint",
        "head": model.head,
        "input_length": INPUT_LENGTH,
        "layers": model.layer_specs(),
        "metadata": metadata or {},
    })


def load_checkpoint(path, expect_head: str | None = None) -> tuple[CarenetModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, metadata)."""
    arrays, meta = read_container(path, "checkpoint")
    with parsing(path, "checkpoint"):
        head = meta.get("head")
        if head not in HEADS:
            raise DataError(f"checkpoint carries unknown head {head!r}")
        if expect_head is not None and head != expect_head:
            raise DataError(f"architecture mismatch, checkpoint head is {head!r} "
                            f"but {expect_head!r} was requested")
        model = CarenetModel(head, seed=None)
        if (meta.get("input_length") != INPUT_LENGTH
                or meta.get("layers") != model.layer_specs()):
            raise DataError("checkpoint layer graph does not match this architecture")
        names = [_param_name(i) for i in range(len(model.parameters()))]
        if arrays.keys() != set(names):
            raise DataError("checkpoint arrays are not this model's parameters")
        if any(a.dtype != np.float32 for a in arrays.values()):
            raise DataError("checkpoint parameters must be float32")
        model.set_parameter_values([arrays[name] for name in names])  # checks each shape
        metadata = meta.get("metadata", {})
        if not isinstance(metadata, dict):
            raise DataError("checkpoint metadata is not a JSON object")
    return model, metadata
