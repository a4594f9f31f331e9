"""Module-boundary spans for carenet, recorded from outside the package.

`Tracer.install` wraps the public functions and methods at each module
boundary. A function is replaced in every `carenet.*` namespace that holds it,
because the CLI imports names directly; a method is replaced on its class.
`uninstall` restores the originals. Each span is [name, start, end, parent
index, run id]; spans stay in memory until `dump`.

Self time is a span's duration minus the durations of its child spans.
`layer_metrics` turns spans and counters into the per-layer metrics declared
in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

from carenet import (chemometrics, cli, clustering, dataset, evaluation, gradcam,
                     model, nn, pipeline, spectral, synthgen)

STAGES = range(1, len(model.STAGE_FILTERS) + 1)

# Spans whose summed self time per traced iteration is reported as "<name>.s".
# synthgen.gen_panel runs only in set-up; the benchmark reports it from there.
SELF_TIME_SPANS = (
    "cli.preprocess", "cli.train", "cli.eval", "cli.gradcam",
    "dataset.read_cube", "dataset.write_spectraset", "dataset.read_spectraset",
    "clustering.select_tissue", "clustering.select_paraffin", "clustering.kmeans",
    "chemometrics.remove_outliers", "chemometrics.rank_estimate", "chemometrics.pca_fit",
    "chemometrics.emsc_build_model", "chemometrics.emsc_correct_rows",
    "spectral.savgol_smooth", "spectral.minmax_normalize_rows",
    "spectral.integrate_band_rows",
    "pipeline.preprocess_core", "pipeline.preprocess_h2o", "pipeline.train_fold",
    "model.forward", "model.backward", "model.trunk_forward",
    "model.save_checkpoint", "model.load_checkpoint",
    "nn.Adam.step", "nn.loss", "evaluation", "gradcam.gradcam_spectrum", "gradcam.write",
)


def _file_mb(counts, name, args, result):
    counts[name + ".mb"] += os.path.getsize(args[0]) / 1e6


def _batch(counts, name, args, result):
    """Rows of the batch passed after self (or after the model, for gradcam)."""
    counts[name + ".n"] += args[1].shape[0]


def _block_flops(block, batch: int, out_len: int) -> float:
    """Forward FLOPs (2 per multiply-add) of a block's convolutions, from shapes."""
    convs = [block.conv1, block.conv2]
    if block.projection is not None:
        convs.append(block.projection)
    return 2.0 * batch * out_len * sum(c.out_channels * c.in_channels * c.kernel_size
                                       for c in convs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._block_stage: dict[int, tuple[int, bool]] = {}

    # ---- recording --------------------------------------------------------

    def _wrap(self, fn, name, count=None):
        """`name` is a span name, or a callable of the call's args giving one
        (None means: call through without a span)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, span_name, args, result)
            return result
        return wrapper

    def _function(self, module, attr, name, count=None):
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "carenet" and not mod_name.startswith("carenet."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, count))
        self._undo.append((cls, attr, original))

    # ---- nn stage bookkeeping ----------------------------------------------

    def _register_blocks(self, init):
        """Map each ResidualBlock to its stage by its index in model.blocks."""
        @functools.wraps(init)
        def wrapper(net, *args, **kwargs):
            init(net, *args, **kwargs)
            for i, block in enumerate(net.blocks):
                self._block_stage[id(block)] = (i // model.BLOCKS_PER_STAGE + 1,
                                                i % model.BLOCKS_PER_STAGE == 0)
        return wrapper

    def _stage_name(self, direction):
        def name(args):
            stage = self._block_stage.get(id(args[0]))
            return None if stage is None else f"nn.stage{stage[0]}.{direction}"
        return name

    def _stage_count(self, counts, name, args, result):
        block, tensor = args[0], args[1]
        first = self._block_stage[id(block)][1]
        if name.endswith(".fwd"):
            flops = _block_flops(block, tensor.shape[0], -(-tensor.shape[2] // block.stride))
        else:  # gradients w.r.t. inputs and weights: twice the forward work
            flops = 2.0 * _block_flops(block, tensor.shape[0], tensor.shape[2])
        counts[name + ".flop"] += flops
        if first:
            counts[name + ".n"] += tensor.shape[0]

    # ---- install / uninstall -------------------------------------------------

    def install(self) -> None:
        f, m = self._function, self._method
        for cmd in ("preprocess", "train", "eval", "gradcam"):
            f(cli, f"cmd_{cmd}", f"cli.{cmd}")
        f(synthgen, "gen_panel", "synthgen.gen_panel")
        f(dataset, "read_cube", "dataset.read_cube", _file_mb)
        f(dataset, "write_spectraset", "dataset.write_spectraset")
        f(dataset, "read_spectraset", "dataset.read_spectraset", _file_mb)
        f(clustering, "select_tissue", "clustering.select_tissue")
        f(clustering, "select_paraffin", "clustering.select_paraffin")

        def kmeans_iters(counts, name, args, result):
            counts[name + ".iters"] += result.n_iter
        f(clustering, "kmeans", "clustering.kmeans", kmeans_iters)

        def outlier_rows(counts, name, args, result):
            counts[name + ".n"] += args[0].shape[0]
            counts[name + ".kept"] += int(result[1].kept.sum())
        f(chemometrics, "remove_outliers", "chemometrics.remove_outliers", outlier_rows)
        f(chemometrics, "rank_estimate", "chemometrics.rank_estimate")
        f(chemometrics, "pca_fit", "chemometrics.pca_fit")
        f(chemometrics, "emsc_build_model", "chemometrics.emsc_build_model")

        def emsc_rows(counts, name, args, result):
            counts[name + ".n"] += args[0].shape[0]
            counts[name + ".usable"] += int(result[2].sum())
        f(chemometrics, "emsc_correct_rows", "chemometrics.emsc_correct_rows", emsc_rows)
        for fn in ("savgol_smooth", "minmax_normalize_rows", "integrate_band_rows"):
            f(spectral, fn, f"spectral.{fn}")
        f(pipeline, "preprocess_h2o", "pipeline.preprocess_h2o")
        f(pipeline, "preprocess_core", "pipeline.preprocess_core")

        def skipped(counts, name, args, result):
            counts[name + ".skipped"] += len(result[2])
        f(pipeline, "preprocess_panel", "pipeline.preprocess_panel", skipped)

        def fold_spectra(counts, name, args, result):
            counts[name + ".n"] += args[1].shape[0] * args[0].epochs
        f(pipeline, "train_fold", "pipeline.train_fold", fold_spectra)

        init = model.CarenetModel.__init__
        model.CarenetModel.__init__ = self._register_blocks(init)
        self._undo.append((model.CarenetModel, "__init__", init))
        m(model.CarenetModel, "forward", "model.forward", _batch)
        m(model.CarenetModel, "backward", "model.backward")
        m(model.CarenetModel, "trunk_forward", "model.trunk_forward")
        m(model.CarenetModel, "head_forward", "nn.head.fwd", _batch)
        f(model, "save_checkpoint", "model.save_checkpoint")
        f(model, "load_checkpoint", "model.load_checkpoint")
        def stem(args):  # the stem is the only convolution with one input channel
            return "nn.stem.fwd" if args[0].in_channels == 1 else None
        m(nn.Conv1D, "forward", stem, _batch)
        m(nn.ResidualBlock, "forward", self._stage_name("fwd"), self._stage_count)
        m(nn.ResidualBlock, "backward", self._stage_name("bwd"), self._stage_count)
        m(nn.Adam, "step", "nn.Adam.step")
        f(nn, "bce_loss", "nn.loss")
        f(nn, "cce_loss", "nn.loss")
        for fn in evaluation.__all__:
            if not isinstance(getattr(evaluation, fn), type):  # functions, not row classes
                f(evaluation, fn, "evaluation")
        f(gradcam, "gradcam_spectrum", "gradcam.gradcam_spectrum", _batch)
        for fn in ("class_average", "write_heatmap_csv", "write_heatmap_svg"):
            f(gradcam, fn, "gradcam.write")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


# ---------------------------------------------------------------------------
# analysis


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call, timed on a wrapped no-op."""
    def noop():
        return None
    wrapped = Tracer()._wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls


def self_times(spans) -> dict[str, float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - covered[i]
    return out


def top_level_seconds(spans) -> dict[str, float]:
    """Per run id, the wall time covered by spans that have no parent."""
    out: defaultdict[str, float] = defaultdict(float)
    for _, start, end, parent, run in spans:
        if parent < 0:
            out[run] += end - start
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(tracer: Tracer, n_runs: int) -> dict[str, float]:
    """Per-layer metrics, each per traced iteration unless it is a ratio."""
    own = self_times(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans)
    c = tracer.counts
    out = {f"{name}.s": own.get(name, 0.0) / n_runs for name in SELF_TIME_SPANS}
    for key in ("dataset.read_cube.mb", "dataset.read_spectraset.mb",
                "clustering.kmeans.iters", "chemometrics.remove_outliers.n",
                "chemometrics.emsc_correct_rows.n", "pipeline.preprocess_panel.skipped",
                "pipeline.train_fold.n", "model.forward.n", "gradcam.gradcam_spectrum.n"):
        out[key] = c[key] / n_runs
    out["chemometrics.remove_outliers.calls"] = calls["chemometrics.remove_outliers"] / n_runs
    out["model.forward.calls"] = calls["model.forward"] / n_runs
    out["chemometrics.remove_outliers.kept_frac"] = _ratio(
        c["chemometrics.remove_outliers.kept"], c["chemometrics.remove_outliers.n"])
    out["chemometrics.emsc_correct_rows.usable_frac"] = _ratio(
        c["chemometrics.emsc_correct_rows.usable"], c["chemometrics.emsc_correct_rows.n"])
    core_s = [end - start for name, start, end, _, _ in tracer.spans
              if name == "pipeline.preprocess_core"]
    out["pipeline.preprocess_core.p50_s"] = statistics.median(core_s) if core_s else 0.0
    out["pipeline.preprocess_core.p90_s"] = (
        statistics.quantiles(core_s, n=10, method="inclusive")[8] if len(core_s) >= 2
        else out["pipeline.preprocess_core.p50_s"])
    out["nn.stem.fwd_us_per_spectrum"] = _ratio(own.get("nn.stem.fwd", 0.0),
                                                c["nn.stem.fwd.n"], 1e6)
    out["nn.head.fwd_us_per_spectrum"] = _ratio(own.get("nn.head.fwd", 0.0),
                                                c["nn.head.fwd.n"], 1e6)
    for k in STAGES:
        fwd, bwd = f"nn.stage{k}.fwd", f"nn.stage{k}.bwd"
        out[f"nn.stage{k}.fwd_us_per_spectrum"] = _ratio(own.get(fwd, 0.0), c[fwd + ".n"], 1e6)
        out[f"nn.stage{k}.bwd_us_per_spectrum"] = _ratio(own.get(bwd, 0.0), c[bwd + ".n"], 1e6)
        out[f"nn.stage{k}.gflop_per_s"] = _ratio(
            c[fwd + ".flop"] + c[bwd + ".flop"], own.get(fwd, 0.0) + own.get(bwd, 0.0), 1e-9)
    return out
