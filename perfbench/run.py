"""carenet benchmark: one workload, one seed, one fresh measured process.

    python3 perfbench/run.py --workload {preprocess,train,infer} --seed N \
        --seconds S --trace {0,1}

Run from the root of a carenet checkout. Set-up (synth plus the inputs the
workload needs) runs SETUP_REPS times, each in a child process, and setup_s is
the median. The measured commands then run in this process through
`carenet.cli.main`, repeated for --seconds (at least MIN_ITERATIONS times),
and every iteration's outputs are checked. With --trace 1, iterations
alternate untraced and traced; the traced ones record module-boundary spans
and give the per-layer metrics, the tracing overhead and the uncovered share
of wall time.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1). A fuller record, with the environment fingerprint, goes to
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "carenet" / "__init__.py").is_file():
    sys.exit(f"perfbench: no carenet sources under {ROOT / 'src'}; run from a carenet checkout")
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread, also in the set-up children. On 2 vCPUs a second OpenBLAS
# thread bought ~10% speed on train for ~1.8x the CPU time, and made the
# iteration-to-iteration spread 2.5x wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
MIN_ITERATIONS = 2
SETUP_TIMEOUT_S = 120
WORK = ROOT / ".perfbench_work"

# Printed name and unit of each measured command's own rate.
RATE_NAMES = {"preprocess": ("preprocess_px_per_s", "px/s"),
              "train": ("train_spectra_per_s", "spectra/s"),
              "eval": ("infer_spectra_per_s", "spectra/s"),
              "gradcam": ("gradcam_spectra_per_s", "spectra/s")}


class SetupFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# environment fingerprint


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "machine": platform.machine(),
    }
    env["fingerprint"] = hashlib.sha256(
        json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    return env


# ---------------------------------------------------------------------------
# phases


def set_up(workload: str, seed: int, work: Path, shape: dict, trace: bool):
    """Run the set-up SETUP_REPS times in child processes.

    Returns (input dir, seconds per repetition, determinism ops, synthgen
    self-seconds per traced repetition). Repetitions after the first must
    reproduce its outputs byte for byte.
    """
    seconds, ops, gen_panel_s = [], [], []
    first_hashes = None
    for rep in range(SETUP_REPS):
        out = work / f"setup{rep}"
        argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(out),
                json.dumps(shape), "1" if trace else "0"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise SetupFailed(f"set-up exceeded {SETUP_TIMEOUT_S} s") from exc
        seconds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupFailed(f"set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
        hashes = {p.name: workloads.sha256(p) for p in workloads.setup_outputs(workload, out)}
        if first_hashes is None:
            first_hashes = hashes
        else:
            same = hashes == first_hashes
            ops.append(workloads.Op(f"setup {rep} determinism", same,
                                    "" if same else "set-up outputs differ from the first"))
        if trace:
            lines = (out / "spans.jsonl").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            gen_panel_s.append(spans.self_times(
                [[r["name"], r["start"], r["end"], r["parent"], r["run"]] for r in records]
            ).get("synthgen.gen_panel", 0.0))
        if rep > 0:
            shutil.rmtree(out)
    return work / "setup0", seconds, ops, gen_panel_s


def measure(wl: workloads.Workload, seconds: float, trace: bool, work: Path):
    """Repeat the workload's commands for about `seconds`.

    With trace, iteration 0 is an untraced warm-up, so that first-call costs
    do not land on one side of the overhead comparison; after it, odd
    iterations are traced and even ones are not.
    """
    tracer = spans.Tracer() if trace else None
    iterations, ops = [], []
    first_hashes = None
    min_iterations = MIN_ITERATIONS + (1 if trace else 0)
    loop_start = time.perf_counter()
    last = 0.0
    while len(iterations) < min_iterations or time.perf_counter() - loop_start + last <= seconds:
        started = time.perf_counter()
        index = len(iterations)
        out = work / f"iter{index}"
        role = "plain" if not trace else "warmup" if index == 0 else \
            "traced" if index % 2 else "plain"
        if role == "traced":
            tracer.run_id = f"iter{index}"
            tracer.install()
        codes, wall, cpu = {}, {}, {}
        try:
            for name, argv in wl.commands(out):
                t0, c0 = time.perf_counter(), time.process_time()
                codes[name] = workloads.run_cli(argv)
                wall[name] = time.perf_counter() - t0
                cpu[name] = time.process_time() - c0
        finally:
            if role == "traced":
                tracer.uninstall()
        try:
            iter_ops, hashes = wl.check(out, codes)
        except (OSError, ValueError, KeyError, workloads.DataError) as exc:
            iter_ops, hashes = [workloads.Op(f"iteration {index} outputs", False, repr(exc))], {}
        if first_hashes is None and all(code == 0 for code in codes.values()):
            first_hashes = hashes
        elif hashes and first_hashes is not None:
            same = hashes == first_hashes
            iter_ops.append(workloads.Op(f"iteration {index} determinism", same,
                                         "" if same else "outputs differ from the first"))
        ops += iter_ops
        shutil.rmtree(out, ignore_errors=True)
        iterations.append({"role": role, "run_id": f"iter{index}", "codes": codes,
                           "wall_s": wall, "cpu_s": cpu})
        last = time.perf_counter() - started
    return iterations, ops, tracer


# ---------------------------------------------------------------------------
# metrics and report


def _rates(wl, iterations):
    """Median over iterations of the workload rate and of each command's rate."""
    total = [sum(wl.items.values()) / sum(it["wall_s"].values()) for it in iterations]
    per_cmd = {cmd: statistics.median(wl.items[cmd] / it["wall_s"][cmd] for it in iterations)
               for cmd in wl.items}
    cpu_share = sum(sum(it["cpu_s"].values()) for it in iterations) / \
        sum(sum(it["wall_s"].values()) for it in iterations)
    return statistics.median(total), per_cmd, cpu_share


def _lines_for(label, wl, items_per_s, per_cmd, setup_s, peak_rss_mb, attempted, failed):
    lines = [f"{label} setup_s {setup_s:.6f} s",
             f"{label} items_per_s {items_per_s:.6f} 1/s",
             f"{label} peak_rss_mb {peak_rss_mb:.3f} MB"]
    for cmd, rate in per_cmd.items():
        name, unit = RATE_NAMES[cmd]
        lines.append(f"{label} {name} {rate:.6f} {unit}")
    lines.append(f"{label} failed_frac {failed / attempted:.6f} 1 "
                 f"(failed {failed} of {attempted} operations)")
    if wl.tissue_agreement:
        lines.append(f"{label} tissue_agreement {statistics.median(wl.tissue_agreement):.6f} 1")
    return lines


def _extrapolations(per_cmd, cpu_share):
    lines = []
    for cmd, items, what in (("preprocess", workloads.PAPER_PIXELS,
                              "preprocess 60 cores of 320x320"),
                             ("train", workloads.PAPER_TRAIN_SPECTRA,
                              "train 1.5M spectra x 50 epochs x 4 folds x 2 heads")):
        if cmd in per_cmd:
            wall_h = items / per_cmd[cmd] / 3600
            lines.append(f"extrapolation (linear, not gated): {what}: {wall_h:.1f} wall-hours, "
                         f"{wall_h * cpu_share:.1f} CPU-hours at {per_cmd[cmd]:.1f} "
                         f"{RATE_NAMES[cmd][1]} and {cpu_share:.2f} CPU s per wall s")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        shape: dict | None = None, spans_path: Path | None = None):
    """One benchmark run. Returns (report lines, final result, full record).

    With trace, the spans are written to spans_path when given."""
    shape = shape or workloads.SHAPES[workload]
    setup = set_up(workload, seed, work, shape, trace)
    return measure_and_report(workload, seed, seconds, trace, work, shape, setup, spans_path)


def measure_and_report(workload, seed, seconds, trace, work, shape, setup, spans_path=None):
    """The measured part of `run`, given what `set_up` returned."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    inputs, setup_s, ops, gen_panel_s = setup
    wl = workloads.Workload(workload, seed, inputs, shape)
    iterations, iter_ops, tracer = measure(wl, seconds, trace, work)
    ops += iter_ops
    attempted, failed = len(ops), sum(not op.ok for op in ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = ["env " + json.dumps(env, sort_keys=True)]
    plain = [it for it in iterations if it["role"] == "plain"]
    items_per_s, per_cmd, cpu_share = _rates(wl, plain)
    setup_median = statistics.median(setup_s)
    if not trace:
        lines += _lines_for("e2e", wl, items_per_s, per_cmd, setup_median, peak_rss_mb,
                            attempted, failed)
        values = {"setup_s": setup_median, "items_per_s": items_per_s,
                  "peak_rss_mb": peak_rss_mb}
        declared_metrics = declared["end_to_end"]
    else:
        traced = [it for it in iterations if it["role"] == "traced"]
        t_items, t_per_cmd, _ = _rates(wl, traced)
        lines += _lines_for("e2e", wl, t_items, t_per_cmd, setup_median, peak_rss_mb,
                            attempted, failed)
        lines.append(f"trace overhead items_per_s {t_items - items_per_s:+.6f} 1/s "
                     f"(traced {t_items:.6f} minus untraced {items_per_s:.6f})")
        for cmd in per_cmd:
            name, unit = RATE_NAMES[cmd]
            lines.append(f"trace overhead {name} {t_per_cmd[cmd] - per_cmd[cmd]:+.6f} {unit}")
        covered = spans.top_level_seconds(tracer.spans)
        walls = {it["run_id"]: sum(it["wall_s"].values()) for it in traced}
        uncovered = statistics.mean(1 - covered[run_id] / wall for run_id, wall in walls.items())
        lines.append(f"trace uncovered_frac {uncovered:.6f} 1 (share of traced wall time "
                     f"outside every span, {workload})")
        per_iteration = len(tracer.spans) / len(traced)
        cost = spans.span_cost_s()
        lines.append(f"trace span cost {cost * 1e6:.3f} us x {per_iteration:.0f} spans per "
                     f"iteration = {cost * per_iteration / statistics.mean(walls.values()):.6f} "
                     "of traced wall time")
        values = spans.layer_metrics(tracer, len(traced))
        values["synthgen.gen_panel.s"] = statistics.median(gen_panel_s)
        values["trace.overhead_frac"] = 1 - t_items / items_per_s
        values["trace.uncovered_frac"] = uncovered
        declared_metrics = declared["per_layer"]
        if spans_path is not None:
            tracer.dump(spans_path)
        lines += [f"layer {name} {values[name]:.6g}" for name in sorted(values)]
    lines += _extrapolations(per_cmd, cpu_share)
    for op in ops:
        if not op.ok:
            lines.append(f"failed operation: {op.name}: {op.detail}")

    missing = {m["name"] for m in declared_metrics} - set(values)
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                          for m in declared_metrics}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "shape": shape, "env": env, "setup_s": setup_s, "iterations": iterations,
              "items": wl.items, "failed_ops": [vars(op) for op in ops if not op.ok],
              "lines": lines, "result": result}
    return lines, result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        lines, result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                    work, spans_path=results / f"{tag}-spans.jsonl")
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
