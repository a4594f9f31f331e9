"""Command-line entry point tying all stages into reproducible runs.

Subcommands: synth | preprocess | train | eval | gradcam. Every command
writes its outputs plus a run manifest (JSON) into a run directory; identical
seeds reproduce bit-identical containers, checkpoints, and CSV reports.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import write_masks_pgm
from .dataset import (
    CORE_TYPES,
    read_spectraset,
    write_cube,
    write_spectraset,
)
from .errors import DataError, NumericalError
from .evaluation import (
    ConfusionCounts,
    MetricRow,
    classify,
    compute_metrics,
    fold_mean_std,
    patient_vote,
    write_metrics_csv,
    write_patient_table_csv,
)
from .gradcam import class_average, gradcam_spectrum, write_heatmap_csv, write_heatmap_svg
from .model import CLASS_NAMES, HEADS, load_checkpoint, save_checkpoint
from .pipeline import (
    Fold,
    SplitPlan,
    TrainConfig,
    forward_chunked,
    head_labels,
    head_mask,
    make_split,
    patients_from_spectraset,
    preprocess_panel,
    train_folds,
)
from .synthgen import SynthConfig, gen_panel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines, '#' comments


def parse_config_file(path) -> dict:
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = _parse_value(raw)
    return values


def _parse_value(raw: str):
    if "," in raw:
        return tuple(_parse_value(part.strip()) for part in raw.split(","))
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


class UsageError(Exception):
    pass


def _synth_config(options: dict, seed: int) -> SynthConfig:
    known = {
        "n_patients", "image_size", "noise_sigma", "class_separation",
        "spike_fraction", "spike_amplitude", "scale_range",
        "baseline_const_range", "baseline_coef_range",
    }
    unknown = set(options) - known
    if unknown:
        raise UsageError(f"unknown synth config keys: {sorted(unknown)}")
    kwargs = dict(options)
    if "n_patients" in kwargs:
        n = kwargs["n_patients"]
        if not (isinstance(n, tuple) and len(n) == 4):
            raise UsageError("n_patients must be four comma-separated counts")
    else:
        kwargs["n_patients"] = (8, 8, 7, 7)  # cohort-shaped default: 60 cores
    try:
        return SynthConfig(seed=seed, **kwargs)
    except (DataError, TypeError) as exc:
        raise UsageError(f"bad synth config: {exc}") from exc


# ---------------------------------------------------------------------------
# run directories and manifests


def _run_dir(args, command: str) -> Path:
    if args.out_dir is not None:
        path = Path(args.out_dir)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = Path("runs") / f"{stamp}-seed{args.seed}-{command}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(run_dir: Path, command: str, args, config_snapshot: dict,
                    inputs: list[str], outputs: list[str], started: float,
                    extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "argv": args.argv,
        "package_version": __version__,
        "seed": args.seed,
        "config": config_snapshot,
        "inputs": sorted(str(p) for p in inputs),
        "outputs": sorted(str(p) for p in outputs),
        "started_unix": started,
        "elapsed_s": time.time() - started,
        # this process's peak so far: on Linux ru_maxrss counts KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if extra:
        manifest.update(extra)
    _write_json(run_dir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    started = time.time()
    options = parse_config_file(args.config) if args.config else {}
    config = _synth_config(options, seed=args.seed)
    run_dir = _run_dir(args, "synth")
    outputs = []
    cores = {}

    def write(cube, truth) -> None:
        # gen_panel hands over each cube as soon as it exists: one cube is live
        name = "h2o.crns" if truth is None else f"core_{cube.core_id:04d}.crns"
        write_cube(cube, run_dir / name, ground_truth=truth)
        if truth is not None:
            cores[str(cube.core_id)] = name
        outputs.append(run_dir / name)

    patients = gen_panel(config, emit=write)
    index = {"seed": config.seed, "cores": cores, "h2o": "h2o.crns", "patients": [
        {"patient_id": record.patient_id, "subtype": record.subtype,
         "ca_core_id": record.ca_core_id, "at_core_id": record.at_core_id}
        for record in patients]}
    _write_json(run_dir / "panel.json", index)
    outputs.append(run_dir / "panel.json")

    _write_manifest(run_dir, "synth", args, _config_dict(config),
                    inputs=[args.config] if args.config else [],
                    outputs=outputs, started=started)
    print(f"synth: {len(cores)} cores -> {run_dir}")
    return EXIT_OK


def _config_dict(config: SynthConfig) -> dict:
    """The config's scalar and range fields, for manifest.json."""
    out = {}
    for field in dataclasses.fields(config):
        if field.name not in ("tissue_bands", "axis"):
            value = getattr(config, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
    return out


def _panel_paths(panel_dir: Path) -> tuple[list[Path], Path]:
    """Core cube paths in core-id order and the H2O cube path, from panel.json."""
    index_path = panel_dir / "panel.json"
    if not index_path.exists():
        raise DataError(f"{panel_dir}: no panel.json found")
    try:
        with open(index_path, "r", encoding="utf-8") as fh:
            index = json.load(fh)
        cores = {int(k): v for k, v in index["cores"].items()}
        h2o_name = index["h2o"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{index_path}: malformed panel index ({exc!r})") from exc
    names = list(cores.values()) + [h2o_name]
    if not all(isinstance(name, str) for name in names):
        raise DataError(f"{index_path}: cube file names must be strings")
    return [panel_dir / cores[core_id] for core_id in sorted(cores)], panel_dir / h2o_name


def cmd_preprocess(args) -> int:
    started = time.time()
    run_dir = _run_dir(args, "preprocess")
    core_paths, h2o_path = _panel_paths(Path(args.input))
    sset, results, skipped = preprocess_panel(core_paths, h2o_path, seed=args.seed,
                                              jobs=args.jobs)
    out_path = run_dir / "spectra.crns"
    write_spectraset(sset, out_path)
    outputs = [out_path]
    for core_id, result in sorted(results.items()):
        pgm_path = run_dir / f"masks_core_{core_id:04d}.pgm"
        write_masks_pgm(pgm_path, result.tissue_mask, result.paraffin_mask)
        outputs.append(pgm_path)
    for core_id, reason in skipped:
        print(f"preprocess: skipped core {core_id}: {reason}", file=sys.stderr)
    try:  # its refusal depends on the subtype counts only, not on the seed
        make_split(patients_from_spectraset(sset), seed=args.seed)
    except DataError as exc:
        print(f"preprocess: warning: train cannot split this container: {exc}",
              file=sys.stderr)
    stage_log = {str(cid): dataclasses.asdict(r.counts) for cid, r in sorted(results.items())}
    flagged = sorted(cid for cid, r in results.items()
                     if not (r.tissue_mask.plausible and r.paraffin_mask.plausible))
    _write_manifest(run_dir, "preprocess", args, {"jobs": args.jobs},
                    inputs=[args.input], outputs=outputs, started=started,
                    extra={"stage_counts": stage_log,
                           "implausible_cores": flagged,
                           "skipped": [{"core_id": cid, "reason": r} for cid, r in skipped]})
    print(f"preprocess: {len(sset)} spectra from {len(results)} cores -> {out_path}")
    return EXIT_OK


def _split_to_json(plan: SplitPlan) -> dict:
    return {
        "seed": plan.seed,
        "test_patients": list(plan.test_patients),
        "test_type_cores": [[pid, kind] for pid, kind in plan.test_type_cores],
        "folds": [
            {"train": list(f.train_patients), "dev": list(f.dev_patients)}
            for f in plan.folds
        ],
    }


def _split_from_json(path: Path) -> SplitPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        plan = SplitPlan(
            seed=int(data["seed"]),
            test_patients=tuple(int(p) for p in data["test_patients"]),
            test_type_cores=tuple((int(p), str(k)) for p, k in data["test_type_cores"]),
            folds=tuple(
                Fold(train_patients=tuple(int(p) for p in f["train"]),
                     dev_patients=tuple(int(p) for p in f["dev"]))
                for f in data["folds"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed split ({exc!r})") from exc
    if not plan.folds:
        raise DataError(f"{path}: split lists no folds")
    for pid, kind in plan.test_type_cores:
        if pid not in plan.test_patients or kind not in CORE_TYPES:
            raise DataError(f"{path}: test core ({pid}, {kind!r}) is not the CA or AT "
                            f"core of a test patient")
    return plan


def cmd_train(args) -> int:
    started = time.time()
    run_dir = _run_dir(args, "train")
    sset = read_spectraset(Path(args.container))
    patients = patients_from_spectraset(sset)
    plan = make_split(patients, seed=args.seed)

    config = TrainConfig(head=args.head, epochs=args.epochs, batch_size=args.batch_size,
                         lr=args.lr, seed=args.seed)

    outputs = []
    history_all = {}
    for fold_index, result in enumerate(train_folds(sset, plan, config), start=1):
        for kind, model in (("final", result.model_final), ("best", result.model_best)):
            path = run_dir / f"fold{fold_index}_{kind}.crnm"
            save_checkpoint(model, path, metadata={
                "seed": args.seed, "fold": fold_index, "kind": kind,
                "best_epoch": result.best_epoch, "head": config.head,
            })
            outputs.append(path)
        history_all[f"fold{fold_index}"] = {
            "best_epoch": result.best_epoch,
            "epochs": result.history_dicts(),
        }
        last = result.history[-1]
        print(f"train fold {fold_index}: dev_loss {last.dev_loss:.4f} "
              f"dev_acc {last.dev_accuracy:.3f} (best epoch {result.best_epoch})")

    split_path = run_dir / "split.json"
    _write_json(split_path, _split_to_json(plan))
    history_path = run_dir / "history.json"
    _write_json(history_path, history_all)
    outputs += [split_path, history_path]
    _write_manifest(run_dir, "train", args,
                    {"head": config.head, "epochs": config.epochs,
                     "batch_size": config.batch_size, "lr": config.lr},
                    inputs=[args.container], outputs=outputs, started=started)
    return EXIT_OK


def _fold_rows(set_name: str, granularity: str, head: str, class_names,
               per_fold) -> list[MetricRow]:
    """One row per class: metrics as mean +- std over folds, counts pooled."""
    rows = []
    for cls, name in enumerate(class_names):
        counts = [compute_metrics(pred, truth, cls) for pred, truth in per_fold]
        pooled = ConfusionCounts(sum(c.tp for c in counts), sum(c.fp for c in counts),
                                 sum(c.tn for c in counts), sum(c.fn for c in counts))
        rows.append(MetricRow(set_name, head, name, granularity,
                              fold_mean_std([c.accuracy for c in counts]),
                              fold_mean_std([c.specificity for c in counts]),
                              fold_mean_std([c.sensitivity for c in counts]),
                              pooled))
    return rows


def _evaluate(checkpoints, sset, plan):
    """Spectrum-level dev metrics and per-core voting on the held-out cores.

    checkpoints holds one fold checkpoint path per fold. Each is loaded,
    evaluated and dropped before the next, so one model and its layer caches
    are live at a time. The first sets the head, and the rest must share it.
    Returns (head, metric rows, patient table rows).
    """
    head = None
    dev, test = [], []
    for path, fold in zip(checkpoints, plan.folds):
        model, _ = load_checkpoint(path, expect_head=head)
        if head is None:
            head = model.head
            labels = head_labels(sset, head)
            test_cores = _test_cores(sset, plan, head)
            truth = np.array([int(labels[rows[0]]) for _, _, rows in test_cores])
        dev_rows = np.flatnonzero(head_mask(sset, head, fold.dev_patients))
        dev.append((classify(forward_chunked(model, sset.spectra, dev_rows), head),
                    labels[dev_rows].astype(np.int64)))
        votes = [patient_vote(forward_chunked(model, sset.spectra, rows), head)
                 for _, _, rows in test_cores]
        test.append((np.array(votes), truth))

    class_names = CLASS_NAMES[head]
    rows = (_fold_rows("dev", "spectrum", head, class_names, dev)
            + _fold_rows("test", "patient", head, class_names, test))
    table = [{"label": head, "patient_id": pid, "core": kind,
              "ground_truth": class_names[cls],
              "predictions": [class_names[votes[i]] for votes, _ in test]}
             for i, ((pid, kind, _), cls) in enumerate(zip(test_cores, truth))]
    return head, rows, table


def _test_cores(sset, plan, head: str):
    """[(patient, "CA"|"AT", row indices)] of the held-out cores the head votes on:
    two CA and two AT cores for the type head, the four test patients' CA
    cores for the subtype head."""
    pairs = (plan.test_type_cores if head == "type"
             else [(pid, "CA") for pid in plan.test_patients])
    return [(pid, kind, np.flatnonzero((sset.patient_id == pid)
                                       & (sset.core_type == CORE_TYPES.index(kind))))
            for pid, kind in pairs]


def _load_run(args):
    """(container, split plan) for a command reading a train run.

    The run directory must hold split.json, and the container every patient
    the split names, each with one CA and one AT core.
    """
    train_dir = Path(args.train_dir)
    sset = read_spectraset(Path(args.container))
    patient_ids = {p.patient_id for p in patients_from_spectraset(sset)}
    split_path = train_dir / "split.json"
    if not split_path.exists():
        raise DataError(f"{train_dir}: no split.json (is this a train run directory?)")
    plan = _split_from_json(split_path)
    named = set(plan.test_patients).union(*(f.train_patients + f.dev_patients
                                            for f in plan.folds))
    missing = sorted(named - patient_ids)
    if missing:
        raise DataError(f"container lacks patients {missing} that {split_path} names")
    return sset, plan


def cmd_eval(args) -> int:
    started = time.time()
    run_dir = _run_dir(args, "eval")
    train_dir = Path(args.train_dir)
    sset, plan = _load_run(args)
    checkpoints = [train_dir / f"fold{k}_{args.which}.crnm"
                   for k in range(1, len(plan.folds) + 1)]
    head, rows, table = _evaluate(checkpoints, sset, plan)

    metrics_path = run_dir / "metrics.csv"
    table_path = run_dir / "patients.csv"
    write_metrics_csv(rows, metrics_path)
    write_patient_table_csv(table, table_path)
    _write_manifest(run_dir, "eval", args, {"which": args.which, "head": head},
                    inputs=[args.container, args.train_dir],
                    outputs=[metrics_path, table_path], started=started)
    print(f"eval: {head} head -> {metrics_path}")
    return EXIT_OK


def _best_fold(path: Path) -> str:
    """Name of the fold whose best epoch has the lowest dev loss."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            history = json.load(fh)
        losses = {name: min(float(e["dev_loss"]) for e in fold["epochs"])
                  for name, fold in history.items()}
        return min(losses, key=losses.get)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed training history ({exc!r})") from exc


def cmd_gradcam(args) -> int:
    started = time.time()
    run_dir = _run_dir(args, "gradcam")
    train_dir = Path(args.train_dir)
    sset, plan = _load_run(args)
    history_path = train_dir / "history.json"
    if not history_path.exists():
        raise DataError(f"{train_dir}: no history.json (is this a train run directory?)")
    best_fold = _best_fold(history_path)
    model, _ = load_checkpoint(train_dir / f"{best_fold}_best.crnm")

    # attribute each class's test spectra to that class, then average per class
    test = np.isin(sset.patient_id, np.asarray(plan.test_patients))
    labels = head_labels(sset, model.head)
    groups: dict[str, np.ndarray] = {}
    for idx in model.scored_classes:
        groups[CLASS_NAMES[model.head][idx]] = gradcam_spectrum(
            model, sset.spectra[test & (labels == idx)], target_class=idx)

    heatmaps = class_average(groups)
    outputs = []
    for name, heatmap in heatmaps.items():
        csv_path = run_dir / f"heatmap_{name}.csv"
        svg_path = run_dir / f"heatmap_{name}.svg"
        write_heatmap_csv(heatmap, sset.axis, csv_path)
        write_heatmap_svg(heatmap, sset.axis, svg_path)
        outputs += [csv_path, svg_path]
    _write_manifest(run_dir, "gradcam", args, {"best_fold": best_fold},
                    inputs=[args.container, args.train_dir],
                    outputs=outputs, started=started)
    print(f"gradcam: {len(heatmaps)} heatmap(s) from {best_fold} -> {run_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low: int):
    """argparse type for an unsigned decimal integer of at least low (low >= 0)."""
    def parse(text: str) -> int:
        if not (text.isdecimal() and int(text) >= low):
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carenet",
        description="Synthetic micro-FTIR pipeline: generate, preprocess, train, "
                    "evaluate, attribute.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    unused_jobs = "accepted, no effect yet: this command runs on one thread"

    def common(p, jobs_help=None):
        p.add_argument("--seed", type=_int_at_least(0), default=0,
                       help="master seed for this run")
        if jobs_help is not None:
            p.add_argument("--jobs", type=_int_at_least(1), default=1, help=jobs_help)
        p.add_argument("--out-dir", default=None,
                       help="run directory (default: runs/<timestamp>-seed<seed>-<cmd>)")

    p_synth = sub.add_parser("synth", help="generate a synthetic panel of cores")
    common(p_synth)
    p_synth.add_argument("--config", default=None, help="key = value config file")
    p_synth.set_defaults(func=cmd_synth)

    p_pre = sub.add_parser("preprocess", help="cluster and preprocess a panel")
    common(p_pre, "cores preprocessed in parallel, one cube in memory per worker "
                  "(outputs do not depend on it)")
    p_pre.add_argument("input", help="panel directory from 'synth'")
    p_pre.set_defaults(func=cmd_preprocess)

    p_train = sub.add_parser("train", help="train the 4 cross-validation folds")
    common(p_train, unused_jobs)
    p_train.add_argument("container", help="spectra container from 'preprocess'")
    p_train.add_argument("--head", choices=HEADS, required=True)
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--batch-size", type=int, default=250)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate fold checkpoints")
    common(p_eval, unused_jobs)
    p_eval.add_argument("train_dir", help="run directory from 'train'")
    p_eval.add_argument("container", help="spectra container from 'preprocess'")
    p_eval.add_argument("--which", choices=("final", "best"), default="final")
    p_eval.set_defaults(func=cmd_eval)

    p_cam = sub.add_parser("gradcam", help="wavenumber-importance heatmaps")
    common(p_cam, unused_jobs)
    p_cam.add_argument("train_dir", help="run directory from 'train'")
    p_cam.add_argument("container", help="spectra container from 'preprocess'")
    p_cam.set_defaults(func=cmd_gradcam)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    args.argv = argv  # recorded in manifest.json as the command that ran
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
