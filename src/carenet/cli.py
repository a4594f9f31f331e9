"""Command-line entry point tying all stages into reproducible runs.

Subcommands: synth | preprocess | train | eval | gradcam. Every command
writes its outputs into a run directory, and `main` adds a run manifest
(manifest.json) once the command succeeds; identical seeds reproduce
bit-identical containers, checkpoints, and CSV reports.

Exit codes: 0 success, 2 usage error (a run directory that cannot be created
among them), 3 data error (any other OS-level failure among them), 4 numerical
failure.
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
from .errors import DataError, NumericalError, json_int, json_number, parsing
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
from .model import CLASS_NAMES, HEADS, forward_chunks, load_checkpoint, save_checkpoint
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
    lines: dict[str, int] = {}  # the line each key was set on
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
        if key in lines:
            raise UsageError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
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
    kwargs = {"n_patients": (8, 8, 7, 7), **options}  # cohort-shaped default: 60 cores
    try:
        return SynthConfig(seed=seed, **kwargs)
    except (DataError, TypeError) as exc:
        raise UsageError(f"bad synth config: {exc}") from exc


# ---------------------------------------------------------------------------
# run directories: manifests, sidecars, fold checkpoints

# the arguments that name a command's input files or directories
PATH_ARGS = ("config", "input", "container", "train_dir")


def _run_dir(args) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-seed{args.seed}-{args.command}"


def _write_manifest(args, fields: dict, started: float) -> None:
    """manifest.json: the command line, its path arguments as inputs, and the
    fields the command returned (config, outputs and any of its own)."""
    inputs = [getattr(args, name) for name in PATH_ARGS if getattr(args, name, None)]
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "package_version": __version__,
        "seed": args.seed,
        "inputs": sorted(str(p) for p in inputs),
        "started_unix": started,
        "elapsed_s": time.time() - started,
        # this process's peak so far: on Linux ru_maxrss counts KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **fields,
        "outputs": sorted(str(p) for p in fields["outputs"]),
    }
    _write_json(args.run_dir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; json alone keeps the
    last of a repeated key without a word, here it is a DataError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DataError(f"key {key!r} given twice")
        obj[key] = value
    return obj


def _read_sidecar(path: Path, parse):
    """parse(the JSON object in path). A missing file, bad JSON, a repeated
    key, a shape parse cannot read, or a DataError from parse is a DataError
    naming the file."""
    if not path.exists():
        raise DataError(f"{path.parent}: no {path.name} found")
    with parsing(path, path.name), open(path, "r", encoding="utf-8") as fh:
        return parse(json.load(fh, object_pairs_hook=_unique_keys))


def _fold_name(k: int) -> str:
    """Fold k's (from 1) key in a train run's history.json and its checkpoints' stem."""
    return f"fold{k}"


def _checkpoint_path(train_dir: Path, fold_name: str, kind: str) -> Path:
    """A fold's checkpoint in a train run: kind "final" (last epoch) or "best"."""
    return train_dir / f"{fold_name}_{kind}.crnm"


# ---------------------------------------------------------------------------
# subcommands: each writes its outputs into args.run_dir and returns its
# manifest fields, and main writes the manifest


def cmd_synth(args) -> dict:
    options = parse_config_file(args.config) if args.config else {}
    config = _synth_config(options, seed=args.seed)
    run_dir = args.run_dir
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
    print(f"synth: {len(cores)} cores -> {run_dir}")
    return {"config": _config_dict(config), "outputs": outputs}


def _config_dict(config: SynthConfig) -> dict:
    """The config's scalar and range fields, for manifest.json."""
    out = {}
    for field in dataclasses.fields(config):
        if field.name != "tissue_bands":
            value = getattr(config, field.name)
            out[field.name] = list(value) if isinstance(value, tuple) else value
    return out


def _panel_paths(panel_dir: Path) -> tuple[list[tuple[int, Path]], Path]:
    """panel.json's (core id, core cube path) pairs, in its order, and the H2O
    cube path. Each cube must hold its key's id, which preprocess_panel checks."""
    def parse(index):
        if not index["cores"]:
            raise DataError("its cores entry lists no core")
        # int() reads " 5" and "03" as 5 and 3: a core has one key, its plain decimal id
        for key in index["cores"]:
            if str(int(key)) != key:
                raise DataError(f"core key {key!r} is not a core id in plain decimal")
        # a file name that is not a string fails the join: TypeError
        return ([(int(key), panel_dir / name) for key, name in index["cores"].items()],
                panel_dir / index["h2o"])
    return _read_sidecar(panel_dir / "panel.json", parse)


def cmd_preprocess(args) -> dict:
    cores, h2o_path = _panel_paths(Path(args.input))
    sset, results, skipped = preprocess_panel(cores, h2o_path, seed=args.seed, jobs=args.jobs)
    out_path = args.run_dir / "spectra.crns"
    write_spectraset(sset, out_path)
    outputs = [out_path]
    for core_id, result in results.items():
        pgm_path = args.run_dir / f"masks_core_{core_id:04d}.pgm"
        write_masks_pgm(pgm_path, result.tissue_mask, result.paraffin_mask)
        outputs.append(pgm_path)
    for core_id, reason in skipped:
        print(f"preprocess: skipped core {core_id}: {reason}", file=sys.stderr)
    try:  # its refusal depends on the subtype counts only, not on the seed
        make_split(patients_from_spectraset(sset), seed=args.seed)
    except DataError as exc:
        print(f"preprocess: warning: train cannot split this container: {exc}",
              file=sys.stderr)
    stage_log = {str(cid): dataclasses.asdict(r.counts) for cid, r in results.items()}
    flagged = [cid for cid, r in results.items()
               if not (r.tissue_mask.plausible and r.paraffin_mask.plausible)]
    print(f"preprocess: {len(sset)} spectra from {len(results)} cores -> {out_path}")
    return {"config": {"jobs": args.jobs}, "outputs": outputs, "stage_counts": stage_log,
            "implausible_cores": flagged,
            "skipped": [{"core_id": cid, "reason": r} for cid, r in skipped]}


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
    return _read_sidecar(path, lambda data: SplitPlan(
        seed=json_int(data["seed"]),
        test_patients=tuple(json_int(p) for p in data["test_patients"]),
        test_type_cores=tuple((json_int(p), str(k)) for p, k in data["test_type_cores"]),
        folds=tuple(
            Fold(train_patients=tuple(json_int(p) for p in f["train"]),
                 dev_patients=tuple(json_int(p) for p in f["dev"]))
            for f in data["folds"]
        ),
    ))


def cmd_train(args) -> dict:
    config = TrainConfig(head=args.head, epochs=args.epochs, batch_size=args.batch_size,
                         lr=args.lr, seed=args.seed)  # checked before the container is read
    sset = read_spectraset(Path(args.container))
    plan = make_split(patients_from_spectraset(sset), seed=args.seed)

    outputs = []
    history_all = {}
    for fold_index, result in enumerate(train_folds(sset, plan, config), start=1):
        fold = _fold_name(fold_index)
        for kind, model in (("final", result.model_final), ("best", result.model_best)):
            path = _checkpoint_path(args.run_dir, fold, kind)
            save_checkpoint(model, path, metadata={
                "seed": args.seed, "fold": fold_index, "kind": kind,
                "best_epoch": result.best_epoch, "head": config.head,
            })
            outputs.append(path)
        history_all[fold] = {
            "best_epoch": result.best_epoch,
            "epochs": result.history_dicts(),
        }
        last = result.history[-1]
        print(f"train fold {fold_index}: dev_loss {last.dev_loss:.4f} "
              f"dev_acc {last.dev_accuracy:.3f} (best epoch {result.best_epoch})")

    split_path = args.run_dir / "split.json"
    _write_json(split_path, _split_to_json(plan))
    history_path = args.run_dir / "history.json"
    _write_json(history_path, history_all)
    return {"config": {"head": config.head, "epochs": config.epochs,
                       "batch_size": config.batch_size, "lr": config.lr},
            "outputs": outputs + [split_path, history_path]}


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


def _read_run_container(args, plan: SplitPlan):
    """The container of a command reading a train run, once its split.json has
    been read: it must hold every patient the split names, each with one CA
    and one AT core."""
    sset = read_spectraset(Path(args.container))
    patient_ids = {p.patient_id for p in patients_from_spectraset(sset)}
    named = set(plan.test_patients).union(*(f.train_patients + f.dev_patients
                                            for f in plan.folds))
    missing = sorted(named - patient_ids)
    if missing:
        raise DataError(f"{args.container}: lacks patients {missing} that the split "
                        f"in {args.train_dir} names")
    return sset


def cmd_eval(args) -> dict:
    plan = _split_from_json(Path(args.train_dir) / "split.json")
    sset = _read_run_container(args, plan)
    checkpoints = [_checkpoint_path(Path(args.train_dir), _fold_name(k), args.which)
                   for k in range(1, len(plan.folds) + 1)]
    head, rows, table = _evaluate(checkpoints, sset, plan)

    metrics_path = args.run_dir / "metrics.csv"
    table_path = args.run_dir / "patients.csv"
    write_metrics_csv(rows, metrics_path)
    write_patient_table_csv(table, table_path)
    print(f"eval: {head} head -> {metrics_path}")
    return {"config": {"which": args.which, "head": head},
            "outputs": [metrics_path, table_path]}


def _best_fold(path: Path, plan: SplitPlan) -> str:
    """Name of the fold whose best epoch has the lowest dev loss, one of the
    split's folds (the name joins a checkpoint path)."""
    def parse(history):
        losses = {name: min(json_number(e["dev_loss"]) for e in fold["epochs"])
                  for name, fold in history.items()}
        best = min(losses, key=losses.get)
        if best not in [_fold_name(k) for k in range(1, len(plan.folds) + 1)]:
            raise DataError(f"best fold {best!r} is not one of the split's folds")
        return best
    return _read_sidecar(path, parse)


def cmd_gradcam(args) -> dict:
    train_dir = Path(args.train_dir)
    plan = _split_from_json(train_dir / "split.json")
    best_fold = _best_fold(train_dir / "history.json", plan)
    sset = _read_run_container(args, plan)
    model, _ = load_checkpoint(_checkpoint_path(train_dir, best_fold, "best"))

    # attribute each class's test spectra to that class, gathered a
    # forward_chunks slice at a time, then average per class
    test = np.isin(sset.patient_id, np.asarray(plan.test_patients))
    labels = head_labels(sset, model.head)
    groups: dict[str, np.ndarray] = {}
    for idx in model.scored_classes:
        name = CLASS_NAMES[model.head][idx]
        rows = np.flatnonzero(test & (labels == idx))
        if rows.size == 0:
            raise DataError(f"no test spectra of class {name} to attribute")
        groups[name] = np.concatenate([gradcam_spectrum(model, x, target_class=idx)
                                       for _, x in forward_chunks(sset.spectra, rows)])

    heatmaps = class_average(groups)
    outputs = []
    for name, heatmap in heatmaps.items():
        csv_path = args.run_dir / f"heatmap_{name}.csv"
        svg_path = args.run_dir / f"heatmap_{name}.svg"
        write_heatmap_csv(heatmap, sset.axis, csv_path)
        write_heatmap_svg(heatmap, sset.axis, svg_path)
        outputs += [csv_path, svg_path]
    print(f"gradcam: {len(heatmaps)} heatmap(s) from {best_fold} -> {args.run_dir}")
    return {"config": {"best_fold": best_fold}, "outputs": outputs}


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
    args.run_dir = _run_dir(args)
    new_dirs = [p for p in (args.run_dir, *args.run_dir.parents) if not p.exists()]
    started = time.time()
    try:
        try:
            args.run_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create run directory {args.run_dir}: {exc}") from exc
        _write_manifest(args, args.func(args), started)
        return EXIT_OK
    except UsageError as exc:
        for path in filter(Path.is_dir, new_dirs):  # main's new directories, leaf first
            path.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:  # an unreadable or unwritable file is bad input
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
