"""Workload inputs, measured commands and output checks for the carenet benchmark.

Run as a script, this module performs one set-up in its own process:

    python perfbench/workloads.py <workload> <seed> <out_dir> <shape_json> <trace 0|1>

The benchmark times that process from outside, so the set-up's memory never
counts towards the measured process's peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from carenet.cli import main as carenet_main  # noqa: E402
from carenet.dataset import read_cube, read_spectraset, write_spectraset  # noqa: E402
from carenet.errors import DataError  # noqa: E402
from carenet.model import load_checkpoint  # noqa: E402
from carenet.pipeline import (  # noqa: E402
    head_mask,
    make_split,
    patients_from_spectraset,
    targets_for_head,
    undersample_balance,
)
from spans import Tracer  # noqa: E402

# Input shapes. preprocess: two 96x96 cores plus the H2O image; each core's
# float64 copy (116 MB) is larger than a 105 MiB L3, and one command is about
# 9 s of clustering and chemometrics. train/infer: 16 cores of 16x16, about
# 1k spectra, so a 4-fold 1-epoch train is a few seconds of small-batch nn work.
SHAPES = {
    "preprocess": {"n_patients": [1, 0, 0, 0], "image_size": 96},
    "train": {"n_patients": [2, 2, 2, 2], "image_size": 16},
    "infer": {"n_patients": [2, 2, 2, 2], "image_size": 16},
}
HEAD = "type"
EPOCHS = 1
BATCH = 250
# infer's fold checkpoints come from a 1-epoch train on every SUBSET-th spectrum,
# which keeps set-up short; eval and gradcam then run on the full container.
SUBSET = 4
# The generator's tissue truth and the tissue mask agree on every pixel at the
# seed commit; a segmentation change may not drop a core below this.
TISSUE_AGREEMENT_FLOOR = 0.99
# Paper scale for the linear extrapolations: 60 cores of 320x320 pixels, and
# ~1.5M spectra x 50 epochs x 4 folds x 2 heads.
PAPER_PIXELS = 60 * 320 * 320
PAPER_TRAIN_SPECTRA = 1_500_000 * 50 * 4 * 2


class CommandFailed(Exception):
    pass


def run_cli(argv) -> int:
    """carenet's CLI in this process; its stdout is dropped, a crash is exit -1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return carenet_main([str(a) for a in argv])
    except Exception:  # a crash must count as a failed operation, not end the run
        traceback.print_exc()
        return -1


def _must(argv) -> None:
    rc = run_cli(argv)
    if rc != 0:
        raise CommandFailed(f"carenet {argv[0]} exited {rc}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def prepare(workload: str, seed: int, out: Path, shape: dict) -> None:
    """Synthesize the panel and build the inputs the workload's commands read."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "synth.cfg"
    cfg.write_text(f"n_patients = {', '.join(map(str, shape['n_patients']))}\n"
                   f"image_size = {shape['image_size']}\n", encoding="utf-8")
    _must(["synth", "--seed", seed, "--config", cfg, "--out-dir", out / "panel"])
    if workload == "preprocess":
        return
    _must(["preprocess", "--seed", seed, "--jobs", 1, "--out-dir", out / "pre", out / "panel"])
    if workload == "infer":
        sset = read_spectraset(out / "pre" / "spectra.crns")
        write_spectraset(sset.select(np.arange(len(sset)) % SUBSET == 0), out / "subset.crns")
        _must(["train", "--seed", seed, "--head", HEAD, "--epochs", EPOCHS,
               "--batch-size", BATCH, "--out-dir", out / "train", out / "subset.crns"])


def setup_outputs(workload: str, out: Path) -> list[Path]:
    """The set-up outputs that the determinism contract says must repeat byte for byte."""
    if workload == "preprocess":
        return sorted((out / "panel").glob("*.crns"))
    if workload == "train":
        return [out / "pre" / "spectra.crns"]
    return [out / "pre" / "spectra.crns"] + sorted((out / "train").glob("*.crnm"))


# ---------------------------------------------------------------------------
# measured commands, their work items, and output checks


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


def _finite_unit(values: np.ndarray) -> bool:
    return values.size > 0 and bool(np.all(np.isfinite(values))
                                    and values.min() >= 0.0 and values.max() <= 1.0)


def _read_pgm_tissue(path: Path) -> np.ndarray:
    magic, dims, _, data = path.read_bytes().split(b"\n", 3)
    if magic != b"P5":
        raise DataError(f"{path}: not a binary PGM")
    cols, rows = (int(v) for v in dims.split())
    return np.frombuffer(data, dtype=np.uint8, count=rows * cols).reshape(rows, cols) == 255


class Workload:
    """One workload's commands, the work each command does, and its output checks.

    Work items are fixed by the protocol and the inputs, not by how carenet
    does the work: raw cube pixels for preprocess, balanced training spectra
    times epochs for train, spectra classified by eval and spectra attributed
    by gradcam.
    """

    def __init__(self, name: str, seed: int, inputs: Path, shape: dict):
        self.name, self.seed, self.inputs = name, seed, inputs
        self.items: dict[str, int] = {}
        self.tissue_agreement: list[float] = []
        if name == "preprocess":
            index = json.loads((inputs / "panel" / "panel.json").read_text(encoding="utf-8"))
            self.truth = {}
            for core, file in sorted(index["cores"].items(), key=lambda kv: int(kv[0])):
                try:
                    self.truth[int(core)] = read_cube(inputs / "panel" / file)[1]["gt_role"] == 1
                except DataError:  # preprocess must fail on this core too; its check says so
                    self.truth[int(core)] = None
            n_cubes = len(index["cores"]) + 1  # every core plus the H2O image
            self.items["preprocess"] = n_cubes * shape["image_size"] ** 2
            return
        sset = read_spectraset(inputs / "pre" / "spectra.crns")
        patients = patients_from_spectraset(sset)
        if name == "train":
            plan = make_split(patients, seed=seed)
            self.n_folds = len(plan.folds)
            balanced = 0
            for fold in plan.folds:
                labels, _ = targets_for_head(sset, HEAD, head_mask(sset, HEAD, fold.train_patients))
                balanced += undersample_balance(labels, seed=seed + 2).size
            self.items["train"] = balanced * EPOCHS
            return
        split = json.loads((inputs / "train" / "split.json").read_text(encoding="utf-8"))
        by_id = {p.patient_id: p for p in patients}
        test_cores = [by_id[pid].ca_core_id if kind == "CA" else by_id[pid].at_core_id
                      for pid, kind in split["test_type_cores"]]
        per_fold_test = sum(int((sset.core_id == core).sum()) for core in test_cores)
        self.items["eval"] = sum(int(head_mask(sset, HEAD, fold["dev"]).sum()) + per_fold_test
                                 for fold in split["folds"])
        test = np.isin(sset.patient_id, np.asarray(split["test_patients"]))
        self.items["gradcam"] = int((test & (sset.core_type == 1)).sum())
        self.n_test_cores = len(test_cores)

    def commands(self, out: Path) -> list[tuple[str, list]]:
        s, inputs = self.seed, self.inputs
        if self.name == "preprocess":
            return [("preprocess", ["preprocess", "--seed", s, "--jobs", 1,
                                    "--out-dir", out / "preprocess", inputs / "panel"])]
        container = inputs / "pre" / "spectra.crns"
        if self.name == "train":
            return [("train", ["train", "--seed", s, "--jobs", 1, "--head", HEAD,
                               "--epochs", EPOCHS, "--batch-size", BATCH,
                               "--out-dir", out / "train", container])]
        return [(cmd, [cmd, "--seed", s, "--jobs", 1, "--out-dir", out / cmd,
                       inputs / "train", container]) for cmd in ("eval", "gradcam")]

    def check(self, out: Path, codes: dict[str, int]) -> tuple[list[Op], dict[str, str]]:
        """Operations with their outcome, plus hashes of the outputs that must repeat."""
        return getattr(self, f"_check_{self.name}")(out, codes)

    def _check_preprocess(self, out, codes):
        pre = out / "preprocess"
        if codes["preprocess"] != 0:
            return ([Op("preprocess", False, f"exit {codes['preprocess']}")]
                    + [Op(f"core {c}", False, "command failed") for c in self.truth], {})
        try:
            sset = read_spectraset(pre / "spectra.crns")
        except DataError as exc:
            return ([Op("preprocess", False, str(exc))]
                    + [Op(f"core {c}", False, "no container") for c in self.truth], {})
        manifest = json.loads((pre / "manifest.json").read_text(encoding="utf-8"))
        skipped = {entry["core_id"] for entry in manifest["skipped"]}
        ops = [Op("preprocess", True)]
        agree = pixels = 0
        order = ("tissue_pixels", "after_outlier1", "after_emsc", "after_normalize",
                 "after_outlier2")
        for core, truth in self.truth.items():
            if core in skipped or truth is None:
                ops.append(Op(f"core {core}", False,
                              "skipped" if core in skipped else "ground truth unreadable"))
                continue
            counts = [manifest["stage_counts"][str(core)][k] for k in order]
            problems = []
            mask = _read_pgm_tissue(pre / f"masks_core_{core:04d}.pgm")
            agreement = float((mask == truth).mean())
            agree += int((mask == truth).sum())
            pixels += truth.size
            if any(b > a for a, b in zip(counts, counts[1:])):
                problems.append(f"stage counts increase {counts}")
            if not _finite_unit(sset.spectra[sset.core_id == core]):
                problems.append("spectra outside [0, 1]")
            if agreement < TISSUE_AGREEMENT_FLOOR:
                problems.append(f"tissue agreement {agreement:.4f}")
            ops.append(Op(f"core {core}", not problems, "; ".join(problems)))
        if pixels:
            self.tissue_agreement.append(agree / pixels)
        return ops, {"spectra.crns": sha256(pre / "spectra.crns")}

    def _check_train(self, out, codes):
        train = out / "train"
        if codes["train"] != 0:
            return ([Op("train", False, f"exit {codes['train']}")]
                    + [Op(f"fold {k}", False, "command failed")
                       for k in range(1, self.n_folds + 1)], {})
        history = json.loads((train / "history.json").read_text(encoding="utf-8"))
        ops, hashes = [Op("train", True)], {}
        for k in range(1, self.n_folds + 1):
            problems = []
            for kind in ("final", "best"):
                path = train / f"fold{k}_{kind}.crnm"
                try:
                    load_checkpoint(path, expect_head=HEAD)
                    hashes[path.name] = sha256(path)
                except (DataError, OSError) as exc:
                    problems.append(str(exc))
            values = [v for epoch in history.get(f"fold{k}", {}).get("epochs", [])
                      for v in epoch.values()]
            if len(values) == 0 or not np.all(np.isfinite(values)):
                problems.append("history missing or not finite")
            ops.append(Op(f"fold {k}", not problems, "; ".join(problems)))
        return ops, hashes

    def _check_infer(self, out, codes):
        ops, hashes = [], {}
        if codes["eval"] != 0:
            ops.append(Op("eval", False, f"exit {codes['eval']}"))
        else:
            rows = (out / "eval" / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
            table = (out / "eval" / "patients.csv").read_text(encoding="utf-8").splitlines()[1:]
            # type head: dev and test rows for each of AT and CA, one table row per test core
            ok = len(rows) == 4 and len(table) == self.n_test_cores
            ops.append(Op("eval", ok, "" if ok else f"{len(rows)} metric rows"))
            for name in ("metrics.csv", "patients.csv"):
                hashes[name] = sha256(out / "eval" / name)
        if codes["gradcam"] != 0:
            ops.append(Op("gradcam", False, f"exit {codes['gradcam']}"))
        else:
            heatmap = out / "gradcam" / "heatmap_CA.csv"
            values = np.loadtxt(heatmap, delimiter=",", skiprows=1, ndmin=2)[:, 1]
            ok = _finite_unit(values)
            ops.append(Op("gradcam", ok, "" if ok else "heatmap outside [0, 1]"))
            hashes[heatmap.name] = sha256(heatmap)
        return ops, hashes


def _setup_main(argv) -> int:
    workload, seed, out, shape, trace = argv
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    try:
        prepare(workload, int(seed), Path(out), json.loads(shape))
    except CommandFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(out) / "spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(_setup_main(sys.argv[1:]))
