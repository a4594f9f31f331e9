"""Hash every artefact of one small carenet chain, to check byte identity.

    python scripts/chain_hashes.py OUT_DIR [--image-size N]

Runs the CLI of this checkout as child processes, each on one BLAS thread
and in OUT_DIR (new or empty), so every path it records is relative to
OUT_DIR:

1. synth: a 2,2,2,2 panel, seed 5, class_separation 1.5;
2. preprocess with --jobs 1, and again with --jobs 2;
3. for each head: train --epochs 2 --batch-size 64 --seed 5 on the --jobs 1
   container, then eval --which final, eval --which best and gradcam.

Prints one sorted "sha256  path" line per file that is not a manifest, then
one "path  json" line per manifest.json: canonical JSON without the keys that
change from run to run (started_unix, elapsed_s, peak_rss_mb). Run it in two
checkouts, or twice in one, and compare the outputs with diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VOLATILE_KEYS = ("started_unix", "elapsed_s", "peak_rss_mb")
SEED = "5"
EPOCHS = "2"


def chain() -> list[list[str]]:
    """The CLI argument lists of the chain, in run order."""
    steps = [["synth", "--config", "panel.cfg", "--out-dir", "panel"],
             ["preprocess", "panel", "--jobs", "1", "--out-dir", "pre_jobs1"],
             ["preprocess", "panel", "--jobs", "2", "--out-dir", "pre_jobs2"]]
    container = "pre_jobs1/spectra.crns"
    for head in ("type", "subtype"):
        train = f"train_{head}"
        steps += [["train", container, "--head", head, "--epochs", EPOCHS,
                   "--batch-size", "64", "--out-dir", train],
                  ["eval", train, container, "--which", "final",
                   "--out-dir", f"eval_{head}_final"],
                  ["eval", train, container, "--which", "best",
                   "--out-dir", f"eval_{head}_best"],
                  ["gradcam", train, container, "--out-dir", f"gradcam_{head}"]]
    return [step + ["--seed", SEED] for step in steps]


def run_chain(out_dir: Path, image_size: int) -> None:
    (out_dir / "panel.cfg").write_text(
        f"n_patients = 2, 2, 2, 2\nimage_size = {image_size}\nclass_separation = 1.5\n",
        encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for argv in chain():
        done = subprocess.run([sys.executable, "-m", "carenet.cli", *argv], cwd=out_dir,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"chain_hashes: carenet {' '.join(argv)} exited "
                     f"{done.returncode}:\n{done.stderr}")


def report(out_dir: Path) -> list[str]:
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out_dir)}"
             for p in files if p.name != "manifest.json"]
    for p in files:
        if p.name == "manifest.json":
            manifest = json.loads(p.read_text(encoding="utf-8"))
            for key in VOLATILE_KEYS:
                manifest.pop(key, None)
            lines.append(f"{p.relative_to(out_dir)}  "
                         f"{json.dumps(manifest, sort_keys=True, separators=(',', ':'))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path, help="new or empty directory for the chain")
    parser.add_argument("--image-size", type=int, default=24)
    args = parser.parse_args(argv)
    if args.out_dir.exists() and not (args.out_dir.is_dir() and not any(args.out_dir.iterdir())):
        parser.error(f"{args.out_dir} is not a new or empty directory")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    run_chain(args.out_dir, args.image_size)
    print("\n".join(report(args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
