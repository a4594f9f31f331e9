import hashlib
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "chain_hashes.py"
VOLATILE_KEYS = ("started_unix", "elapsed_s", "peak_rss_mb")


def _chain(out):
    return subprocess.run([sys.executable, str(SCRIPT), str(out), "--image-size", "12"],
                          capture_output=True, text=True, check=True).stdout


def test_lists_every_output_once_without_volatile_keys(tmp_path):
    out = tmp_path / "chain"
    printed = _chain(out)
    hashed, manifests = {}, {}
    for line in printed.splitlines():
        first, rest = line.split("  ", 1)
        if first.endswith("manifest.json"):
            manifests[first] = json.loads(rest)
        else:
            hashed[rest] = first
    # synth, two preprocess runs, and train, two evals and gradcam per head
    assert len(manifests) == 11
    assert set(hashed) | set(manifests) == {
        str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    for path, digest in hashed.items():
        assert hashlib.sha256((out / path).read_bytes()).hexdigest() == digest, path
    assert not any(key in printed for key in VOLATILE_KEYS)
    # the whole chain is deterministic: a second run prints the same lines
    assert _chain(tmp_path / "again") == printed
