"""Smoke test of the benchmark at tiny input sizes.

    python -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "preprocess": {"n_patients": [1, 0, 0, 0], "image_size": 12},
    "train": {"n_patients": [2, 2, 2, 2], "image_size": 8},
    "infer": {"n_patients": [2, 2, 2, 2], "image_size": 8},
}
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _printed(lines, prefix):
    """{metric name: unit} of the report lines that start with prefix."""
    return {line.split()[1]: line.split()[3] for line in lines if line.startswith(prefix + " ")}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_prints_with_its_unit(workload, tmp_path):
    printed = {}
    for trace in (False, True):
        lines, result, _ = run.run(workload, seed=1, seconds=0, trace=trace,
                                   work=tmp_path / f"trace{int(trace)}", shape=TINY[workload])
        assert json.loads(json.dumps(result)) == result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
        printed[trace] = _printed(lines, "e2e")
        for m in DECLARED["end_to_end"]:
            assert printed[trace][m["name"]] == m["unit"]
    assert printed[False] == printed[True]


def test_corrupt_core_container_is_a_failed_operation(tmp_path):
    shape = TINY["preprocess"]
    setup = run.set_up("preprocess", 1, tmp_path, shape, trace=False)
    core = setup[0] / "panel" / "core_0000.crns"
    data = bytearray(core.read_bytes())
    data[-1] ^= 0xFF  # last payload byte: the array's CRC32 no longer matches
    core.write_bytes(bytes(data))

    lines, result, _ = run.measure_and_report("preprocess", 1, 0, False, tmp_path, shape, setup)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("failed operation: preprocess: exit 3") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
