import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import carenet
from carenet import pipeline, synthgen
from carenet.dataset import SpectraSet
from carenet.model import INPUT_LENGTH
from carenet.spectral import WavenumberAxis
from carenet.synthgen import SynthConfig
from tests.conftest import collect_panel, write_panel

MODULES = ["carenet"] + [f"carenet.{m.name}" for m in pkgutil.iter_modules(carenet.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # tooling walks __all__ with getattr, so a retired name left listed breaks it
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer(monkeypatch):
    """A fresh perfbench/spans.py Tracer, not yet installed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer
    return Tracer()


def test_benchmark_workloads_import(monkeypatch):
    # perfbench/workloads.py imports carenet names at module level: a rename
    # in src/ must fail here, not only when the benchmark runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")


@pytest.mark.parametrize("head", ["type", "subtype"])
def test_benchmark_train_items_are_the_rows_train_folds_labels(head):
    # perfbench/workloads.py counts the train workload's items through
    # targets_for_head, while train_folds trains on head_labels over
    # head_mask: both must give the same labels, row for row
    core_type = np.array([0, 1] * 6)
    patient = np.repeat([1, 2, 3], 4)
    sset = SpectraSet(
        spectra=np.zeros((12, INPUT_LENGTH)), patient_id=patient,
        core_id=2 * patient + core_type, row=np.arange(12), col=np.zeros(12),
        core_type=core_type, subtype=np.where(core_type == 1, patient % 4, -1),
        axis=WavenumberAxis(1800.0, 900.0, INPUT_LENGTH))
    mask = pipeline.head_mask(sset, head, (1, 3))
    labels, _ = pipeline.targets_for_head(sset, head, mask)
    np.testing.assert_array_equal(labels, pipeline.head_labels(sset, head)[mask])
    assert labels.size == (8 if head == "type" else 4)


def test_benchmark_tracer_times_gen_panel_with_its_emits(monkeypatch):
    # the benchmark reports synthgen.gen_panel's self time, which covers
    # generation only while the cubes are made and emitted inside that call
    assert not inspect.isgeneratorfunction(synthgen.gen_panel)
    tracer = _tracer(monkeypatch)
    tops = []
    try:
        tracer.install()
        synthgen.gen_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=8),
                           lambda cube, truth: tops.append(tracer.spans[tracer._stack[-1]][0]))
    finally:
        tracer.uninstall()
    assert tops == ["synthgen.gen_panel"] * 3


def test_benchmark_tracer_counts_training_spectra(monkeypatch):
    # perfbench/spans.py wraps carenet functions by name and reads the
    # arguments of train_fold: a renamed function or reordered parameters
    # must fail here, not only in the benchmark's own smoke test

    # patient 1 trains on 4 AT and 4 CA rows (balanced: all 8), patient 2 is dev
    patient = np.array([1] * 8 + [2] * 2)
    core_type = np.array([0, 1] * 5)
    sset = SpectraSet(
        spectra=np.random.default_rng(0).random((10, INPUT_LENGTH)),
        patient_id=patient, core_id=2 * patient + core_type, row=np.arange(10),
        col=np.zeros(10), core_type=core_type, subtype=np.where(core_type == 1, 0, -1),
        axis=WavenumberAxis(1800.0, 900.0, INPUT_LENGTH))
    plan = pipeline.SplitPlan(seed=0, test_patients=(), test_type_cores=(),
                              folds=(pipeline.Fold(train_patients=(1,), dev_patients=(2,)),))
    config = pipeline.TrainConfig(head="type", epochs=1, batch_size=8)

    tracer = _tracer(monkeypatch)
    try:
        tracer.install()  # looks up every wrapped name
        results = list(pipeline.train_folds(sset, plan, config))
    finally:
        tracer.uninstall()
    assert len(results) == 1
    assert tracer.counts["pipeline.train_fold.n"] == 8 * config.epochs


def test_benchmark_tracer_counts_preprocessed_spectra(monkeypatch, tmp_path):
    # spans.py reads remove_outliers' args[0].shape[0] and result[1].kept, and
    # emsc_correct_rows' result[2]: the rows each pass is handed and keeps
    panel = collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=16, seed=21))
    core_paths, h2o_path = write_panel(panel, tmp_path)

    tracer = _tracer(monkeypatch)
    try:
        tracer.install()
        _, results, skipped = pipeline.preprocess_panel(core_paths, h2o_path, seed=0)
    finally:
        tracer.uninstall()
    assert skipped == [] and len(results) == 2
    counts = [r.counts for r in results.values()]
    outlier_rows = panel.h2o_cube.n_spectra + sum(
        c.tissue_pixels + int(r.paraffin_mask.mask.sum()) + c.after_normalize
        for r, c in zip(results.values(), counts))
    assert tracer.counts["chemometrics.remove_outliers.n"] == outlier_rows
    assert tracer.counts["chemometrics.remove_outliers.kept"] <= outlier_rows
    assert tracer.counts["chemometrics.emsc_correct_rows.n"] == sum(
        c.after_outlier1 for c in counts)
