import sys
import threading
import weakref

import numpy as np
import pytest

from carenet.dataset import HyperCube, read_cube, write_cube
from carenet.errors import DataError
from carenet.model import FORWARD_CHUNK, INPUT_LENGTH, CarenetModel
from carenet.nn import Conv1D, ReLU, bce_loss, cce_loss
from carenet.pipeline import (
    Fold,
    PatientRecord,
    SplitPlan,
    TrainConfig,
    _batch_gradients,
    _epoch_batches,
    forward_chunked,
    head_mask,
    make_split,
    patients_from_spectraset,
    preprocess_core,
    preprocess_h2o,
    preprocess_panel,
    targets_for_head,
    train_fold,
    undersample_balance,
)
from carenet.spectral import (
    BIOFINGERPRINT_BAND,
    WavenumberAxis,
    band_slice,
    savgol_smooth,
    sub_axis,
)
from carenet.synthgen import SynthConfig
from tests.conftest import collect_panel, traced_peak, write_panel


def patients_with_distribution(counts):
    records = []
    pid = 0
    core = 0
    for subtype, n in zip(("LA", "LB", "HER2", "TNBC"), counts):
        for _ in range(n):
            pid += 1
            records.append(PatientRecord(pid, subtype, core, core + 1))
            core += 2
    return records


class TestMakeSplit:
    def test_paper_distribution(self):
        patients = patients_with_distribution((8, 8, 7, 7))
        plan = make_split(patients, seed=3)
        assert len(plan.test_patients) == 4
        sizes = [(len(f.train_patients), len(f.dev_patients)) for f in plan.folds]
        assert sizes == [(21, 5), (21, 5), (21, 5), (20, 6)]

    def test_one_test_patient_per_subtype(self):
        patients = patients_with_distribution((8, 8, 7, 7))
        plan = make_split(patients, seed=9)
        by_id = {p.patient_id: p.subtype for p in patients}
        subtypes = [by_id[pid] for pid in plan.test_patients]
        assert sorted(subtypes) == sorted(["LA", "LB", "HER2", "TNBC"])

    def test_type_cores_two_ca_two_at(self):
        plan = make_split(patients_with_distribution((8, 8, 7, 7)), seed=1)
        kinds = [kind for _, kind in plan.test_type_cores]
        assert sorted(kinds) == ["AT", "AT", "CA", "CA"]
        assert {pid for pid, _ in plan.test_type_cores} == set(plan.test_patients)

    def test_no_leakage_exhaustive(self):
        patients = patients_with_distribution((8, 8, 7, 7))
        for seed in range(10):
            plan = make_split(patients, seed=seed)
            test = set(plan.test_patients)
            assert len(test) == 4
            for fold in plan.folds:
                train = set(fold.train_patients)
                dev = set(fold.dev_patients)
                assert not train & dev
                assert not train & test
                assert not dev & test
                assert train | dev | test <= {p.patient_id for p in patients}

    def test_folds_stratified_by_subtype(self):
        patients = patients_with_distribution((8, 8, 7, 7))
        by_id = {p.patient_id: p.subtype for p in patients}
        plan = make_split(patients, seed=5)
        for fold in plan.folds:
            train_subtypes = {by_id[pid] for pid in fold.train_patients}
            assert train_subtypes == {"LA", "LB", "HER2", "TNBC"}

    def test_minimal_two_per_subtype(self):
        patients = patients_with_distribution((2, 2, 2, 2))
        plan = make_split(patients, seed=0)
        assert len(plan.test_patients) == 4
        sizes = [(len(f.train_patients), len(f.dev_patients)) for f in plan.folds]
        assert sizes == [(3, 1), (3, 1), (3, 1), (3, 1)]

    def test_missing_subtype_rejected(self):
        patients = patients_with_distribution((8, 8, 0, 7))
        with pytest.raises(DataError):
            make_split(patients, seed=0)

    def test_deterministic(self):
        patients = patients_with_distribution((8, 8, 7, 7))
        assert make_split(patients, seed=7) == make_split(patients, seed=7)


def _plan(**changes):
    """A valid two-fold plan over test patients 1-2 and fold patients 3-6, changed."""
    fields = dict(seed=0, test_patients=(1, 2), test_type_cores=((1, "CA"), (2, "AT")),
                  folds=(Fold(train_patients=(3, 4, 5), dev_patients=(6,)),
                         Fold(train_patients=(3, 4, 6), dev_patients=(5,))))
    return SplitPlan(**{**fields, **changes})


class TestSplitPlan:
    def test_valid_plan(self):
        assert len(_plan().folds) == 2

    @pytest.mark.parametrize("changes", [
        dict(folds=()),
        dict(folds=(Fold(train_patients=(3, 4), dev_patients=()),)),
        dict(test_type_cores=((1, "CA"), (7, "AT"))),
        dict(test_type_cores=((1, "CA"), (2, "XX"))),
        dict(folds=(Fold(train_patients=(3, 4, 5), dev_patients=(5,)),)),
        dict(folds=(Fold(train_patients=(1, 3, 4), dev_patients=(5,)),)),
        dict(folds=(Fold(train_patients=(3, 4), dev_patients=(2, 5)),)),
    ], ids=["no_folds", "empty_dev", "test_core_of_other_patient", "test_core_kind_xx",
            "train_and_dev_share", "train_holds_test_patient", "dev_holds_test_patient"])
    def test_broken_invariant_is_data_error(self, changes):
        with pytest.raises(DataError):
            _plan(**changes)


class TestUndersample:
    def test_min_rule_binary(self):
        labels = np.array([1] * 1000 + [0] * 400)
        idx = undersample_balance(labels, seed=0)
        assert (labels[idx] == 1).sum() == 400
        assert (labels[idx] == 0).sum() == 400
        assert np.unique(idx).size == idx.size

    def test_already_balanced_is_identity(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        np.testing.assert_array_equal(undersample_balance(labels, seed=3), np.arange(6))

    def test_four_class_min_rule(self):
        labels = np.concatenate([
            np.full(900, 0), np.full(700, 1), np.full(800, 2), np.full(650, 3)])
        idx = undersample_balance(labels, seed=1)
        counts = np.bincount(labels[idx])
        np.testing.assert_array_equal(counts, [650, 650, 650, 650])

    def test_deterministic(self):
        labels = np.array([0] * 50 + [1] * 30)
        np.testing.assert_array_equal(undersample_balance(labels, seed=5),
                                      undersample_balance(labels, seed=5))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            undersample_balance(np.array([]), seed=0)


@pytest.fixture(scope="module")
def small_panel():
    return collect_panel(SynthConfig(n_patients=(1, 1, 0, 0), image_size=16, seed=21))


@pytest.fixture(scope="module")
def small_panel_files(small_panel, tmp_path_factory):
    """small_panel's cube files: (core paths in core-id order, H2O path)."""
    return write_panel(small_panel, tmp_path_factory.mktemp("small_panel"))


class TestPreprocessCore:
    def test_counts_monotone_and_plausible(self, small_panel):
        panel = small_panel
        h2o = preprocess_h2o(panel.h2o_cube)
        result = preprocess_core(panel.cubes[0], h2o)
        c = result.counts
        assert c.tissue_pixels >= c.after_outlier1 >= c.after_emsc
        assert c.after_emsc >= c.after_normalize >= c.after_outlier2 > 0
        assert result.tissue_mask.plausible and result.paraffin_mask.plausible
        assert result.sset.spectra.shape[1] == 467
        assert result.sset.spectra.min() >= 0.0 and result.sset.spectra.max() <= 1.0

    def test_noiseless_cube_removes_nothing(self):
        config = SynthConfig(
            n_patients=(1, 0, 0, 0), image_size=16, seed=4,
            noise_sigma=0.0, scale_range=(1.0, 1.0),
            baseline_const_range=(0.01, 0.01), baseline_coef_range=(0.0, 0.0),
            tissue_paraffin_range=(0.4, 0.4), tissue_h2o_range=(0.0, 0.0),
        )
        panel = collect_panel(config)
        h2o = preprocess_h2o(panel.h2o_cube)
        result = preprocess_core(panel.cubes[0], h2o)
        c = result.counts
        # identical tissue spectra: both outlier passes are degenerate no-ops
        assert c.after_outlier1 == c.tissue_pixels
        assert c.after_outlier2 == c.after_normalize == c.after_emsc == c.tissue_pixels

    def test_spiked_pixels_removed(self):
        config = SynthConfig(
            n_patients=(1, 0, 0, 0), image_size=32, seed=8,
            spike_fraction=0.01, spike_amplitude=8.0,
        )
        panel = collect_panel(config)
        h2o = preprocess_h2o(panel.h2o_cube)
        removed = []
        for core_id, cube in panel.cubes.items():
            truth = panel.ground_truth[core_id]
            spiked = {tuple(rc) for rc in np.argwhere(truth.spike)}
            assert spiked, "config must actually inject spikes"
            result = preprocess_core(cube, h2o)
            kept = set(zip(result.sset.row.tolist(), result.sset.col.tolist()))
            removed.extend(rc not in kept for rc in spiked)
        assert np.mean(removed) >= 0.95

    def test_no_tissue_cube_rejected(self, small_panel):
        panel = small_panel
        cube = panel.cubes[0]
        flat = cube.spectra_matrix().copy()
        slide_rows = flat[panel.ground_truth[0].role.ravel() == 0]
        rng = np.random.default_rng(0)
        # paraffin ring kept, tissue disc replaced by slide-like pixels
        tissue = panel.ground_truth[0].tissue_mask.ravel()
        flat[tissue] = slide_rows[rng.integers(0, slide_rows.shape[0], tissue.sum())]
        no_tissue = HyperCube(flat.reshape(cube.intensities.shape), cube.axis,
                              0, 0, "AT", "none")
        h2o = preprocess_h2o(panel.h2o_cube)
        # the amide split is noise-driven; whatever side wins, preprocessing
        # must either flag implausibility or fail, never silently succeed
        try:
            result = preprocess_core(no_tissue, h2o)
            assert not result.tissue_mask.plausible
        except DataError:
            pass

    def test_panel_end_to_end(self, small_panel, small_panel_files):
        panel = small_panel
        sset, results, skipped = preprocess_panel(*small_panel_files, seed=0)
        assert skipped == []
        assert len(results) == len(panel.cubes)
        assert len(sset) == sum(r.counts.after_outlier2 for r in results.values())
        assert sset.axis.n_points == 467
        assert all(not (r.tissue_mask.mask & r.paraffin_mask.mask).any()
                   for r in results.values())
        records = patients_from_spectraset(sset)
        assert {r.patient_id for r in records} == {p.patient_id for p in panel.patients}

    def test_panel_parallel_matches_serial(self, small_panel_files):
        serial, _, _ = preprocess_panel(*small_panel_files, seed=0, jobs=1)
        parallel, _, _ = preprocess_panel(*small_panel_files, seed=0, jobs=2)
        for name in ("spectra", "patient_id", "core_id", "row", "col", "core_type", "subtype"):
            np.testing.assert_array_equal(getattr(serial, name), getattr(parallel, name))
        assert serial.axis == parallel.axis

    def test_core_on_another_axis_is_skipped(self, small_panel, tmp_path):
        # same point count, shifted by 0.3 cm^-1: its rows would take the
        # H2O image's wavenumbers in the container
        core_paths, h2o_path = write_panel(small_panel, tmp_path)
        cube = small_panel.cubes[1]
        shifted = WavenumberAxis(3950.3, 900.3, cube.axis.n_points)
        write_cube(HyperCube(cube.intensities, shifted, cube.core_id, cube.patient_id,
                             cube.core_type, cube.subtype), core_paths[1])
        sset, results, skipped = preprocess_panel(core_paths, h2o_path, seed=0)
        # core 0 is patient 1's CA core: without its AT partner it goes too
        assert sorted(results) == [2, 3] and [core for core, _ in skipped] == [0, 1]
        band = read_cube(h2o_path, BIOFINGERPRINT_BAND)[0].axis
        reason = skipped[1][1]
        assert str(band) in reason
        assert str(read_cube(core_paths[1], BIOFINGERPRINT_BAND)[0].axis) in reason
        assert "patient 1" in skipped[0][1] and "core 1 " in skipped[0][1]
        assert not np.isin([0, 1], sset.core_id).any() and sset.axis == band
        assert [p.patient_id for p in patients_from_spectraset(sset)] == [2]

    def test_panel_left_with_half_patients_only_is_data_error(self, tmp_path):
        panel = collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=16, seed=21))
        core_paths, h2o_path = write_panel(panel, tmp_path)
        cube = panel.cubes[1]
        shifted = WavenumberAxis(3950.3, 900.3, cube.axis.n_points)
        write_cube(HyperCube(cube.intensities, shifted, cube.core_id, cube.patient_id,
                             cube.core_type, cube.subtype), core_paths[1])
        with pytest.raises(DataError, match="lost its patient's other core"):
            preprocess_panel(core_paths, h2o_path, seed=0)

    def test_h2o_block_built_once_per_panel(self, small_panel_files, monkeypatch):
        from carenet import chemometrics, pipeline

        h2o_builds = []
        original = chemometrics.interferent_block

        def counting(spectra, axis, band):
            if band == chemometrics.H2O_MASK_BAND:
                h2o_builds.append(spectra.shape)
            return original(spectra, axis, band)

        for module in (chemometrics, pipeline):
            monkeypatch.setattr(module, "interferent_block", counting)
        core_paths, h2o_path = small_panel_files
        _, results, skipped = preprocess_panel(core_paths[:3], h2o_path, seed=0)
        assert len(results) == 3 and skipped == []
        assert len(h2o_builds) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cubes_stream_one_per_worker(self, small_panel, small_panel_files, tmp_path,
                                         monkeypatch, jobs):
        from carenet import pipeline

        core_paths, h2o_path = small_panel_files
        assert len(core_paths) == 4
        # a constant cube fails clustering, so its core is skipped; it goes first,
        # so a skipped core's cube kept alive (say, by a stored traceback) shows
        flat = small_panel.cubes[0]
        write_cube(HyperCube(np.ones_like(flat.intensities), flat.axis, 99, 99, "AT", "none"),
                   tmp_path / "flat.crns")
        core_paths = [tmp_path / "flat.crns"] + core_paths
        lock = threading.RLock()
        live = {"core": 0, "h2o": 0}
        most_cores = 0
        h2o_live_at_core_reads = []

        def freed(kind):
            with lock:
                live[kind] -= 1

        def tracked_read(path, *band):
            nonlocal most_cores
            cube, extras = read_cube(path, *band)
            kind = "h2o" if path == h2o_path else "core"
            with lock:
                if kind == "core":
                    h2o_live_at_core_reads.append(live["h2o"])
                live[kind] += 1
                most_cores = max(most_cores, live["core"])
            weakref.finalize(cube, freed, kind)
            return cube, extras

        monkeypatch.setattr(pipeline, "read_cube", tracked_read)
        _, results, skipped = preprocess_panel(core_paths, h2o_path, seed=0, jobs=jobs)
        assert len(results) == 4 and [core for core, _ in skipped] == [99]
        assert 1 <= most_cores <= jobs
        assert h2o_live_at_core_reads == [0] * 5
        assert live == {"core": 0, "h2o": 0}

    def test_cubes_are_read_as_the_biofingerprint_band(self, small_panel_files, monkeypatch):
        from carenet import pipeline

        bands = []

        def recording_read(path, *band):
            bands.append(band)
            return read_cube(path, *band)

        monkeypatch.setattr(pipeline, "read_cube", recording_read)
        core_paths, h2o_path = small_panel_files
        preprocess_panel(core_paths[:2], h2o_path, seed=0)
        assert bands == [(BIOFINGERPRINT_BAND,)] * 3

    def test_chain_holds_a_bounded_number_of_row_copies(self, tmp_path):
        # peaks are in units of the cube's band upcast to float64, over every pixel
        panel = collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=64, seed=21))
        core_paths, h2o_path = write_panel(panel, tmp_path)
        h2o = read_cube(h2o_path, BIOFINGERPRINT_BAND)[0]
        band_rows = h2o.n_spectra * h2o.axis.n_points * 8

        # row blocks, the outlier statistics and the H2O PCA: no copy of the rows
        h2o_block, peak = traced_peak(preprocess_h2o, h2o)
        assert peak / band_rows < 1.8, peak / band_rows
        # tissue and paraffin rows (~0.3 and ~0.35 of the pixels) in float32, and
        # one float64 working copy of the tissue rows
        for path in core_paths:
            _, peak = traced_peak(preprocess_core, read_cube(path, BIOFINGERPRINT_BAND)[0],
                                  h2o_block)
            assert peak / band_rows < 1.6, peak / band_rows
            # read inside the traced call, the cube goes once its rows are taken
            _, peak = traced_peak(
                lambda: preprocess_core(read_cube(path, BIOFINGERPRINT_BAND)[0], h2o_block))
            assert peak / band_rows < 1.5, peak / band_rows

    def test_h2o_band_gets_no_float64_copy(self):
        # at 96x96 the band's float64 copy, which the chain no longer makes, is
        # 34.4 MB: row blocks, the outlier statistics and the PCA stay under half
        cube = collect_panel(SynthConfig(n_patients=(1, 0, 0, 0), image_size=96,
                                         seed=21)).h2o_cube
        sel = band_slice(cube.axis, BIOFINGERPRINT_BAND)
        band = HyperCube(np.ascontiguousarray(cube.intensities[:, :, sel]),
                         sub_axis(cube.axis, sel), cube.core_id, cube.patient_id,
                         cube.core_type, cube.subtype)
        del cube
        float64_copy = band.n_spectra * band.axis.n_points * 8
        _, peak = traced_peak(preprocess_h2o, band)
        assert peak < 0.5 * float64_copy, peak / float64_copy

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_core_cube_is_freed_before_smoothing(self, small_panel_files, monkeypatch, jobs):
        from carenet import pipeline

        core_paths, h2o_path = small_panel_files
        lock = threading.Lock()
        cubes = {}  # thread id -> weakref to the core cube that thread last read
        smoothed = []

        def weak_read(path, *band):
            cube, extras = read_cube(path, *band)
            if path != h2o_path:
                with lock:
                    cubes[threading.get_ident()] = weakref.ref(cube)
            return cube, extras

        def checking_smooth(rows):
            ref = cubes.get(threading.get_ident())
            if ref is not None:  # a core's rows, not the H2O image's
                assert ref() is None, "core cube still alive while its rows are smoothed"
                with lock:
                    smoothed.append(rows.shape[0])
            return savgol_smooth(rows)

        monkeypatch.setattr(pipeline, "read_cube", weak_read)
        monkeypatch.setattr(pipeline, "savgol_smooth", checking_smooth)
        _, results, skipped = preprocess_panel(core_paths[:2], h2o_path, seed=0, jobs=jobs)
        assert len(results) == 2 and skipped == []
        assert smoothed  # the check ran on core rows


class TestTargets:
    def test_type_targets(self, small_panel, small_panel_files):
        panel = small_panel
        sset, _, _ = preprocess_panel(*small_panel_files, seed=0)
        mask = head_mask(sset, "type", [p.patient_id for p in panel.patients])
        labels, targets = targets_for_head(sset, "type", mask)
        assert set(np.unique(labels)) == {0, 1}
        np.testing.assert_array_equal(labels.astype(np.float32), targets)

    def test_subtype_targets_one_hot(self, small_panel, small_panel_files):
        panel = small_panel
        sset, _, _ = preprocess_panel(*small_panel_files, seed=0)
        mask = head_mask(sset, "subtype", [p.patient_id for p in panel.patients])
        labels, targets = targets_for_head(sset, "subtype", mask)
        assert targets.shape == (labels.size, 4)
        np.testing.assert_array_equal(targets.sum(axis=1), 1.0)

    def test_subtype_on_at_only_rejected(self, small_panel, small_panel_files):
        panel = small_panel
        sset, _, _ = preprocess_panel(*small_panel_files, seed=0)
        at_only = sset.select(sset.core_type == 0)
        with pytest.raises(DataError):
            targets_for_head(at_only, "subtype", np.ones(len(at_only), dtype=bool))


class TestTrainFold:
    def test_epoch_batches_are_permutations(self):
        from carenet.nn import make_rng

        rng = make_rng(0)
        for _ in range(3):
            batches = list(_epoch_batches(1003, 250, rng))
            assert [len(b) for b in batches] == [250, 250, 250, 250, 3]
            combined = np.concatenate(batches)
            np.testing.assert_array_equal(np.sort(combined), np.arange(1003))

    @pytest.fixture()
    def tiny_fold_data(self):
        rng = np.random.default_rng(0)
        n = 120
        base = rng.random((n, 467)).astype(np.float32) * 0.2
        labels = (np.arange(n) % 2).astype(np.int64)
        base[labels == 1, 150:170] += 0.6  # separable bump
        # spectra, labels, training rows (all) and dev rows (the first 40)
        return base, labels, np.arange(n), np.arange(40)

    def test_bit_identical_history_and_model(self, tiny_fold_data):
        x, labels, train_rows, dev_rows = tiny_fold_data
        config = TrainConfig(head="type", epochs=2, batch_size=64, seed=1)
        runs = []
        for _ in range(2):
            res = train_fold(config, train_rows, x, labels, dev_rows)
            runs.append(res)
        assert runs[0].history_dicts() == runs[1].history_dicts()
        for pa, pb in zip(runs[0].model_final.parameters(),
                          runs[1].model_final.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_learns_separable_data(self, tiny_fold_data):
        x, labels, train_rows, dev_rows = tiny_fold_data
        config = TrainConfig(head="type", epochs=10, batch_size=64)
        res = train_fold(config, train_rows, x, labels, dev_rows)
        assert res.history[-1].dev_accuracy >= 0.99
        assert res.best_epoch >= 1
        # best model must reproduce the best recorded dev loss
        best_losses = [r.dev_loss for r in res.history]
        assert min(best_losses) == res.history[res.best_epoch - 1].dev_loss

    def test_history_records_lr_and_losses(self, tiny_fold_data):
        x, labels, train_rows, dev_rows = tiny_fold_data
        config = TrainConfig(head="type", epochs=3, batch_size=64)
        res = train_fold(config, train_rows, x, labels, dev_rows)
        assert [r.epoch for r in res.history] == [1, 2, 3]
        assert all(r.lr <= 1e-3 for r in res.history)
        assert all(np.isfinite([r.train_loss, r.dev_loss]).all() for r in res.history)

    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_reads_only_its_rows(self, tiny_fold_data, head):
        x, labels, _, _ = tiny_fold_data
        train_rows, dev_rows = np.arange(40, 120), np.arange(40)
        config = TrainConfig(head=head, epochs=2, batch_size=32, seed=3)
        compact = train_fold(config, train_rows, x, labels, dev_rows)

        # the same rows scattered through a container whose other rows are NaN
        # and carry a label no head accepts, so reading one fails the run
        n = 3 * x.shape[0]
        where = np.sort(np.random.default_rng(1).choice(n, x.shape[0], replace=False))
        spectra = np.full((n, INPUT_LENGTH), np.nan, np.float32)
        spectra[where] = x
        every_label = np.full(n, -1)
        every_label[where] = labels
        scattered = train_fold(config, where[train_rows], spectra, every_label, where[dev_rows])

        assert scattered.history_dicts() == compact.history_dicts()
        assert scattered.best_epoch == compact.best_epoch
        for model in ("model_final", "model_best"):
            for pa, pb in zip(getattr(scattered, model).parameters(),
                              getattr(compact, model).parameters()):
                np.testing.assert_array_equal(pa.value, pb.value)

    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_micro_batched_gradient_matches_one_pass(self, head):
        # float64, three slices: FORWARD_CHUNK + FORWARD_CHUNK + 11 rows
        rng = np.random.default_rng(6)
        model = CarenetModel(head, seed=3).astype(np.float64)
        # a small live head: the zero head stops every trunk gradient, and a
        # unit-scale one saturates the outputs, where the clamped loss has none
        model.dense.w.value = rng.standard_normal(model.dense.w.value.shape) * 1e-3
        n = 2 * FORWARD_CHUNK + 11
        x = rng.random((n, INPUT_LENGTH))
        if head == "type":
            labels = np.arange(n) % 2
            loss, grad = bce_loss(model.forward(x)[:, 0], labels.astype(np.float64))
            model.backward(grad[:, None])
        else:
            labels = np.arange(n) % 4
            loss, grad = cce_loss(model.forward(x), np.eye(4)[labels])
            model.backward(grad)
        one_pass = [p.grad.copy() for p in model.parameters()]

        sums = [np.empty_like(p.value) for p in model.parameters()]
        assert _batch_gradients(model, x, np.arange(n), labels, sums) == pytest.approx(
            loss, rel=1e-12)
        for p, want in zip(model.parameters(), one_pass):
            assert p.grad is not want and np.abs(want).max() > 0.0
            np.testing.assert_allclose(p.grad, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_training_batch_holds_one_slice_of_activations(self):
        # each conv caches its input, the ReLU output the next layers share;
        # a kept column matrix per conv (3x or 7x its input) peaked at 35.1 MB
        model = CarenetModel("type", seed=1)
        rng = np.random.default_rng(0)
        x = rng.random((250, INPUT_LENGTH)).astype(np.float32)
        labels = np.arange(250) % 2
        rows = np.arange(250)
        sums = [np.empty_like(p.value) for p in model.parameters()]
        _batch_gradients(model, x, rows, labels, sums)  # warm-up: grows this thread's scratch
        _, peak = traced_peak(_batch_gradients, model, x, rows, labels, sums)
        assert peak <= 16e6, peak

    def test_batch_size_does_not_set_activation_memory(self):
        rng = np.random.default_rng(0)
        x = rng.random((256, INPUT_LENGTH)).astype(np.float32)
        labels = np.arange(256) % 2

        def peak_bytes(batch_size):
            config = TrainConfig(head="type", epochs=1, batch_size=batch_size)
            return traced_peak(train_fold, config, np.arange(256), x, labels, np.arange(8))[1]

        one_slice, eight_slices = peak_bytes(32), peak_bytes(256)
        # each slice gathers its own rows, so no batch is gathered whole; one
        # of 256 x 467 float32 would add 0.5 MB (within 3 KB measured)
        assert eight_slices - one_slice < 128e3, (one_slice, eight_slices)

    def test_empty_sets_rejected(self):
        config = TrainConfig(head="type", epochs=1)
        x = np.zeros((4, 467), dtype=np.float32)
        labels = np.arange(4) % 2
        no_rows = np.empty(0, dtype=np.int64)
        with pytest.raises(DataError):
            train_fold(config, no_rows, x, labels, np.arange(2))
        with pytest.raises(DataError):
            train_fold(config, np.arange(2), x, labels, no_rows)


class TestForwardChunked:
    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_outputs_do_not_depend_on_chunk_size(self, head, monkeypatch):
        from carenet import model as model_module

        rng = np.random.default_rng(4)
        model = CarenetModel(head, seed=1)
        model.dense.w.value = rng.standard_normal(model.dense.w.value.shape).astype(np.float32)
        x = rng.random((FORWARD_CHUNK + 37, INPUT_LENGTH)).astype(np.float32)
        one_shot = model.forward(x)
        # the trunk's rows are bitwise independent of the batch; the dense
        # head's small BLAS call may round its last bit by batch size
        rows = np.arange(x.shape[0])
        for chunk in (7, 64, FORWARD_CHUNK, x.shape[0]):
            monkeypatch.setattr(model_module, "FORWARD_CHUNK", chunk)
            np.testing.assert_allclose(forward_chunked(model, x, rows), one_shot,
                                       rtol=1e-6, atol=1e-7)

    def test_no_rows(self):
        model = CarenetModel("subtype", seed=1)
        out = forward_chunked(model, np.zeros((3, INPUT_LENGTH), np.float32),
                              np.empty(0, np.int64))
        assert out.shape == (0, 4)

    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_rows_equal_the_gathered_matrix(self, head):
        model = _with_random_head(head, np.float32, 8)
        rng = np.random.default_rng(8)
        spectra = rng.random((3 * FORWARD_CHUNK, INPUT_LENGTH), np.float32)
        # shuffled, with repeats, and long enough to cross chunk boundaries
        rows = rng.integers(0, spectra.shape[0], 2 * FORWARD_CHUNK + 13)
        assert np.unique(rows).size < rows.size
        gathered = spectra[rows]
        np.testing.assert_array_equal(forward_chunked(model, spectra, rows),
                                      forward_chunked(model, gathered, np.arange(rows.size)))


def _with_random_head(head, dtype, seed):
    """A model whose zero-initialized head is filled, so outputs vary by row."""
    model = CarenetModel(head, seed=seed).astype(dtype)
    rng = np.random.default_rng(seed)
    model.dense.w.value = rng.standard_normal(model.dense.w.value.shape).astype(dtype)
    return model


def _caching_forward(model, x):
    return np.concatenate([model.forward(x[i:i + FORWARD_CHUNK])
                           for i in range(0, x.shape[0], FORWARD_CHUNK)])


class TestForwardOnly:
    def test_leaves_no_backward_caches(self):
        model = _with_random_head("type", np.float32, 2)
        x = np.random.default_rng(0).random((FORWARD_CHUNK + 5, INPUT_LENGTH), np.float32)
        model.forward(x[:4])  # a caching pass first, so stale caches would show
        forward_chunked(model, x, np.arange(x.shape[0]))
        layers = [model.stem, model.stem_relu]
        for block in model.blocks:
            layers += [block.conv1, block.relu1, block.conv2, block.relu_out]
            layers += [block.projection] if block.projection is not None else []
        assert sum(isinstance(layer, Conv1D) for layer in layers) == 20
        assert sum(isinstance(layer, ReLU) for layer in layers) == 17
        assert all(layer._cache is None for layer in layers)

    def test_memory_is_bounded_by_one_chunk(self):
        model = _with_random_head("type", np.float32, 2)
        x = np.random.default_rng(0).random((256, INPUT_LENGTH), np.float32)
        rows = np.arange(256)
        forward_chunked(model, x, rows)  # warm-up: grows this thread's scratch
        _, peak = traced_peak(forward_chunked, model, x, rows)
        # caching passes hold ~9.9 MB: every ReLU output, which the convs
        # cache as their inputs
        assert peak <= 8e6, peak

    def test_memory_does_not_grow_with_the_rows(self):
        # the container exists before tracing starts, as the CLI's does; a
        # gathered row set would add 1.9 KB a row, 1.8 MB over 960 rows
        model = _with_random_head("type", np.float32, 2)
        spectra = np.random.default_rng(0).random((1024, INPUT_LENGTH), np.float32)
        rows = np.random.default_rng(1).permutation(1024)
        forward_chunked(model, spectra, rows[:64])  # warm-up: grows this thread's scratch
        _, small = traced_peak(forward_chunked, model, spectra, rows[:64])
        _, large = traced_peak(forward_chunked, model, spectra, rows)
        # only the outputs may grow, one float32 a row as chunks and then
        # concatenated (7.7 KB over 960 rows); 24-63 KB measured
        assert large - small <= 256e3, (small, large)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_bitwise_equal_to_caching_forward(self, head, dtype):
        model = _with_random_head(head, dtype, 3)
        x = np.random.default_rng(5).random((2 * FORWARD_CHUNK + 11, INPUT_LENGTH))
        expected = _caching_forward(model, x)
        got = forward_chunked(model, x, np.arange(x.shape[0]))
        assert got.dtype == expected.dtype == dtype
        np.testing.assert_array_equal(got, expected)

    def test_threads_each_get_their_serial_result(self):
        models = [_with_random_head("subtype", np.float32, 4),
                  _with_random_head("type", np.float64, 6)]
        rng = np.random.default_rng(7)
        inputs = [rng.random((3 * FORWARD_CHUNK + 9, INPUT_LENGTH), np.float32)
                  for _ in models]
        serial = [forward_chunked(m, x, np.arange(x.shape[0])) for m, x in zip(models, inputs)]
        results = [[] for _ in models]

        def run(i):
            for _ in range(5):
                results[i].append(forward_chunked(models[i], inputs[i],
                                                  np.arange(inputs[i].shape[0])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(models))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, results):
            assert len(got) == 5
            for out in got:
                np.testing.assert_array_equal(out, want)
