import json
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from carenet.cli import build_parser, main, parse_config_file
from carenet.dataset import (
    SUBTYPES,
    read_container,
    read_cube,
    read_spectraset,
    write_container,
    write_cube,
    write_spectraset,
)
from carenet.spectral import WavenumberAxis
from tests.conftest import collect_panel, rewrite_directory

TINY_CONFIG = """
# tiny panel for fast end-to-end runs
n_patients = 2, 2, 2, 2
image_size = 12
class_separation = 1.5
"""


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """synth -> preprocess -> train (each head, 2 epochs) shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "panel.cfg"
    config.write_text(TINY_CONFIG)
    synth_dir = root / "panel"
    assert run(["synth", "--seed", 7, "--config", config, "--out-dir", synth_dir]) == 0
    pre_dir = root / "pre"
    assert run(["preprocess", synth_dir, "--seed", 7, "--out-dir", pre_dir]) == 0
    train_dirs = {}
    for head in ("type", "subtype"):
        train_dirs[head] = root / f"train_{head}"
        assert run(["train", pre_dir / "spectra.crns", "--head", head, "--seed", 7,
                    "--epochs", 2, "--out-dir", train_dirs[head]]) == 0
    return root, synth_dir, pre_dir, train_dirs


class TestConfigParsing:
    def test_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 3\nb = 0.5\nc = hello\nd = 1, 2, 3\ne = true\n# comment\n")
        values = parse_config_file(path)
        assert values == {"a": 3, "b": 0.5, "c": "hello", "d": (1, 2, 3), "e": True}

    def test_missing_config_is_usage_error(self, tmp_path):
        code = run(["synth", "--config", tmp_path / "nope.cfg", "--out-dir", tmp_path / "x"])
        assert code == 2

    def test_bad_key_is_usage_error(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("not_a_real_option = 5\n")
        assert run(["synth", "--config", config, "--out-dir", tmp_path / "x"]) == 2

    def test_repeated_key_is_usage_error_naming_both_lines(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("image_size = 12\n# comment\nimage_size = 16\n")
        assert run(["synth", "--config", config, "--out-dir", tmp_path / "x"]) == 2
        assert f"{config}:3: key 'image_size' repeats line 1" in capsys.readouterr().err


class TestSynth:
    def test_outputs_and_manifest(self, tiny_run):
        _, synth_dir, _, _ = tiny_run
        index = json.loads((synth_dir / "panel.json").read_text())
        assert len(index["cores"]) == 16  # 8 patients x 2 cores
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        for output in manifest["outputs"]:
            assert Path(output).exists()

    def test_manifest_records_the_command_argv(self, tiny_run):
        # main() runs in this process, whose own sys.argv is pytest's
        root, synth_dir, pre_dir, _ = tiny_run
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["argv"] == ["synth", "--seed", "7", "--config", str(root / "panel.cfg"),
                                    "--out-dir", str(synth_dir)]
        manifest = json.loads((pre_dir / "manifest.json").read_text())
        assert manifest["argv"] == ["preprocess", str(synth_dir), "--seed", "7",
                                    "--out-dir", str(pre_dir)]

    def test_default_config_is_cohort_shaped(self):
        from carenet.cli import _synth_config

        config = _synth_config({}, seed=0)
        assert config.n_patients == (8, 8, 7, 7)
        assert 2 * config.total_patients == 60  # 60 cores, one CA + one AT per patient

    def test_deterministic_rerun(self, tiny_run, tmp_path):
        root, synth_dir, _, _ = tiny_run
        again = tmp_path / "panel2"
        config = root / "panel.cfg"
        assert run(["synth", "--seed", 7, "--config", config, "--out-dir", again]) == 0
        for name in json.loads((synth_dir / "panel.json").read_text())["cores"].values():
            assert (synth_dir / name).read_bytes() == (again / name).read_bytes()

    def test_streams_one_cube_at_a_time(self, tmp_path, monkeypatch):
        from carenet import synthgen
        from carenet.cli import _synth_config

        config_path = tmp_path / "c.cfg"
        config_path.write_text("n_patients = 1, 1, 0, 0\nimage_size = 12\nspike_fraction = 0.05\n")
        live = {"now": 0, "most": 0, "made": 0}

        def freed():
            live["now"] -= 1

        def tracked_cube(*args, **kwargs):
            cube = real_cube(*args, **kwargs)
            live["now"] += 1
            live["made"] += 1
            live["most"] = max(live["most"], live["now"])
            weakref.finalize(cube, freed)
            return cube

        real_cube = synthgen.HyperCube
        monkeypatch.setattr(synthgen, "HyperCube", tracked_cube)
        out = tmp_path / "panel"
        assert run(["synth", "--seed", 4, "--config", config_path, "--out-dir", out]) == 0
        assert live == {"now": 0, "most": 1, "made": 5}  # 4 cores + H2O
        monkeypatch.undo()

        # the same panel, its cubes kept in memory
        panel = collect_panel(_synth_config(parse_config_file(config_path), seed=4))
        expected = tmp_path / "expected"
        expected.mkdir()
        for core_id, cube in panel.cubes.items():
            write_cube(cube, expected / f"core_{core_id:04d}.crns",
                       ground_truth=panel.ground_truth[core_id])
        write_cube(panel.h2o_cube, expected / "h2o.crns")
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted([p.name for p in expected.iterdir()]
                                 + ["manifest.json", "panel.json"])
        for path in expected.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        index = json.loads((out / "panel.json").read_text())
        assert index == {
            "seed": 4, "h2o": "h2o.crns",
            "cores": {str(c): f"core_{c:04d}.crns" for c in panel.cubes},
            "patients": [{"patient_id": r.patient_id, "subtype": r.subtype,
                          "ca_core_id": r.ca_core_id, "at_core_id": r.at_core_id}
                         for r in panel.patients],
        }

    @pytest.mark.parametrize("line", [
        "image_size = 8.5", "image_size = true", "n_patients = 1, 2.5, 0, 0",
        "n_patients = 1, false, 0, 0",
    ])
    def test_non_integer_size_or_count_is_usage_error(self, tmp_path, capsys, line):
        config = tmp_path / "c.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "x"
        assert run(["synth", "--config", config, "--out-dir", out / "run"]) == 2
        assert "bad synth config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "noise_sigma = nan", "class_separation = nan", "scale_range = nan, 1.0",
        "baseline_const_range = 0.0, inf", "class_separation = x", "scale_range = a, b",
        "scale_range = 0.9, 1.0, 1.1",
    ])
    def test_non_finite_or_non_numeric_value_is_usage_error(self, tmp_path, capsys, line):
        config = tmp_path / "c.cfg"
        config.write_text(f"n_patients = 1, 0, 0, 0\nimage_size = 8\n{line}\n")
        out = tmp_path / "x"
        assert run(["synth", "--config", config, "--out-dir", out]) == 2
        assert "bad synth config" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_cube_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("n_patients = 1, 0, 0, 0\nimage_size = 3000000\n")
        out = tmp_path / "x"
        assert run(["synth", "--config", config, "--out-dir", out]) == 3
        assert "cannot be allocated" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestPreprocess:
    def test_container_and_counts(self, tiny_run):
        _, _, pre_dir, _ = tiny_run
        sset = read_spectraset(pre_dir / "spectra.crns")
        assert len(sset) > 0
        manifest = json.loads((pre_dir / "manifest.json").read_text())
        for counts in manifest["stage_counts"].values():
            seq = [counts["tissue_pixels"], counts["after_outlier1"],
                   counts["after_emsc"], counts["after_normalize"],
                   counts["after_outlier2"]]
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_corrupt_input_is_data_error(self, tmp_path):
        bad = tmp_path / "panel"
        bad.mkdir()
        (bad / "panel.json").write_text('{"cores": {"0": "core.crns"}, "h2o": "h2o.crns"}')
        (bad / "core.crns").write_bytes(b"garbage")
        assert run(["preprocess", bad, "--out-dir", tmp_path / "out"]) == 3

    # amide band (K-means++ input), inside the kept biofingerprint, outside it
    @pytest.mark.parametrize("wavenumber", [1650.0, 1100.0, 3000.0])
    def test_nan_pixel_is_data_error(self, tiny_run, tmp_path, wavenumber):
        _, synth_dir, _, _ = tiny_run
        panel = tmp_path / "panel"
        shutil.copytree(synth_dir, panel)
        path = panel / json.loads((panel / "panel.json").read_text())["cores"]["0"]
        cube, extras = read_cube(path)
        row, col = np.argwhere(extras["gt_role"] == 1)[0]  # first tissue pixel
        cube.intensities[row, col, np.abs(cube.axis.values - wavenumber).argmin()] = np.nan
        write_cube(cube, path)
        assert run(["preprocess", panel, "--out-dir", tmp_path / "out"]) == 3

    @pytest.mark.parametrize("damage", ["crc", "inf", "truncated"])
    def test_damage_outside_the_band_is_data_error(self, tiny_run, tmp_path, damage):
        # preprocess reads only the biofingerprint; 3950 cm^-1 is far outside it
        _, synth_dir, _, _ = tiny_run
        panel = tmp_path / "panel"
        shutil.copytree(synth_dir, panel)
        path = panel / json.loads((panel / "panel.json").read_text())["cores"]["0"]
        raw = bytearray(path.read_bytes())
        dir_len = int.from_bytes(raw[6:10], "little")
        entries = json.loads(raw[10:10 + dir_len])["arrays"]
        start = (10 + dir_len + 63) // 64 * 64 + next(
            e["offset"] for e in entries if e["name"] == "intensities")
        if damage == "crc":
            raw[start] ^= 0x01  # pixel 0, 3950 cm^-1
            path.write_bytes(bytes(raw))
        elif damage == "truncated":
            path.write_bytes(bytes(raw[:start + 4]))
        else:
            arrays, meta = read_container(path, "hypercube")
            arrays["intensities"][0, 0, 0] = np.inf
            write_container(path, arrays, meta)
        out = tmp_path / "out"
        assert run(["preprocess", panel, "--out-dir", out]) == 3
        assert not (out / "spectra.crns").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unreadable_last_core_is_data_error_not_skipped(self, tiny_run, tmp_path, capsys,
                                                             jobs):
        _, synth_dir, _, _ = tiny_run
        panel = tmp_path / "panel"
        shutil.copytree(synth_dir, panel)
        cores = json.loads((panel / "panel.json").read_text())["cores"]
        last = panel / cores[max(cores, key=int)]
        data = bytearray(last.read_bytes())
        data[-1] ^= 0xFF  # last payload byte: the array's CRC32 no longer matches
        last.write_bytes(bytes(data))
        out = tmp_path / "out"
        assert run(["preprocess", panel, "--jobs", jobs, "--out-dir", out]) == 3
        assert not (out / "spectra.crns").exists()
        err = capsys.readouterr().err
        assert "CRC32" in err and "skipped" not in err

    @staticmethod
    def _preprocess_with_core_1_off_axis(tmp_path, capsys, counts):
        """Synth a 16² panel, shift core 1's axis, preprocess; (pre dir, stdout, stderr)."""
        config = tmp_path / "c.cfg"
        config.write_text(f"n_patients = {counts}\nimage_size = 16\n")
        panel = tmp_path / "panel"
        assert run(["synth", "--seed", 5, "--config", config, "--out-dir", panel]) == 0
        path = panel / "core_0001.crns"
        cube, _ = read_cube(path)
        cube.axis = WavenumberAxis(3950.3, 900.3, 1580)
        write_cube(cube, path)
        capsys.readouterr()
        pre = tmp_path / "pre"
        assert run(["preprocess", panel, "--seed", 5, "--out-dir", pre]) == 0
        return (pre, *capsys.readouterr())

    def test_skipped_core_takes_its_patient_out(self, tmp_path, capsys):
        # core 1 (patient 1's AT core) on a shifted axis is skipped; patient 1's
        # CA core must go with it, or train finds a half patient. Three LA
        # patients leave train the four non-test patients its folds need.
        pre, _, err = self._preprocess_with_core_1_off_axis(tmp_path, capsys, "3, 2, 2, 2")
        lines = err.splitlines()
        assert lines[0] == "preprocess: skipped core 0: patient 1's core 1 was skipped"
        assert lines[1].startswith("preprocess: skipped core 1: band axis ")
        assert len(lines) == 2  # no warning: train can split this container
        manifest = json.loads((pre / "manifest.json").read_text())
        assert [entry["core_id"] for entry in manifest["skipped"]] == [0, 1]
        assert manifest["skipped"][0]["reason"] == "patient 1's core 1 was skipped"
        assert manifest["skipped"][1]["reason"].startswith("band axis")
        assert not np.isin([0, 1], read_spectraset(pre / "spectra.crns").core_id).any()
        assert run(["train", pre / "spectra.crns", "--head", "type", "--epochs", 1,
                    "--seed", 5, "--out-dir", tmp_path / "train"]) == 0

    def test_container_train_cannot_split_is_warned(self, tmp_path, capsys):
        # the same skip on a 2,2,2,2 panel leaves one non-test LA patient: the
        # container is written and preprocess exits 0 with one warning, and
        # train then refuses it
        pre, out, err = self._preprocess_with_core_1_off_axis(tmp_path, capsys, "2, 2, 2, 2")
        assert out.startswith("preprocess: ") and out.endswith(
            f" spectra from 14 cores -> {pre / 'spectra.crns'}\n")
        assert err.splitlines()[2:] == [
            "preprocess: warning: train cannot split this container: "
            "need at least four non-test patients to build folds"]
        assert run(["train", pre / "spectra.crns", "--head", "type", "--epochs", 1,
                    "--seed", 5, "--out-dir", tmp_path / "train"]) == 3

    def test_jobs_do_not_change_outputs(self, tiny_run, tmp_path):
        _, synth_dir, _, _ = tiny_run
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
        for jobs, out in outs.items():
            assert run(["preprocess", synth_dir, "--jobs", jobs, "--out-dir", out]) == 0
        names = sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
        assert "spectra.crns" in names and len(names) == 1 + 16  # one mask PGM per core
        assert names == sorted(p.name for p in outs[2].iterdir() if p.name != "manifest.json")
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


class TestTrainEvalGradcam:
    def test_train_outputs(self, tiny_run):
        for train_dir in tiny_run[3].values():
            for fold in range(1, 5):
                assert (train_dir / f"fold{fold}_final.crnm").exists()
                assert (train_dir / f"fold{fold}_best.crnm").exists()
            history = json.loads((train_dir / "history.json").read_text())
            assert set(history) == {"fold1", "fold2", "fold3", "fold4"}
            assert all(len(h["epochs"]) == 2 for h in history.values())
            split = json.loads((train_dir / "split.json").read_text())
            assert len(split["test_patients"]) == 4

    @pytest.mark.parametrize("head,which", [("type", "final"), ("type", "best"),
                                            ("subtype", "final"), ("subtype", "best")])
    def test_eval_reports(self, tiny_run, tmp_path, head, which):
        _, _, pre_dir, train_dirs = tiny_run
        eval_dir = tmp_path / "eval"
        assert run(["eval", train_dirs[head], pre_dir / "spectra.crns",
                    "--which", which, "--out-dir", eval_dir]) == 0
        classes = ("AT", "CA") if head == "type" else SUBTYPES
        metrics = (eval_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("set,label,class,granularity,accuracy_mean")
        assert [line.split(",")[:4] for line in metrics[1:]] == (
            [["dev", head, name, "spectrum"] for name in classes]
            + [["test", head, name, "patient"] for name in classes])
        patients = (eval_dir / "patients.csv").read_text().splitlines()
        assert patients[0] == "label,patient_id,core,ground_truth,fold1,fold2,fold3,fold4"
        assert len(patients) == 1 + 4  # 2 CA + 2 AT cores, or the 4 test CA cores
        cores = sorted(line.split(",")[2] for line in patients[1:])
        assert cores == (["AT", "AT", "CA", "CA"] if head == "type" else ["CA"] * 4)
        for line in patients[1:]:
            assert set(line.split(",")[3:]) <= set(classes)

    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_gradcam_outputs(self, tiny_run, tmp_path, head):
        _, _, pre_dir, train_dirs = tiny_run
        cam_dir = tmp_path / "cam"
        assert run(["gradcam", train_dirs[head], pre_dir / "spectra.crns",
                    "--out-dir", cam_dir]) == 0
        names = ["CA"] if head == "type" else list(SUBTYPES)
        assert sorted(p.name for p in cam_dir.glob("heatmap_*.csv")) == \
            sorted(f"heatmap_{name}.csv" for name in names)
        for name in names:
            csv_path = cam_dir / f"heatmap_{name}.csv"
            assert (cam_dir / f"heatmap_{name}.svg").exists()
            lines = csv_path.read_text().splitlines()
            assert len(lines) == 1 + 467
            values = np.array([float(line.split(",")[1]) for line in lines[1:]])
            assert values.min() >= 0.0 and values.max() <= 1.0

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_container_missing_a_test_patient_is_data_error(self, tiny_run, tmp_path,
                                                            command):
        _, _, pre_dir, train_dirs = tiny_run
        sset = read_spectraset(pre_dir / "spectra.crns")
        test = json.loads((train_dirs["type"] / "split.json").read_text())["test_patients"]
        path = tmp_path / "spectra.crns"
        write_spectraset(sset.select(sset.patient_id != test[0]), path)
        out = tmp_path / "out"
        assert run([command, train_dirs["type"], path, "--out-dir", out]) == 3
        assert not list(out.glob("*.csv"))

    def test_eval_missing_split_is_data_error(self, tiny_run, tmp_path):
        _, _, pre_dir, _ = tiny_run
        assert run(["eval", tmp_path, pre_dir / "spectra.crns",
                    "--out-dir", tmp_path / "out"]) == 3

    def test_eval_mixed_heads_is_data_error(self, tiny_run, tmp_path):
        _, _, pre_dir, train_dirs = tiny_run
        copy = tmp_path / "copy"
        shutil.copytree(train_dirs["type"], copy)
        shutil.copy(train_dirs["subtype"] / "fold3_final.crnm", copy / "fold3_final.crnm")
        assert run(["eval", copy, pre_dir / "spectra.crns",
                    "--out-dir", tmp_path / "out"]) == 3
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_malformed_container_is_data_error(self, tmp_path):
        path = tmp_path / "spectra.crns"
        # "|O" keeps the byte length; ",f4" is one bit away from "<f4"
        for dtype in ("|O", ",f4"):
            write_container(path, {"spectra": np.arange(4, dtype=np.int64)},
                            {"kind": "spectraset"})
            rewrite_directory(path, lambda d: d["arrays"][0].update(dtype=dtype))
            assert run(["train", path, "--head", "type", "--out-dir", tmp_path / "out"]) == 3

    def test_repeated_core_key_is_data_error_naming_panel_json(self, tiny_run, tmp_path,
                                                               capsys):
        _, synth_dir, _, _ = tiny_run
        copy = tmp_path / "copy"
        shutil.copytree(synth_dir, copy)
        text = (copy / "panel.json").read_text()
        core_1 = json.loads(text)["cores"]["1"]
        # a second "0", naming core 1's file: json.loads alone keeps one "0"
        (copy / "panel.json").write_text(
            text.replace('"cores": {', f'"cores": {{"0": "{core_1}", ', 1))
        assert run(["preprocess", copy, "--out-dir", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert "panel.json" in err and "'0' given twice" in err

    @pytest.mark.parametrize("sidecar,edit", [
        ("panel.json", lambda d: d.update(cores=[1])),
        ("panel.json", lambda d: d.pop("h2o")),
        ("panel.json", lambda d: d["cores"].update(x=d["cores"].pop("0"))),
        ("panel.json", lambda d: d["cores"].update({"01": d["cores"]["1"]})),
        ("panel.json", lambda d: d["cores"].update({" 1": d["cores"].pop("1")})),
        ("split.json", lambda d: d.update(folds=5)),
        ("split.json", lambda d: d.update(folds=[])),
        ("split.json", lambda d: d["test_type_cores"][0].__setitem__(0, 999)),
        ("split.json", lambda d: d["test_type_cores"][0].__setitem__(1, "XX")),
        ("split.json", lambda d: d["folds"][0].update(dev=[999])),
        ("split.json", lambda d: d["folds"][0]["train"].append(d["test_patients"][0])),
        ("split.json", lambda d: d["folds"][1]["dev"].append(d["folds"][1]["train"][0])),
    ], ids=["cores_list", "missing_h2o", "core_key_x", "core_key_01_beside_1",
            "core_key_space_1", "folds_int", "folds_empty",
            "type_core_of_other_patient", "type_core_kind_xx", "dev_patient_not_in_container",
            "fold1_trains_on_test_patient", "fold2_dev_holds_train_patient"])
    def test_malformed_sidecar_is_data_error(self, tiny_run, tmp_path, sidecar, edit):
        _, synth_dir, pre_dir, train_dirs = tiny_run
        source = synth_dir if sidecar == "panel.json" else train_dirs["type"]
        copy = tmp_path / "copy"
        shutil.copytree(source, copy)
        data = json.loads((copy / sidecar).read_text())
        edit(data)
        (copy / sidecar).write_text(json.dumps(data))
        if sidecar == "panel.json":
            argv = ["preprocess", copy]
        else:
            argv = ["eval", copy, pre_dir / "spectra.crns"]
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 3

    @pytest.mark.parametrize("history", [
        "{not json",
        '{"fold1": 5}',
        '{"fold1": {"best_epoch": 1}}',
        '{"fold1": {"best_epoch": 1, "epochs": []}}',
        '{"fold1": {"best_epoch": 1, "epochs": [{"dev_loss": "low"}]}}',
        '{"fold9": {"best_epoch": 1, "epochs": [{"dev_loss": 0.5}]}}',
        # float() would take it as 0.5
        '{"fold1": {"best_epoch": 1, "epochs": [{"dev_loss": "0.5"}]}}',
    ], ids=["not_json", "fold_not_object", "missing_epochs", "empty_epochs",
            "dev_loss_not_number", "fold_without_checkpoint", "dev_loss_string"])
    def test_malformed_history_is_data_error(self, tiny_run, tmp_path, capsys, history):
        _, _, pre_dir, train_dirs = tiny_run
        copy = tmp_path / "copy"
        shutil.copytree(train_dirs["type"], copy)
        (copy / "history.json").write_text(history)
        assert run(["gradcam", copy, pre_dir / "spectra.crns",
                    "--out-dir", tmp_path / "out"]) == 3
        assert str(copy / "history.json") in capsys.readouterr().err

    # fields that int() would cast: each edit reads back as the original split,
    # so an unchecked parse would run eval to exit 0
    @pytest.mark.parametrize("edit", [
        lambda d: d["test_patients"].__setitem__(0, d["test_patients"][0] + 0.9),
        lambda d: d["folds"][0]["train"].__setitem__(0, str(d["folds"][0]["train"][0])),
        lambda d: d.update(seed=d["seed"] + 0.7),
    ], ids=["float-test-patient", "string-train-patient", "float-seed"])
    def test_cast_split_field_is_data_error_naming_the_file(self, tiny_run, tmp_path,
                                                            capsys, edit):
        _, _, pre_dir, train_dirs = tiny_run
        copy = tmp_path / "copy"
        shutil.copytree(train_dirs["type"], copy)
        data = json.loads((copy / "split.json").read_text())
        edit(data)
        (copy / "split.json").write_text(json.dumps(data))
        assert run(["eval", copy, pre_dir / "spectra.crns",
                    "--out-dir", tmp_path / "out"]) == 3
        assert str(copy / "split.json") in capsys.readouterr().err

    def test_best_fold_outside_the_split_is_data_error(self, tiny_run, tmp_path, capsys):
        # a history.json key joins the checkpoint path: "../other/fold1" would
        # load another run's checkpoint
        _, _, pre_dir, train_dirs = tiny_run
        copy, other = tmp_path / "copy", tmp_path / "other"
        shutil.copytree(train_dirs["type"], copy)
        other.mkdir()
        shutil.copy(copy / "fold1_best.crnm", other / "fold1_best.crnm")
        history = json.loads((copy / "history.json").read_text())
        history["../other/fold1"] = {"best_epoch": 1, "epochs": [{"dev_loss": -1.0}]}
        (copy / "history.json").write_text(json.dumps(history))
        assert run(["gradcam", copy, pre_dir / "spectra.crns",
                    "--out-dir", tmp_path / "out"]) == 3
        assert f"{copy / 'history.json'}: best fold '../other/fold1'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,sidecar", [
        ("eval", "split.json"), ("gradcam", "split.json"), ("gradcam", "history.json")])
    def test_sidecars_are_read_before_the_container(self, tiny_run, tmp_path, monkeypatch,
                                                    capsys, command, sidecar):
        from carenet import cli

        def no_container(path):
            raise AssertionError(f"read the container {path}")

        _, _, pre_dir, train_dirs = tiny_run
        copy = tmp_path / "copy"
        shutil.copytree(train_dirs["type"], copy)
        (copy / sidecar).unlink()
        monkeypatch.setattr(cli, "read_spectraset", no_container)
        assert run([command, copy, pre_dir / "spectra.crns",
                    "--out-dir", tmp_path / "out"]) == 3
        assert f"no {sidecar}" in capsys.readouterr().err

    @pytest.mark.parametrize("head", ["type", "subtype"])
    def test_gradcam_gathers_one_chunk_at_a_time(self, tiny_run, tmp_path, monkeypatch,
                                                 head):
        from carenet import cli
        from carenet.gradcam import class_average, gradcam_spectrum, write_heatmap_csv
        from carenet.model import CLASS_NAMES, FORWARD_CHUNK, load_checkpoint

        calls = []

        def recorded(model, spectra, target_class):
            calls.append((target_class, spectra.shape[0]))
            return gradcam_spectrum(model, spectra, target_class)

        _, _, pre_dir, train_dirs = tiny_run
        monkeypatch.setattr(cli, "gradcam_spectrum", recorded)
        cam_dir = tmp_path / "cam"
        assert run(["gradcam", train_dirs[head], pre_dir / "spectra.crns",
                    "--out-dir", cam_dir]) == 0
        monkeypatch.undo()

        # each class's test rows, attributed in one call to the unwrapped function
        sset = read_spectraset(pre_dir / "spectra.crns")
        test = json.loads((train_dirs[head] / "split.json").read_text())["test_patients"]
        best_fold = json.loads((cam_dir / "manifest.json").read_text())["config"]["best_fold"]
        model, _ = load_checkpoint(train_dirs[head] / f"{best_fold}_best.crnm")
        labels = sset.core_type if head == "type" else sset.subtype
        in_test = np.isin(sset.patient_id, test)
        assert all(n <= FORWARD_CHUNK for _, n in calls)
        assert len(calls) > len(model.scored_classes)  # some class takes several chunks
        for idx in model.scored_classes:
            rows = in_test & (labels == idx)
            assert sum(n for cls, n in calls if cls == idx) == rows.sum()
            name = CLASS_NAMES[head][idx]
            heatmap = class_average({name: gradcam_spectrum(model, sset.spectra[rows], idx)})
            write_heatmap_csv(heatmap[name], sset.axis, tmp_path / "expected.csv")
            assert ((cam_dir / f"heatmap_{name}.csv").read_bytes()
                    == (tmp_path / "expected.csv").read_bytes())

    def test_usage_error_exit_code(self):
        assert run(["train"]) == 2  # missing required arguments

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_data_error_before_training(self, tiny_run, tmp_path,
                                                        monkeypatch, lr):
        from carenet import pipeline

        def no_training(*args, **kwargs):
            raise AssertionError("a fold trained")

        monkeypatch.setattr(pipeline, "train_fold", no_training)
        _, _, pre_dir, _ = tiny_run
        out = tmp_path / "out"
        assert run(["train", pre_dir / "spectra.crns", "--head", "type", "--lr", lr,
                    "--out-dir", out]) == 3
        assert not list(out.glob("*.crnm"))

    @pytest.mark.parametrize("setting", [("--epochs", 0), ("--batch-size", 0), ("--lr", -1)],
                             ids=["epochs", "batch_size", "lr"])
    def test_bad_setting_fails_before_the_container_is_read(self, tmp_path, monkeypatch,
                                                            setting):
        from carenet import cli

        def no_container(path):
            raise AssertionError(f"read the container {path}")

        monkeypatch.setattr(cli, "read_spectraset", no_container)
        assert run(["train", tmp_path / "spectra.crns", "--head", "type", *setting,
                    "--out-dir", tmp_path / "out"]) == 3

    def test_model_forward_chunk_bounds_every_pass(self, tiny_run, tmp_path, monkeypatch):
        # patching the one constant moves every pass: forward_chunked, a
        # training batch with its dev pass, and cmd_gradcam's attributions
        from carenet import cli, model
        from carenet.gradcam import gradcam_spectrum
        from carenet.model import INPUT_LENGTH, CarenetModel
        from carenet.pipeline import TrainConfig, forward_chunked, train_fold

        monkeypatch.setattr(model, "FORWARD_CHUNK", 7)
        passes = {"forward": [], "trunk_forward": []}
        for name, rows in passes.items():
            def recorded(net, x, *args, _original=getattr(CarenetModel, name), _rows=rows,
                         **kwargs):
                _rows.append(len(x))
                return _original(net, x, *args, **kwargs)
            monkeypatch.setattr(CarenetModel, name, recorded)
        cams = []

        def recorded_cam(net, spectra, target_class):
            cams.append(len(spectra))
            return gradcam_spectrum(net, spectra, target_class)

        monkeypatch.setattr(cli, "gradcam_spectrum", recorded_cam)

        spectra = np.random.default_rng(0).random((30, INPUT_LENGTH), np.float32)
        forward_chunked(CarenetModel("type", seed=0), spectra, np.arange(20))
        assert passes["forward"] == [7, 7, 6]
        passes["forward"].clear()
        # one epoch of one 20-row batch, then a 10-row dev pass
        train_fold(TrainConfig("type", epochs=1, batch_size=20), np.arange(20), spectra,
                   np.arange(30) % 2, np.arange(20, 30))
        assert passes["forward"] == [7, 7, 6, 7, 3]
        passes["trunk_forward"].clear()

        _, _, pre_dir, train_dirs = tiny_run
        assert run(["gradcam", train_dirs["subtype"], pre_dir / "spectra.crns",
                    "--out-dir", tmp_path / "cam"]) == 0
        assert max(cams) == 7 and max(passes["trunk_forward"]) == 7
        assert sum(passes["trunk_forward"]) == sum(cams)

    def test_every_manifest_records_peak_rss(self, tiny_run):
        root, synth_dir, pre_dir, train_dirs = tiny_run
        for run_dir in [synth_dir, pre_dir, *train_dirs.values()]:
            peak = json.loads((run_dir / "manifest.json").read_text())["peak_rss_mb"]
            assert isinstance(peak, float) and 1.0 < peak < 1e6, (run_dir, peak)


def test_jobs_help_says_where_it_acts(capsys):
    parser = build_parser()
    for command in ("preprocess", "train", "eval", "gradcam"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--jobs" in text
        assert ("no effect yet" in text) == (command != "preprocess"), command
    # accepted, not rejected, where it has no effect
    args = parser.parse_args(["train", "spectra.crns", "--head", "type", "--jobs", "2"])
    assert args.jobs == 2


@pytest.mark.parametrize("command", ["preprocess", "train", "eval", "gradcam"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_usage_error(tmp_path, command, jobs):
    positional = {"preprocess": ["panel"], "train": ["spectra.crns", "--head", "type"],
                  "eval": ["train", "spectra.crns"], "gradcam": ["train", "spectra.crns"]}
    out = tmp_path / "out"
    assert run([command, *positional[command], "--jobs", jobs, "--out-dir", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "preprocess", "train", "eval", "gradcam"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    positional = {"synth": [], "preprocess": ["panel"],
                  "train": ["spectra.crns", "--head", "type"],
                  "eval": ["train", "spectra.crns"], "gradcam": ["train", "spectra.crns"]}
    out = tmp_path / "out"
    assert run([command, *positional[command], "--seed", "-1", "--out-dir", out]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_synth_takes_no_jobs(tmp_path):
    assert run(["synth", "--jobs", 1, "--out-dir", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()


SYNTH_CONFIG_KEYS = {
    "n_patients", "image_size", "noise_sigma", "baseline_const_range",
    "baseline_coef_range", "scale_range", "class_separation", "tissue_paraffin_range",
    "tissue_h2o_range", "spike_fraction", "spike_amplitude", "seed"}


@pytest.mark.parametrize("command,config_keys", [
    ("synth", SYNTH_CONFIG_KEYS),
    ("preprocess", {"jobs"}),
    ("train", {"head", "epochs", "batch_size", "lr"}),
    ("eval", {"which", "head"}),
    ("gradcam", {"best_fold"}),
])
def test_manifest_contract(tiny_run, tmp_path, command, config_keys):
    root, synth_dir, pre_dir, train_dirs = tiny_run
    container = pre_dir / "spectra.crns"
    run_dir, inputs = {
        "synth": (synth_dir, [root / "panel.cfg"]),
        "preprocess": (pre_dir, [synth_dir]),
        "train": (train_dirs["type"], [container]),
    }.get(command, (tmp_path / command, [train_dirs["type"], container]))
    if command in ("eval", "gradcam"):
        assert run([command, *inputs, "--out-dir", run_dir]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest) == {
        "command", "argv", "package_version", "seed", "config", "inputs", "outputs",
        "started_unix", "elapsed_s", "peak_rss_mb",
    } | ({"stage_counts", "implausible_cores", "skipped"} if command == "preprocess"
         else set())
    assert manifest["command"] == command
    assert manifest["inputs"] == sorted(str(p) for p in inputs)
    assert manifest["outputs"] and all(Path(p).exists() for p in manifest["outputs"])
    assert set(manifest["config"]) == config_keys


def test_default_run_directory_gets_a_manifest(tmp_path, monkeypatch):
    (tmp_path / "panel.cfg").write_text("n_patients = 1, 0, 0, 0\nimage_size = 8\n")
    monkeypatch.chdir(tmp_path)
    assert run(["synth", "--seed", 3, "--config", "panel.cfg"]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert run_dir.name.endswith("-seed3-synth")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["inputs"] == ["panel.cfg"]
    assert sorted(manifest["outputs"]) == sorted(
        str(Path("runs") / run_dir.name / p.name) for p in run_dir.iterdir()
        if p.name != "manifest.json")


class TestOSFailures:
    """An OS-level failure exits 2 or 3 with a message naming the path, never a traceback."""

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["out_dir_is_a_file", "out_dir_under_a_file"])
    def test_run_directory_that_cannot_be_made_is_usage_error(self, tmp_path, capsys, sub):
        config = tmp_path / "panel.cfg"
        config.write_text("n_patients = 1, 0, 0, 0\nimage_size = 8\n")
        blocker = tmp_path / "f"
        blocker.write_text("a file")
        out = blocker / sub if sub else blocker
        assert run(["synth", "--config", config, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(out) in err
        assert sorted(tmp_path.iterdir()) == [blocker, config]
        assert blocker.read_text() == "a file"

    def test_output_path_that_is_a_directory_is_data_error(self, tiny_run, tmp_path, capsys):
        _, synth_dir, _, _ = tiny_run
        blocked = tmp_path / "pre" / "spectra.crns"
        blocked.mkdir(parents=True)
        assert run(["preprocess", synth_dir, "--out-dir", blocked.parent]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "data error: " in err and str(blocked) in err

    def test_sidecar_that_is_a_directory_is_data_error(self, tiny_run, tmp_path, capsys):
        _, _, pre_dir, train_dirs = tiny_run
        copy = tmp_path / "copy"
        shutil.copytree(train_dirs["type"], copy)
        (copy / "split.json").unlink()
        (copy / "split.json").mkdir()
        assert run(["eval", copy, pre_dir / "spectra.crns", "--out-dir", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(copy / "split.json") in err
