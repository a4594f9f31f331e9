"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Several tests train real models; the whole module stays within
its stated wall-clock budgets on a 2-core desktop.
"""

import tempfile
import time

import numpy as np
import pytest

from carenet.chemometrics import (
    H2O_MASK_BAND,
    emsc_build_model,
    emsc_correct_rows,
    interferent_block,
    remove_outliers,
)
from carenet.clustering import kmeans, select_paraffin, select_tissue
from carenet.evaluation import patient_vote
from carenet.gradcam import class_average, gradcam_spectrum
from carenet.model import INPUT_LENGTH, CarenetModel
from carenet.nn import (
    Adam,
    Conv1D,
    Dense,
    GlobalAvgPool,
    PlateauScheduler,
    ReLU,
    ResidualBlock,
    Sigmoid,
    Softmax,
    bce_loss,
    cce_loss,
    make_rng,
)
from carenet.pipeline import (
    PatientRecord,
    TrainConfig,
    make_split,
    preprocess_panel,
    train_fold,
    train_folds,
)
from carenet.spectral import (
    BIOFINGERPRINT_BAND,
    RAW_AXIS,
    WavenumberAxis,
    band_slice,
    minmax_normalize_rows,
    savgol_smooth,
)
from carenet.synthgen import BandSpec, SynthConfig, gen_cube, gen_spectrum
from tests.conftest import (
    central_difference,
    collect_panel,
    count_params,
    relative_error,
    write_panel,
)

AXIS467 = WavenumberAxis(1800.0, 900.0, 467)
SUBTYPE_NAMES = ("LA", "LB", "HER2", "TNBC")


def verdict(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:>2} {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- 1: gradient correctness -------------------------------------------------


def _fd_ok(analytic, f, point, h=1e-3, tol=1e-4):
    num = central_difference(f, point.copy(), h)
    if relative_error(analytic, num) < tol:
        return True
    num = central_difference(f, point.copy(), h * 1e-2)  # ReLU-kink refinement
    return relative_error(analytic, num) < tol


def _check_layer_case(layer, x, rng):
    out = layer.forward(x)
    w = rng.standard_normal(out.shape)
    gin = layer.backward(w)
    assert _fd_ok(gin, lambda xv: float((layer.forward(xv) * w).sum()), x)
    for param in layer.params():
        original = param.value

        def f(pv, _p=param):
            _p.value = pv
            try:
                return float((layer.forward(x) * w).sum())
            finally:
                _p.value = original

        layer.forward(x)
        layer.backward(w)
        assert _fd_ok(param.grad, f, original)


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    cases = 20
    for i in range(cases):
        _check_layer_case(Conv1D(2, 3, 3, stride=1 + i % 2, rng=make_rng(i), dtype=np.float64),
                          rng.standard_normal((2, 2, 9)), rng)
        _check_layer_case(Dense(5, 3, rng=make_rng(i), dtype=np.float64),
                          rng.standard_normal((3, 5)), rng)
        _check_layer_case(ReLU(), rng.standard_normal((2, 3, 5)), rng)
        _check_layer_case(Sigmoid(), rng.standard_normal((4, 3)), rng)
        _check_layer_case(Softmax(), rng.standard_normal((3, 4)), rng)
        _check_layer_case(GlobalAvgPool(), rng.standard_normal((2, 3, 6)), rng)
        _check_layer_case(ResidualBlock(3, 6, 2, rng=make_rng(i), dtype=np.float64),
                          rng.standard_normal((2, 3, 8)), rng)
        # losses
        p = rng.uniform(0.05, 0.95, 10)
        t = (rng.random(10) > 0.5).astype(float)
        _, grad = bce_loss(p, t)
        assert _fd_ok(grad, lambda pv: bce_loss(pv, t)[0], p, h=1e-6, tol=1e-5)
        pm = rng.uniform(0.05, 0.95, (5, 4))
        oh = np.eye(4)[rng.integers(0, 4, 5)]
        _, gradm = cce_loss(pm, oh)
        assert _fd_ok(gradm, lambda pv: cce_loss(pv, oh)[0], pm, h=1e-6, tol=1e-5)

    # full model on a 3-spectrum batch, float64 replay, sampled entries per tensor
    model = CarenetModel("type", seed=11).astype(np.float64)
    x = np.random.default_rng(3).random((3, INPUT_LENGTH))
    targets = np.array([1.0, 0.0, 1.0])

    def model_loss():
        return bce_loss(model.forward(x)[:, 0], targets)

    loss, grad = model_loss()
    model.backward(grad[:, None])
    analytic = [p.grad.copy() for p in model.parameters()]
    entry_rng = np.random.default_rng(17)
    checked = 0
    for param, agrad in zip(model.parameters(), analytic):
        flat = param.value.reshape(-1)
        entries = entry_rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for e in entries:
            orig = flat[e]
            h = 1e-3
            flat[e] = orig + h
            up = model_loss()[0]
            flat[e] = orig - h
            down = model_loss()[0]
            flat[e] = orig
            num = (up - down) / (2 * h)
            ana = agrad.reshape(-1)[e]
            err = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
            if err >= 1e-4:  # kink refinement
                h = 1e-5
                flat[e] = orig + h
                up = model_loss()[0]
                flat[e] = orig - h
                down = model_loss()[0]
                flat[e] = orig
                num = (up - down) / (2 * h)
                err = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
            assert err < 1e-4, f"full-model gradient mismatch: {err:.2e}"
            checked += 1
    elapsed = time.perf_counter() - started
    verdict(1, elapsed < 120,
            f"all layer kinds + losses over {cases} cases, full model "
            f"({checked} sampled entries) < 1e-4 rel err in {elapsed:.0f}s (< 120s)")


# -- 2: Savitzky-Golay exactness ----------------------------------------------


def test_criterion_2_savgol_exactness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(11, 200))
        a, b, c = rng.uniform(-5, 5, 3)
        x = np.linspace(-2, 2, n)
        y = a + b * x + c * x**2
        worst = max(worst, float(np.abs(savgol_smooth(y[None, :])[0] - y).max()))
    verdict(2, worst < 1e-10, f"100 random quadratics reproduced, worst abs err {worst:.2e}")


# -- 3: EMSC recovery ----------------------------------------------------------


def test_criterion_3_emsc_recovery():
    values = AXIS467.values
    rng = np.random.default_rng(33)
    reference = (np.exp(-0.5 * ((values - 1655) / 22) ** 2)
                 + 0.7 * np.exp(-0.5 * ((values - 1545) / 18) ** 2)
                 + 0.3 * np.exp(-0.5 * ((values - 1080) / 18) ** 2))
    paraffin = np.stack([
        (1.0 + 0.2 * rng.standard_normal()) * np.exp(-0.5 * ((values - 1462) / 8) ** 2)
        + (0.6 + 1e-3 * rng.standard_normal()) * np.exp(-0.5 * ((values - 1373) / 7) ** 2)
        for _ in range(15)
    ])
    line_centers = (1700, 1652, 1559, 1508, 1420)
    base_amps = np.array([0.06, 0.08, 0.07, 0.05, 0.05])
    jitter = np.array([0.02, 0.015, 1e-4, 1e-4, 1e-4])
    h2o = np.stack([
        sum((base_amps[i] + jitter[i] * rng.standard_normal())
            * np.exp(-0.5 * ((values - c) / 4.0) ** 2)
            for i, c in enumerate(line_centers))
        for _ in range(15)
    ])
    model = emsc_build_model(reference, paraffin,
                             interferent_block(h2o, AXIS467, H2O_MASK_BAND), AXIS467)

    n_cols = model.n_columns
    worst_coef = 0.0
    worst_corr = 0.0
    for _ in range(200):
        coefs = np.zeros(n_cols)
        coefs[0] = rng.uniform(0.5, 2.0)
        coefs[model.baseline_cols] = rng.uniform(-0.05, 0.05, 5)
        coefs[model.paraffin_cols] = rng.uniform(-0.3, 0.3, coefs[model.paraffin_cols].size)
        coefs[model.h2o_cols] = rng.uniform(-0.3, 0.3, coefs[model.h2o_cols].size)
        x = model.design @ coefs
        corrected, recovered, usable = emsc_correct_rows(x[None, :], model)
        assert usable[0]
        worst_coef = max(worst_coef, float(np.abs(recovered[0] - coefs).max()))
        worst_corr = max(worst_corr, float(np.abs(corrected[0] - reference).max()))
    verdict(3, worst_coef <= 1e-6 and worst_corr <= 1e-6,
            f"200 noiseless mixtures: worst coef err {worst_coef:.2e}, "
            f"worst corrected err {worst_corr:.2e} (both <= 1e-6)")


# -- 4: outlier detection -------------------------------------------------------


def test_criterion_4_outlier_detection():
    rng = np.random.default_rng(44)
    values = AXIS467.values
    base = np.exp(-0.5 * ((values - 1655) / 22) ** 2)
    n = 400
    data = base[None, :] * rng.uniform(0.8, 1.2, n)[:, None]
    data = data + rng.standard_normal((n, values.size)) * 0.01
    signal_max = float(data.max())
    spiked = rng.choice(n, size=4, replace=False)  # 1% of spectra
    for row in spiked:
        data[row, rng.integers(0, values.size)] += 10.5 * signal_max
    _, report = remove_outliers(data)
    spikes_rejected = float((~report.kept[spiked]).mean())

    clean = np.random.default_rng(2024).standard_normal((500, 40))
    _, clean_report = remove_outliers(clean)
    frac = 1.0 - clean_report.kept.mean()
    verdict(4, spikes_rejected == 1.0 and 0.05 <= frac <= 0.12,
            f"spike rejection {spikes_rejected:.0%}, clean-Gaussian rejection "
            f"{frac:.3f} in [0.05, 0.12]")


# -- 5: clustering ---------------------------------------------------------------


def exhaustive_two_partition_wcss(points):
    n = points.shape[0]
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        assign = np.array([(bits >> i) & 1 for i in range(n)])
        wcss = 0.0
        for c in (0, 1):
            members = points[assign == c]
            if members.size:
                wcss += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, wcss)
    return best


def test_criterion_5_clustering():
    panel = collect_panel(SynthConfig(n_patients=(1, 1, 1, 1), image_size=20, seed=55))
    worst_tissue = 1.0
    worst_paraffin = 1.0
    for core_id, cube in panel.cubes.items():
        truth = panel.ground_truth[core_id]
        tissue = select_tissue(cube)
        paraffin = select_paraffin(cube, tissue)
        worst_tissue = min(worst_tissue, float((tissue.mask == truth.tissue_mask).mean()))
        worst_paraffin = min(worst_paraffin,
                             float((paraffin.mask == truth.paraffin_mask).mean()))

    rng = np.random.default_rng(5)
    oracle_exact = True
    for trial in range(5):
        pts = np.concatenate([rng.uniform(-0.5, 0.5, (6, 2)),
                              rng.uniform(-0.5, 0.5, (6, 2)) + 8.0])
        result = kmeans(pts, 2, seed=trial)
        ours = 0.0
        for c in (0, 1):
            members = pts[result.assignments == c]
            ours += ((members - members.mean(axis=0)) ** 2).sum()
        oracle = exhaustive_two_partition_wcss(pts)
        if not np.isclose(ours, oracle, rtol=1e-12, atol=0.0):
            oracle_exact = False
    verdict(5, worst_tissue >= 0.99 and worst_paraffin >= 0.99 and oracle_exact,
            f"mask accuracy tissue >= {worst_tissue:.4f}, paraffin >= {worst_paraffin:.4f} "
            f"(both >= 0.99); kmeans WCSS matches exhaustive oracle on 12-point instances")


# -- 6: protocol fidelity ---------------------------------------------------------


def test_criterion_6_protocol_fidelity():
    patients = []
    pid = 0
    for subtype, count in zip(SUBTYPE_NAMES, (8, 8, 7, 7)):
        for _ in range(count):
            pid += 1
            patients.append(PatientRecord(pid, subtype, 2 * pid, 2 * pid + 1))
    ok = True
    for seed in range(20):
        plan = make_split(patients, seed=seed)
        by_id = {p.patient_id: p.subtype for p in patients}
        ok &= sorted(by_id[p] for p in plan.test_patients) == sorted(SUBTYPE_NAMES)
        sizes = [(len(f.train_patients), len(f.dev_patients)) for f in plan.folds]
        ok &= sizes == [(21, 5), (21, 5), (21, 5), (20, 6)]
        test = set(plan.test_patients)
        for fold in plan.folds:
            train, dev = set(fold.train_patients), set(fold.dev_patients)
            ok &= not (train & dev) and not (train & test) and not (dev & test)
    verdict(6, ok, "20 seeds: 4 test patients (one per subtype), folds "
                   "21/5, 21/5, 21/5, 20/6, zero leakage")


# -- 7: end-to-end learning --------------------------------------------------------


def _run_protocol(seed, head, epochs, batch, image_size, n_per, separation):
    config = SynthConfig(n_patients=(n_per,) * 4, image_size=image_size,
                         seed=seed, class_separation=separation)
    panel = collect_panel(config)
    with tempfile.TemporaryDirectory() as tmp:
        sset, _, _ = preprocess_panel(*write_panel(panel, tmp), seed=seed)
    plan = make_split(panel.patients, seed=seed)
    by_id = {p.patient_id: p for p in panel.patients}
    correct = total = 0
    cfg = TrainConfig(head=head, epochs=epochs, batch_size=batch, seed=seed)
    for res in train_folds(sset, plan, cfg):
        model = res.model_best
        if head == "type":
            items = [(by_id[p].ca_core_id if k == "CA" else by_id[p].at_core_id,
                      1 if k == "CA" else 0) for p, k in plan.test_type_cores]
        else:
            items = [(by_id[p].ca_core_id, SUBTYPE_NAMES.index(by_id[p].subtype))
                     for p in plan.test_patients]
        for core, truth in items:
            sel = sset.core_id == core
            vote = patient_vote(model.forward(sset.spectra[sel]), head)
            correct += int(vote == truth)
            total += 1
    return correct, total


@pytest.mark.slow
def test_criterion_7_end_to_end_learning():
    started = time.perf_counter()
    type_c = type_t = 0
    subtype_c = subtype_t = 0
    for seed in (11, 22, 33):
        c, t = _run_protocol(seed, "type", epochs=8, batch=64,
                             image_size=16, n_per=3, separation=2.5)
        type_c += c
        type_t += t
        c, t = _run_protocol(seed, "subtype", epochs=16, batch=64,
                             image_size=16, n_per=3, separation=2.5)
        subtype_c += c
        subtype_t += t
    type_acc = type_c / type_t
    subtype_acc = subtype_c / subtype_t

    chance_c = chance_t = 0
    for seed in range(100, 120):
        c, t = _run_protocol(seed, "type", epochs=2, batch=64,
                             image_size=12, n_per=2, separation=0.0)
        chance_c += c
        chance_t += t
    chance = chance_c / chance_t
    elapsed = time.perf_counter() - started
    verdict(7, type_acc >= 0.95 and subtype_acc >= 0.90
            and 0.35 <= chance <= 0.65 and elapsed < 900,
            f"separable: type {type_acc:.3f} (>= 0.95), subtype {subtype_acc:.3f} "
            f"(>= 0.90) over 3 seeds; separation-0: {chance:.3f} in [0.35, 0.65] "
            f"over 20 seeds; {elapsed:.0f}s (< 900s)")


# -- 8: Grad-CAM localization -----------------------------------------------------


GRADCAM_COMMON = (
    BandSpec(1655.0, 22.0, 1.00),
    BandSpec(1545.0, 18.0, 0.70),
    BandSpec(1310.0, 14.0, 0.35),
    BandSpec(1080.0, 18.0, 0.30),
)
GRADCAM_BANDS = {
    "LA": (1715.0, 12.0, (1750.0, 1680.0)),
    "LB": (1580.0, 7.0, (1590.0, 1570.0)),
    "HER2": (1530.0, 8.0, (1550.0, 1510.0)),
    "TNBC": (1620.0, 7.0, (1660.0, 1610.0)),
}


@pytest.mark.slow
def test_criterion_8_gradcam_localization():
    sel = band_slice(RAW_AXIS, BIOFINGERPRINT_BAND)
    values = RAW_AXIS.values[sel]
    fractions = {}
    for name, (center, sigma, (high, low)) in GRADCAM_BANDS.items():
        disc = BandSpec(center, sigma, 0.15, ((name, 4.0),))
        config = SynthConfig(tissue_bands=GRADCAM_COMMON + (disc,),
                             class_separation=1.0, noise_sigma=0.01, seed=0)
        rng = np.random.default_rng(sum(ord(c) for c in name))
        spectra, labels = [], []
        for idx, cls in enumerate(("AT", name)):
            for _ in range(250):
                s = gen_spectrum(cls, "tissue", rng, config)
                spectra.append(s[sel])
                labels.append(idx)
        spectra = savgol_smooth(np.array(spectra))
        spectra, keep = minmax_normalize_rows(spectra)
        labels = np.array(labels)[keep]
        spectra = spectra[keep].astype(np.float32)
        perm = np.random.default_rng(1).permutation(labels.size)
        spectra, labels = spectra[perm], labels[perm]
        rows = np.arange(labels.size)
        dx, dy = spectra[-120:], labels[-120:]
        cfg = TrainConfig(head="type", epochs=12, batch_size=64, seed=5)
        res = train_fold(cfg, rows[:-120], spectra, labels, rows[-120:])
        maps = gradcam_spectrum(res.model_best, dx[dy == 1], target_class=1)
        heatmap = class_average({name: maps})[name]
        assert heatmap.values.shape == (467,)
        assert heatmap.values.min() >= 0.0 and heatmap.values.max() <= 1.0
        threshold = np.quantile(heatmap.values, 0.9)
        top = heatmap.values >= threshold
        window = (values <= high + 20.0) & (values >= low - 20.0)
        fractions[name] = float(heatmap.values[top & window].sum()
                                / heatmap.values[top].sum())
    ok = all(f >= 0.5 for f in fractions.values())
    detail = ", ".join(f"{k} {v:.2f}" for k, v in fractions.items())
    verdict(8, ok, f"top-decile heatmap mass within +-20 cm-1 of each class band: "
                   f"{detail} (all >= 0.50); heatmaps length 467 in [0, 1]")


# -- 9: scheduler / optimizer behavior ---------------------------------------------


def test_criterion_9_scheduler_sequence():
    sched = PlateauScheduler(lr=1e-3)
    rates = [sched.step(1.0) for _ in range(40)]
    distinct = []
    for r in rates:
        if not distinct or distinct[-1] != r:
            distinct.append(r)
    expected = [1e-3, 5e-4, 2.5e-4, 1.25e-4, 1e-4]
    first_step_ok = True
    from carenet.nn import Param

    param = Param(np.zeros(3))
    opt = Adam([param], lr=1e-3)
    param.grad = np.full(3, 0.7)
    opt.step()
    first_step_ok = np.allclose(-param.value, 1e-3, rtol=1e-6)
    verdict(9, distinct == expected and rates[-1] == 1e-4 and first_step_ok,
            f"plateau lr sequence {distinct} with exact 1e-4 floor; "
            f"Adam first-step magnitude = lr")


# -- 10: determinism ----------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    from carenet.cli import main

    config = tmp_path / "panel.cfg"
    config.write_text("n_patients = 2, 2, 2, 2\nimage_size = 12\nclass_separation = 1.5\n")

    artifacts = {}
    for run_name in ("one", "two"):
        base = tmp_path / run_name
        assert main(["synth", "--seed", "5", "--config", str(config),
                     "--out-dir", str(base / "panel")]) == 0
        assert main(["preprocess", str(base / "panel"), "--seed", "5",
                     "--out-dir", str(base / "pre")]) == 0
        assert main(["train", str(base / "pre" / "spectra.crns"), "--head", "type",
                     "--seed", "5", "--epochs", "2", "--batch-size", "64",
                     "--out-dir", str(base / "train")]) == 0
        assert main(["eval", str(base / "train"), str(base / "pre" / "spectra.crns"),
                     "--out-dir", str(base / "eval")]) == 0
        files = {}
        files["container"] = (base / "pre" / "spectra.crns").read_bytes()
        for fold in range(1, 5):
            for kind in ("final", "best"):
                name = f"fold{fold}_{kind}.crnm"
                files[name] = (base / "train" / name).read_bytes()
        files["metrics"] = (base / "eval" / "metrics.csv").read_bytes()
        files["patients"] = (base / "eval" / "patients.csv").read_bytes()
        artifacts[run_name] = files

    mismatched = [k for k in artifacts["one"]
                  if artifacts["one"][k] != artifacts["two"][k]]
    verdict(10, not mismatched,
            f"two identical-seed runs: containers, 8 checkpoints, and metrics "
            f"CSVs byte-identical (mismatched: {mismatched or 'none'})")


# -- 11: scale anchors -----------------------------------------------------------------


@pytest.mark.slow
def test_criterion_11_scale_anchors():
    config = SynthConfig(n_patients=(1, 0, 0, 0), image_size=320, seed=0)
    cube, _ = gen_cube(config, 0)
    n_raw = cube.n_spectra
    del cube

    type_params = count_params(CarenetModel("type"))
    subtype_params = count_params(CarenetModel("subtype"))
    reported_reference = 277_236  # published figure for the original architecture
    print(f"ACCEPTANCE 11 info: parameter counts type={type_params} "
          f"subtype={subtype_params} vs reported {reported_reference}")
    same_magnitude = (10 ** np.floor(np.log10(type_params))
                      == 10 ** np.floor(np.log10(reported_reference)))
    verdict(11, n_raw == 102_400 and type_params == 241_057
            and subtype_params == 241_444 and same_magnitude,
            f"320x320 mosaic -> {n_raw} raw spectra (= 102,400); parameter counts "
            f"{type_params}/{subtype_params} match derived values, same order of "
            f"magnitude as reported {reported_reference}")
