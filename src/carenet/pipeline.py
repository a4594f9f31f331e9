"""Per-core preprocessing and the training protocol.

Preprocessing per core follows a fixed order: cluster tissue/paraffin,
truncate to the biofingerprint region, first outlier pass, Savitzky-Golay
smoothing, EMSC against per-core tissue/paraffin references plus the shared
water-vapor model, min-max normalization, second outlier pass.

The protocol holds out one test patient per subtype, builds four
subtype-stratified folds over the remaining patients, balances training
spectra by undersampling, and trains with Adam plus a reduce-on-plateau
schedule driven by the dev loss.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chemometrics import (
    H2O_MASK_BAND,
    emsc_build_model,
    emsc_correct_rows,
    interferent_block,
    remove_outliers,
)
from .clustering import select_paraffin, select_tissue
from .dataset import (
    SUBTYPE_NONE,
    SUBTYPES,
    HyperCube,
    SpectraSet,
    read_cube,
    subtype_one_hot,
)
from .errors import DataError, NumericalError
from .evaluation import classify
from .model import FORWARD_CHUNK, CarenetModel, build_carenet
from .nn import Adam, PlateauScheduler, bce_loss, cce_loss, check_finite, make_rng
from .spectral import (
    BIOFINGERPRINT_BAND,
    WavenumberAxis,
    band_slice,
    minmax_normalize_rows,
    savgol_smooth,
    sub_axis,
)

__all__ = [
    "PatientRecord",
    "SplitPlan",
    "Fold",
    "TrainConfig",
    "StageCounts",
    "CoreResult",
    "FoldResult",
    "make_split",
    "undersample_balance",
    "preprocess_h2o",
    "preprocess_core",
    "preprocess_panel",
    "train_fold",
    "forward_chunked",
    "targets_for_head",
    "patients_from_spectraset",
]


@dataclass(frozen=True)
class PatientRecord:
    """One patient: a cancer core and an adjacent-tissue core."""

    patient_id: int
    subtype: str
    ca_core_id: int
    at_core_id: int

    def __post_init__(self):
        if self.subtype not in SUBTYPES:
            raise DataError(f"unknown subtype {self.subtype!r}")


@dataclass(frozen=True)
class Fold:
    train_patients: tuple[int, ...]
    dev_patients: tuple[int, ...]


@dataclass(frozen=True)
class SplitPlan:
    """Hold-out plus cross-validation assignment, all at patient level."""

    seed: int
    test_patients: tuple[int, ...]            # one per subtype, subtype order
    test_type_cores: tuple[tuple[int, str], ...]  # (patient_id, "CA"|"AT") pairs
    folds: tuple[Fold, ...]


@dataclass(frozen=True)
class TrainConfig:
    head: str
    epochs: int = 50
    batch_size: int = 250
    lr: float = 1e-3
    init_seed: int = 0
    shuffle_seed: int = 1
    undersample_seed: int = 2

    def __post_init__(self):
        if self.head not in ("type", "subtype"):
            raise DataError(f"unknown head {self.head!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise DataError("epochs, batch_size, and lr must be positive")


# ---------------------------------------------------------------------------
# split protocol


def make_split(patients: list[PatientRecord], seed: int) -> SplitPlan:
    """Hold out one patient per subtype, then stratify the rest into 4 folds.

    The remaining patients are dealt, subtype by subtype, round-robin into
    five slots; four slots become the dev sets (the largest slot goes last,
    giving the 21/5, 21/5, 21/5, 20/6 pattern at the 30-patient scale) and
    the fifth stays in every training set.
    """
    rng = make_rng(seed)
    by_subtype: dict[str, list[PatientRecord]] = {s: [] for s in SUBTYPES}
    for rec in patients:
        by_subtype[rec.subtype].append(rec)
    for subtype, group in by_subtype.items():
        if not group:
            raise DataError(f"no patients with subtype {subtype}")

    test: list[int] = []
    remaining: list[PatientRecord] = []
    for subtype in SUBTYPES:
        group = sorted(by_subtype[subtype], key=lambda r: r.patient_id)
        pick = int(rng.integers(len(group)))
        test.append(group[pick].patient_id)
        remaining.extend(r for i, r in enumerate(group) if i != pick)

    # type testing uses two CA cores and two AT cores among the held-out four
    order = rng.permutation(4)
    type_cores = tuple(
        (test[i], "CA" if rank < 2 else "AT")
        for rank, i in enumerate(order.tolist())
    )

    slots: list[list[int]] = [[] for _ in range(5)]
    cursor = 0
    for subtype in SUBTYPES:
        ids = [r.patient_id for r in remaining if r.subtype == subtype]
        ids = [ids[i] for i in rng.permutation(len(ids))]
        for pid in ids:
            slots[cursor % 5].append(pid)
            cursor += 1

    if len(remaining) < 4:
        raise DataError("need at least four non-test patients to build folds")
    # slot 4 is never a dev set, so it sits inside every train set
    dev_sets = [slots[1], slots[2], slots[3], slots[0]]  # largest slot last
    all_ids = {r.patient_id for r in remaining}
    folds = []
    for dev in dev_sets:
        train = sorted(all_ids - set(dev))
        if not dev:
            raise DataError("a fold ended up with an empty dev set")
        folds.append(Fold(train_patients=tuple(train), dev_patients=tuple(sorted(dev))))
    return SplitPlan(seed=seed, test_patients=tuple(test),
                     test_type_cores=type_cores, folds=tuple(folds))


def undersample_balance(labels: np.ndarray, seed: int) -> np.ndarray:
    """Indices keeping min-class-count spectra per class, original order.

    Classes already at the minority count keep every index, so balanced
    input comes back as the identity.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DataError("cannot balance an empty label vector")
    classes, counts = np.unique(labels, return_counts=True)
    target = int(counts.min())
    rng = make_rng(seed)
    kept = []
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        if idx.size > target:
            idx = rng.choice(idx, size=target, replace=False)
        kept.append(idx)
    return np.sort(np.concatenate(kept))


# ---------------------------------------------------------------------------
# preprocessing


@dataclass
class StageCounts:
    """Spectrum counts surviving each stage; must be non-increasing."""

    tissue_pixels: int
    after_outlier1: int
    after_emsc: int
    after_normalize: int
    after_outlier2: int

    def as_dict(self) -> dict:
        return {
            "tissue_pixels": self.tissue_pixels,
            "after_outlier1": self.after_outlier1,
            "after_emsc": self.after_emsc,
            "after_normalize": self.after_normalize,
            "after_outlier2": self.after_outlier2,
        }


@dataclass
class CoreResult:
    """Preprocessed tissue spectra of one core plus provenance and counts."""

    core_id: int
    patient_id: int
    core_type: str
    subtype: str
    spectra: np.ndarray  # (n, 467) float32 in [0, 1]
    axis: WavenumberAxis  # of the spectra: the cube's biofingerprint band
    rows: np.ndarray
    cols: np.ndarray
    counts: StageCounts
    tissue_plausible: bool
    paraffin_plausible: bool
    tissue_mask: np.ndarray | None = None    # (rows, cols) bool, for PGM export
    paraffin_mask: np.ndarray | None = None


def _outlier_pass(rows: np.ndarray) -> np.ndarray:
    """Keep mask from one T2/Q pass; a pass with nothing to model keeps everything.

    Identical spectra give every point the same (zero) statistics, and fewer
    rows than components leave too little data to model; either way there
    is nothing to reject, so the pass is skipped rather than failed.
    """
    try:
        return remove_outliers(rows)[1].kept
    except (DataError, NumericalError):
        return np.ones(rows.shape[0], dtype=bool)


def preprocess_h2o(h2o_cube: HyperCube) -> np.ndarray:
    """The panel's EMSC water-vapour block from its environment image.

    Truncate, outlier pass, smooth, then `interferent_block` over the H2O
    band: built once per panel and shared by every core's EMSC model.
    """
    sel = band_slice(h2o_cube.axis, BIOFINGERPRINT_BAND)
    rows = h2o_cube.spectra_matrix()[:, sel].astype(np.float64)
    rows = savgol_smooth(rows[_outlier_pass(rows)])
    return interferent_block(rows, sub_axis(h2o_cube.axis, sel), H2O_MASK_BAND)


def preprocess_core(cube: HyperCube, h2o_block: np.ndarray, seed: int = 0) -> CoreResult:
    """Run the full per-core chain against the panel's `preprocess_h2o` block.

    Raises DataError when no tissue survives.
    """
    tissue_mask = select_tissue(cube, seed=seed)
    paraffin_mask = select_paraffin(cube, tissue_mask, seed=seed)
    if not tissue_mask.mask.any():
        raise DataError(f"core {cube.core_id}: clustering found no tissue pixels")
    if not paraffin_mask.mask.any():
        raise DataError(f"core {cube.core_id}: clustering found no paraffin pixels")

    # cut to the biofingerprint in float32; only the selected pixels are upcast
    sel = band_slice(cube.axis, BIOFINGERPRINT_BAND)
    flat = cube.spectra_matrix()[:, sel]
    tissue_idx = np.flatnonzero(tissue_mask.mask.ravel())
    tissue = flat[tissue_idx].astype(np.float64)
    paraffin = flat[paraffin_mask.mask.ravel()].astype(np.float64)
    n0 = tissue.shape[0]

    keep1 = _outlier_pass(tissue)
    tissue = tissue[keep1]
    tissue_idx = tissue_idx[keep1]
    paraffin = paraffin[_outlier_pass(paraffin)]
    n1 = tissue.shape[0]
    if n1 == 0:
        raise DataError(f"core {cube.core_id}: no tissue spectra survived outlier removal")

    tissue = savgol_smooth(tissue)
    paraffin = savgol_smooth(paraffin)

    axis = sub_axis(cube.axis, sel)
    emsc = emsc_build_model(tissue.mean(axis=0), paraffin, h2o_block, axis)
    corrected, _, usable = emsc_correct_rows(tissue, emsc)
    corrected = corrected[usable]
    tissue_idx = tissue_idx[usable]
    n2 = corrected.shape[0]
    if n2 == 0:
        raise DataError(f"core {cube.core_id}: EMSC flagged every spectrum as non-tissue")

    normalized, keep_norm = minmax_normalize_rows(corrected)
    normalized = normalized[keep_norm]
    tissue_idx = tissue_idx[keep_norm]
    n3 = normalized.shape[0]
    if n3 == 0:
        raise DataError(f"core {cube.core_id}: all spectra degenerate after normalization")

    keep2 = _outlier_pass(normalized)
    normalized = normalized[keep2]
    tissue_idx = tissue_idx[keep2]
    n4 = normalized.shape[0]
    if n4 == 0:
        raise DataError(f"core {cube.core_id}: second outlier pass rejected everything")

    counts = StageCounts(tissue_pixels=n0, after_outlier1=n1, after_emsc=n2,
                         after_normalize=n3, after_outlier2=n4)
    return CoreResult(
        core_id=cube.core_id,
        patient_id=cube.patient_id,
        core_type=cube.core_type,
        subtype=cube.subtype,
        spectra=normalized.astype(np.float32),
        axis=axis,
        rows=(tissue_idx // cube.cols).astype(np.int32),
        cols=(tissue_idx % cube.cols).astype(np.int32),
        counts=counts,
        tissue_plausible=tissue_mask.plausible,
        paraffin_plausible=paraffin_mask.plausible,
        tissue_mask=tissue_mask.mask,
        paraffin_mask=paraffin_mask.mask,
    )


def preprocess_panel(core_paths: list, h2o_path, seed: int = 0, jobs: int = 1):
    """Preprocess every core cube file against one shared H2O block.

    Cubes stream: the H2O cube is read, reduced to its block and dropped
    before any core is read, and each worker reads its own core, so at most
    `jobs` core cubes are in memory at once. A cube that cannot be read is a
    DataError for the whole panel; a core whose preprocessing fails is
    reported and skipped. Returns (SpectraSet, per-core CoreResult dict,
    skipped list of (core_id, reason)).
    """
    h2o_block = preprocess_h2o(read_cube(h2o_path)[0])

    def run(path) -> CoreResult | tuple[int, str]:
        cube = read_cube(path)[0]
        try:
            return preprocess_core(cube, h2o_block, seed=seed)
        except (DataError, NumericalError) as exc:
            # only the message: the traceback's frames would keep the cube alive
            return cube.core_id, str(exc)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, core_paths))
    else:
        # no 1-worker pool: its thread's own glibc malloc arena adds ~15% peak RSS
        results = [run(path) for path in core_paths]

    kept: list[CoreResult] = []
    skipped: list[tuple[int, str]] = []
    for res in results:
        if isinstance(res, CoreResult):
            kept.append(res)
        else:
            skipped.append(res)
    if not kept:
        raise DataError("every core failed preprocessing")

    sset = SpectraSet(
        spectra=np.concatenate([r.spectra for r in kept]),
        patient_id=np.concatenate([np.full(len(r.rows), r.patient_id, np.int32) for r in kept]),
        core_id=np.concatenate([np.full(len(r.rows), r.core_id, np.int32) for r in kept]),
        row=np.concatenate([r.rows for r in kept]),
        col=np.concatenate([r.cols for r in kept]),
        core_type=np.concatenate(
            [np.full(len(r.rows), 1 if r.core_type == "CA" else 0, np.int8) for r in kept]),
        subtype=np.concatenate(
            [np.full(len(r.rows),
                     SUBTYPES.index(r.subtype) if r.core_type == "CA" else SUBTYPE_NONE,
                     np.int8) for r in kept]),
        axis=kept[0].axis,
    )
    return sset, {r.core_id: r for r in kept}, skipped


def patients_from_spectraset(sset: SpectraSet) -> list[PatientRecord]:
    """Reconstruct patient records; every patient must have one CA and one AT core."""
    records = []
    for pid in np.unique(sset.patient_id):
        rows = sset.patient_id == pid
        ca_cores = np.unique(sset.core_id[rows & (sset.core_type == 1)])
        at_cores = np.unique(sset.core_id[rows & (sset.core_type == 0)])
        if len(ca_cores) != 1 or len(at_cores) != 1:
            raise DataError(
                f"patient {pid} must have exactly one CA and one AT core, "
                f"got {len(ca_cores)}/{len(at_cores)}"
            )
        subt = np.unique(sset.subtype[rows & (sset.core_type == 1)])
        if len(subt) != 1:
            raise DataError(f"patient {pid} has inconsistent subtype labels")
        records.append(PatientRecord(patient_id=int(pid), subtype=SUBTYPES[int(subt[0])],
                                     ca_core_id=int(ca_cores[0]), at_core_id=int(at_cores[0])))
    return records


# ---------------------------------------------------------------------------
# training


def targets_for_head(sset: SpectraSet, head: str, mask: np.ndarray):
    """(class labels, training targets) for the spectra selected by mask.

    The subtype head sees CA spectra only; requesting it on data without any
    cancer spectra is an error.
    """
    if head == "type":
        labels = sset.core_type[mask].astype(np.int64)
        return labels, labels.astype(np.float32)
    ca = mask & (sset.core_type == 1)
    if not ca.any():
        raise DataError("subtype head needs CA spectra, found none in selection")
    labels = sset.subtype[ca].astype(np.int64)
    return labels, subtype_one_hot(labels)


def head_mask(sset: SpectraSet, head: str, patient_ids) -> np.ndarray:
    """Spectra selection for a patient list under the given head."""
    mask = np.isin(sset.patient_id, np.asarray(list(patient_ids), dtype=np.int32))
    if head == "subtype":
        mask &= sset.core_type == 1
    return mask


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_loss: float
    dev_accuracy: float
    lr: float


@dataclass
class FoldResult:
    model_final: CarenetModel
    model_best: CarenetModel
    history: list[EpochRecord]
    best_epoch: int

    def history_dicts(self) -> list[dict]:
        return [vars(rec).copy() for rec in self.history]


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled batch index arrays covering every sample exactly once."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def forward_chunked(model: CarenetModel, x: np.ndarray,
                    chunk: int = FORWARD_CHUNK) -> np.ndarray:
    """Model outputs for every row of x, forwarded at most chunk rows at a time.

    The passes are forward-only: they leave no backward caches behind.
    """
    outs = [model.forward(x[i:i + chunk], cache=False) for i in range(0, x.shape[0], chunk)]
    return np.concatenate(outs) if outs else np.empty((0, model.n_classes), model.dtype)


def _loss(probs: np.ndarray, targets: np.ndarray, head: str) -> tuple[float, np.ndarray]:
    """The head's mean loss and its gradient, shaped like probs."""
    if head == "type":
        loss, grad = bce_loss(probs[:, 0], targets)
        return loss, grad[:, None]
    return cce_loss(probs, targets)


def _batch_gradients(model: CarenetModel, x: np.ndarray, targets: np.ndarray,
                     sums: list[np.ndarray]) -> float:
    """Mean loss over the rows of x; leaves its gradient in every Param.grad.

    The rows go forward and backward FORWARD_CHUNK at a time, so only one
    slice's layer caches are live, whatever the batch size. Each slice's loss
    gradient is weighted by its share of the batch, and the parameter
    gradients are summed into sums (one buffer per parameter, reused across
    batches). The result is one backward pass over the whole batch, up to
    float rounding.
    """
    params = model.parameters()
    n = x.shape[0]
    loss = 0.0
    for start in range(0, n, FORWARD_CHUNK):
        rows = slice(start, start + FORWARD_CHUNK)
        probs = model.forward(x[rows])
        check_finite("training forward pass", probs)
        share = probs.shape[0] / n
        part, grad = _loss(probs, targets[rows], model.head)
        check_finite("training loss", part)
        grad *= share
        model.backward(grad)
        loss += part * share
        for p, total in zip(params, sums):
            if start == 0:
                np.copyto(total, p.grad)
            else:
                total += p.grad
    for p, total in zip(params, sums):
        p.grad = total
    return loss


def _loss_and_accuracy(probs: np.ndarray, labels: np.ndarray, targets, head: str):
    loss, _ = _loss(probs, targets, head)
    return loss, float((classify(probs, head) == labels).mean())


def train_fold(config: TrainConfig, train_x: np.ndarray, train_labels: np.ndarray,
               train_targets: np.ndarray, dev_x: np.ndarray, dev_labels: np.ndarray,
               dev_targets: np.ndarray) -> FoldResult:
    """Train one fold; deterministic for fixed seeds.

    train_x/dev_x are (n, 467) float32 spectra; targets are 0/1 floats for
    the type head and one-hot rows for the subtype head.
    """
    if train_x.shape[0] == 0 or dev_x.shape[0] == 0:
        raise DataError("train and dev sets must be non-empty")
    model = build_carenet(config.head, seed=config.init_seed)
    optimizer = Adam(model.parameters(), lr=config.lr)
    scheduler = PlateauScheduler(lr=config.lr)
    rng = make_rng(config.shuffle_seed)
    sums = [np.empty_like(p.value) for p in model.parameters()]

    history: list[EpochRecord] = []
    best_loss = np.inf
    best_values = model.parameter_values()
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        losses = []
        weights = []
        for idx in _epoch_batches(train_x.shape[0], config.batch_size, rng):
            losses.append(_batch_gradients(model, train_x[idx], train_targets[idx], sums))
            weights.append(idx.size)
            optimizer.step()
        train_loss = float(np.average(losses, weights=weights))

        dev_probs = forward_chunked(model, dev_x)
        check_finite("dev forward pass", dev_probs)
        dev_loss, dev_acc = _loss_and_accuracy(dev_probs, dev_labels, dev_targets, config.head)
        lr = scheduler.step(dev_loss)
        optimizer.lr = lr
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   dev_loss=dev_loss, dev_accuracy=dev_acc, lr=lr))
        if dev_loss < best_loss:
            best_loss = dev_loss
            best_values = model.parameter_values()
            best_epoch = epoch

    model_best = build_carenet(config.head, seed=config.init_seed)
    model_best.set_parameter_values(best_values)
    return FoldResult(model_final=model, model_best=model_best,
                      history=history, best_epoch=best_epoch)
