"""Per-core preprocessing and the training protocol.

Preprocessing per core follows a fixed order: cluster tissue/paraffin,
truncate to the biofingerprint region, first outlier pass, Savitzky-Golay
smoothing, EMSC against per-core tissue/paraffin references plus the shared
water-vapor model, min-max normalization, second outlier pass. A core's
surviving rows come back as a SpectraSet labelled with the core's identity,
and the panel's container is the kept cores' sets concatenated field by
field. Every core must share the H2O image's band axis.

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
    ROW_BLOCK,
    emsc_build_model,
    emsc_correct_rows,
    interferent_block,
    outlier_pass,
)
from .clustering import PixelMask, select_paraffin, select_tissue
from .dataset import (
    CORE_TYPES,
    ROW_FIELDS,
    SUBTYPES,
    HyperCube,
    PatientRecord,
    SpectraSet,
    label_codes,
    read_cube,
    subtype_one_hot,
)
from .errors import DataError, NumericalError
from .evaluation import classify
from .model import HEADS, CarenetModel, forward_chunks
from .nn import Adam, PlateauScheduler, bce_loss, cce_loss, check_finite, make_rng
from .spectral import (
    BIOFINGERPRINT_BAND,
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
    "train_folds",
    "forward_chunked",
    "head_labels",
    "targets_for_head",
    "patients_from_spectraset",
]


@dataclass(frozen=True)
class Fold:
    train_patients: tuple[int, ...]
    dev_patients: tuple[int, ...]


@dataclass(frozen=True)
class SplitPlan:
    """Hold-out plus cross-validation assignment, all at patient level; checks itself."""

    seed: int
    test_patients: tuple[int, ...]            # one per subtype, subtype order
    test_type_cores: tuple[tuple[int, str], ...]  # (patient_id, "CA"|"AT") pairs
    folds: tuple[Fold, ...]

    def __post_init__(self):
        if not self.folds or not all(fold.dev_patients for fold in self.folds):
            raise DataError("a split needs at least one fold and no empty dev set")
        for pid, kind in self.test_type_cores:
            if pid not in self.test_patients or kind not in CORE_TYPES:
                raise DataError(f"test core ({pid}, {kind!r}) is not the CA or AT "
                                f"core of a test patient")
        for k, fold in enumerate(self.folds, start=1):
            train, dev = set(fold.train_patients), set(fold.dev_patients)
            leaked = (train & dev) | ((train | dev) & set(self.test_patients))
            if leaked:
                raise DataError(f"fold {k}'s train, dev and test patients overlap "
                                f"in {sorted(leaked)}")


@dataclass(frozen=True)
class TrainConfig:
    """seed draws the weights, seed + 1 shuffles batches, seed + 2 undersamples."""

    head: str
    epochs: int = 50
    batch_size: int = 250
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.head not in HEADS:
            raise DataError(f"unknown head {self.head!r}")
        # NaN fails both comparisons, so it is rejected with the infinities
        if self.epochs < 1 or self.batch_size < 1 or not 0.0 < self.lr < float("inf"):
            raise DataError("epochs and batch_size must be positive, lr positive and finite")


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


@dataclass
class CoreResult:
    """One core's preprocessed tissue rows, stage counts and clustering masks.

    sset holds the rows that survived, labelled with the core's identity, at
    their pixel positions and on the cube's biofingerprint axis.
    """

    core_id: int
    sset: SpectraSet
    counts: StageCounts
    tissue_mask: PixelMask
    paraffin_mask: PixelMask


def _keep_rows(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """rows[keep], moved to the front of rows itself a row block at a time.

    Returns a view of rows. Kept indices ascend, so kept row i comes from row
    idx[i] >= i: each block gathers its rows before writing them, and no
    later block reads a row that an earlier block overwrote.
    """
    idx = np.flatnonzero(keep)
    for start in range(0, idx.size, ROW_BLOCK):
        src = idx[start:start + ROW_BLOCK]
        rows[start:start + src.size] = rows[src]
    return rows[:idx.size]


def _smooth_in_place(rows: np.ndarray) -> None:
    """`savgol_smooth` written back over rows, a row block at a time."""
    for start in range(0, rows.shape[0], ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        block[...] = savgol_smooth(block)


def preprocess_h2o(h2o_cube: HyperCube) -> np.ndarray:
    """The panel's EMSC water-vapour block from its environment image.

    Truncate, then `interferent_block` over the H2O band, which runs the
    outlier pass and the smoothing: built once per panel and shared by every
    core's EMSC model. The cube's float32 band is the one (n, p) matrix of
    the chain: it is only read, a row block at a time, and no float64 copy
    of it is made. The cube goes with the block's last read, when the caller
    hands over its only reference.
    """
    sel = band_slice(h2o_cube.axis, BIOFINGERPRINT_BAND)
    axis = sub_axis(h2o_cube.axis, sel)
    rows = h2o_cube.spectra_matrix()[:, sel]
    del h2o_cube
    return interferent_block(rows, axis, H2O_MASK_BAND)


def preprocess_core(cube: HyperCube, h2o_block: np.ndarray, seed: int = 0) -> CoreResult:
    """Run the full per-core chain against the panel's `preprocess_h2o` block.

    The cube goes once its tissue and paraffin rows are taken, when the
    caller hands over its only reference. The tissue rows are upcast to
    float64 and the outlier passes and smoothing work in place on them; EMSC
    and normalisation each write one new matrix. The paraffin rows stay
    float32: `interferent_block` reads them a row block at a time.
    The surviving rows come back as a SpectraSet labelled with the cube's
    identity. Raises DataError when no tissue survives, naming no core id:
    the caller knows which cube it passed.
    """
    core_type, subtype = label_codes(cube.core_type, cube.subtype)
    tissue_mask = select_tissue(cube, seed=seed)
    paraffin_mask = select_paraffin(cube, tissue_mask, seed=seed)
    core_id, patient_id, width = cube.core_id, cube.patient_id, cube.cols
    if not tissue_mask.mask.any():
        raise DataError("clustering found no tissue pixels")
    if not paraffin_mask.mask.any():
        raise DataError("clustering found no paraffin pixels")

    # cut to the biofingerprint and gather the pixels in float32, then drop
    # the cube before the tissue rows are upcast
    sel = band_slice(cube.axis, BIOFINGERPRINT_BAND)
    axis = sub_axis(cube.axis, sel)
    flat = cube.spectra_matrix()[:, sel]
    del cube
    tissue_idx = np.flatnonzero(tissue_mask.mask.ravel())
    spectra, paraffin = flat[tissue_idx], flat[paraffin_mask.mask.ravel()]
    del flat
    spectra = spectra.astype(np.float64)
    sizes = [spectra.shape[0]]

    def survivors(rows: np.ndarray, keep: np.ndarray, failure: str) -> np.ndarray:
        """rows[keep] by `_keep_rows`; tissue_idx follows and the count is noted.
        No row left is a DataError that names the failure."""
        nonlocal tissue_idx
        rows, tissue_idx = _keep_rows(rows, keep), tissue_idx[keep]
        if rows.shape[0] == 0:
            raise DataError(failure)
        sizes.append(rows.shape[0])
        return rows

    spectra = survivors(spectra, outlier_pass(spectra),
                        "no tissue spectra survived outlier removal")
    _smooth_in_place(spectra)

    emsc = emsc_build_model(spectra.mean(axis=0), paraffin, h2o_block, axis)
    del paraffin
    spectra, coefs, keep = emsc_correct_rows(spectra, emsc)
    del coefs, emsc  # (n, m) coefficients and an (m, p) design: not needed again
    spectra = survivors(spectra, keep, "EMSC flagged every spectrum as non-tissue")

    spectra, keep = minmax_normalize_rows(spectra)
    spectra = survivors(spectra, keep, "all spectra degenerate after normalization")
    spectra = survivors(spectra, outlier_pass(spectra),
                        "second outlier pass rejected everything")

    n = spectra.shape[0]
    sset = SpectraSet(spectra=spectra.astype(np.float32), patient_id=np.full(n, patient_id),
                      core_id=np.full(n, core_id), row=tissue_idx // width,
                      col=tissue_idx % width, core_type=np.full(n, core_type),
                      subtype=np.full(n, subtype), axis=axis)
    return CoreResult(core_id=core_id, sset=sset, counts=StageCounts(*sizes),
                      tissue_mask=tissue_mask, paraffin_mask=paraffin_mask)


def preprocess_panel(core_paths: list, h2o_path, seed: int = 0, jobs: int = 1):
    """Preprocess every core cube file against one shared H2O block.

    Cubes stream: the H2O cube is read, reduced to its block and dropped
    before any core is read, and each worker reads its own core, so at most
    `jobs` core cubes are in memory at once. Each is a band read of the
    biofingerprint, the only part of a spectrum preprocessing looks at, so a
    cube in memory holds 467 of its 1580 points per pixel. A cube that cannot
    be read is a DataError for the whole panel; a core whose preprocessing
    fails, or whose band axis is not the H2O image's, is reported and
    skipped, and so is its patient's other core. Returns (SpectraSet,
    per-core CoreResult dict, skipped list of (core_id, reason)), no reason
    repeating its core id; the SpectraSet is the kept cores' sets,
    concatenated in core order.
    """
    h2o = [read_cube(h2o_path, BIOFINGERPRINT_BAND)[0]]
    axis = h2o[0].axis
    h2o_block = preprocess_h2o(h2o.pop())  # the H2O cube's only reference, as below

    def run(path) -> tuple[int, CoreResult | tuple[int, str]]:
        """(patient id, the core's CoreResult or its (core_id, reason) skip)."""
        held = [read_cube(path, BIOFINGERPRINT_BAND)[0]]
        core_id, patient_id = held[0].core_id, held[0].patient_id
        try:
            if held[0].axis != axis:
                raise DataError(f"band axis {held[0].axis} is not the "
                                f"H2O image's band axis {axis}")
            # pop hands preprocess_core the only reference, so the cube goes
            # as soon as its tissue and paraffin rows are taken
            return patient_id, preprocess_core(held.pop(), h2o_block, seed=seed)
        except (DataError, NumericalError) as exc:
            # only the message: the traceback's frames would keep the cube alive
            return patient_id, (core_id, str(exc))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, core_paths))
    else:
        # no 1-worker pool: its thread's own glibc malloc arena adds ~15% peak RSS
        results = [run(path) for path in core_paths]

    # a patient with a skipped core would have no CA/AT pair, so its other
    # core goes too
    failed = {pid: res[0] for pid, res in results if not isinstance(res, CoreResult)}
    kept, skipped = [], []
    for pid, res in results:
        if not isinstance(res, CoreResult):
            skipped.append(res)
        elif pid in failed:
            skipped.append((res.core_id, f"patient {pid}'s core {failed[pid]} was skipped"))
        else:
            kept.append(res)
    if not kept:
        raise DataError("every core failed preprocessing or lost its patient's other core")
    sset = SpectraSet(**{name: np.concatenate([getattr(r.sset, name) for r in kept])
                         for name in ROW_FIELDS}, axis=axis)
    return sset, {r.core_id: r for r in kept}, skipped


def patients_from_spectraset(sset: SpectraSet) -> list[PatientRecord]:
    """Reconstruct patient records; every patient must have one CA and one AT core."""
    records = []
    for pid in np.unique(sset.patient_id):
        rows = sset.patient_id == pid
        ca, at = (rows & (sset.core_type == CORE_TYPES.index(kind)) for kind in ("CA", "AT"))
        ca_cores, at_cores = np.unique(sset.core_id[ca]), np.unique(sset.core_id[at])
        if len(ca_cores) != 1 or len(at_cores) != 1:
            raise DataError(
                f"patient {pid} must have exactly one CA and one AT core, "
                f"got {len(ca_cores)}/{len(at_cores)}"
            )
        subt = np.unique(sset.subtype[ca])
        if len(subt) != 1:
            raise DataError(f"patient {pid} has inconsistent subtype labels")
        records.append(PatientRecord(patient_id=int(pid), subtype=SUBTYPES[int(subt[0])],
                                     ca_core_id=int(ca_cores[0]), at_core_id=int(at_cores[0])))
    return records


# ---------------------------------------------------------------------------
# training


def targets_for_head(sset: SpectraSet, head: str, mask: np.ndarray):
    """(class labels, training targets) for the spectra selected by mask that
    the head sees. A selection with none of them is an error.
    """
    labels = head_labels(sset, head)
    labels = labels[mask & (labels >= 0)].astype(np.int64)
    if labels.size == 0:
        raise DataError(f"the {head} head sees no spectra in the selection")
    return labels, labels.astype(np.float32) if head == "type" else subtype_one_hot(labels)


def head_mask(sset: SpectraSet, head: str, patient_ids) -> np.ndarray:
    """Rows of the listed patients that the head sees (head_labels >= 0)."""
    return (np.isin(sset.patient_id, np.asarray(list(patient_ids), dtype=np.int32))
            & (head_labels(sset, head) >= 0))


def head_labels(sset: SpectraSet, head: str) -> np.ndarray:
    """Every row's class under the head, a code into model.CLASS_NAMES[head]:
    core type (AT 0, CA 1) or subtype, and -1 for a row the head does not see
    (AT under the subtype head)."""
    return sset.core_type if head == "type" else sset.subtype


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


def forward_chunked(model: CarenetModel, spectra: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Model outputs for spectra[rows], gathered and forwarded by `forward_chunks`.

    The passes are forward-only: they leave no backward caches behind.
    """
    outs = [model.forward(x, cache=False) for _, x in forward_chunks(spectra, rows)]
    return np.concatenate(outs) if outs else np.empty((0, model.n_classes), model.dtype)


def _loss(probs: np.ndarray, labels: np.ndarray, head: str) -> tuple[float, np.ndarray]:
    """The head's mean loss and its gradient, shaped like probs: BCE on 0/1
    labels for the type head, CCE on one-hot subtype labels."""
    if head == "type":
        loss, grad = bce_loss(probs[:, 0], labels)
        return loss, grad[:, None]
    return cce_loss(probs, subtype_one_hot(labels))


def _batch_gradients(model: CarenetModel, spectra: np.ndarray, rows: np.ndarray,
                     labels: np.ndarray, sums: list[np.ndarray]) -> float:
    """Mean loss over spectra[rows] against labels[rows]; leaves its gradient in every Param.grad.

    Each `forward_chunks` slice of rows is gathered and goes forward and
    backward alone, so one slice's layer caches are live, whatever the batch
    size. Each slice's loss gradient is weighted by its share of the batch,
    and the parameter gradients are summed into sums (one buffer per
    parameter, reused across batches). The result is one backward pass over
    the whole batch, up to float rounding.
    """
    params = model.parameters()
    n = rows.size
    loss = 0.0
    for i, (part_rows, x) in enumerate(forward_chunks(spectra, rows)):
        probs = model.forward(x)
        check_finite("training forward pass", probs)
        share = probs.shape[0] / n
        part, grad = _loss(probs, labels[part_rows], model.head)
        check_finite("training loss", part)
        grad *= share
        model.backward(grad)
        loss += part * share
        for p, total in zip(params, sums):
            if i == 0:
                np.copyto(total, p.grad)
            else:
                total += p.grad
    for p, total in zip(params, sums):
        p.grad = total
    return loss


def train_fold(config: TrainConfig, train_rows: np.ndarray, spectra: np.ndarray,
               labels: np.ndarray, dev_rows: np.ndarray) -> FoldResult:
    """Train one fold on rows of spectra; deterministic for a fixed config.

    spectra is the (n, 467) float32 container matrix and labels every row's
    class under the head (head_labels). Every training slice and dev pass
    gathers its own rows, so no other row is read and no batch, dev set or
    training set is copied whole.
    """
    if train_rows.size == 0 or dev_rows.size == 0:
        raise DataError("train and dev sets must be non-empty")
    model = CarenetModel(config.head, seed=config.seed)
    optimizer = Adam(model.parameters(), lr=config.lr)
    scheduler = PlateauScheduler(lr=config.lr)
    rng = make_rng(config.seed + 1)
    sums = [np.empty_like(p.value) for p in model.parameters()]
    dev_labels = labels[dev_rows]

    history: list[EpochRecord] = []
    best_loss = np.inf
    best_values = model.parameter_values()
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        losses = []
        weights = []
        for idx in _epoch_batches(train_rows.size, config.batch_size, rng):
            losses.append(_batch_gradients(model, spectra, train_rows[idx], labels, sums))
            weights.append(idx.size)
            optimizer.step()
        train_loss = float(np.average(losses, weights=weights))

        dev_probs = forward_chunked(model, spectra, dev_rows)
        check_finite("dev forward pass", dev_probs)
        dev_loss, _ = _loss(dev_probs, dev_labels, config.head)
        dev_acc = float((classify(dev_probs, config.head) == dev_labels).mean())
        lr = scheduler.step(dev_loss)
        optimizer.lr = lr
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   dev_loss=dev_loss, dev_accuracy=dev_acc, lr=lr))
        if dev_loss < best_loss:
            best_loss = dev_loss
            best_values = model.parameter_values()
            best_epoch = epoch

    model_best = CarenetModel(config.head, seed=None)
    model_best.set_parameter_values(best_values)
    return FoldResult(model_final=model, model_best=model_best,
                      history=history, best_epoch=best_epoch)


def train_folds(sset: SpectraSet, plan: SplitPlan, config: TrainConfig):
    """Each fold's FoldResult in fold order, yielded as it is trained and not
    kept here, so a caller that writes and drops each holds no list of models.
    A fold trains on its training patients' rows, undersampled to balance."""
    labels = head_labels(sset, config.head)
    for fold in plan.folds:
        train = np.flatnonzero(head_mask(sset, config.head, fold.train_patients))
        dev = np.flatnonzero(head_mask(sset, config.head, fold.dev_patients))
        train = train[undersample_balance(labels[train], seed=config.seed + 2)]
        yield train_fold(config, train, sset.spectra, labels, dev)
