"""Spectrum classification, per-core majority voting, and metric reporting.

Metrics are one-vs-rest accuracy / specificity / sensitivity per class.
Undefined ratios (empty denominators) are reported as None alongside the
raw confusion counts rather than being coerced to zero: with four test
patients a silent zero would badly distort the picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "ConfusionCounts",
    "classify",
    "patient_vote",
    "compute_metrics",
    "fold_mean_std",
    "MetricRow",
    "write_metrics_csv",
    "write_patient_table_csv",
]


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float | None:
        return (self.tp + self.tn) / self.total if self.total else None

    @property
    def sensitivity(self) -> float | None:
        denom = self.tp + self.fn
        return self.tp / denom if denom else None

    @property
    def specificity(self) -> float | None:
        denom = self.tn + self.fp
        return self.tn / denom if denom else None


def classify(probs: np.ndarray, head: str) -> np.ndarray:
    """Class per row of model outputs.

    type: class 1 iff p >= 0.5 (boundary inclusive). subtype: argmax, exact
    ties going to the lowest class index.
    """
    probs = np.asarray(probs)
    if head == "type":
        return (probs[..., 0] >= 0.5).astype(np.int64)
    if head == "subtype":
        return probs.argmax(axis=-1)
    raise DataError(f"unknown head {head!r}")


def patient_vote(probs: np.ndarray, head: str) -> int:
    """The class winning a plurality vote over one sample's spectra.

    probs holds the head's model outputs, one row per spectrum, and each row
    votes for its `classify` class. Vote ties break on the higher mean
    predicted probability among the tied classes, then on the lower class
    index. The type head's single output is p(CA), given as (n, 1) or (n,);
    p(AT) is its complement.
    """
    probs = np.asarray(probs)
    if probs.shape[0] == 0:
        raise DataError("cannot vote over an empty spectrum list")
    probs = probs.reshape(probs.shape[0], -1)
    classes = classify(probs, head)
    probs = probs.astype(np.float64)
    if probs.shape[1] == 1:
        probs = np.column_stack([1.0 - probs[:, 0], probs[:, 0]])

    counts = np.bincount(classes, minlength=probs.shape[1])
    tied = np.flatnonzero(counts == counts.max())
    mean_p = probs[:, tied].mean(axis=0)
    return int(tied[int(mean_p.argmax())])  # argmax takes the lowest index on ties


def compute_metrics(predictions, truths, positive_class: int) -> ConfusionCounts:
    """One-vs-rest confusion counts for a class; metrics hang off the result."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape:
        raise DataError("predictions and truths must have equal length")
    pred_pos = predictions == positive_class
    true_pos = truths == positive_class
    return ConfusionCounts(
        tp=int(np.sum(pred_pos & true_pos)),
        fp=int(np.sum(pred_pos & ~true_pos)),
        tn=int(np.sum(~pred_pos & ~true_pos)),
        fn=int(np.sum(~pred_pos & true_pos)),
    )


def fold_mean_std(values: list[float | None]) -> tuple[float | None, float | None, int]:
    """Mean and population std over folds where the metric was defined."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None, 0
    arr = np.asarray(defined, dtype=np.float64)
    return float(arr.mean()), float(arr.std()), len(defined)


@dataclass
class MetricRow:
    """One (set, label, class) row aggregated over folds."""

    set_name: str   # dev | test
    label: str      # type | subtype
    class_name: str
    granularity: str  # spectrum | patient
    accuracy: tuple[float | None, float | None, int]
    specificity: tuple[float | None, float | None, int]
    sensitivity: tuple[float | None, float | None, int]
    pooled: ConfusionCounts


def _fmt(stat: tuple[float | None, float | None, int]) -> tuple[str, str]:
    mean, std, _ = stat
    if mean is None:
        return "NA", "NA"
    return f"{mean:.6f}", f"{std:.6f}"


def write_metrics_csv(rows: list[MetricRow], path) -> None:
    header = ("set,label,class,granularity,"
              "accuracy_mean,accuracy_std,specificity_mean,specificity_std,"
              "sensitivity_mean,sensitivity_std,folds_defined,tp,fp,tn,fn\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in rows:
            acc = _fmt(row.accuracy)
            spec = _fmt(row.specificity)
            sens = _fmt(row.sensitivity)
            defined = min(row.accuracy[2], row.specificity[2], row.sensitivity[2])
            fh.write(
                f"{row.set_name},{row.label},{row.class_name},{row.granularity},"
                f"{acc[0]},{acc[1]},{spec[0]},{spec[1]},{sens[0]},{sens[1]},"
                f"{defined},{row.pooled.tp},{row.pooled.fp},{row.pooled.tn},{row.pooled.fn}\n"
            )


def write_patient_table_csv(table: list[dict], path) -> None:
    """Per test sample: ground truth vs the prediction of each fold model."""
    if not table:
        raise DataError("patient table is empty")
    n_folds = len(table[0]["predictions"])
    with open(path, "w", encoding="utf-8") as fh:
        fold_cols = ",".join(f"fold{i + 1}" for i in range(n_folds))
        fh.write(f"label,patient_id,core,ground_truth,{fold_cols}\n")
        for entry in table:
            preds = ",".join(str(p) for p in entry["predictions"])
            fh.write(f"{entry['label']},{entry['patient_id']},{entry['core']},"
                     f"{entry['ground_truth']},{preds}\n")
