"""Confusion matrices and per-class / macro precision, recall, F-score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .skeleton import EmptyInputError


@dataclass
class ConfusionMatrix:
    """counts[true][predicted]."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(self.counts < 0):
            raise ValueError("negative count")

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    """Per-class and macro precision, recall and F-score."""

    precision: np.ndarray
    recall: np.ndarray
    fscore: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_fscore: float

    def __post_init__(self):
        self.precision = np.asarray(self.precision, dtype=np.float64)
        self.recall = np.asarray(self.recall, dtype=np.float64)
        self.fscore = np.asarray(self.fscore, dtype=np.float64)
        for arr in (self.precision, self.recall, self.fscore):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError("metrics must lie in [0, 1]")


def confusion(preds, labels, n_classes: int) -> ConfusionMatrix:
    """Tally counts[label][pred] over paired predictions and labels."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("preds and labels must be equal-length 1-D")
    if preds.size == 0:
        raise EmptyInputError("nothing to tally")
    for name, arr in (("pred", preds), ("label", labels)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError(f"{name} out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return ConfusionMatrix(counts=counts)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def precision_recall_fscore(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class P = diag/colsum, R = diag/rowsum, F = 2PR/(P+R); 0/0 -> 0.

    Macro values are unweighted means over classes.
    """
    if cm.total == 0:
        raise EmptyInputError("empty confusion matrix")
    diag = np.diag(cm.counts).astype(np.float64)
    precision = _safe_div(diag, cm.counts.sum(axis=0).astype(np.float64))
    recall = _safe_div(diag, cm.counts.sum(axis=1).astype(np.float64))
    fscore = _safe_div(2.0 * precision * recall, precision + recall)
    return MetricsReport(
        precision=precision,
        recall=recall,
        fscore=fscore,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_fscore=float(fscore.mean()),
    )
