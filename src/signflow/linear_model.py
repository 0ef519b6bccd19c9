"""Shared linear multiclass max-margin trainer (Crammer-Singer style).

Both the posture classifier and the linear fusion stage are homogeneous
linear models (no bias: both score rules are pure products W x). Training
is Pegasos-style stochastic subgradient descent on the joint multiclass
hinge loss with lambda = 1 / (C n); epoch order is a seeded permutation,
so runs are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .skeleton import EmptyInputError

DEFAULT_EPOCHS = 60


@dataclass
class MulticlassLinearModel:
    """Weight rows, one per class, plus a record of how they were fit."""

    weights: np.ndarray
    n_classes: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] != self.n_classes:
            raise ValueError("weights must be n_classes x dim")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weight")

    @property
    def dimension(self) -> int:
        return self.weights.shape[1]


def response(model: MulticlassLinearModel, x: np.ndarray) -> np.ndarray:
    """Per-class scores W x, no normalization."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dimension,):
        raise ValueError(f"input dimension {x.shape} != model dimension {model.dimension}")
    return model.weights @ x


def predict(model: MulticlassLinearModel, x: np.ndarray) -> int:
    """argmax of the response; ties go to the lowest class id."""
    return int(response(model, x).argmax())


def _sgd_pass(X, y, W, lam, rng, t0, margin=1.0):
    """One epoch of Pegasos updates on the multiclass hinge; returns step count."""
    n = X.shape[0]
    t = t0
    for i in rng.permutation(n):
        t += 1
        eta = 1.0 / (lam * t)
        scores = W @ X[i]
        scores_aug = scores + margin
        scores_aug[y[i]] = scores[y[i]]
        r = int(scores_aug.argmax())
        W *= 1.0 - eta * lam
        if r != y[i] and scores_aug[r] > scores[y[i]]:
            W[r] -= eta * X[i]
            W[y[i]] += eta * X[i]
    return t


def fit_multiclass_linear(X, y, n_classes: int, cost: float,
                          epochs: int = DEFAULT_EPOCHS, seed: int = 0,
                          folds: int = 3) -> MulticlassLinearModel:
    """Train on (X, y) and echo a stratified k-fold CV accuracy.

    cost plays the role of the usual SVM C: lambda = 1 / (cost * n). The CV
    folds are dealt per class in round-robin order, trained with the same
    hyperparameters, and their mean held-out accuracy is stored in the
    config echo so offline C sweeps can read it back; nothing is tuned here.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInputError("no training examples")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X/y length mismatch")
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("label out of range")
    if cost <= 0:
        raise ValueError("cost must be positive")

    cv_acc = None
    if folds >= 2 and X.shape[0] >= folds:
        cv_acc = _cross_validate(X, y, n_classes, cost, epochs, seed, folds)

    W = _fit(X, y, n_classes, cost, epochs, seed)
    config = {"cost": cost, "epochs": epochs, "seed": seed, "folds": folds,
              "cv_accuracy": cv_acc, "n_train": int(X.shape[0])}
    return MulticlassLinearModel(weights=W, n_classes=n_classes, config=config)


def _fit(X, y, n_classes, cost, epochs, seed):
    n = X.shape[0]
    lam = 1.0 / (cost * n)
    W = np.zeros((n_classes, X.shape[1]))
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        t = _sgd_pass(X, y, W, lam, rng, t)
    return W


def _fold_assignments(y, n_classes, folds):
    """Round-robin within each class, in example order: stratified folds."""
    fold = np.empty(y.shape[0], dtype=np.int64)
    counters = [0] * n_classes
    for i, label in enumerate(y):
        fold[i] = counters[label] % folds
        counters[label] += 1
    return fold


def _cross_validate(X, y, n_classes, cost, epochs, seed, folds):
    fold = _fold_assignments(y, n_classes, folds)
    correct = 0
    total = 0
    for f in range(folds):
        held = fold == f
        if held.all() or not held.any():
            continue
        train_y = y[~held]
        if np.unique(train_y).size < 2:
            continue
        # labels stay in 0..n_classes-1 even if a class is absent from a fold
        W = _fit(X[~held], train_y, n_classes, cost, epochs, seed + 1 + f)
        preds = (X[held] @ W.T).argmax(axis=1)
        correct += int((preds == y[held]).sum())
        total += int(held.sum())
    return correct / total if total else None

