"""Shared linear multiclass max-margin trainer (Crammer-Singer style).

Both the posture classifier and the linear fusion stage are homogeneous
linear models (no bias: both score rules are pure products W x). Training
is Pegasos-style stochastic subgradient descent on the joint multiclass
hinge loss with lambda = 1 / (C n); epoch order is a seeded permutation,
so runs are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .skeleton import EmptyInputError

DEFAULT_EPOCHS = 60
MARGIN = 1.0  # the score gap the hinge asks of the true class


@dataclass
class MulticlassLinearModel:
    """Weight rows, one per class."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise ValueError(f"weights must be a non-empty (classes, dim) array, "
                             f"got shape {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weight")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dimension(self) -> int:
        return self.weights.shape[1]


def response(model: MulticlassLinearModel, x: np.ndarray) -> np.ndarray:
    """Per-class scores W x, no normalization."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dimension,):
        raise ValueError(f"input dimension {x.shape} != model dimension {model.dimension}")
    return model.weights @ x


def _sgd_pass(X, y, W, lam, rng, t0):
    """One epoch of Pegasos updates on the multiclass hinge; returns step count."""
    n = X.shape[0]
    t = t0
    for i in rng.permutation(n):
        t += 1
        eta = 1.0 / (lam * t)
        scores = W @ X[i]
        scores_aug = scores + MARGIN
        scores_aug[y[i]] = scores[y[i]]
        r = int(scores_aug.argmax())
        W *= 1.0 - eta * lam
        if r != y[i] and scores_aug[r] > scores[y[i]]:
            W[r] -= eta * X[i]
            W[y[i]] += eta * X[i]
    return t


def training_set(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An (n, D) float64 matrix X, its (n,) int64 labels y and the examples
    per class, the one check every trainer makes: the labels must cover
    every class 0..C-1, so a negative label or a class with no examples is
    a ValueError, and so is an X/y length mismatch."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInputError("no training examples")
    if y.shape != (X.shape[0],):
        raise ValueError("X/y length mismatch")
    if y.min() < 0:
        raise ValueError("label out of range")
    counts = np.bincount(y)
    if not counts.all():
        raise ValueError(f"class {int(counts.argmin())} has no examples")
    return X, y, counts


def fit_multiclass_linear(X, y, cost: float, epochs: int = DEFAULT_EPOCHS,
                          seed: int = 0) -> MulticlassLinearModel:
    """Train on (X, y), with one class per label 0..max(y); cost plays the
    role of the usual SVM C: lambda = 1 / (cost * n)."""
    X, y, counts = training_set(X, y)
    if counts.size < 2:
        raise ValueError("need at least 2 classes")
    if cost <= 0:
        raise ValueError("cost must be positive")
    return MulticlassLinearModel(weights=_fit(X, y, counts.size, cost, epochs, seed))


def _fit(X, y, n_classes, cost, epochs, seed):
    n = X.shape[0]
    lam = 1.0 / (cost * n)
    W = np.zeros((n_classes, X.shape[1]))
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        t = _sgd_pass(X, y, W, lam, rng, t)
    return W
