"""Late fusion of the posture and gesture responses.

The coupled response R = [R_posture | R_gesture] is classified either by a
linear multiclass model (argmax_k omega_k . R) or by a MAP rule over
per-class kernel density estimates (argmax_k p(R|c_k) p(c_k)). Gesture
entries of -inf (impossible sequences) are clamped to a finite floor
before coupling so both rules stay defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linear_model import (
    MulticlassLinearModel,
    fit_multiclass_linear,
    response,
    training_set,
)

DEFAULT_FUSION_COST = 0.7641
CLAMP_FLOOR = -1e3
BW_FLOOR = 1e-6


@dataclass
class KdeFusionModel:
    """Per-class training responses and diagonal bandwidths.

    Construction derives the priors, each class's share of the points,
    and stacks the classes for `kde_class_log_posteriors`: classes with
    equal point counts share one (C_g, N, D) block, so no block needs
    padding.
    """

    class_points: list
    bandwidths: np.ndarray
    priors: np.ndarray = field(init=False, repr=False, compare=False)
    blocks: list = field(init=False, repr=False, compare=False)
    log_norm: np.ndarray = field(init=False, repr=False, compare=False)
    log_count: np.ndarray = field(init=False, repr=False, compare=False)
    log_prior: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.class_points = [np.asarray(p, dtype=np.float64) for p in self.class_points]
        self.bandwidths = np.asarray(self.bandwidths, dtype=np.float64)
        c = len(self.class_points)
        if self.bandwidths.ndim != 2 or self.bandwidths.shape[0] != c:
            raise ValueError("bandwidths must be (classes, D)")
        if not np.isfinite(self.bandwidths).all() or np.any(self.bandwidths <= 0):
            raise ValueError("bandwidths must be finite and positive")
        dim = self.bandwidths.shape[1]
        for k, p in enumerate(self.class_points):
            if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != dim:
                raise ValueError(f"class {k} points have shape {p.shape}, "
                                 f"expected (N >= 1, {dim})")
            if not np.isfinite(p).all():
                raise ValueError(f"class {k} has a non-finite point")
        counts = np.array([p.shape[0] for p in self.class_points])
        self.priors = counts / counts.sum()
        self.blocks = []
        for n in np.unique(counts):
            members = np.flatnonzero(counts == n)
            self.blocks.append((members,
                                np.stack([self.class_points[k] for k in members]),
                                self.bandwidths[members, None, :]))
        # per class, the same float steps a one-class density takes
        self.log_norm = np.array([np.log(h).sum() for h in self.bandwidths]) \
            + 0.5 * dim * np.log(2.0 * np.pi)
        self.log_count = np.log(counts)
        self.log_prior = np.log(self.priors)

    @property
    def n_classes(self) -> int:
        return len(self.class_points)

    @property
    def dimension(self) -> int:
        return self.bandwidths.shape[1]


def _finite(r) -> np.ndarray:
    """A coupled response as float64; ValueError if a value is not finite."""
    r = np.asarray(r, dtype=np.float64)
    if not np.isfinite(r).all():
        raise ValueError("coupled response must be finite (clamp first)")
    return r


def couple(rp, rg_values) -> np.ndarray:
    """The (2C,) coupled response [R_posture | R_gesture], gesture entries
    clamped to CLAMP_FLOOR."""
    rp = np.asarray(rp, dtype=np.float64)
    rgv = np.asarray(rg_values, dtype=np.float64)
    if rp.shape != rgv.shape:
        raise ValueError(f"posture response length {rp.shape} != gesture "
                         f"response length {rgv.shape}")
    return _finite(np.concatenate([rp, np.maximum(rgv, CLAMP_FLOOR)]))


def train_linear_fusion(X, y, cost: float = DEFAULT_FUSION_COST, seed: int = 0,
                        epochs: int = 60) -> MulticlassLinearModel:
    """Fit the linear fusion rule, one weight row omega_k per class, on
    (n, 2C) coupled responses X with (n,) classes y."""
    model = fit_multiclass_linear(X, y, cost, epochs=epochs, seed=seed)
    if model.dimension != 2 * model.n_classes:
        raise ValueError(f"coupled dimension {model.dimension} != 2 x "
                         f"{model.n_classes} classes")
    return model


def predict_linear(model: MulticlassLinearModel, r) -> int:
    """argmax_k omega_k . R; ties to the lowest class id."""
    return int(response(model, _finite(r)).argmax())


def silverman_bandwidths(data: np.ndarray) -> np.ndarray:
    """Per-dimension rule-of-thumb bandwidth, 0.9 min(sigma, IQR/1.34) n^-1/5,
    at least BW_FLOOR."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    sigma = data.std(axis=0)
    iqr = np.percentile(data, 75, axis=0) - np.percentile(data, 25, axis=0)
    h = 0.9 * np.minimum(sigma, iqr / 1.34) * n ** (-0.2)
    return np.maximum(h, BW_FLOOR)


def train_kde_fusion(X, y) -> KdeFusionModel:
    """Per-class KDE over (n, 2C) coupled responses X with (n,) classes y;
    the model's priors are the class frequencies."""
    X, y, counts = training_set(X, y)
    points = [X[y == c] for c in range(counts.size)]
    return KdeFusionModel(class_points=points,
                          bandwidths=np.stack([silverman_bandwidths(p) for p in points]))


def kde_class_log_posteriors(model: KdeFusionModel, r) -> np.ndarray:
    """Unnormalized log p(R|c) + log p(c) per class.

    p(R|c) is the product-Gaussian KDE of class c at R. One pass per block
    of equal-sized classes; each class's value takes the float steps of
    its own one-class sum, ((logsumexp - log_norm) - log N) + log prior,
    by scipy's formula log1p(sum(exp(others - max)) / m) + log m + max.
    """
    q = _finite(r)
    if q.shape != (model.dimension,):
        raise ValueError(f"query dimension {q.shape} != model dimension "
                         f"{model.dimension}")
    lse = np.empty(model.n_classes)
    for members, points, bandwidths in model.blocks:
        z = (q - points) / bandwidths
        a = -0.5 * (z * z).sum(axis=2)
        top = a.max(axis=1)
        ties = a == top[:, None]
        m = ties.sum(axis=1, dtype=np.float64)
        a[ties] = -np.inf
        with np.errstate(invalid="ignore"):  # NaN where every term is -inf
            lse[members] = np.log1p(np.exp(a - top[:, None]).sum(axis=1) / m) + np.log(m) + top
    lse[np.isnan(lse)] = -np.inf  # log(sum(exp(a))) of those classes
    return ((lse - model.log_norm) - model.log_count) + model.log_prior


def predict_kde(model: KdeFusionModel, r) -> int:
    """argmax_k p(R|c_k) p(c_k); ties to the lowest class id."""
    return int(kde_class_log_posteriors(model, r).argmax())
