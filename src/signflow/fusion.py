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
from scipy.special import logsumexp

from .hmm import GestureResponse
from .linear_model import MulticlassLinearModel, fit_multiclass_linear, response
from .skeleton import EmptyInputError

DEFAULT_FUSION_COST = 0.7641
CLAMP_FLOOR = -1e3
BW_FLOOR = 1e-6


@dataclass
class CoupledResponse:
    """[R_posture | R_gesture], one slot per class in each half."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.shape[0] % 2 != 0:
            raise ValueError("coupled response must be 1-D with even length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coupled response must be finite (clamp first)")


@dataclass
class KdeFusionModel:
    """Per-class training responses, diagonal bandwidths, and priors.

    Construction also stacks the classes for `kde_class_log_posteriors`:
    classes with equal point counts share one (C_g, N, D) block, so no
    block needs padding.
    """

    class_points: list
    bandwidths: np.ndarray
    priors: np.ndarray
    blocks: list = field(init=False, repr=False, compare=False)
    log_norm: np.ndarray = field(init=False, repr=False, compare=False)
    log_count: np.ndarray = field(init=False, repr=False, compare=False)
    log_prior: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.class_points = [np.asarray(p, dtype=np.float64) for p in self.class_points]
        self.bandwidths = np.asarray(self.bandwidths, dtype=np.float64)
        self.priors = np.asarray(self.priors, dtype=np.float64)
        c = len(self.class_points)
        if self.bandwidths.ndim != 2 or self.bandwidths.shape[0] != c \
                or self.priors.shape != (c,):
            raise ValueError("bandwidths must be (classes, D) and priors "
                             "(classes,)")
        if not np.isfinite(self.bandwidths).all() or np.any(self.bandwidths <= 0):
            raise ValueError("bandwidths must be finite and positive")
        if not np.isfinite(self.priors).all() or np.any(self.priors < 0):
            raise ValueError("priors must be finite and non-negative")
        if abs(self.priors.sum() - 1.0) > 1e-9:
            raise ValueError("priors must sum to 1")
        dim = self.bandwidths.shape[1]
        for k, p in enumerate(self.class_points):
            if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != dim:
                raise ValueError(f"class {k} points have shape {p.shape}, "
                                 f"expected (N >= 1, {dim})")
            if not np.isfinite(p).all():
                raise ValueError(f"class {k} has a non-finite point")
        counts = np.array([p.shape[0] for p in self.class_points])
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
        with np.errstate(divide="ignore"):
            self.log_prior = np.log(self.priors)

    @property
    def n_classes(self) -> int:
        return len(self.class_points)

    @property
    def dimension(self) -> int:
        return self.bandwidths.shape[1]


def couple(rp, rg: GestureResponse) -> CoupledResponse:
    """Concatenate branch responses, clamping gesture entries to CLAMP_FLOOR."""
    rp = np.asarray(rp, dtype=np.float64)
    rgv = np.asarray(rg.values if isinstance(rg, GestureResponse) else rg,
                     dtype=np.float64)
    if rp.shape != rgv.shape:
        raise ValueError(f"posture response length {rp.shape} != gesture "
                         f"response length {rgv.shape}")
    return CoupledResponse(values=np.concatenate([rp, np.maximum(rgv, CLAMP_FLOOR)]))


def _training_matrix(pairs):
    pairs = list(pairs)
    if not pairs:
        raise EmptyInputError("no training pairs")
    X = np.stack([r.values for r, _ in pairs])
    y = np.array([c for _, c in pairs], dtype=np.int64)
    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes)
    if np.any(counts == 0):
        raise ValueError(f"class {int(counts.argmin())} has no examples")
    return X, y, n_classes


def train_linear_fusion(pairs, cost: float = DEFAULT_FUSION_COST, seed: int = 0,
                        epochs: int = 60) -> MulticlassLinearModel:
    """Fit the linear fusion rule on (CoupledResponse, class) pairs: one
    weight row omega_k per class over the 2C coupled coordinates."""
    X, y, n_classes = _training_matrix(pairs)
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if X.shape[1] != 2 * n_classes:
        raise ValueError(f"coupled dimension {X.shape[1]} != 2 x {n_classes} classes")
    return fit_multiclass_linear(X, y, n_classes, cost, epochs=epochs, seed=seed)


def predict_linear(model: MulticlassLinearModel, r: CoupledResponse) -> int:
    """argmax_k omega_k . R; ties to the lowest class id."""
    return int(response(model, r.values).argmax())


def silverman_bandwidths(data: np.ndarray) -> np.ndarray:
    """Per-dimension rule-of-thumb bandwidth, 0.9 min(sigma, IQR/1.34) n^-1/5,
    at least BW_FLOOR."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    sigma = data.std(axis=0)
    iqr = np.percentile(data, 75, axis=0) - np.percentile(data, 25, axis=0)
    h = 0.9 * np.minimum(sigma, iqr / 1.34) * n ** (-0.2)
    return np.maximum(h, BW_FLOOR)


def train_kde_fusion(pairs) -> KdeFusionModel:
    """Per-class KDE over coupled responses; priors = class frequencies."""
    X, y, n_classes = _training_matrix(pairs)
    points = [X[y == c] for c in range(n_classes)]
    bandwidths = np.stack([silverman_bandwidths(p) for p in points])
    priors = np.bincount(y, minlength=n_classes) / y.shape[0]
    return KdeFusionModel(class_points=points, bandwidths=bandwidths, priors=priors)


def kde_class_log_posteriors(model: KdeFusionModel, r: CoupledResponse) -> np.ndarray:
    """Unnormalized log p(R|c) + log p(c) per class.

    p(R|c) is the product-Gaussian KDE of class c at R. One pass per block
    of equal-sized classes; each class's value takes the float steps of
    its own one-class sum, ((logsumexp - log_norm) - log N) + log prior.
    """
    q = r.values
    if q.shape[0] != model.dimension:
        raise ValueError(f"query dimension {q.shape[0]} != model dimension "
                         f"{model.dimension}")
    lse = np.empty(model.n_classes)
    for members, points, bandwidths in model.blocks:
        z = (q - points) / bandwidths
        lse[members] = logsumexp(-0.5 * (z * z).sum(axis=2), axis=1)
    return ((lse - model.log_norm) - model.log_count) + model.log_prior


def predict_kde(model: KdeFusionModel, r: CoupledResponse) -> int:
    """argmax_k p(R|c_k) p(c_k); ties to the lowest class id."""
    return int(kde_class_log_posteriors(model, r).argmax())
