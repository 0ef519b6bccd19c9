"""K-means vector quantization of descriptors into a shared vocabulary.

Descriptor streams are re-encoded as sequences of nearest-center indices
(symbols), which the discrete HMMs consume as observations. Centers live in
z-normalized space; `quantize_batch` applies the stored normalization before
the nearest-neighbor lookup, so callers always pass raw descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .descriptors import DescriptorVariant, ZNormStats, fit_znorm
from .skeleton import EmptyInputError

DEFAULT_K = 100
DEFAULT_MAX_ITER = 100


@dataclass
class Codebook:
    """Immutable K-means vocabulary plus the normalization it was fit under.

    variant is None for codebooks over non-skeletal spaces (e.g. the 49-D
    shape-context space of the posture branch).
    """

    centers: np.ndarray
    k: int
    znorm: ZNormStats
    seed: int
    variant: Optional[DescriptorVariant] = None
    wcss_history: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.centers.shape[0] != self.k:
            raise ValueError(f"{self.centers.shape[0]} centers but k={self.k}")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("non-finite center")
        if self.centers.shape[1] != self.znorm.dimension:
            raise ValueError("center dimension does not match znorm stats")
        if self.variant is not None and self.centers.shape[1] != self.variant.dimension:
            raise ValueError("center dimension does not match variant")

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]


@dataclass
class SymbolSequence:
    """One gesture re-encoded as its ordered nearest-center indices."""

    symbols: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        if self.symbols.ndim != 1 or self.symbols.shape[0] < 1:
            raise ValueError("symbol sequence must be a non-empty 1-D array")
        if np.any(self.symbols < 0):
            raise ValueError("negative symbol")

    def __len__(self) -> int:
        return self.symbols.shape[0]


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # cdist accumulates (x_i - y_i)^2 left to right, the same order the
    # linear-scan oracle uses, so argmin ties resolve identically.
    return cdist(points, centers, "sqeuclidean")


def _paired_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of each row of `points` to the same row of `centers`.

    The running sum goes left to right over the columns, as cdist's does,
    so each value equals cdist's bytes.
    """
    diff = points - centers
    diff *= diff
    total = diff[:, 0].copy()
    for column in diff.T[1:]:
        total += column
    return total


def _kmeans_pp_seed(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    d2 = _sq_dists(data, centers[0:1]).ravel()
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining points coincide with a chosen center
            idx = int(rng.integers(n))
        centers[i] = data[idx]
        d2 = np.minimum(d2, _sq_dists(data, centers[i:i + 1]).ravel())
    return centers


# rows per chunk of distance work: a chunk's cdist output is about 1 MB
_CHUNK_ELEMENTS = 1 << 17
_F32_MAX = float(np.finfo(np.float32).max)


def _chunks(rows: np.ndarray, size: int):
    for start in range(0, rows.size, size):
        yield rows[start:start + size]


# The pruning bounds are float32 and every rounding step is one-sided, so a
# bound never exceeds the distance it bounds and no label can be skipped.

def _lower_bounds(dist2: np.ndarray) -> np.ndarray:
    """float32 values <= sqrt(dist2) * (1 - 2**-22).

    The relative gap is far larger than cdist's own rounding error, so each
    is also below the exact distance that cdist's `dist2` approximates.
    """
    return np.minimum(np.sqrt(dist2) * (1.0 - 2.0 ** -20) - 2.0 ** -149,
                      _F32_MAX).astype(np.float32)


def _upper_radii(d2: np.ndarray) -> np.ndarray:
    """float32 values >= sqrt(d2); inf beyond the float32 range."""
    with np.errstate(over="ignore"):
        return np.nextafter(np.minimum(np.sqrt(d2), _F32_MAX).astype(np.float32),
                            np.float32(np.inf))


def _reach(data: np.ndarray) -> float:
    """At least every point-center distance, and so every bound: centers are
    means of points or points, inside the data's bounding box, and the
    factor 2 on its diagonal leaves room for rounding."""
    return 2.0 * float(np.sqrt(np.square(np.ptp(data, axis=0)).sum()))


def _shrinks(step: np.ndarray, reach: float) -> np.ndarray:
    """float32 amounts s with float32(b - s) <= max(0, b - step * (1 + 2**-21))
    exactly, for every float32 bound b <= reach.

    The factor covers the rounding of `step`, a computed center move.
    """
    return np.minimum(step * (1.0 + 2.0 ** -20) + reach * 2.0 ** -22 + 2.0 ** -140,
                      _F32_MAX).astype(np.float32)


def fit_kmeans(data, k: int, seed: int, max_iter: int = DEFAULT_MAX_ITER,
               znorm: Optional[ZNormStats] = None,
               variant: Optional[DescriptorVariant] = None) -> Codebook:
    """Lloyd's algorithm from a k-means++ start, fully deterministic per seed.

    `data` is clustered as given (no normalization applied here); the
    returned Codebook carries `znorm` (identity when omitted) purely so that
    `quantize_batch` knows how to map raw descriptors into this space. Iteration
    stops when assignments repeat or after max_iter passes. Empty clusters
    are re-seeded to the point farthest from its assigned center, keeping
    all k symbols alive.

    Each pass skips the distances that cannot change a label, using
    per-center lower bounds from the triangle inequality (Elkan, ICML
    2003); labels, ties, centers and `wcss_history` are exactly those of
    plain Lloyd passes over the full distance matrix.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.size == 0:
        raise EmptyInputError("no data to cluster")
    if k < 1:
        raise ValueError("k must be >= 1")
    n, dim = data.shape
    if k > n:
        raise ValueError(f"k={k} exceeds {n} data points")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in data row {int(finite.argmin())}")

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seed(data, k, rng)
    # lower[j, i] <= distance from point i to center j, kept in float32 and
    # rounded down; +inf at the point's own center, which it never tests
    lower = np.full((k, n), -np.inf, dtype=np.float32)
    labels = np.zeros(n, dtype=np.intp)
    d2 = np.full(n, np.inf)  # exact squared distance to the own center
    moved = np.zeros(k, dtype=bool)
    shrink = np.zeros(k, dtype=np.float32)
    reach = _reach(data)
    chunk = max(1, _CHUNK_ELEMENTS // max(k, dim))
    prev_labels = None
    history = []
    for _ in range(max_iter):
        lower -= shrink[:, None]
        for rows in _chunks(np.flatnonzero(moved[labels]), chunk):
            d2[rows] = _paired_sq_dists(data[rows], centers[labels[rows]])
        # a point keeps its label when every other center is certainly
        # farther; ties and near ties go to cdist with the rest
        radius = _upper_radii(d2)
        for rows in _chunks(np.flatnonzero(lower.min(axis=0) <= radius), chunk):
            dist2 = _sq_dists(data[rows], centers)
            best = dist2.argmin(axis=1)
            pick = np.arange(rows.size)
            labels[rows] = best
            d2[rows] = dist2[pick, best]
            bound = _lower_bounds(dist2)
            bound[pick, best] = np.inf
            lower[:, rows] = bound.T
        history.append(float(d2.sum()))
        counts = np.bincount(labels, minlength=k)
        if (prev_labels is not None and counts.min() > 0
                and np.array_equal(labels, prev_labels)):
            break
        # a cluster whose members did not change keeps its mean's bytes
        if prev_labels is None:
            changed = np.ones(k, dtype=bool)
        else:
            switched = labels != prev_labels
            changed = np.zeros(k, dtype=bool)
            changed[labels[switched]] = True
            changed[prev_labels[switched]] = True
        prev_labels = labels.copy()
        old = centers.copy()
        # each cluster's members in row order, as `data[labels == j]` has them
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(counts)
        for j in np.flatnonzero(changed & (counts > 0)):
            centers[j] = data[order[ends[j] - counts[j]:ends[j]]].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            claim = d2.copy()
            for j in empties:
                far = int(claim.argmax())
                centers[j] = data[far]
                claim[far] = -1.0
        moved = (centers != old).any(axis=1)
        shrink = _shrinks(np.sqrt(np.square(centers - old).sum(axis=1)), reach)

    if znorm is None:
        znorm = ZNormStats.identity(data.shape[1])
    return Codebook(centers=centers, k=k, znorm=znorm, seed=seed,
                    variant=variant, wcss_history=history)


def build_codebook(descriptors, k: int = DEFAULT_K, seed: int = 0,
                   max_iter: int = DEFAULT_MAX_ITER,
                   variant: Optional[DescriptorVariant] = None) -> Codebook:
    """Fit z-normalization on an (n, D) descriptor array, then cluster in
    z-space."""
    raw = np.asarray(descriptors, dtype=np.float64)
    if raw.shape[0] == 0:
        raise EmptyInputError("no descriptors")
    stats = fit_znorm(raw)
    normed = (raw - stats.mean) / stats.stddev
    return fit_kmeans(normed, k, seed, max_iter, znorm=stats, variant=variant)


def _as_matrix(cb: Codebook, vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != cb.dimension:
        raise ValueError(
            f"descriptor dimension {vectors.shape[-1]} != codebook dimension {cb.dimension}"
        )
    return (vectors - cb.znorm.mean) / cb.znorm.stddev


def quantize_batch(cb: Codebook, vectors: np.ndarray) -> np.ndarray:
    """Nearest-center index of each raw row; ties go to the lowest index.

    A row that is not finite, raw or normalized, raises ValueError.
    """
    z = _as_matrix(cb, np.atleast_2d(np.asarray(vectors, dtype=np.float64)))
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in row {int(finite.argmin())}")
    return _sq_dists(z, cb.centers).argmin(axis=1)


def encode_sequence(cb: Codebook, descriptors, source: str = "") -> SymbolSequence:
    """Quantize an (n, D) descriptor stream in order; one symbol per row.

    An empty stream raises EmptyInputError naming `source`.
    """
    if len(descriptors) == 0:
        raise EmptyInputError(f"{source or 'sequence'}: no descriptors to encode")
    return SymbolSequence(symbols=quantize_batch(cb, descriptors), source=source)
