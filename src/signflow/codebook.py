"""K-means vector quantization of descriptors into a shared vocabulary.

Descriptor streams are re-encoded as sequences of nearest-center indices
(symbols), which the discrete HMMs consume as observations. Centers live in
z-normalized space; `quantize_batch` applies the stored normalization before
the nearest-neighbor lookup, so callers always pass raw descriptors.

Every lookup is defined by `cdist`'s squared distances and their argmin,
ties to the lowest index. `_nearest` gets the same labels from one GEMM and
sends only the rows whose answer it cannot prove back to `cdist`.
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
    # squared center norms for `_nearest`, and whether znorm is (v - 0) / 1
    center_sq: np.ndarray = field(init=False, repr=False, compare=False)
    plain: bool = field(init=False, repr=False, compare=False)

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
        self.center_sq = _row_sq_norms(self.centers)
        self.plain = not self.znorm.mean.any() and bool((self.znorm.stddev == 1.0).all())

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
    # the reference distances: cdist accumulates (x_i - y_i)^2 left to
    # right, the same order the linear-scan oracle uses, so argmin ties
    # resolve identically; `_nearest` falls back to it
    return cdist(points, centers, "sqeuclidean")


def _row_sq_norms(rows: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # inf sends the row to cdist
        return np.einsum("ij,ij->i", rows, rows)


_UNIT = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1074  # smallest subnormal float64


def _nearest(points: np.ndarray, point_sq: np.ndarray, centers: np.ndarray,
             center_sq: np.ndarray):
    """`cdist(points, centers, "sqeuclidean").argmin(axis=1)`, mostly by GEMM.

    `point_sq` and `center_sq` hold the squared row norms (`_row_sq_norms`).
    Returns (labels, dist2, err). Row i of `dist2` holds the GEMM distances
    d~ = |z|^2 - 2 z.c + |c|^2 of finite rows z, and `err[i]`
    bounds |d~ - d| for every center of that row, d being the exact
    squared distance; the rows sent to cdist hold its values and err 0.

    Proof. Write X = (|z| + max|c|)^2 and g = gamma_{D+2} = m u / (1 - m u),
    m = D + 2, u = 2**-53 (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 3; any summation order, with or without FMA). Without
    underflow, the three length-D sums err by at most gamma_D times their
    absolute terms, so with Cauchy-Schwarz the two roundings of the sum
    d~ leave |d~ - d| <= g X. cdist rounds each difference, its square and
    the D - 1 additions of non-negative terms, so |cdist - d| <= g d <= g X.
    Each product that underflows adds at most 2**-1075; summing is exact
    there, so the five sums add at most 5 D 2**-1075. Hence
        |d~ - d| + |cdist - d| <= 2 g X + 2.5 D 2**-1074,
    and `err` = g (2 sqrt(X))^2 + (5 D + 8) 2**-1074 is at least twice
    that. The factor 2 also covers the rounding of the norms and of `err`
    (relatively gamma_D + 6u), and that of the threshold below and of the
    d~ - err `fit_kmeans` takes (about u X each). A finite `err` means
    4 X fits in float64, so no sum overflowed and every d~ of the row is
    finite. A row is settled when its threshold, the best d~ plus 2 err,
    is finite and no other center's d~ reaches it: then every other cdist
    value exceeds the best one's, so cdist's argmin, ties included, is the
    same center. Every other row goes through cdist.
    """
    n, dim = points.shape
    m = dim + 2
    gamma = m * _UNIT / (1.0 - m * _UNIT)
    with np.errstate(over="ignore", invalid="ignore"):
        dist2 = points @ centers.T
        dist2 *= -2.0
        dist2 += point_sq[:, None]
        dist2 += center_sq
        scale = 2.0 * (np.sqrt(point_sq) + np.sqrt(center_sq.max()))
        err = gamma * (scale * scale) + (5 * dim + 8) * _TINY
        best = dist2.argmin(axis=1)
        limit = dist2[np.arange(n), best] + 2.0 * err
        near = (dist2 <= limit[:, None]).sum(axis=1, dtype=np.uint32)
    loose = np.flatnonzero((near != 1) | ~np.isfinite(limit))
    if loose.size:
        exact = _sq_dists(points[loose], centers)
        best[loose] = exact.argmin(axis=1)
        dist2[loose] = exact
        err[loose] = 0.0
    return best, dist2, err


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


# rows per chunk of distance work: a chunk's distance matrix is about 1 MB
_CHUNK_ELEMENTS = 1 << 17
_F32_MAX = float(np.finfo(np.float32).max)


def _chunks(rows: np.ndarray, size: int):
    for start in range(0, rows.size, size):
        yield rows[start:start + size]


# The pruning bounds are float32 and every rounding step is one-sided, so a
# bound never exceeds the distance it bounds and no label can be skipped.

def _lower_bounds(dist2: np.ndarray) -> np.ndarray:
    """float32 values <= sqrt(dist2) * (1 - 2**-22).

    `dist2` is a cdist value or `_nearest`'s d~ - err, which is at most the
    exact squared distance. The relative gap is far larger than cdist's own
    rounding error, so each bound is below the exact distance.
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
    2003), and labels the other rows with `_nearest`; labels, ties, centers
    and `wcss_history` are exactly those of plain Lloyd passes over the
    full cdist matrix.
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
    data_sq = _row_sq_norms(data)
    chunk = max(1, _CHUNK_ELEMENTS // max(k, dim))
    prev_labels = None
    history = []
    for _ in range(max_iter):
        lower -= shrink[:, None]
        for rows in _chunks(np.flatnonzero(moved[labels]), chunk):
            d2[rows] = _paired_sq_dists(data[rows], centers[labels[rows]])
        # a point keeps its label when every other center is certainly
        # farther; ties and near ties go to `_nearest` with the rest
        radius = _upper_radii(d2)
        center_sq = _row_sq_norms(centers)
        for rows in _chunks(np.flatnonzero(lower.min(axis=0) <= radius), chunk):
            best, dist2, err = _nearest(data[rows], data_sq[rows], centers, center_sq)
            labels[rows] = best
            d2[rows] = _paired_sq_dists(data[rows], centers[best])
            # d~ - err <= d, and the float32 rounding stays below its root
            bound = _lower_bounds(np.maximum(dist2 - err[:, None], 0.0))
            bound[np.arange(rows.size), best] = np.inf
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
    if cb.plain:
        return vectors  # (v - 0) / 1 == v exactly
    return (vectors - cb.znorm.mean) / cb.znorm.stddev


def quantize_batch(cb: Codebook, vectors: np.ndarray) -> np.ndarray:
    """Nearest-center index of each raw row; ties go to the lowest index.

    A row that is not finite, raw or normalized, raises ValueError.
    """
    z = _as_matrix(cb, np.atleast_2d(np.asarray(vectors, dtype=np.float64)))
    z_sq = _row_sq_norms(z)
    # a finite norm proves a finite row; only overflow or a bad row look closer
    if not np.isfinite(z_sq).all():
        finite = np.isfinite(z).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite value in row {int(finite.argmin())}")
    return _nearest(z, z_sq, cb.centers, cb.center_sq)[0]


def encode_sequence(cb: Codebook, descriptors, source: str = "") -> SymbolSequence:
    """Quantize an (n, D) descriptor stream in order; one symbol per row.

    An empty stream raises EmptyInputError naming `source`.
    """
    if len(descriptors) == 0:
        raise EmptyInputError(f"{source or 'sequence'}: no descriptors to encode")
    return SymbolSequence(symbols=quantize_batch(cb, descriptors), source=source)
