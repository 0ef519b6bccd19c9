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
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.size == 0:
        raise EmptyInputError("no data to cluster")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = data.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds {n} data points")

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seed(data, k, rng)
    rows = np.arange(n)
    prev_labels = None
    history = []
    for _ in range(max_iter):
        dist2 = _sq_dists(data, centers)
        labels = dist2.argmin(axis=1)
        point_d2 = dist2[rows, labels]
        history.append(float(point_d2.sum()))
        counts = np.bincount(labels, minlength=k)
        if (prev_labels is not None and counts.min() > 0
                and np.array_equal(labels, prev_labels)):
            break
        prev_labels = labels
        for j in range(k):
            if counts[j]:
                centers[j] = data[labels == j].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            claim = point_d2.copy()
            for j in empties:
                far = int(claim.argmax())
                centers[j] = data[far]
                claim[far] = -1.0

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
    """Nearest-center index of each raw row; ties go to the lowest index."""
    z = _as_matrix(cb, np.atleast_2d(np.asarray(vectors, dtype=np.float64)))
    return _sq_dists(z, cb.centers).argmin(axis=1)


def encode_sequence(cb: Codebook, descriptors, source: str = "") -> SymbolSequence:
    """Quantize an (n, D) descriptor stream in order; one symbol per row.

    An empty stream raises EmptyInputError naming `source`.
    """
    if len(descriptors) == 0:
        raise EmptyInputError(f"{source or 'sequence'}: no descriptors to encode")
    return SymbolSequence(symbols=quantize_batch(cb, descriptors), source=source)
