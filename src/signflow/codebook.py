"""K-means vector quantization of descriptors into a shared vocabulary.

Descriptor streams are re-encoded as sequences of nearest-center indices
(symbols), which the discrete HMMs consume as observations. Centers live in
z-normalized space; `quantize_batch` applies the stored normalization before
the nearest-neighbor lookup, so callers always pass raw descriptors.

Every lookup is defined by the exact squared distances, each summed left
to right as cdist sums them (`_paired_sq_dists`, cdist's bytes), and their
argmin, ties to the lowest index. `_nearest` gets the same labels from
one float32 GEMM and sends only the rows whose answer it cannot prove, and
of those only the centers that may still win, back to the exact sum; the
k-means++ seeding screens each new center with a float64 GEMV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .descriptors import _CHUNK_ELEMENTS, DescriptorVariant, ZNormStats, fit_znorm
from .skeleton import EmptyInputError

DEFAULT_K = 100
DEFAULT_MAX_ITER = 100

_F32_MAX = float(np.finfo(np.float32).max)
_UNIT = 2.0 ** -53  # unit roundoff of float64
_UNIT32 = 2.0 ** -24  # unit roundoff of float32
_TINY = 2.0 ** -1074  # smallest subnormal float64


@dataclass
class Codebook:
    """Immutable K-means vocabulary plus the normalization it was fit under.

    centers is (k, D). variant is None for codebooks over non-skeletal
    spaces (e.g. the 49-D shape-context space of the posture branch).
    """

    centers: np.ndarray
    znorm: ZNormStats
    seed: int
    variant: Optional[DescriptorVariant] = None
    wcss_history: list = field(default_factory=list, repr=False)
    # float32 centers and squared norms for `_nearest`, and whether znorm
    # is (v - 0) / 1
    centers32: np.ndarray = field(init=False, repr=False, compare=False)
    center_sq32: np.ndarray = field(init=False, repr=False, compare=False)
    plain: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.size == 0:
            raise ValueError(f"centers must be a non-empty (k, D) array, "
                             f"got shape {self.centers.shape}")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("non-finite center")
        if self.centers.shape[1] != self.znorm.dimension:
            raise ValueError("center dimension does not match znorm stats")
        if self.variant is not None and self.centers.shape[1] != self.variant.dimension:
            raise ValueError("center dimension does not match variant")
        self.centers32, self.center_sq32 = _float32_centers(self.centers)
        self.plain = not self.znorm.mean.any() and bool((self.znorm.stddev == 1.0).all())

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]


def _row_sq_norms(rows: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # inf sends the row to the exact sum
        return np.einsum("ij,ij->i", rows, rows)


def _finite_sq_norms(rows: np.ndarray, name: str) -> np.ndarray:
    """`_row_sq_norms(rows)`, after naming the first row that is not finite.

    A finite norm proves a finite row, so only the rows whose norm is not
    finite (a bad value, or an overflow) are scanned.
    """
    sq = _row_sq_norms(rows)
    if not np.isfinite(sq).all():
        suspect = np.flatnonzero(~np.isfinite(sq))
        finite = np.isfinite(rows[suspect]).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite value in {name} {int(suspect[finite.argmin()])}")
    return sq


def _gamma(m: int, unit: float) -> float:
    """gamma_m = m u / (1 - m u): bounds the relative error of m roundings
    at unit roundoff u (Higham, ch. 3)."""
    return m * unit / (1.0 - m * unit)


def _gemm_sq_dists(points: np.ndarray, point_sq: np.ndarray, centers: np.ndarray,
                   center_sq: np.ndarray):
    """The GEMM distances d~ = |z|^2 - 2 z.c + |c|^2, (n, k), from the squared
    row norms `point_sq` and `center_sq`, and per row a bound `err` with
    |d~ - d| + |e - d| <= err / 2 for every center, d being the exact
    squared distance and e its `_paired_sq_dists` value.

    Proof. Write X = (|z| + max|c|)^2 and g = gamma_{D+2} = m u / (1 - m u),
    m = D + 2, u = 2**-53 (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 3; any summation order, with or without FMA). Without
    underflow, the three length-D sums err by at most gamma_D times their
    absolute terms, so with Cauchy-Schwarz the two roundings of the sum
    d~ leave |d~ - d| <= g X. `_paired_sq_dists` rounds each difference,
    its square and the D - 1 additions of non-negative terms, so
    |e - d| <= g d <= g X. Each product that underflows adds at most
    2**-1075; summing is exact there, so the five sums add at most
    5 D 2**-1075. Hence |d~ - d| + |e - d| <= 2 g X + 2.5 D 2**-1074, and
    `err` = g (2 sqrt(X))^2 + (5 D + 8) 2**-1074 is at least twice that.
    The factor 2 also covers the rounding of the norms and of `err`
    (relatively gamma_D + 6u), and that of the thresholds the callers
    compare d~ with (about u X each). A finite `err` means 4 X fits in
    float64, so no sum overflowed and every d~ of the row is finite.

    Callers ignore overflow and invalid values around it: an overflowing
    row reads inf or NaN, and its `err` is inf.
    """
    dim = points.shape[1]
    dist2 = points @ centers.T
    dist2 *= -2.0
    dist2 += point_sq[:, None]
    dist2 += center_sq
    scale = 2.0 * (np.sqrt(point_sq) + np.sqrt(center_sq.max()))
    err = _gamma(dim + 2, _UNIT) * (scale * scale) + (5 * dim + 8) * _TINY
    return dist2, err


def _float32_centers(centers: np.ndarray):
    """The float32 centers and squared norms `_nearest` screens with; a
    value beyond the float32 range reads inf, and then every row falls
    back to the exact sum."""
    with np.errstate(over="ignore"):
        return centers.astype(np.float32), _row_sq_norms(centers).astype(np.float32)


def _nearest(points: np.ndarray, point_sq: np.ndarray, centers: np.ndarray,
             centers32: np.ndarray, center_sq32: np.ndarray):
    """The argmin of each row's exact squared distances to `centers`, ties
    to the lowest index, mostly by one float32 GEMM, from the rows' float64
    squared norms `point_sq` and `_float32_centers(centers)`.

    Returns (labels, g, err): the float32 (n, k) g = |c|^2 - 2 z.c, and per
    row a bound err with |d~ - d| + |e - d| <= err / 2 for every center,
    where d~ = g + |z|^2, d is the exact squared distance and e its
    `_paired_sq_dists` value; err is inf on a row the screen cannot bound.
    |z|^2 is the same for every center of a row, so the argmin and the
    settle test run on g. A row is settled when its threshold, the best g
    plus 2 err, is below the runner-up g, the least of the others.

    Proof. Write u = 2**-24 and v = 2**-53, the unit roundoffs of float32
    and float64, gamma_m(w) = m w / (1 - m w), D the dimension (D < 2**20)
    and X = (|z| + max|c|)^2. A row whose computed 4X reaches 2**120, or
    is not finite, gets err = inf; on any other row every float32 value
    below is under 2**119, so nothing overflows. A float32 rounding of an
    exact x (a cast, a product or a sum) gives x (1 + a) + b, |a| <= u,
    |b| < 2**-126 and b = 0 unless |x| < 2**-126, with gradual underflow
    or with flush to zero (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 2-3).
    - Casts. z' = fl(-2z) and c' = fl(c) make each z'_i c'_i differ from
      -2 z_i c_i by at most (2u + u^2) 2|z_i c_i|, in all at most
      (2u + u^2) X as 2|z||c| <= X, plus what underflow moves: under
      2**-126 times the other factor, and as 2**-126 y <= (u/2) y^2 +
      2**-229, at most 2u (1 + u)^2 X + D 2**-227 over the row.
    - The sum g = fl(fl(|c|^2) + sum_i z'_i c'_i), in any order, with or
      without FMA, takes each of its D + 1 terms through at most D + 2
      roundings (the cast of the float64 norm counted), so it errs by at
      most gamma_(D+2)(u) (1 + 3u) X, the absolute terms summing to at
      most (1 + 3u) X, plus (2D + 2) 2**-126 for its underflows.
    - The float64 norms |z|^2 and |c|^2 err by at most gamma_D(v) X in
      all, and `_paired_sq_dists` by |e - d| <= gamma_(D+2)(v) X +
      5D 2**-1075 (its differences, squares and left-to-right additions).
    So |d~ - d| + |e - d| <= (gamma_(D+2)(u) + 5u + 2 gamma_(D+2)(v))
    (1 + 3u) X + (3D + 3) 2**-126, and err = (gamma_(D+2)(u) + 5u +
    gamma_(D+2)(v)) (2 sqrt(X))^2 + (6D + 16) 2**-120 is about twice
    that: the slack covers the roundings of X, computed from the rounded
    norms, of err, and of the thresholds compared with g (about v X each).

    Settled rows. Every other center has d~ > d~_best + 2 err, so
    e > e_best + err: the label is the exact argmin, with no tie. Other
    rows. A center whose g exceeds the threshold has d~ > d~_best + 2 err,
    so its exact sum e exceeds the best center's by more than err: it can
    neither be the argmin nor tie it. Only the rest (every center, on a
    row of err = inf, whose threshold is inf or NaN) get exact sums, and
    their argmin, ties to the lowest index, is the row's exact argmin.
    """
    n, dim = points.shape
    rows = np.arange(n)
    scaled = np.empty((n, dim), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(points, -2.0, out=scaled, casting="same_kind")
        g = scaled @ centers32.T
        g += center_sq32
        del scaled
        reach = 2.0 * (np.sqrt(point_sq) + np.sqrt(float(center_sq32.max())))
        reach *= reach  # 4X
        err = ((_gamma(dim + 2, _UNIT32) + 5 * _UNIT32 + _gamma(dim + 2, _UNIT)) * reach
               + (6 * dim + 16) * 2.0 ** -120)
        err[~(reach < 2.0 ** 120)] = np.inf
        best = g.argmin(axis=1)
        best_g = g[rows, best]
        limit = best_g + 2.0 * err
        g[rows, best] = np.inf
        runner_up = g.min(axis=1)
        g[rows, best] = best_g
    # no runner-up exceeds an inf or NaN threshold
    loose = np.flatnonzero(~(runner_up > limit))
    if loose.size:
        row, col = np.nonzero(~(g[loose] > limit[loose, None]))
        exact = np.full((loose.size, len(centers)), np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            for pairs in _chunks(np.arange(row.size), max(1, _CHUNK_ELEMENTS // dim)):
                exact[row[pairs], col[pairs]] = _paired_sq_dists(
                    points[loose[row[pairs]]], centers[col[pairs]])
        best[loose] = exact.argmin(axis=1)
    return best, g, err


def _chunks(rows: np.ndarray, size: int):
    # copies: a view would keep every row index alive after the loop
    for start in range(0, rows.size, size):
        yield rows[start:start + size].copy()


def _paired_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of each row of `points` to the same (or the one)
    row of `centers`, summed left to right: cdist's bytes. Rows are
    taken in chunks, so no (n, D) difference is made."""
    size = max(1, _CHUNK_ELEMENTS // points.shape[1])
    out = np.empty(len(points))
    for i in range(0, len(points), size):
        diff = points[i:i + size] - (centers if len(centers) == 1 else centers[i:i + size])
        diff *= diff
        total = out[i:i + size]
        total[:] = diff[:, 0]
        for column in diff.T[1:]:
            total += column
    return out


def _in_sample(values: np.ndarray, inverse) -> np.ndarray:
    """Per-row `values` of the distinct rows, one per sample row in sample
    order: gathered through `inverse`, or as given when it is None."""
    return values if inverse is None else values[inverse]


def _kmeans_pp_seed(data: np.ndarray, data_sq: np.ndarray, k: int,
                    rng: np.random.Generator, inverse=None) -> np.ndarray:
    """k-means++ centers of the sample `data[inverse]` (`data` when inverse
    is None), drawn with probability d2 / sum(d2), d2 the exact squared
    distance to the nearest center so far. d2 is kept per row of `data`
    and gathered per sample row for each draw. A row whose GEMV d~
    exceeds d2 + err cannot get nearer; only the rest get exact values."""
    n, dim = data.shape
    draws = n if inverse is None else len(inverse)
    centers = np.empty((k, dim), dtype=np.float64)
    idx = int(rng.integers(draws))
    centers[0] = data[idx if inverse is None else inverse[idx]]
    with np.errstate(over="ignore"):
        d2 = _paired_sq_dists(data, centers[0:1])
        # later totals, seeding's or Lloyd's, are no larger
        if np.isinf(_in_sample(d2, inverse).sum()):
            raise ValueError("squared distances overflow float64")
    for i in range(1, k):
        sample_d2 = _in_sample(d2, inverse)
        total = sample_d2.sum()
        if total > 0.0:
            idx = int(rng.choice(draws, p=sample_d2 / total))
        else:
            # all remaining points coincide with a chosen center
            idx = int(rng.integers(draws))
        if inverse is not None:
            idx = int(inverse[idx])
        centers[i] = data[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            approx, err = _gemm_sq_dists(data, data_sq, centers[i:i + 1],
                                         data_sq[idx:idx + 1])
        near = np.flatnonzero(~(approx[:, 0] > d2 + err))
        for rows in _chunks(near, max(1, _CHUNK_ELEMENTS // dim)):
            d2[rows] = np.minimum(d2[rows], _paired_sq_dists(data[rows], centers[i:i + 1]))
    return centers


def _groups(k: int) -> int:
    """The group count t of the Yinyang bounds, max(1, k // 5): group j
    holds centers j, j + t, j + 2t, ..., so each group is one column of
    every t-wide slice of the centers, and none is empty. Any grouping
    keeps the bounds valid; clustering the seeds into groups prunes a
    little more rows but fits no faster."""
    return max(1, k // 5)


def _group_reduce(ufunc, values: np.ndarray, t: int) -> np.ndarray:
    """`ufunc` (np.minimum or np.maximum) over each group's columns of
    (..., k) `values`, slice by t-wide slice: the (..., t) result, a view
    that overwrites the first t columns of `values`."""
    head = values[..., :t]
    for start in range(t, values.shape[-1], t):
        part = values[..., start:start + t]
        width = part.shape[-1]
        ufunc(head[..., :width], part, out=head[..., :width])
    return head


# The pruning bounds are float32 and every rounding step is one-sided, so a
# bound never exceeds the distance it bounds and no label can be skipped.

def _lower_bounds(dist2: np.ndarray) -> np.ndarray:
    """float32 values <= sqrt(dist2) * (1 - 2**-22).

    `dist2` is `_group_bounds`' d~ - err, which is at most the exact
    squared distance, or a `_paired_sq_dists` value. The relative gap is
    far larger than that sum's own rounding error, so each bound is below
    the exact distance.
    """
    return np.minimum(np.sqrt(dist2) * (1.0 - 2.0 ** -20) - 2.0 ** -149,
                      _F32_MAX).astype(np.float32)


def _group_bounds(g: np.ndarray, point_sq: np.ndarray, err: np.ndarray,
                  best: np.ndarray, t: int) -> np.ndarray:
    """float32 (t, m) bounds, each <= the distance from a row to every
    center of a group but the row's own, `best`, from `_nearest`'s g and
    err and the rows' squared norms, for the t groups of `_groups`.
    Overwrites `g`.

    d~ - err = g + |z|^2 - err <= d - err / 2, a margin far wider than the
    two float64 roundings here, and adding |z|^2, subtracting err, the
    floor at 0 and `_lower_bounds` are monotone, so they may follow each
    group's least g. A row of err = inf gets 0: fmax takes 0 over NaN.
    """
    g[np.arange(len(best)), best] = np.inf
    least = _group_reduce(np.minimum, g, t).astype(np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf
        least += point_sq[:, None]
        least -= err[:, None]
    return _lower_bounds(np.fmax(least, 0.0)).T


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
               variant: Optional[DescriptorVariant] = None,
               inverse=None) -> Codebook:
    """Lloyd's algorithm from a k-means++ start, fully deterministic per seed.

    `data` is clustered as given (no normalization applied here); the
    returned Codebook carries `znorm` (identity when omitted) purely so that
    `quantize_batch` knows how to map raw descriptors into this space. Iteration
    stops when assignments repeat or after max_iter passes. Empty clusters
    are re-seeded to the point farthest from its assigned center, keeping
    all k symbols alive.

    With `inverse`, the sample clustered is `data[inverse]`: `data` holds
    its distinct rows, each named by `inverse` at least once, and the
    result is that of `fit_kmeans(data[inverse], ...)` byte for byte. A
    row's label and distances depend on the row alone, so the seeding's
    screens, the searches and the bounds run once per row of `data`. What
    the sample's order or multiplicities decide runs over the sample: the
    draws, the WCSS, the counts, each mean over its members in sample
    order, the reseeds and the check of k.

    Each pass skips the rows whose label cannot change, using one float32
    lower bound per row and group of centers from the triangle inequality
    (Yinyang k-means, Ding et al., ICML 2015: `_groups` splits the k
    centers into max(1, k // 5) groups), and labels the other rows with
    `_nearest`. The bounds only choose which rows are searched, so labels,
    ties, centers and `wcss_history` are exactly those of plain Lloyd
    passes over every exact distance. Besides `data` and the gathered
    rows of the cluster whose mean is being taken, the work is O(n +
    chunk) memory, n counting the sample's rows: the bounds take 4 bytes
    per row of `data` and group.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if inverse is not None:
        inverse = np.asarray(inverse, dtype=np.intp)
        if inverse.ndim != 1 or not np.array_equal(np.unique(inverse),
                                                   np.arange(len(data))):
            raise ValueError("inverse must name every row of data, and no other")
    if data.size == 0:
        raise EmptyInputError("no data to cluster")
    if k < 1:
        raise ValueError("k must be >= 1")
    n, dim = data.shape
    n_sample = n if inverse is None else len(inverse)
    if k > n_sample:
        raise ValueError(f"k={k} exceeds {n_sample} data points")
    data_sq = _finite_sq_norms(data, "data row")

    centers = _kmeans_pp_seed(data, data_sq, k, np.random.default_rng(seed), inverse)
    t = _groups(k)
    # lower[g, i] <= distance from point i to every center of group g but
    # its own, kept in float32 and rounded down
    lower = np.full((t, n), -np.inf, dtype=np.float32)
    labels = np.full(n, -1, dtype=np.intp)  # -1: every row is relabelled in pass 1
    d2 = np.full(n, np.inf)  # exact squared distance to the own center
    moved = np.zeros(k, dtype=bool)
    shrink = np.zeros(k, dtype=np.float32)
    reach = _reach(data)
    chunk = max(1, _CHUNK_ELEMENTS // max(k, dim))
    prev_labels = None
    history = []
    for _ in range(max_iter):
        # a group's bounds shrink by its largest center move; `shrink` is
        # rebuilt at the end of the pass
        lower -= _group_reduce(np.maximum, shrink, t)[:, None]
        for rows in _chunks(np.flatnonzero(moved[labels]), chunk):
            d2[rows] = _paired_sq_dists(data[rows], centers[labels[rows]])
        # a point keeps its label when every other center is certainly
        # farther; ties and near ties go to `_nearest` with the rest
        radius = _upper_radii(d2)
        centers32, center_sq32 = _float32_centers(centers)
        for rows in _chunks(np.flatnonzero(lower.min(axis=0) <= radius), chunk):
            best, g, err = _nearest(data[rows], data_sq[rows], centers, centers32,
                                    center_sq32)
            relabelled = rows[best != labels[rows]]
            labels[rows] = best
            d2[relabelled] = _paired_sq_dists(data[relabelled], centers[labels[relabelled]])
            lower[:, rows] = _group_bounds(g, data_sq[rows], err, best, t)
            del g  # a chunk's work is not held through the next pass
        history.append(float(_in_sample(d2, inverse).sum()))
        sample_labels = _in_sample(labels, inverse)
        counts = np.bincount(sample_labels, minlength=k)
        # every row of data is in the sample, so its labels repeat when the
        # sample's do
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
        # each cluster's members in sample order, as `sample[labels == j]`
        # has them, as rows of data
        order = np.argsort(sample_labels, kind="stable")
        if inverse is not None:
            order = inverse[order]
        ends = np.cumsum(counts)
        # the mean sums before it divides, so finite points near the
        # float64 limit can average to inf
        with np.errstate(over="ignore"):
            for j in np.flatnonzero(changed & (counts > 0)):
                centers[j] = data[order[ends[j] - counts[j]:ends[j]]].mean(axis=0)
        finite = np.isfinite(centers).all(axis=1)
        if not finite.all():
            raise ValueError(f"the mean of cluster {int(finite.argmin())} overflows float64")
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            claim = _in_sample(d2, inverse).copy()
            for j in empties:
                far = int(claim.argmax())
                centers[j] = data[far if inverse is None else inverse[far]]
                claim[far] = -1.0
        moved = (centers != old).any(axis=1)
        shrink = _shrinks(np.sqrt(np.square(centers - old).sum(axis=1)), reach)

    if znorm is None:
        znorm = ZNormStats.identity(data.shape[1])
    return Codebook(centers=centers, znorm=znorm, seed=seed,
                    variant=variant, wcss_history=history)


def build_codebook(descriptors, k: int = DEFAULT_K, seed: int = 0,
                   variant: Optional[DescriptorVariant] = None) -> tuple[Codebook, list]:
    """Fit z-normalization on the rows of every (n_i, D) array of
    `descriptors`, cluster them in z-space and encode each array: returns
    the Codebook, its k capped at the row count, and each array's (n_i,)
    symbols.

    `len` gives each item's row count before numpy reads its rows
    (`np.asarray`), so an item may compute them only then, as training's
    do. The rows are copied into one preallocated matrix, normalized in
    place and encoded by views: at most one item's own rows are alive
    beside it, and the caller's arrays are never modified.
    """
    items = list(descriptors)
    ends = np.cumsum([len(item) for item in items], dtype=np.intp)
    if not items or ends[-1] == 0:
        raise EmptyInputError("no descriptors")
    for i, item in enumerate(items):
        rows = np.asarray(item, dtype=np.float64)
        if i == 0:
            data = np.empty((ends[-1],) + rows.shape[1:])
            views = np.split(data, ends[:-1])
        if rows.shape != views[i].shape:
            raise ValueError(f"descriptor array {i} has shape {rows.shape}, "
                             f"expected {views[i].shape}")
        views[i][...] = rows
    del items, rows
    stats = fit_znorm(data)
    data -= stats.mean  # (raw - mean) / stddev, in place
    data /= stats.stddev
    cb = fit_kmeans(data, min(k, len(data)), seed, znorm=stats, variant=variant)
    return cb, [_nearest_symbols(cb, z) for z in views]


def quantize_batch(cb: Codebook, vectors: np.ndarray) -> np.ndarray:
    """Nearest-center index of each raw row; ties go to the lowest index.

    A row that is not finite, raw or normalized, raises ValueError.
    """
    z = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if z.shape[-1] != cb.dimension:
        raise ValueError(f"descriptor dimension {z.shape[-1]} != "
                         f"codebook dimension {cb.dimension}")
    if not cb.plain:  # else (v - 0) / 1 == v exactly
        z = (z - cb.znorm.mean) / cb.znorm.stddev
    return _nearest_symbols(cb, z)


def _nearest_symbols(cb: Codebook, z: np.ndarray) -> np.ndarray:
    """quantize_batch of rows already in the codebook's z-space."""
    return _nearest(z, _finite_sq_norms(z, "row"), cb.centers, cb.centers32,
                    cb.center_sq32)[0]


def encode_sequence(cb: Codebook, descriptors, source: str = "") -> np.ndarray:
    """Quantize an (n, D) descriptor stream in order: the (n,) int64
    symbols, one per row.

    An empty stream raises EmptyInputError naming `source`.
    """
    if len(descriptors) == 0:
        raise EmptyInputError(f"{source or 'sequence'}: no descriptors to encode")
    return quantize_batch(cb, descriptors)
