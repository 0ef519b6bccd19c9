"""Contract of `_nearest`, the GEMM nearest-center search of the codebook.

Its labels must equal `cdist(...).argmin(axis=1)` on every input, ties to
the lowest index included, and the distances it hands to `fit_kmeans`
minus their error bound must never exceed the exact squared distance.
Exact values come from `Fraction` arithmetic on the float inputs.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import signflow.codebook as codebook
from signflow.codebook import Codebook, _nearest, _row_sq_norms, quantize_batch
from signflow.descriptors import ZNormStats

# every warning is an error; deprecations are let through because
# hypothesis's failure report itself raises one (a libcst import)
pytestmark = [pytest.mark.filterwarnings("error"),
              pytest.mark.filterwarnings("ignore::DeprecationWarning")]

# 1e154 squared is 1e308: a few such coordinates overflow a norm
MAGNITUDES = [1e-300, 1e-160, 1e-20, 1.0, 1e8, 1e20, 1e150, 1e154]


def codebook_of(centers):
    k, dim = centers.shape
    return Codebook(centers=centers, znorm=ZNormStats.identity(dim), seed=0)


def reference(points, centers):
    return cdist(points, centers, "sqeuclidean").argmin(axis=1)


@st.composite
def lookups(draw, max_dim=8):
    """(points, centers) at one drawn magnitude, with duplicated centers,
    centers 1 ulp apart and points on or between centers."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dim = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, 8))
    n = draw(st.integers(0, 12))
    scale = draw(st.sampled_from(MAGNITUDES))
    centers = rng.normal(size=(k, dim))
    if draw(st.booleans()):
        centers = np.round(centers * 2.0)  # small integers: many exact ties
    centers *= scale
    for j in range(1, k):
        how = rng.integers(3)
        if how == 0:
            centers[j] = centers[rng.integers(j)]
        elif how == 1:
            twin = centers[rng.integers(j)].copy()
            i = rng.integers(dim)
            twin[i] = np.nextafter(twin[i], np.inf if rng.random() < 0.5 else -np.inf)
            centers[j] = twin
    points = rng.normal(size=(n, dim)) * scale
    for i in range(n):
        how = rng.integers(3)
        a, b = centers[rng.integers(k)], centers[rng.integers(k)]
        if how == 0:
            points[i] = a
        elif how == 1:
            points[i] = a + (b - a) * 0.5
    return points, centers


class TestLabels:
    @settings(max_examples=400, deadline=None)
    @given(lookups())
    def test_equal_cdist_argmin(self, case):
        points, centers = case
        got = quantize_batch(codebook_of(centers), points)
        assert got.tolist() == reference(points, centers).tolist()

    def test_equidistant_rows_take_the_lowest_index(self):
        centers = np.array([[0.0], [2.0], [2.0], [4.0]])
        points = np.array([[1.0], [2.0], [3.0], [5.0]])
        assert quantize_batch(codebook_of(centers), points).tolist() == [0, 1, 1, 3]

    def test_one_center_and_no_rows(self):
        cb = codebook_of(np.array([[1.0, -2.0, 3.0]]))
        assert quantize_batch(cb, np.full((4, 3), 7.0)).tolist() == [0] * 4
        got = _nearest(np.empty((0, 3)), np.empty(0), cb.centers, cb.center_sq)
        assert [a.shape for a in got] == [(0,), (0, 1), (0,)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
    def test_overflowing_norms_fall_back(self, seed, k):
        # every center has an overflowing norm, so no row can be proven by
        # the GEMM and each must come from cdist
        rng = np.random.default_rng(seed)
        centers = rng.uniform(1.0, 2.0, size=(k, 4)) * 1e154
        centers *= rng.choice([-1.0, 1.0], size=(k, 4))
        points = np.vstack([centers[rng.integers(k, size=3)],
                            rng.normal(size=(3, 4)) * 1e154])
        cb = codebook_of(centers)
        labels, dist2, err = _nearest(points, _row_sq_norms(points),
                                      cb.centers, cb.center_sq)
        assert np.isinf(cb.center_sq).all()
        assert err.tolist() == [0.0] * len(points)
        assert dist2.tobytes() == cdist(points, centers, "sqeuclidean").tobytes()
        assert labels.tolist() == reference(points, centers).tolist()


def exact(x):
    return Fraction(float(x))


def exact_sq_dists(points, centers):
    return [[sum((exact(a) - exact(b)) ** 2 for a, b in zip(p, c)) for c in centers]
            for p in points]


@st.composite
def cancelling_lookups(draw):
    """Many columns around one far offset: |z|^2, z.c and |c|^2 nearly
    cancel, so the GEMM's rounding is as large as it gets."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dim = draw(st.sampled_from([16, 64, 256, 512]))
    spread = draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    offset = rng.normal(size=dim) * 1e3
    centers = offset + rng.normal(size=(draw(st.integers(2, 4)), dim)) * spread
    points = offset + rng.normal(size=(draw(st.integers(1, 4)), dim)) * spread
    return points, centers


class TestOneSidedBound:
    """On rows the GEMM settled, `dist2 - err` never exceeds the exact
    squared distance; on every row the float32 lower bounds `fit_kmeans`
    takes from `max(dist2 - err, 0)` stay below the exact distance."""

    @settings(max_examples=300, deadline=None)
    @given(lookups(max_dim=6))
    def test_below_exact_distance(self, case):
        points, centers = case
        cb = codebook_of(centers)
        _, dist2, err = _nearest(points, _row_sq_norms(points), cb.centers,
                                 cb.center_sq)
        with np.errstate(invalid="ignore"):  # inf - inf in fallback rows
            low = np.maximum(dist2 - err[:, None], 0.0)
        bound = codebook._lower_bounds(low)
        for e, row_low, row_bound, row_d in zip(err, low, bound,
                                                exact_sq_dists(points, centers)):
            for v, b, d in zip(row_low, row_bound, row_d):
                if e > 0.0:  # settled; else cdist's value, which may round up
                    assert exact(v) <= d
                assert b <= 0 or exact(b) ** 2 <= d

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(lookups(max_dim=6), cancelling_lookups()), st.data())
    def test_group_bounds_below_exact_distance(self, case, data):
        # any grouping: a row's bound for a group stays below its exact
        # distance to each center of that group but its own
        points, centers = case
        cb = codebook_of(centers)
        best, dist2, err = _nearest(points, _row_sq_norms(points), cb.centers,
                                    cb.center_sq)
        k = len(centers)
        group = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=k,
                                            max_size=k)))
        groups = [np.flatnonzero(group == g) for g in np.unique(group)]
        with np.errstate(invalid="ignore"):  # inf - inf in fallback rows
            bounds = codebook._group_bounds(dist2, err, best, groups)
        assert bounds.dtype == np.float32 and bounds.shape == (len(groups), len(points))
        exact_d = exact_sq_dists(points, centers)
        for g, cols in enumerate(groups):
            for i, row_d in enumerate(exact_d):
                b = bounds[g, i]
                for j in cols:
                    if j != best[i]:
                        assert b <= 0 or exact(b) ** 2 <= row_d[j]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(lookups(max_dim=6), cancelling_lookups()))
    def test_bound_covers_both_roundings(self, case):
        # err covers |d~ - d| + |cdist - d| on every settled row
        points, centers = case
        cb = codebook_of(centers)
        _, dist2, err = _nearest(points, _row_sq_norms(points), cb.centers,
                                 cb.center_sq)
        full = cdist(points, centers, "sqeuclidean")
        for row, e, row_full, row_d in zip(dist2, err, full,
                                           exact_sq_dists(points, centers)):
            if e == 0.0:
                assert row.tobytes() == row_full.tobytes()
                continue
            for v, w, d in zip(row, row_full, row_d):
                assert abs(exact(v) - d) + abs(exact(w) - d) <= exact(e)


@st.composite
def exact_lookups(draw):
    """(points, centers) whose rows each take their own magnitude, from
    subnormal to overflowing, with tied, duplicated and shared rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 130))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    scales = [1e-320, 1e-310, 1e-160, 1.0, 1e150, 1e154, 1e200, 1e300]
    centers = rng.normal(size=(k, dim)) * rng.choice(scales, size=(k, 1))
    points = rng.normal(size=(n, dim)) * rng.choice(scales, size=(n, 1))
    if draw(st.booleans()):
        centers = np.round(centers)  # small integers: exact ties
        points = np.round(points)
    for i in range(n):
        how = rng.integers(3)
        if how == 0:
            points[i] = centers[rng.integers(k)]
        elif how == 1:
            points[i] = -centers[rng.integers(k)]
    if k > 1 and draw(st.booleans()):
        centers[1] = centers[0]
    return points, centers


class TestExactDistances:
    """`_sq_dists`, the exact distances every lookup is defined by, holds
    cdist's bytes: the same left-to-right sum of squared differences."""

    @settings(max_examples=300, deadline=None)
    @given(exact_lookups())
    def test_bytes_equal_cdist(self, case):
        points, centers = case
        want = cdist(points, centers, "sqeuclidean")
        assert codebook._sq_dists(points, centers).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, k, dim", [(700, 60, 66), (3, 1100, 130)])
    def test_chunked_rows_equal_cdist(self, n, k, dim):
        # more rows than one chunk holds, and one row past a chunk alone
        rng = np.random.default_rng(n)
        points, centers = rng.normal(size=(n, dim)), rng.normal(size=(k, dim))
        want = cdist(points, centers, "sqeuclidean")
        assert codebook._sq_dists(points, centers).tobytes() == want.tobytes()
