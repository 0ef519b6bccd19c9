"""Contract of `_nearest`, the float32 GEMM nearest-center search of the
codebook.

Its labels must equal `cdist(...).argmin(axis=1)` on every input, ties to
the lowest index included. On every row, d~ = g + |z|^2 from its screen
must lie within err / 2 of the exact squared distance, together with
cdist's own rounding, and the bounds `fit_kmeans` takes from d~ - err must
never exceed the exact distance, and each finite err must be the
docstring's formula. Exact values come from `Fraction`
arithmetic on the float inputs. Inputs run from below float32's subnormals
to beyond float32's range, and past float64's.
"""

from decimal import Decimal, localcontext
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


def nearest(points, centers):
    """`_nearest` over a codebook of `centers`, from the rows' own norms."""
    cb = codebook_of(centers)
    return _nearest(points, _row_sq_norms(points), cb.centers, cb.centers32,
                    cb.center_sq32)


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


@st.composite
def float32_edge_lookups(draw):
    """(points, centers) near float32's limits, each row at one magnitude
    or with one per value: around 1e19, where 4 (|z| + max|c|)^2 passes
    2**120; around 1e-38 and below, float32's subnormals and values its
    cast takes to 0; and beyond float32's range while finite in float64.
    Points sit on centers, between them, or anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 70))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    scales = [1e-50, 1e-45, 1e-40, 1e-38, 1e-30, 1.0, 1e16, 1e17, 1e18, 1e19,
              1e39, 1e100]

    def rows(count):
        mixed = draw(st.booleans())  # a magnitude per value, not per row
        return rng.normal(size=(count, dim)) * rng.choice(
            scales, size=(count, dim if mixed else 1))

    centers, points = rows(k), rows(n)
    for i in range(n):
        how = rng.integers(3)
        a, b = centers[rng.integers(k)], centers[rng.integers(k)]
        if how == 0:
            points[i] = a
        elif how == 1:
            points[i] = a + (b - a) * 0.5
    return points, centers


def any_lookups(max_dim=8):
    return st.one_of(lookups(max_dim), cancelling_lookups(), exact_lookups(),
                     float32_edge_lookups())


class TestLabels:
    @settings(max_examples=400, deadline=None)
    @given(any_lookups())
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
        got = _nearest(np.empty((0, 3)), np.empty(0), cb.centers, cb.centers32,
                       cb.center_sq32)
        assert [a.shape for a in got] == [(0,), (0, 1), (0,)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6),
           st.sampled_from([1e20, 1e40, 1e154]))
    def test_overflowing_norms_fall_back(self, seed, k, scale):
        # every center is beyond the float32 screen's range (at 1e154 its
        # float64 norm overflows too), so no row can be bounded and each
        # label must come from the exact sum over every center
        rng = np.random.default_rng(seed)
        centers = rng.uniform(1.0, 2.0, size=(k, 4)) * scale
        centers *= rng.choice([-1.0, 1.0], size=(k, 4))
        points = np.vstack([centers[rng.integers(k, size=3)],
                            rng.normal(size=(3, 4)) * scale])
        labels, _, err = nearest(points, centers)
        assert err.tolist() == [np.inf] * len(points)
        assert labels.tolist() == reference(points, centers).tolist()


def assert_bounded_in_range(points, centers, err):
    """err is inf only on rows whose 4 (|z| + max|c|)^2 is near or beyond
    2**120, or not finite: the screen bounds every row within its range."""
    with np.errstate(over="ignore", invalid="ignore"):
        reach = 4.0 * (np.sqrt(_row_sq_norms(points))
                       + np.sqrt(_row_sq_norms(centers).max())) ** 2
    assert not (np.isinf(err) & (reach < 2.0 ** 119)).any()
    assert not (np.isfinite(err) & ~(reach < 2.0 ** 121)).any()


class TestSettledRows:
    """A row is settled when its runner-up g exceeds its threshold; the
    others get exact distances to the centers that may still win."""

    @settings(max_examples=300, deadline=None)
    @given(lookups(), st.sampled_from(["none", "tie", "inf norm", "nan"]))
    def test_equal_count_rule(self, case, extra):
        # labels are cdist's argmin on every row; a row where exactly
        # one g reaches a finite threshold is settled, its label that g's
        points, centers = case
        dim = centers.shape[1]
        if extra == "tie":  # midway between two centers: an exact tie
            row = (centers[:1] + centers[-1:]) * 0.5
        elif extra == "inf norm":  # finite values whose squared norm overflows
            row = np.full((1, dim), 1e200)
        elif extra == "nan":
            row = np.full((1, dim), np.nan)
        if extra != "none":
            points = np.vstack([points, row])
        labels, g, err = nearest(points, centers)
        assert labels.dtype == np.intp and g.dtype == np.float32
        with np.errstate(over="ignore", invalid="ignore"):
            exact = cdist(points, centers, "sqeuclidean")
            limit = g.min(axis=1) + 2.0 * err
        assert labels.tolist() == exact.argmin(axis=1).tolist()
        settled = ((g <= limit[:, None]).sum(axis=1) == 1) & np.isfinite(limit)
        assert labels[settled].tolist() == g[settled].argmin(axis=1).tolist()
        assert_bounded_in_range(points, centers, err)

    def test_each_extra_row_takes_its_path(self, monkeypatch):
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
        points = np.array([[1.0, 0.0], [1e200, 1e200], [np.nan, 0.0], [0.1, 0.0]])
        pairs = []
        real = codebook._paired_sq_dists

        def counting(a, b):
            pairs.append(len(a))
            return real(a, b)

        monkeypatch.setattr(codebook, "_paired_sq_dists", counting)
        labels, g, err = nearest(points, centers)
        monkeypatch.undo()
        # the tie is bounded but not settled; the overflowing norm and the
        # NaN have no bound
        assert np.isfinite(err[[0, 3]]).all() and np.isinf(err[[1, 2]]).all()
        assert labels[[0, 1, 3]].tolist() == reference(points[[0, 1, 3]], centers).tolist()
        # exact sums: the tie's two nearest centers, and every center of the
        # two unbounded rows; the settled row takes none
        assert sum(pairs) == 2 + 3 + 3


def exact(x):
    return Fraction(float(x))


def exact_sq_dists(points, centers):
    return [[sum((exact(a) - exact(b)) ** 2 for a, b in zip(p, c)) for c in centers]
            for p in points]


class TestOneSidedBound:
    """On every row, d~ = g + |z|^2 lies within err / 2 of the exact squared
    distance, with cdist's rounding of it, and the float32 lower bounds
    `fit_kmeans` takes from `max(d~ - err, 0)` stay below the exact
    distance. A row of err = inf, beyond the screen's range, has no d~ and
    gets bound 0."""

    @settings(max_examples=300, deadline=None)
    @given(any_lookups(max_dim=6))
    def test_below_exact_distance(self, case):
        points, centers = case
        _, g, err = nearest(points, centers)
        with np.errstate(over="ignore", invalid="ignore"):  # rows of err = inf
            low = np.fmax(g + _row_sq_norms(points)[:, None] - err[:, None], 0.0)
        bound = codebook._lower_bounds(low)
        for row_low, row_bound, row_d in zip(low, bound, exact_sq_dists(points, centers)):
            for v, b, d in zip(row_low, row_bound, row_d):
                assert exact(v) <= d
                assert b <= 0 or exact(b) ** 2 <= d

    @settings(max_examples=300, deadline=None)
    @given(any_lookups(max_dim=6), st.data())
    def test_group_bounds_below_exact_distance(self, case, data):
        # any group count t, group j holding centers j, j + t, ...: a row's
        # bound for a group stays below its exact distance to each center
        # of that group but its own
        points, centers = case
        best, g, err = nearest(points, centers)
        k = len(centers)
        t = data.draw(st.integers(1, k))
        with np.errstate(over="ignore"):  # norms beyond float64
            point_sq = _row_sq_norms(points)
        bounds = codebook._group_bounds(g, point_sq, err, best, t)
        assert bounds.dtype == np.float32 and bounds.shape == (t, len(points))
        exact_d = exact_sq_dists(points, centers)
        for j in range(t):
            for i, row_d in enumerate(exact_d):
                b = bounds[j, i]
                for c in range(j, k, t):
                    if c != best[i]:
                        assert b <= 0 or exact(b) ** 2 <= row_d[c]

    @settings(max_examples=300, deadline=None)
    @given(any_lookups(max_dim=6))
    def test_bound_covers_both_roundings(self, case):
        # |d~ - d| + |cdist - d| <= err / 2 on every row the screen bounds,
        # and it bounds every row within its range
        points, centers = case
        _, g, err = nearest(points, centers)
        assert_bounded_in_range(points, centers, err)
        with np.errstate(over="ignore"):
            point_sq = _row_sq_norms(points)
            full = cdist(points, centers, "sqeuclidean")
        for row, zsq, e, row_full, row_d in zip(g, point_sq, err, full,
                                                exact_sq_dists(points, centers)):
            if np.isinf(e):
                continue
            for v, w, d in zip(row, row_full, row_d):
                assert abs(exact(v) + exact(zsq) - d) + abs(exact(w) - d) <= exact(e) / 2


def gamma(m, unit):
    return m * unit / (1 - m * unit)


def exact_sqrt(value):
    """sqrt of a non-negative Fraction to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction((Decimal(value.numerator) / Decimal(value.denominator)).sqrt())


def formula_err(point, centers):
    """err as `_nearest`'s docstring defines it, (gamma_(D+2)(u) + 5u +
    gamma_(D+2)(v)) (2 sqrt(X))^2 + (6D + 16) 2**-120 with X = (|z| +
    max|c|)^2, from the exact norms of the float rows."""
    dim = len(point)
    u, v = Fraction(1, 2 ** 24), Fraction(1, 2 ** 53)
    z_norm = exact_sqrt(sum(exact(a) ** 2 for a in point))
    c_norm = exact_sqrt(max(sum(exact(a) ** 2 for a in c) for c in centers))
    return ((gamma(dim + 2, u) + 5 * u + gamma(dim + 2, v)) * 4 * (z_norm + c_norm) ** 2
            + (6 * dim + 16) * Fraction(1, 2 ** 120))


class TestErrorBoundMargin:
    """Each finite err equals the docstring's formula, evaluated in exact
    arithmetic on the rows' exact norms, to within 2**-20 relatively: the
    float32 cast of the centers' squared norms and a few float64 roundings
    move it by about 2**-24. So an err half as large, or twice, fails here,
    while random and cancelling inputs round far below the worst case the
    formula covers and `TestOneSidedBound` would still pass.

    What this cannot show is that the formula bounds the rounding on every
    input: that rests on the proof in `_nearest`'s docstring. A formula
    with too small a constant, coded as written, would pass here."""

    @settings(max_examples=300, deadline=None)
    @given(any_lookups(max_dim=6))
    def test_err_is_the_formula(self, case):
        points, centers = case
        _, _, err = nearest(points, centers)
        assert_bounded_in_range(points, centers, err)
        tolerance = Fraction(1, 2 ** 20)
        for point, e in zip(points, err):
            if np.isfinite(e):
                want = formula_err(point, centers)
                assert abs(exact(e) - want) <= want * tolerance

    @pytest.mark.parametrize("dim", [1, 66, 512])
    def test_err_is_the_formula_at_fixed_rows(self, dim):
        rng = np.random.default_rng(dim)
        centers = rng.normal(size=(5, dim)) * 3.0
        points = np.vstack([centers[:2], rng.normal(size=(4, dim)), np.zeros((1, dim))])
        _, _, err = nearest(points, centers)
        assert np.isfinite(err).all()
        for point, e in zip(points, err):
            want = formula_err(point, centers)
            assert abs(exact(e) - want) <= want * Fraction(1, 2 ** 20)


def all_pairs(points, centers):
    """`_paired_sq_dists` of every (point, center) pair, as an (n, k) matrix."""
    n, k = len(points), len(centers)
    with np.errstate(over="ignore"):  # a too-large term is inf, as in cdist
        return codebook._paired_sq_dists(np.repeat(points, k, axis=0),
                                         np.tile(centers, (n, 1))).reshape(n, k)


class TestExactDistances:
    """`_paired_sq_dists`, the exact sums every lookup is defined by, holds
    cdist's bytes: the same left-to-right sum of squared differences."""

    @settings(max_examples=300, deadline=None)
    @given(exact_lookups())
    def test_bytes_equal_cdist(self, case):
        points, centers = case
        want = cdist(points, centers, "sqeuclidean")
        assert all_pairs(points, centers).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, k, dim", [(700, 60, 66), (3, 1100, 130)])
    def test_chunked_rows_equal_cdist(self, n, k, dim):
        # pairs over many of `_paired_sq_dists`' row chunks, at two widths
        rng = np.random.default_rng(n)
        points, centers = rng.normal(size=(n, dim)), rng.normal(size=(k, dim))
        want = cdist(points, centers, "sqeuclidean")
        assert all_pairs(points, centers).tobytes() == want.tobytes()
