"""Property tests for the bound-pruned Lloyd iterations of `fit_kmeans`.

The oracle is the plain Lloyd loop the bounds replaced: every pass takes
the full n x k `cdist` matrix, and each center is the mean of
`data[labels == j]`. The pruned loop must give the same centers (bytes),
the same `wcss_history` and so the same iteration count, from the same
k-means++ start.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import signflow.codebook as codebook
from signflow.codebook import (
    Codebook,
    _kmeans_pp_seed,
    _paired_sq_dists,
    fit_kmeans,
    quantize_batch,
)
from signflow.descriptors import ZNORM_FLOOR, ZNormStats


def lloyd_oracle(data, k, seed, max_iter=codebook.DEFAULT_MAX_ITER):
    """(centers, wcss_history, reseeds) of plain Lloyd iterations."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seed(data, k, rng)
    rows = np.arange(n)
    prev_labels = None
    history = []
    reseeds = 0
    for _ in range(max_iter):
        dist2 = cdist(data, centers, "sqeuclidean")
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
                reseeds += 1
    return centers, history, reseeds


def assert_matches_oracle(data, k, seed, max_iter=codebook.DEFAULT_MAX_ITER):
    centers, history, reseeds = lloyd_oracle(data, k, seed, max_iter)
    cb = fit_kmeans(data, k, seed, max_iter)
    assert cb.wcss_history == history
    assert cb.centers.tobytes() == centers.tobytes()
    return reseeds


@st.composite
def blobs(draw, max_n=120, max_dim=6):
    """Gaussian blobs at a drawn scale: (data, seed)."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, max_dim))
    n_blobs = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(n_blobs, dim)) * 4.0
    data = means[rng.integers(n_blobs, size=n)] + rng.normal(size=(n, dim))
    return data * scale, seed


@st.composite
def grid_points(draw):
    """Small-integer coordinates: many distances tie exactly."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(1, 150))
    dim = draw(st.integers(1, 4))
    span = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    return rng.integers(-span, span + 1, size=(n, dim)).astype(np.float64), seed


class TestMatchesLloyd:
    @settings(max_examples=150, deadline=None)
    @given(blobs(), st.data())
    def test_blobs(self, case, data):
        points, seed = case
        k = data.draw(st.integers(1, min(12, points.shape[0])))
        assert_matches_oracle(points, k, seed)

    @settings(max_examples=150, deadline=None)
    @given(grid_points(), st.data())
    def test_integer_grid_ties(self, case, data):
        points, seed = case
        k = data.draw(st.integers(1, min(15, points.shape[0])))
        assert_matches_oracle(points, k, seed)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=3, max_size=12),
           st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
    @example([4, 2, 7, 4, 5, 0], 2, 868)  # a point ties two centers mid-run
    def test_integer_line_ties(self, values, k, seed):
        assert_matches_oracle(np.array(values, dtype=np.float64)[:, None], k, seed)

    @settings(max_examples=100, deadline=None)
    @given(blobs(max_n=60), st.data())
    def test_duplicate_points(self, case, data):
        points, seed = case
        rng = np.random.default_rng(seed)
        copies = rng.integers(1, 4, size=points.shape[0])
        points = rng.permutation(np.repeat(points, copies, axis=0))
        k = data.draw(st.integers(1, min(12, points.shape[0])))
        assert_matches_oracle(points, k, seed)

    @settings(max_examples=60, deadline=None)
    @given(blobs(max_n=50))
    def test_k_is_one(self, case):
        points, seed = case
        assert_matches_oracle(points, 1, seed)

    @settings(max_examples=60, deadline=None)
    @given(blobs(max_n=50))
    def test_k_is_n(self, case):
        points, seed = case
        assert_matches_oracle(points, points.shape[0], seed)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.data())
    def test_empty_clusters_reseeded(self, seed, distinct, data):
        # fewer distinct points than centers: some cluster must come up
        # empty in the first pass and be reseeded
        rng = np.random.default_rng(seed)
        sites = rng.normal(size=(distinct, 2))
        points = sites[rng.integers(distinct, size=40)]
        k = data.draw(st.integers(distinct + 1, 12))
        assert assert_matches_oracle(points, k, seed) > 0

    @settings(max_examples=80, deadline=None)
    @given(blobs(), st.integers(0, 1), st.data())
    def test_max_iter_zero_and_one(self, case, max_iter, data):
        points, seed = case
        k = data.draw(st.integers(1, min(8, points.shape[0])))
        assert_matches_oracle(points, k, seed, max_iter=max_iter)

    def test_no_pass_leaves_the_seeds(self):
        points = np.random.default_rng(0).normal(size=(30, 3))
        cb = fit_kmeans(points, 4, seed=1, max_iter=0)
        seeds = _kmeans_pp_seed(points, 4, np.random.default_rng(1))
        assert cb.wcss_history == []
        assert cb.centers.tobytes() == seeds.tobytes()


class TestPairedDistances:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 140),
           st.sampled_from([1e-8, 1.0, 1e8]))
    def test_bytes_equal_cdist(self, seed, n, dim, scale):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim)) * scale
        centers = rng.normal(size=(7, dim)) * scale
        labels = rng.integers(7, size=n)
        full = cdist(points, centers, "sqeuclidean")
        got = _paired_sq_dists(points, centers[labels])
        assert got.tobytes() == full[np.arange(n), labels].tobytes()


class TestPruning:
    def test_most_rows_skip_cdist(self, monkeypatch):
        # well-separated blobs: after the first passes few points are near a
        # second center, so most rows never reach `_nearest` again
        rng = np.random.default_rng(4)
        means = rng.normal(size=(20, 8)) * 10.0
        points = means[rng.integers(20, size=4000)] + rng.normal(size=(4000, 8))
        rows = []
        real = codebook._nearest

        def counting(a, *args):
            rows.append(a.shape[0])
            return real(a, *args)

        monkeypatch.setattr(codebook, "_nearest", counting)
        cb = fit_kmeans(points, 20, seed=3)
        monkeypatch.undo()
        assert_matches_oracle(points, 20, 3)
        passes = len(cb.wcss_history)
        assert passes > 2
        # the first pass has no bounds yet, so every row is searched once
        assert sum(rows) >= points.shape[0]
        assert sum(rows) < 0.5 * passes * points.shape[0]


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_names_first_bad_row(self, bad):
        points = np.random.default_rng(0).normal(size=(10, 3))
        points[6, 1] = bad
        points[8, 0] = bad
        with pytest.raises(ValueError, match="row 6"):
            fit_kmeans(points, 3, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_quantize_names_first_bad_row(self, bad):
        cb = Codebook(centers=np.eye(3), k=3, znorm=ZNormStats.identity(3), seed=0)
        probes = np.random.default_rng(1).normal(size=(5, 3))
        probes[3, 2] = bad
        with pytest.raises(ValueError, match="row 3"):
            quantize_batch(cb, probes)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_quantize_rejects_overflow_after_znorm(self):
        stats = ZNormStats(mean=np.zeros(2), stddev=np.full(2, ZNORM_FLOOR))
        cb = Codebook(centers=np.zeros((1, 2)), k=1, znorm=stats, seed=0)
        with pytest.raises(ValueError, match="row 1"):
            quantize_batch(cb, np.array([[0.0, 0.0], [1e308, 0.0]]))


def exact(x):
    return Fraction(float(x))


class TestOneSidedRounding:
    """Each rounding step of the float32 bounds errs on the safe side."""

    magnitudes = st.sampled_from([0.0, 1e-300, 1e-44, 1e-39, 1e-20, 1e-3,
                                  1.0, 7.0, 1e20, 1e38, 1e39, 1e300])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), magnitudes)
    def test_lower_bounds_below_distance(self, seed, scale):
        d2 = np.random.default_rng(seed).random(64) * scale
        d2[0] = scale
        bound = codebook._lower_bounds(d2)
        assert bound.dtype == np.float32
        gap = (1 - Fraction(1, 2 ** 22)) ** 2
        for b, v in zip(bound, d2):
            assert b <= 0 or exact(b) ** 2 <= exact(v) * gap

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), magnitudes)
    def test_radii_above_distance(self, seed, scale):
        d2 = np.random.default_rng(seed).random(64) * scale
        d2[0] = scale
        radius = codebook._upper_radii(d2)
        assert radius.dtype == np.float32
        for r, v in zip(radius, d2):
            assert np.isinf(r) or exact(r) ** 2 >= exact(v)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 1e-40, 1e-6, 1.0, 3.0, 1e6, 1e30]),
           st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 1.0]))
    def test_shrunk_bounds_stay_below(self, seed, reach, step_scale):
        rng = np.random.default_rng(seed)
        bounds = (rng.random(256) * 2 - 1).astype(np.float32) * np.float32(reach)
        bounds[:2] = [np.inf, -np.inf]
        step = rng.random(256) * step_scale * reach
        shrunk = bounds - codebook._shrinks(step, reach)
        factor = 1 + Fraction(1, 2 ** 21)
        for got, b, s in zip(shrunk, bounds, step):
            if np.isinf(b):
                assert got == b
            else:
                assert exact(got) <= max(0, exact(b) - exact(s) * factor)

    @settings(max_examples=100, deadline=None)
    @given(blobs(max_n=40))
    def test_reach_covers_every_distance(self, case):
        points, _ = case
        means = np.array([points[:m].mean(axis=0) for m in range(1, len(points) + 1)])
        far = cdist(points, np.vstack([points, means])).max()
        assert codebook._reach(points) >= far
