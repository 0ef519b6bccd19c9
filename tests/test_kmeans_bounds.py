"""Property tests for the bound-pruned Lloyd iterations of `fit_kmeans`.

The oracle is the plain Lloyd loop the bounds replaced: every pass takes
the full n x k `cdist` matrix, and each center is the mean of
`data[labels == j]`. The pruned loop must give the same centers (bytes),
the same `wcss_history` and so the same iteration count, from the same
k-means++ start. That start is the cdist-based seeding the screened
`_kmeans_pp_seed` replaced, which must give the same centers and draws.
"""

from fractions import Fraction
from unittest import mock

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
    _row_sq_norms,
    fit_kmeans,
    quantize_batch,
)
from signflow.descriptors import ZNORM_FLOOR, ZNormStats


def cdist_kmeans_pp_seed(data, k, rng):
    """k-means++ with one full cdist pass per new center."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    d2 = cdist(data, centers[0:1], "sqeuclidean").ravel()
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[i] = data[idx]
        d2 = np.minimum(d2, cdist(data, centers[i:i + 1], "sqeuclidean").ravel())
    return centers


def lloyd_oracle(data, k, seed, max_iter=codebook.DEFAULT_MAX_ITER):
    """(centers, wcss_history, reseeds) of plain Lloyd iterations."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centers = cdist_kmeans_pp_seed(data, k, rng)
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
        seeds = cdist_kmeans_pp_seed(points, 4, np.random.default_rng(1))
        assert cb.wcss_history == []
        assert cb.centers.tobytes() == seeds.tobytes()


def assert_seeding_matches(data, k, seed):
    """Same centers and same draws: both generators end in one state."""
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = cdist_kmeans_pp_seed(data, k, want_rng)
    got = _kmeans_pp_seed(data, _row_sq_norms(data), k, got_rng)
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()


class TestSeeding:
    @settings(max_examples=150, deadline=None)
    @given(blobs(), st.data())
    def test_blobs(self, case, data):
        points, seed = case
        k = data.draw(st.integers(1, min(16, points.shape[0])))
        assert_seeding_matches(points, k, seed)

    @settings(max_examples=100, deadline=None)
    @given(grid_points(), st.data())
    def test_duplicate_points_and_ties(self, case, data):
        points, seed = case
        k = data.draw(st.integers(1, points.shape[0]))
        assert_seeding_matches(points, k, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(2, 9),
           st.sampled_from([(0.0, 1e-310), (0.0, 1.0), (1.2e154, 1e150)]))
    def test_all_points_covered_draws_uniformly(self, seed, distinct, extra, where):
        # once every distinct point is a center, d2 sums to 0 and the next
        # centers come from rng.integers; around 1.2e154 every squared norm
        # overflows, so no row can be screened out
        offset, spread = where
        rng = np.random.default_rng(seed)
        sites = offset + rng.normal(size=(distinct, 3)) * spread
        points = sites[rng.integers(distinct, size=20)]
        assert offset == 0.0 or np.isinf(_row_sq_norms(points)).all()
        assert_seeding_matches(points, min(20, distinct + extra), seed)

    @pytest.mark.parametrize("spread", [1e-5, 1e-3])
    def test_gemv_rounding_is_screened_by_its_bound(self, spread):
        # far from the origin with a small spread, d~ rounds by a good part
        # of the distances it screens: without err, rows would be missed
        rng = np.random.default_rng(5)
        points = 1e3 + rng.normal(size=(400, 64)) * spread
        assert_seeding_matches(points, 40, 3)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_several_seeds_on_one_set(self, seed):
        rng = np.random.default_rng(11)
        means = rng.normal(size=(8, 5)) * 6.0
        points = means[rng.integers(8, size=600)] + rng.normal(size=(600, 5))
        points[:50] = points[50]
        assert_seeding_matches(points, 30, seed)


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


def one_center_groups(centers):
    return [np.array([j]) for j in range(len(centers))]


def one_group(centers):
    return [np.arange(len(centers))]


class TestGroupEdges:
    """The edges of the group rule: max(1, k // 5) groups, so one group
    below k = 10; groups of one center; k = n; empty clusters reseeded
    while groups shrink by their largest move. The groups only choose
    which rows are searched, so every grouping must match the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(blobs(max_n=80), st.integers(1, 6))
    def test_few_centers_form_one_group(self, case, k):
        points, seed = case
        k = min(k, points.shape[0])
        seeds = _kmeans_pp_seed(points, _row_sq_norms(points), k,
                                np.random.default_rng(seed))
        assert [g.tolist() for g in codebook._groups(seeds)] == [list(range(k))]
        assert_matches_oracle(points, k, seed)

    @settings(max_examples=100, deadline=None)
    @given(blobs(), st.sampled_from([one_center_groups, one_group]), st.data())
    def test_groups_of_one_center_and_one_group(self, case, grouping, data):
        points, seed = case
        k = data.draw(st.integers(1, min(15, points.shape[0])))
        with mock.patch.object(codebook, "_groups", grouping):
            assert_matches_oracle(points, k, seed)

    @settings(max_examples=60, deadline=None)
    @given(blobs(max_n=60).filter(lambda case: case[0].shape[0] >= 10),
           st.sampled_from([codebook._groups, one_center_groups]))
    def test_k_is_n_with_several_groups(self, case, grouping):
        points, seed = case
        with mock.patch.object(codebook, "_groups", grouping):
            assert_matches_oracle(points, points.shape[0], seed)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
           st.sampled_from([codebook._groups, one_center_groups]), st.data())
    def test_reseeds_with_several_groups(self, seed, distinct, grouping, data):
        # fewer distinct points than centers, k >= 10: several groups, and
        # clusters come up empty and are reseeded
        rng = np.random.default_rng(seed)
        sites = rng.normal(size=(distinct, 3))
        points = sites[rng.integers(distinct, size=60)]
        k = data.draw(st.integers(10, 20))
        with mock.patch.object(codebook, "_groups", grouping):
            assert assert_matches_oracle(points, k, seed) > 0

    @settings(max_examples=100, deadline=None)
    @given(blobs(max_n=150), st.data())
    def test_groups_partition_the_centers(self, case, data):
        points, _ = case
        k = data.draw(st.integers(1, points.shape[0]))
        groups = codebook._groups(points[:k])
        assert 1 <= len(groups) <= max(1, k // 5)
        assert all(g.size for g in groups)
        assert sorted(np.concatenate(groups).tolist()) == list(range(k))


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_fit_scans_only_rows_whose_norm_is_not_finite(self):
        # rows 1 and 4 are finite but their squared norms overflow: they are
        # scanned and passed over, and row 5 is named
        points = np.random.default_rng(2).normal(size=(8, 3))
        points[[1, 4], 0] = 1e200
        points[5, 2] = np.nan
        points[7, 1] = np.inf
        with pytest.raises(ValueError, match=r"non-finite value in data row 5\b"):
            fit_kmeans(points, 3, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_quantize_names_first_bad_row(self, bad):
        cb = Codebook(centers=np.eye(3), znorm=ZNormStats.identity(3), seed=0)
        probes = np.random.default_rng(1).normal(size=(5, 3))
        probes[3, 2] = bad
        with pytest.raises(ValueError, match="row 3"):
            quantize_batch(cb, probes)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_quantize_rejects_overflow_after_znorm(self):
        stats = ZNormStats(mean=np.zeros(2), stddev=np.full(2, ZNORM_FLOOR))
        cb = Codebook(centers=np.zeros((1, 2)), znorm=stats, seed=0)
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
