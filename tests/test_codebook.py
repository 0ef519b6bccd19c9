"""Tests for K-means codebooks and sequence encoding.

Oracles are deliberately independent: the 4-point example is checked against
an exhaustive search over every 2-partition, and quantize_batch against a
scalar linear scan that accumulates squared differences left to right.
"""

from itertools import product

import numpy as np
import pytest

from signflow.codebook import (
    Codebook,
    build_codebook,
    encode_sequence,
    fit_kmeans,
    quantize_batch,
)
from signflow.descriptors import DescriptorVariant, ZNormStats
from signflow.skeleton import EmptyInputError


def brute_force_two_partition(points):
    """Best 2-cluster objective by enumerating all assignments of the points."""
    pts = np.asarray(points, dtype=np.float64)
    best = (np.inf, None)
    for assign in product([0, 1], repeat=len(pts)):
        assign = np.array(assign)
        if assign.min() == assign.max():
            continue  # one empty cluster
        cost = 0.0
        centers = []
        for c in (0, 1):
            members = pts[assign == c]
            mu = members.mean(axis=0)
            centers.append(mu)
            cost += ((members - mu) ** 2).sum()
        if cost < best[0]:
            best = (cost, sorted(float(c) for c in np.atleast_1d(np.squeeze(centers))))
    return best


def scan_nearest(vec, centers):
    """Scalar linear-scan nearest neighbor, ties to the lowest index."""
    best_j, best_d = 0, None
    for j, c in enumerate(centers):
        d = 0.0
        for a, b in zip(vec, c):
            d += (a - b) ** 2
        if best_d is None or d < best_d:
            best_j, best_d = j, d
    return best_j


class TestFitKMeans:
    def test_exact_cover_k_equals_n(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 3)) * 4.0
        cb = fit_kmeans(pts, k=5, seed=1)
        # every point is its own center, objective zero
        got = set(map(tuple, np.round(cb.centers, 12)))
        want = set(map(tuple, np.round(pts, 12)))
        assert got == want
        assert cb.wcss_history[-1] == 0.0

    def test_k1_center_is_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 6))
        cb = fit_kmeans(pts, k=1, seed=0)
        np.testing.assert_allclose(cb.centers[0], pts.mean(axis=0), rtol=0, atol=1e-15)

    def test_four_point_line_matches_brute_force(self):
        pts = np.array([0.0, 0.1, 10.0, 10.1])
        cost, centers = brute_force_two_partition(pts)
        assert centers == [0.05, 10.05]  # oracle sanity
        cb = fit_kmeans(pts, k=2, seed=3)
        assert sorted(cb.centers.ravel().tolist()) == [0.05, 10.05]
        np.testing.assert_allclose(cb.wcss_history[-1], cost, rtol=1e-12)

    def test_wcss_non_increasing(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            pts = rng.normal(size=(80, 4)) + rng.integers(0, 3, size=(80, 1)) * 5.0
            cb = fit_kmeans(pts, k=6, seed=trial)
            h = np.array(cb.wcss_history)
            assert np.all(np.diff(h) <= 1e-9 * np.maximum(h[:-1], 1.0))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(120, 5))
        a = fit_kmeans(pts, k=7, seed=11)
        b = fit_kmeans(pts, k=7, seed=11)
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.wcss_history == b.wcss_history

    def test_different_seeds_may_differ_but_stay_valid(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(60, 2))
        for seed in range(5):
            cb = fit_kmeans(pts, k=4, seed=seed)
            assert cb.centers.shape == (4, 2)
            assert np.all(np.isfinite(cb.centers))

    def test_empty_cluster_reseeded_keeps_k_alive(self):
        # two tight blobs, k=4: at least one duplicate-seeded center must be
        # rescued by the farthest-point rule
        rng = np.random.default_rng(5)
        blob_a = rng.normal(scale=0.01, size=(30, 2))
        blob_b = rng.normal(scale=0.01, size=(30, 2)) + 100.0
        pts = np.vstack([blob_a, blob_b])
        for seed in range(8):
            cb = fit_kmeans(pts, k=4, seed=seed)
            labels = quantize_batch(cb, pts)
            assert len(set(labels.tolist())) == 4

    def test_identical_points_valid(self):
        pts = np.zeros((10, 3))
        cb = fit_kmeans(pts, k=2, seed=0)
        assert cb.wcss_history[-1] == 0.0

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            fit_kmeans(np.empty((0, 3)), k=2, seed=0)
        with pytest.raises(ValueError):
            fit_kmeans(np.zeros((5, 2)), k=0, seed=0)
        with pytest.raises(ValueError):
            fit_kmeans(np.zeros((5, 2)), k=6, seed=0)

    @pytest.mark.parametrize("big, k", [(1e300, 3), (1e154, 3), (1e300, 1)])
    def test_overflowing_distances_fail_by_name(self, big, k):
        # at 1e300 the squared distances overflow, at 1e154 only their
        # total does; k = 1 draws no seed from them but sums them as WCSS
        data = np.array([[0.0], [big], [-big], [5.0]])
        with pytest.raises(ValueError, match="squared distances overflow"):
            fit_kmeans(data, k, 0)

    @pytest.mark.parametrize("data, k, cluster", [
        ([[1e308], [1e308]], 1, 0),
        ([[1e308, 0.0], [1e308, 1.0], [1e308, 10.0], [1e308, 11.0]], 2, 0),
        # cluster 0 holds the lone point, whose mean is the point itself
        ([[-1e308, 3.0], [-1e308, 3.0], [-1e308, 4.0]], 2, 1),
    ])
    def test_overflowing_cluster_mean_fails_by_name(self, data, k, cluster):
        # the distances are small, but the sum a mean takes is not finite
        with pytest.raises(ValueError, match=f"the mean of cluster {cluster} overflows float64"):
            fit_kmeans(np.array(data), k, 0)


class TestQuantize:
    def make_codebook(self, rng, k=9, d=5):
        centers = rng.normal(size=(k, d)) * 3.0
        return Codebook(centers=centers, znorm=ZNormStats.identity(d), seed=0)

    def test_center_maps_to_itself(self):
        rng = np.random.default_rng(6)
        cb = self.make_codebook(rng)
        np.testing.assert_array_equal(quantize_batch(cb, cb.centers), np.arange(cb.k))

    def test_tie_breaks_to_lowest_index(self):
        centers = np.array([[0.0], [2.0], [4.0]])
        cb = Codebook(centers=centers, znorm=ZNormStats.identity(1), seed=0)
        # 1.0 is equidistant from 0 and 2, 3.0 from 2 and 4
        assert quantize_batch(cb, np.array([[1.0], [3.0]])).tolist() == [0, 1]

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(7)
        cb = self.make_codebook(rng, k=12, d=4)
        probes = rng.normal(size=(500, 4)) * 3.0
        assert quantize_batch(cb, probes).tolist() == \
            [scan_nearest(probe, cb.centers) for probe in probes]

    def test_applies_znorm_before_lookup(self):
        # centers live in z-space; a raw probe equal to the de-normalized
        # center must map back to that center
        rng = np.random.default_rng(8)
        stats = ZNormStats(mean=rng.normal(size=3), stddev=rng.uniform(0.5, 2.0, size=3))
        centers = rng.normal(size=(6, 3)) * 4.0
        cb = Codebook(centers=centers, znorm=stats, seed=0)
        raw = centers * stats.stddev + stats.mean
        np.testing.assert_array_equal(quantize_batch(cb, raw), np.arange(6))

    def test_accepts_a_single_row(self):
        rng = np.random.default_rng(9)
        cb = self.make_codebook(rng, k=4, d=6)
        assert quantize_batch(cb, cb.centers[2]).tolist() == [2]

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        cb = self.make_codebook(rng, k=4, d=6)
        with pytest.raises(ValueError):
            quantize_batch(cb, np.zeros(5))


class TestEncodeSequence:
    def make_hd_codebook(self, rng, k=5):
        centers = rng.normal(size=(k, 6))
        return Codebook(centers=centers, znorm=ZNormStats.identity(6),
                        seed=0, variant=DescriptorVariant.HD)

    def test_constant_stream(self):
        rng = np.random.default_rng(11)
        cb = self.make_hd_codebook(rng)
        seq = encode_sequence(cb, np.tile(cb.centers[3], (7, 1)))
        assert seq.dtype == np.int64 and seq.shape == (7,)
        np.testing.assert_array_equal(seq, 3)

    def test_elementwise_matches_quantize(self):
        rng = np.random.default_rng(12)
        cb = self.make_hd_codebook(rng, k=8)
        descs = rng.normal(size=(40, 6))
        seq = encode_sequence(cb, descs, source="probe")
        for d, s in zip(descs, seq):
            assert quantize_batch(cb, d).tolist() == [s]

    def test_empty_rejected(self):
        rng = np.random.default_rng(13)
        cb = self.make_hd_codebook(rng)
        with pytest.raises(EmptyInputError, match="^sequence: "):
            encode_sequence(cb, np.empty((0, 6)))
        with pytest.raises(EmptyInputError, match="^seq_00007.csv: "):
            encode_sequence(cb, np.empty((0, 6)), source="seq_00007.csv")

    def test_variant_mismatch_rejected(self):
        # rows of another variant's dimension: RBPD rows into an HD codebook
        rng = np.random.default_rng(14)
        cb = self.make_hd_codebook(rng)
        with pytest.raises(ValueError):
            encode_sequence(cb, np.zeros((3, DescriptorVariant.RBPD.dimension)))

    def test_symbols_below_k(self):
        rng = np.random.default_rng(15)
        cb = self.make_hd_codebook(rng, k=4)
        seq = encode_sequence(cb, rng.normal(size=(100, 6)) * 10)
        assert seq.max() < 4
        assert seq.min() >= 0


class TestBuildCodebook:
    def test_znorm_fitted_and_applied(self):
        rng = np.random.default_rng(16)
        data = rng.normal(loc=5.0, scale=3.0, size=(300, 6))
        kept = data.copy()
        cb, symbols = build_codebook([data[:120], data[120:]], k=10, seed=2,
                                     variant=DescriptorVariant.HD)
        assert cb.variant is DescriptorVariant.HD
        np.testing.assert_allclose(cb.znorm.mean, data.mean(axis=0))
        # the caller's arrays are not normalized in place
        np.testing.assert_array_equal(data, kept)
        # each array's symbols are those of encoding it from raw rows
        assert [s.dtype for s in symbols] == [np.int64, np.int64]
        np.testing.assert_array_equal(symbols[0], encode_sequence(cb, data[:120]))
        np.testing.assert_array_equal(symbols[1], encode_sequence(cb, data[120:]))
        assert np.concatenate(symbols).max() < 10

    def test_k_capped_at_row_count(self):
        data = np.random.default_rng(17).normal(size=(5, 6))
        cb, symbols = build_codebook([data], k=10, seed=0)
        assert cb.k == 5
        assert sorted(symbols[0].tolist()) == [0, 1, 2, 3, 4]

    def test_build_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            build_codebook([np.empty((0, 6))], k=3, seed=0)
        with pytest.raises(EmptyInputError):
            build_codebook(iter([]), k=3, seed=0)
