"""Tests for the posture branch.

Independent oracles: flood-fill connected components (plain BFS, no scipy),
scalar (r, theta) re-binning for shape context, a segment-walking
arc-length oracle for contour sampling, and hand-counted BoW histograms.
"""

import math

import numpy as np
import pytest

from signflow.codebook import Codebook, fit_kmeans, quantize_batch
from signflow.descriptors import ZNormStats
from signflow.posture import (
    CONTOUR_POINTS,
    INNER_RADIUS,
    N_ANGLE_BINS,
    N_RINGS,
    OUTER_RADIUS,
    PATCH,
    RING_EDGES,
    SC_DIM,
    HandRegion,
    HandSide,
    _largest_component,
    encode_video_bow,
    frame_shape_contexts,
    posture_response,
    sample_contour,
    shape_context_rows,
    trace_boundary,
    train_posture_classifier,
)
from signflow.skeleton import EmptyInputError


def flood_fill_components(mask):
    """8-connected components by BFS; returns list of pixel sets."""
    mask = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(mask)
    comps = []
    h, w = mask.shape
    for r0 in range(h):
        for c0 in range(w):
            if mask[r0, c0] and not seen[r0, c0]:
                stack = [(r0, c0)]
                seen[r0, c0] = True
                comp = set()
                while stack:
                    r, c = stack.pop()
                    comp.add((r, c))
                    for dr in (-1, 0, 1):
                        for dc in (-1, 0, 1):
                            rr, cc = r + dr, c + dc
                            if (0 <= rr < h and 0 <= cc < w
                                    and mask[rr, cc] and not seen[rr, cc]):
                                seen[rr, cc] = True
                                stack.append((rr, cc))
                comps.append(comp)
    return comps


def oracle_bin_index(dx, dy):
    """Scalar re-derivation of the 49-bin index; None = discarded."""
    r = math.hypot(dx, dy)
    if r >= OUTER_RADIUS:
        return None
    if r < INNER_RADIUS:
        return 0
    theta = math.atan2(dy, dx) % (2 * math.pi)
    abin = min(int(theta / (2 * math.pi / N_ANGLE_BINS)), N_ANGLE_BINS - 1)
    ring = 0
    while ring < N_RINGS - 1 and r >= INNER_RADIUS * (OUTER_RADIUS / INNER_RADIUS) ** ((ring + 1) / N_RINGS):
        ring += 1
    return 1 + ring * N_ANGLE_BINS + abin


def disk_mask(size=PATCH, radius=20.0, center=None):
    c = (size - 1) / 2 if center is None else center
    yy, xx = np.mgrid[0:size, 0:size]
    return (xx - c) ** 2 + (yy - c) ** 2 <= radius ** 2


class TestLargestComponent:
    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(40)
        for trial in range(15):
            mask = rng.random((30, 30)) < 0.35
            got = _largest_component(mask[None])[0]
            comps = flood_fill_components(mask)
            if not comps:
                assert not got.any()
                continue
            best = max(comps, key=len)
            got_set = set(map(tuple, np.argwhere(got)))
            assert len(got_set) == len(best)
            # same component (when unique-sized) per the flood oracle
            sizes = sorted(len(c) for c in comps)
            if sizes.count(len(best)) == 1:
                assert got_set == best

    def test_size_tie_keeps_raster_first(self):
        mask = np.zeros((10, 10), bool)
        mask[1, 1:4] = True   # first in raster order
        mask[5, 5:8] = True
        got = _largest_component(mask[None])[0]
        assert got[1, 1:4].all() and not got[5, 5:8].any()


def traced(mask):
    """The one path of a single-mask stack."""
    paths, length = trace_boundary(mask[None])
    return paths[0, :length[0]]


class TestTraceBoundary:
    def test_two_by_two_block_clockwise(self):
        m = np.zeros((5, 5), bool)
        m[1:3, 1:3] = True
        np.testing.assert_array_equal(traced(m),
                                      [[1, 1], [1, 2], [2, 2], [2, 1]])

    def test_single_pixel(self):
        m = np.zeros((5, 5), bool)
        m[2, 2] = True
        assert traced(m).shape == (1, 2)

    def test_path_is_closed_foreground_adjacent(self):
        rng = np.random.default_rng(44)
        stack = np.zeros((10, 20, 20), bool)
        for m in stack:
            r, c = rng.integers(4, 14, size=2)
            m[r:r + rng.integers(2, 6), c:c + rng.integers(2, 6)] = True
        paths, length = trace_boundary(stack)
        for m, padded, n in zip(stack, paths, length):
            path = padded[:n]
            assert all(m[pr, pc] for pr, pc in path)
            for i in range(n):
                d = np.abs(path[i] - path[(i + 1) % n]).max()
                assert d == 1

    def test_starts_topmost_leftmost(self):
        m = disk_mask(radius=10)
        path = traced(m)
        fg = np.argwhere(m)
        assert tuple(path[0]) == tuple(fg[0])


class TestSampleContour:
    def test_square_four_points(self):
        m = np.zeros((PATCH, PATCH), bool)
        m[10:20, 10:20] = True
        stack, kept = sample_contour(m[None], m=4)
        assert stack.shape == (1, 4, 2) and kept.tolist() == [0]
        pts = stack[0]
        gaps = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
        np.testing.assert_allclose(gaps, 9.0, atol=1e-9)

    def test_matches_arc_length_oracle(self):
        m = disk_mask(radius=17.5)
        pts = sample_contour(m[None], m=CONTOUR_POINTS)[0][0]
        # oracle: walk the polygon by hand to each target arc length
        path = traced(m)[:, ::-1].astype(float)
        closed = np.vstack([path, path[:1]])
        seglen = [math.hypot(*(closed[i + 1] - closed[i])) for i in range(len(path))]
        perimeter = sum(seglen)
        for j in range(CONTOUR_POINTS):
            target = j * perimeter / CONTOUR_POINTS
            acc = 0.0
            for i, L in enumerate(seglen):
                if acc + L > target or i == len(seglen) - 1:
                    t = (target - acc) / L if L > 0 else 0.0
                    want = closed[i] + t * (closed[i + 1] - closed[i])
                    break
                acc += L
            np.testing.assert_allclose(pts[j], want, atol=1e-9)

    def degenerate_is_left_out(self, tiny):
        disk = disk_mask(radius=10)
        pts, kept = sample_contour(np.stack([disk, tiny, disk]))
        assert kept.tolist() == [0, 2]
        want = sample_contour(disk[None])[0][0]
        np.testing.assert_array_equal(pts, [want, want])

    def test_single_pixel_degenerate(self):
        m = np.zeros((PATCH, PATCH), bool)
        m[30, 30] = True
        self.degenerate_is_left_out(m)

    def test_two_pixel_degenerate(self):
        m = np.zeros((PATCH, PATCH), bool)
        m[30, 30:32] = True
        self.degenerate_is_left_out(m)

    def test_absent_region_rejected(self):
        absent = np.zeros((PATCH, PATCH), bool)
        with pytest.raises(EmptyInputError):
            sample_contour(np.stack([disk_mask(radius=10), absent]))

    def test_m_below_three_rejected(self):
        m = disk_mask(radius=10)
        with pytest.raises(ValueError):
            sample_contour(m[None], m=2)


class TestShapeContext:
    def test_inner_point_fills_merged_bin(self):
        pts = np.array([[0.0, 0.0], [2.5, 1.0]])
        d = frame_shape_contexts(pts)[0]
        assert d[0] == 1.0
        assert d[1:].sum() == 0.0

    def test_far_point_all_zero(self):
        pts = np.array([[0.0, 0.0], [40.0, 0.0]])
        d = frame_shape_contexts(pts)[0]
        assert d.sum() == 0.0

    def test_boundary_radii(self):
        # r = 6 goes to the first ring, r = 32 is discarded
        at6 = frame_shape_contexts(np.array([[0.0, 0.0], [6.0, 0.0]]))[0]
        assert at6[0] == 0.0 and at6[1] == 1.0
        at32 = frame_shape_contexts(np.array([[0.0, 0.0], [32.0, 0.0]]))[0]
        assert at32.sum() == 0.0

    def test_ring_edges_bin_as_searchsorted(self):
        # r exactly on each ring edge and one ulp either side, along +x so
        # that hypot(r, 0) is r: the ring is searchsorted's over the inner
        # edges, side="right", below 6 px bin 0, from 32 px dropped
        radii = np.array([np.nextafter(e, side) for e in RING_EDGES
                          for side in (-np.inf, e, np.inf)])
        pts = np.zeros((len(radii), 2, 2))
        pts[:, 1, 0] = radii
        rows = frame_shape_contexts(pts)[0::2]
        for r, row in zip(radii, rows):
            want = np.zeros(SC_DIM, dtype=np.int64)
            if r < INNER_RADIUS:
                want[0] = 1
            elif r < OUTER_RADIUS:
                want[1 + N_ANGLE_BINS * np.searchsorted(RING_EDGES[1:-1], r, side="right")] = 1
            assert row.tolist() == want.tolist(), r

    def test_matches_scalar_binning_oracle(self):
        rng = np.random.default_rng(46)
        for trial in range(40):
            pts = rng.uniform(-22, 22, size=(20, 2))
            ref = int(rng.integers(20))
            counts = frame_shape_contexts(pts)
            want = np.zeros(SC_DIM, dtype=np.int64)
            for i in range(20):
                if i == ref:
                    continue
                b = oracle_bin_index(pts[i, 0] - pts[ref, 0], pts[i, 1] - pts[ref, 1])
                if b is not None:
                    want[b] += 1
            np.testing.assert_array_equal(counts[ref], want)
            np.testing.assert_allclose(shape_context_rows(counts)[ref],
                                       want / max(want.sum(), 1), atol=1e-12)

    def test_normalization_sums_to_one(self):
        rng = np.random.default_rng(47)
        for trial in range(25):
            pts = rng.uniform(-20, 20, size=(20, 2))
            s = shape_context_rows(frame_shape_contexts(pts))[0].sum()
            assert s == 0.0 or abs(s - 1.0) <= 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(48)
        for trial in range(20):
            pts = rng.uniform(-20, 20, size=(15, 2))
            offset = rng.uniform(-300, 300, size=2)
            a = frame_shape_contexts(pts)[3]
            b = frame_shape_contexts(pts + offset)[3]
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [bad, 1.0], [10.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            frame_shape_contexts(pts)
        with pytest.raises(ValueError, match="non-finite"):
            frame_shape_contexts(np.stack([pts[::-1], pts]))


def make_posture_codebook(rng, k=12):
    data = rng.dirichlet(np.ones(SC_DIM), size=200)
    return fit_kmeans(data, k=k, seed=5)


class TestEncodeVideoBow:
    def absent(self):
        return HandRegion(mask=np.zeros((PATCH, PATCH), bool))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(50)
        cb = make_posture_codebook(rng)
        frames = []
        for t in range(4):
            frames.append({HandSide.RIGHT: HandRegion(mask=disk_mask(radius=12 + t)),
                           HandSide.LEFT: HandRegion(mask=disk_mask(radius=8))})
        bow = encode_video_bow(frames, cb)
        # oracle: recount by hand
        counts = {HandSide.RIGHT: np.zeros(cb.k), HandSide.LEFT: np.zeros(cb.k)}
        for sides in frames:
            for side, region in sides.items():
                pts, _ = sample_contour(region.mask[None], CONTOUR_POINTS)
                words = quantize_batch(cb, shape_context_rows(frame_shape_contexts(pts)))
                for wd in words:
                    counts[side][wd] += 1
        want = np.concatenate([counts[HandSide.RIGHT] / counts[HandSide.RIGHT].sum(),
                               counts[HandSide.LEFT] / counts[HandSide.LEFT].sum()])
        assert bow.shape == (2 * cb.k,)
        np.testing.assert_allclose(bow, want, atol=1e-12)

    def test_absent_left_hand_gives_zero_half(self):
        rng = np.random.default_rng(51)
        cb = make_posture_codebook(rng)
        frames = [{HandSide.RIGHT: HandRegion(mask=disk_mask(radius=15)),
                   HandSide.LEFT: self.absent()} for _ in range(3)]
        bow = encode_video_bow(frames, cb)
        assert abs(bow[:cb.k].sum() - 1.0) <= 1e-9
        assert bow[cb.k:].sum() == 0.0

    def test_identical_videos_identical_bow(self):
        rng = np.random.default_rng(52)
        cb = make_posture_codebook(rng)
        frames = [{HandSide.RIGHT: HandRegion(mask=disk_mask(radius=14)),
                   HandSide.LEFT: self.absent()}]
        a = encode_video_bow(frames, cb)
        b = encode_video_bow(frames, cb)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_mask_skipped(self):
        rng = np.random.default_rng(53)
        cb = make_posture_codebook(rng)
        tiny = np.zeros((PATCH, PATCH), bool)
        tiny[5, 5] = True
        frames = [{HandSide.RIGHT: HandRegion(mask=tiny), HandSide.LEFT: self.absent()}]
        bow = encode_video_bow(frames, cb)
        assert bow.sum() == 0.0

    def test_wrong_codebook_dimension_rejected(self):
        bad = Codebook(centers=np.zeros((3, 10)), znorm=ZNormStats.identity(10), seed=0)
        frames = [{HandSide.RIGHT: self.absent(), HandSide.LEFT: self.absent()}]
        with pytest.raises(ValueError):
            encode_video_bow(frames, bad)


class TestPostureClassifier:
    def make_training_data(self, rng, k=10, n_classes=3, per_class=8):
        X, y = [], []
        for c in range(n_classes):
            for i in range(per_class):
                h = np.zeros(2 * k)
                peak = c * 3
                h[peak] = 0.8
                h[peak + 1] = 0.2
                h[k + peak] = 1.0
                h[:k] += rng.uniform(0, 0.02, k)
                h[:k] /= h[:k].sum()
                h[k:] += rng.uniform(0, 0.02, k)
                h[k:] /= h[k:].sum()
                X.append(h)
                y.append(c)
        return np.array(X), np.array(y)

    def codebook(self, rng, k=10):
        data = rng.dirichlet(np.ones(SC_DIM), size=100)
        return fit_kmeans(data, k=k, seed=1)

    def test_separable_training(self):
        rng = np.random.default_rng(54)
        cb = self.codebook(rng)
        X, y = self.make_training_data(rng)
        model = train_posture_classifier(X, y, cb, seed=2)
        correct = sum(int(np.argmax(posture_response(model, p)) == c) for p, c in zip(X, y))
        assert correct == len(y)

    def test_deterministic(self):
        rng = np.random.default_rng(55)
        cb = self.codebook(rng)
        X, y = self.make_training_data(rng)
        a = train_posture_classifier(X, y, cb, seed=7)
        b = train_posture_classifier(X, y, cb, seed=7)
        assert a.model.weights.tobytes() == b.model.weights.tobytes()

    def test_single_class_rejected(self):
        rng = np.random.default_rng(56)
        cb = self.codebook(rng)
        with pytest.raises(ValueError, match="need at least 2 classes"):
            train_posture_classifier(np.zeros((4, 20)), np.zeros(4, dtype=int), cb)

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(57)
        cb = self.codebook(rng)
        with pytest.raises(ValueError, match="class 1 has no examples"):
            train_posture_classifier(np.zeros((2, 20)), np.array([0, 2]), cb)

    def test_bow_dimension_must_match_codebook(self):
        rng = np.random.default_rng(59)
        cb = self.codebook(rng)
        X, y = self.make_training_data(rng, k=12)
        with pytest.raises(ValueError, match="BoW dimension"):
            train_posture_classifier(X, y, cb)

    def test_response_is_linear(self):
        rng = np.random.default_rng(58)
        cb = self.codebook(rng)
        X, y = self.make_training_data(rng)
        model = train_posture_classifier(X, y, cb, seed=3)
        z = np.zeros(20)
        np.testing.assert_array_equal(posture_response(model, z), 0.0)
