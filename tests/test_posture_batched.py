"""Property tests for the batched posture path.

The oracle is the per-row path the batched code replaced: one reference
point at a time, its raw counts accumulated with np.add.at and divided by
their float total. Every comparison is exact.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signflow.codebook import fit_kmeans, quantize_batch
from signflow.pipeline import _codebook_sample
from signflow.posture import (
    CONTOUR_POINTS,
    INNER_RADIUS,
    N_ANGLE_BINS,
    N_RINGS,
    OUTER_RADIUS,
    PATCH,
    RING_EDGES,
    SC_DIM,
    DegenerateContour,
    HandRegion,
    HandSide,
    _largest_component,
    bow_from_shape_contexts,
    encode_video_bow,
    frame_shape_contexts,
    sample_contour,
    video_shape_contexts,
)
from signflow.skeleton import EmptyInputError


def per_row_shape_context(pts, ref):
    """One shape context the slow way: the other points around pts[ref]."""
    rel = np.delete(pts, ref, axis=0) - pts[ref]
    counts = np.zeros(SC_DIM)
    r = np.hypot(rel[:, 0], rel[:, 1])
    keep = r < OUTER_RADIUS
    r, rel = r[keep], rel[keep]
    inner = r < INNER_RADIUS
    counts[0] = float(inner.sum())
    if np.any(~inner):
        theta = np.mod(np.arctan2(rel[~inner, 1], rel[~inner, 0]), 2.0 * np.pi)
        abin = np.minimum((theta * (N_ANGLE_BINS / (2.0 * np.pi))).astype(np.int64),
                          N_ANGLE_BINS - 1)
        ring = np.minimum(np.searchsorted(RING_EDGES, r[~inner], side="right") - 1,
                          N_RINGS - 1)
        np.add.at(counts, 1 + ring * N_ANGLE_BINS + abin, 1.0)
    total = counts.sum()
    if total > 0:
        counts /= total
    return counts


def per_row_shape_contexts(pts):
    return np.stack([per_row_shape_context(pts, i) for i in range(pts.shape[0])])


coordinate = st.one_of(
    st.integers(-40, 40).map(float),
    st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False))
# copies of a point (coincident pairs) and axis offsets that land exactly
# on the inner (6 px) and outer (32 px) radius
OFFSETS = ((0.0, 0.0), (INNER_RADIUS, 0.0), (-INNER_RADIUS, 0.0),
           (0.0, INNER_RADIUS), (0.0, -INNER_RADIUS), (OUTER_RADIUS, 0.0),
           (-OUTER_RADIUS, 0.0), (0.0, OUTER_RADIUS), (0.0, -OUTER_RADIUS))


@st.composite
def point_sets(draw):
    """2..40 points, some placed on exact boundary radii of others."""
    base = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40))
    extra = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.sampled_from(OFFSETS)),
                          min_size=1 if len(base) == 1 else 0,
                          max_size=40 - len(base)))
    pts = base + [(base[i][0] + dx, base[i][1] + dy) for i, (dx, dy) in extra]
    return np.array(pts, dtype=np.float64)


BOUNDARY_POINTS = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, -32.0], [0.0, 0.0],
                            [-6.0, 0.0], [32.0, 0.0], [0.0, 6.0]])


class TestFrameShapeContexts:
    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    @example(BOUNDARY_POINTS)
    @example(np.zeros((2, 2)))
    @example(np.array([[0.0, 0.0], [40.0, 0.0]]))
    def test_equals_per_row_oracle(self, pts):
        assert 2 <= pts.shape[0] <= 40
        np.testing.assert_array_equal(frame_shape_contexts(pts),
                                      per_row_shape_contexts(pts))

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    @example(BOUNDARY_POINTS)
    def test_rows_sum_to_one_or_are_zero(self, pts):
        rows = frame_shape_contexts(pts)
        assert rows.shape == (pts.shape[0], SC_DIM)
        assert np.all(rows >= 0.0)
        for row in rows:
            assert not row.any() or abs(row.sum() - 1.0) <= 1e-12

    def test_rejects_non_planar_points(self):
        with pytest.raises(ValueError):
            frame_shape_contexts(np.zeros((4, 3)))


def make_codebook(k=8):
    rng = np.random.default_rng(61)
    return fit_kmeans(rng.dirichlet(np.ones(SC_DIM), size=120), k=k, seed=2)


CODEBOOK = make_codebook()


@st.composite
def hand_regions(draw, side):
    """An absent hand, or one ellipse-shaped component (tiny ones are
    degenerate contours)."""
    if not draw(st.booleans()):
        return HandRegion(mask=np.zeros((PATCH, PATCH), bool), side=side,
                          present=False)
    cy, cx = draw(st.integers(8, 56)), draw(st.integers(8, 56))
    ay, ax = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    yy, xx = np.mgrid[:PATCH, :PATCH]
    mask = ((yy - cy) / (ay + 0.5)) ** 2 + ((xx - cx) / (ax + 0.5)) ** 2 <= 1.0
    return HandRegion(mask=_largest_component(mask), side=side, present=True)


@st.composite
def videos(draw):
    frames = []
    for _ in range(draw(st.integers(1, 4))):
        pair = [draw(hand_regions(HandSide.RIGHT)), draw(hand_regions(HandSide.LEFT))]
        if draw(st.booleans()):
            pair.reverse()
        frames.append(pair)
    return frames


def per_contour_bow(frames, cb):
    """The bag-of-words contour by contour, one quantize call each."""
    halves = {HandSide.RIGHT: np.zeros(cb.k), HandSide.LEFT: np.zeros(cb.k)}
    for regions in frames:
        for region in regions:
            if not region.present:
                continue
            try:
                contour = sample_contour(region, CONTOUR_POINTS)
            except DegenerateContour:
                continue
            words = quantize_batch(cb, per_row_shape_contexts(contour))
            np.add.at(halves[region.side], words, 1.0)
    for side, h in halves.items():
        if h.sum() > 0:
            halves[side] = h / h.sum()
    return np.concatenate([halves[HandSide.RIGHT], halves[HandSide.LEFT]])


class TestVideoBow:
    @settings(max_examples=40, deadline=None)
    @given(videos())
    def test_compute_once_bow_equals_encode_video_bow(self, frames):
        rows, halves = video_shape_contexts(frames)
        assert rows.shape == (halves.shape[0], SC_DIM)
        once = bow_from_shape_contexts(rows, halves, CODEBOOK, video_id="v")
        direct = encode_video_bow(frames, CODEBOOK, video_id="v")
        np.testing.assert_array_equal(once.histogram, direct.histogram)
        np.testing.assert_array_equal(once.histogram,
                                      per_contour_bow(frames, CODEBOOK))
        assert once.video_id == direct.video_id == "v"

    def test_rows_follow_frame_order_and_side(self):
        yy, xx = np.mgrid[:PATCH, :PATCH]
        disk = (yy - 32) ** 2 + (xx - 32) ** 2 <= 15 ** 2
        small = (yy - 32) ** 2 + (xx - 32) ** 2 <= 8 ** 2
        left = HandRegion(mask=disk, side=HandSide.LEFT, present=True)
        right = HandRegion(mask=small, side=HandSide.RIGHT, present=True)
        rows, halves = video_shape_contexts([(left, right), (right,)])
        want = [frame_shape_contexts(sample_contour(r)) for r in (left, right, right)]
        np.testing.assert_array_equal(rows, np.concatenate(want))
        np.testing.assert_array_equal(halves, np.repeat([1, 0, 0], CONTOUR_POINTS))


class TestCodebookSample:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=12), st.data())
    def test_equals_strided_concatenation(self, sizes, data):
        n = sum(sizes)
        cap = data.draw(st.one_of(st.just(0), st.integers(1, n + 5)))
        rng = np.random.default_rng(n)
        per_video = [rng.random((s, SC_DIM)) for s in sizes]
        if n == 0:
            with pytest.raises(EmptyInputError):
                _codebook_sample(per_video, cap)
            return
        stacked = np.concatenate(per_video)
        want = stacked[::math.ceil(n / cap)] if cap and n > cap else stacked
        got = _codebook_sample(per_video, cap)
        np.testing.assert_array_equal(got, want)
        assert got.shape[0] <= cap or not cap
