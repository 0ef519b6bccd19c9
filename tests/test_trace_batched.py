"""The stacked contour kernels against their per-contour oracles.

signflow.posture traces, samples and bins a whole stack of hand masks at
once. tests/contour_oracle.py keeps the one-mask-at-a-time Moore walk,
arc-length sampler and shape-context binner they replaced; every path,
sample point, bin count and histogram row must equal the oracle's
exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from signflow.posture import (
    CONTOUR_POINTS,
    INNER_RADIUS,
    N_ANGLE_BINS,
    OUTER_RADIUS,
    PATCH,
    RING_EDGES,
    SC_DIM,
    HandRegion,
    HandSide,
    _largest_component,
    frame_shape_contexts,
    sample_contour,
    shape_context_rows,
    trace_boundary,
    video_shape_contexts,
)
from signflow.skeleton import EmptyInputError

import contour_oracle as oracle

_KING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def component_at(mask, r, c):
    """The 8-connected component of mask that holds pixel (r, c)."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), int))
    return labels == labels[r, c]


def walk(mask, r, c, moves):
    """Set the pixels of a king-move walk, clamped to the grid."""
    h, w = mask.shape
    mask[r, c] = True
    for d in moves:
        r = min(max(r + _KING[d][0], 0), h - 1)
        c = min(max(c + _KING[d][1], 0), w - 1)
        mask[r, c] = True
    return mask


@st.composite
def single_component(draw, shape):
    """One 8-connected mask on an (h, w) grid: an ellipse, a random walk,
    a block with one-pixel spurs, a chain of diagonal-only links, a blob
    with holes, a random speckle, or a 1- or 2-pixel degenerate mask."""
    h, w = shape
    mask = np.zeros(shape, bool)
    r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    kind = draw(st.sampled_from(("ellipse", "walk", "spurs", "diagonal",
                                 "holes", "speckle", "pixel", "pair")))
    if kind == "ellipse":
        ay, ax = draw(st.floats(0.5, 25.0)), draw(st.floats(0.5, 25.0))
        angle = draw(st.floats(0.0, np.pi))
        yy, xx = np.mgrid[:h, :w] - np.array([r, c])[:, None, None]
        u = xx * np.cos(angle) + yy * np.sin(angle)
        v = -xx * np.sin(angle) + yy * np.cos(angle)
        return component_at((u / ax) ** 2 + (v / ay) ** 2 <= 1.0, r, c)
    if kind == "walk":
        return walk(mask, r, c, draw(st.lists(st.integers(0, 7), max_size=80)))
    if kind == "spurs":
        mask[r:r + draw(st.integers(1, 12)), c:c + draw(st.integers(1, 12))] = True
        for _ in range(draw(st.integers(1, 4))):
            walk(mask, r, c, draw(st.lists(st.integers(0, 7), max_size=15)))
        return mask
    if kind == "diagonal":
        walk(mask, r, c, draw(st.lists(st.sampled_from((1, 3, 5, 7)), max_size=40)))
        if draw(st.booleans()):  # two blocks that touch only at a corner
            mask[max(r - 4, 0):r, max(c - 4, 0):c] = True
            mask[r + 1:r + 5, c + 1:c + 5] = True
        return mask
    if kind == "pixel":
        mask[r, c] = True
        return mask
    if kind == "pair":
        dr, dc = draw(st.sampled_from(_KING))
        mask[r, c] = True
        mask[min(max(r + dr, 0), h - 1), min(max(c + dc, 0), w - 1)] = True
        return mask
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "holes":
        mask[r:r + draw(st.integers(3, 30)), c:c + draw(st.integers(3, 30))] = True
        mask &= rng.random(shape) >= draw(st.floats(0.0, 0.3))
    else:
        mask = rng.random(shape) < draw(st.floats(0.2, 0.8))
    mask = _largest_component(mask[None])[0]
    if not mask.any():
        mask[r, c] = True
    return mask


grid_shapes = st.one_of(st.just((PATCH, PATCH)),
                        st.tuples(st.integers(1, 48), st.integers(1, 48)))


@st.composite
def stacks(draw, shape=grid_shapes, max_size=6):
    shape = draw(shape)
    masks = draw(st.lists(single_component(shape), min_size=1, max_size=max_size))
    return np.stack(masks)


def check_stack(stack, m=CONTOUR_POINTS):
    """Paths, sample points and shape-context rows equal the oracle's."""
    paths, length = trace_boundary(stack)
    assert paths.dtype == np.int64 and length.shape == (stack.shape[0],)
    want = [oracle.trace_boundary(mask) for mask in stack]
    assert length.tolist() == [len(p) for p in want]
    for path, n, expected in zip(paths, length, want):
        np.testing.assert_array_equal(path[:n], expected)

    points, kept = sample_contour(stack, m)
    assert kept.tolist() == [i for i, p in enumerate(want) if len(p) >= 3]
    want_points = np.array([oracle.sample_path(want[i], m) for i in kept],
                           dtype=np.float64).reshape(-1, m, 2)
    assert points.shape == want_points.shape
    assert points.tobytes() == want_points.tobytes()

    check_rows(points, want_points)


def check_rows(points, want_points):
    """Bin counts and float rows of (n, m, 2) points equal the oracle's."""
    counts = frame_shape_contexts(points)
    assert counts.dtype == np.uint8
    want_counts = np.array([oracle.shape_context_counts(p) for p in want_points],
                           dtype=np.int64).reshape(-1, SC_DIM)
    assert counts.shape == want_counts.shape
    np.testing.assert_array_equal(counts, want_counts)
    rows = shape_context_rows(counts)
    want_rows = np.array([oracle.frame_shape_contexts(p) for p in want_points],
                         dtype=np.float64).reshape(-1, SC_DIM)
    assert rows.shape == want_rows.shape
    assert rows.tobytes() == want_rows.tobytes()


def square(shape, r0, r1, c0, c1):
    mask = np.zeros(shape, bool)
    mask[r0:r1, c0:c1] = True
    return mask


class TestStackedKernels:
    @settings(max_examples=150, deadline=None)
    @given(stacks(), st.sampled_from((3, 7, CONTOUR_POINTS, 33)))
    @example(np.stack([square((PATCH, PATCH), 0, PATCH, 0, PATCH)]), CONTOUR_POINTS)
    @example(np.stack([square((1, 1), 0, 1, 0, 1)]), 3)
    def test_single_component_masks_equal_oracle(self, stack, m):
        check_stack(stack, m)

    @settings(max_examples=60, deadline=None)
    @given(stacks(shape=st.tuples(st.integers(3, 40), st.integers(3, 40)),
                  max_size=3), st.data())
    def test_masks_touching_every_edge(self, stack, data):
        _, h, w = stack.shape
        r, c = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        stack = stack.copy()
        stack[:, r, :] = True
        stack[:, :, c] = True
        stack = np.stack([component_at(mask, r, c) for mask in stack])
        assert stack[:, 0].any(1).all() and stack[:, -1].any(1).all()
        assert stack[:, :, 0].any(1).all() and stack[:, :, -1].any(1).all()
        check_stack(stack)

    @settings(max_examples=60, deadline=None)
    @given(stacks(shape=st.tuples(st.integers(1, 80), st.integers(1, 80)).filter(
        lambda s: s != (PATCH, PATCH))))
    def test_grids_other_than_65(self, stack):
        check_stack(stack)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(("pixel", "pair", "long")), min_size=2, max_size=8),
           st.lists(st.floats(4.0, 20.0), min_size=8, max_size=8))
    def test_degenerate_masks_mixed_with_long_contours(self, kinds, radii):
        yy, xx = np.mgrid[:PATCH, :PATCH]
        masks = []
        for i, kind in enumerate(kinds):
            mask = np.zeros((PATCH, PATCH), bool)
            if kind == "long":
                mask = (yy - 32) ** 2 + (xx - 32) ** 2 <= radii[i] ** 2
            else:
                mask[10 + i, 10:12 if kind == "pair" else 11] = True
            masks.append(mask)
        stack = np.stack(masks)
        check_stack(stack)
        _, kept = sample_contour(stack)
        assert kept.tolist() == [i for i, k in enumerate(kinds) if k == "long"]

    def test_empty_mask_rejected(self):
        stack = np.stack([square((9, 9), 2, 5, 2, 5), np.zeros((9, 9), bool)])
        with pytest.raises(EmptyInputError):
            trace_boundary(stack)

    def test_all_degenerate_stack_gives_no_points(self):
        stack = np.stack([square((9, 9), 4, 5, 4, 5), square((9, 9), 2, 3, 2, 4)])
        points, kept = sample_contour(stack)
        assert points.shape == (0, CONTOUR_POINTS, 2) and kept.size == 0
        assert frame_shape_contexts(points).shape == (0, SC_DIM)

    def test_counts_above_255_widen_the_dtype(self):
        # every one of a small blob's 1,000 contour points lies within 6 px
        # of the others, so each row's inner bin counts 999 points
        yy, xx = np.mgrid[:PATCH, :PATCH]
        region = HandRegion(mask=(yy - 32) ** 2 + (xx - 32) ** 2 <= 2 ** 2)
        counts, halves = video_shape_contexts([{HandSide.RIGHT: region}], m=1000)
        assert counts.dtype == np.uint16
        points = oracle.sample_contour(region, 1000)
        want = oracle.shape_context_counts(points)
        assert want[:, 0].min() > 255
        np.testing.assert_array_equal(counts, want)
        assert shape_context_rows(counts).tobytes() == \
            oracle.frame_shape_contexts(points).tobytes()
        np.testing.assert_array_equal(halves, np.zeros(1000))


coordinate = st.one_of(st.integers(-40, 40).map(float),
                       st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False))
OFFSETS = ((0.0, 0.0), (INNER_RADIUS, 0.0), (0.0, -INNER_RADIUS),
           (OUTER_RADIUS, 0.0), (0.0, -OUTER_RADIUS), (8.0, -8e-17))


@st.composite
def point_stacks(draw):
    """(n, m, 2) points; some sit on exact boundary radii of others, or at
    an angle just below 0."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(1, 24))
    stack = []
    for _ in range(n):
        pts = [(draw(coordinate), draw(coordinate)) for _ in range(m)]
        for i in range(1, m):
            if draw(st.booleans()):
                j = draw(st.integers(0, i - 1))
                dx, dy = draw(st.sampled_from(OFFSETS))
                pts[i] = (pts[j][0] + dx, pts[j][1] + dy)
        stack.append(pts)
    return np.array(stack, dtype=np.float64).reshape(n, m, 2)


class TestFrameShapeContextsStacked:
    @settings(max_examples=200, deadline=None)
    @given(point_stacks())
    def test_rows_equal_per_contour_oracle(self, stack):
        check_rows(stack, stack)
        if stack.shape[0]:
            check_rows(stack[0], stack[:1])

    def test_leading_dimensions_flatten_in_order(self):
        rng = np.random.default_rng(3)
        stack = rng.uniform(-20, 20, size=(2, 3, 7, 2))
        check_rows(stack, stack.reshape(6, 7, 2))

    def test_angle_just_below_zero_lands_in_last_angle_bin(self):
        pts = np.array([[0.0, 0.0], [8.0, -8e-17]])
        theta = np.arctan2(pts[1, 1], pts[1, 0])
        assert theta == -1e-17 and theta + 2.0 * np.pi == 2.0 * np.pi
        ring = int(np.searchsorted(RING_EDGES, 8.0, side="right")) - 1
        want = 1 + ring * N_ANGLE_BINS + (N_ANGLE_BINS - 1)
        for rows in (frame_shape_contexts(pts), frame_shape_contexts(np.stack([pts, pts]))):
            assert np.flatnonzero(rows[0]).tolist() == [want]
        assert np.flatnonzero(oracle.frame_shape_contexts(pts)[0]).tolist() == [want]

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 1)])
    def test_rejects_non_planar_points(self, shape):
        with pytest.raises(ValueError):
            frame_shape_contexts(np.zeros(shape))
