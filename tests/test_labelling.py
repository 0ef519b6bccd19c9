"""The numpy 8-connected labeller of signflow.posture against scipy.

`_labelled_runs` numbers the 8-connected components inside each mask of
an (N, h, w) stack, never across masks, and `_paint` turns its runs into
a label array; `_component_counts` counts each mask's components without
painting. Labels, counts and `_largest_component` must equal
`scipy.ndimage.label`'s exactly, label for label, on random stacks, on
the generator's hand masks and on the edge cases listed as examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from signflow.dataset import CorruptFileError, load_mask_archive, mask_filename, save_mask
from signflow.posture import (
    PATCH,
    HandSide,
    _component_counts,
    _labelled_runs,
    _largest_component,
    _paint,
)
from signflow.skeleton import JointId
from signflow.synthetic import ClassSpec, SyntheticConfig, generate_synthetic_corpus

EIGHT = np.ones((3, 3), dtype=int)
# 8-connectivity inside each mask of a stack, none across masks
IN_MASK_EIGHT = np.pad(np.ones((1, 3, 3), dtype=bool), ((1, 1), (0, 0), (0, 0)))


def labels(masks):
    """The labeller's (N, h, w) label array of a stack."""
    row, start, end, label = _labelled_runs(masks)
    return _paint(masks.shape, row, start, end, label)


def oracle_largest(mask):
    """The largest component by ndimage: the lowest label among the largest."""
    lab, n = ndimage.label(mask, EIGHT)
    if n == 0:
        return np.zeros(mask.shape, dtype=bool)
    sizes = np.bincount(lab.ravel())
    sizes[0] = 0
    return lab == sizes.argmax()


def stack_of(*masks):
    return np.stack([np.asarray(m, dtype=bool) for m in masks])


def diagonal_chain(n):
    """Pixels joined only by their corners: one component, n runs."""
    return np.eye(n, dtype=bool)


def checkerboard(h, w):
    """Every pixel touches its neighbors only diagonally: one component."""
    return (np.add.outer(np.arange(h), np.arange(w)) % 2).astype(bool)


def two_blobs():
    m = np.zeros((9, 9), dtype=bool)
    m[1:3, 1:3] = True
    m[5:8, 4:8] = True
    return m


def comb(h, w):
    """Teeth joined only at the bottom: union-find merges many roots."""
    m = np.zeros((h, w), dtype=bool)
    m[:, ::2] = True
    m[-1] = True
    return m


EDGE_STACKS = [
    stack_of(diagonal_chain(7)),
    stack_of(np.fliplr(diagonal_chain(7))),
    stack_of(checkerboard(6, 9)),
    stack_of(np.ones((PATCH, PATCH))),  # touches every edge of the grid
    stack_of(np.ones((1, 1))),
    stack_of(np.zeros((1, 1))),
    stack_of(np.array([[1, 0, 1, 1, 0, 0, 1]])),  # a single row
    stack_of(np.array([[1, 0, 1, 1, 0, 0, 1]]).T),  # a single column
    stack_of(np.zeros((5, 5)), two_blobs()[:5, :5], np.zeros((5, 5))),
    stack_of(two_blobs(), np.zeros((9, 9)), comb(9, 9), checkerboard(9, 9)),
    # a mask's last row and the next mask's first row would touch
    stack_of(np.eye(4)[::-1], np.eye(4), np.eye(4)[::-1]),
    stack_of(comb(12, 15), comb(12, 15)[::-1], comb(12, 15)[:, ::-1]),
]


@st.composite
def mask_stacks(draw):
    """1-5 random masks of one size from 1x1 to 65x65, each at its own
    density from 0.05 to 0.7; some are left empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    h, w = draw(st.integers(1, PATCH)), draw(st.integers(1, PATCH))
    density = np.array([draw(st.floats(0.05, 0.7)) for _ in range(n)])
    masks = rng.random((n, h, w)) < density[:, None, None]
    masks[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = False
    return masks


def with_examples(test):
    for masks in EDGE_STACKS:
        test = example(masks=masks)(test)
    return test


def hand_mask_stacks():
    """Every video's mask stack, right then left per frame, of a small
    corpus with the fused-short benchmark's six classes (one mask shape
    each), frame range and noise."""
    anchors = ("Head", "Neck", "Head", "Neck", "Torso", "LShoulder")
    classes = [ClassSpec(template=t, anchor=JointId[a], mask=m)
               for m, (t, a) in enumerate(zip((0, 0, 1, 1, 2, 3), anchors))]
    corpus = generate_synthetic_corpus(SyntheticConfig(
        classes=classes, counts=(2, 0, 0), noise=0.01,
        frame_count_range=(12, 18), seed=7))
    return [np.stack([frame[side].mask for frame in video
                      for side in (HandSide.RIGHT, HandSide.LEFT)])
            for video in corpus.masks]


class TestAgainstNdimage:
    @settings(max_examples=150, deadline=None)
    @given(masks=mask_stacks())
    @with_examples
    def test_labels_and_counts_equal(self, masks):
        want, total = ndimage.label(masks, IN_MASK_EIGHT)
        got = labels(masks)
        np.testing.assert_array_equal(got, want)
        counts = [ndimage.label(m, EIGHT)[1] for m in masks]
        np.testing.assert_array_equal(_component_counts(masks), counts)
        assert sum(counts) == total

    @settings(max_examples=100, deadline=None)
    @given(masks=mask_stacks())
    @with_examples
    def test_stack_equals_per_mask_calls(self, masks):
        got = labels(masks)
        counts = _component_counts(masks)
        offset = 0
        for i, mask in enumerate(masks):
            alone = labels(mask[None])[0]
            np.testing.assert_array_equal(got[i], np.where(alone > 0, alone + offset, 0))
            assert counts[i] == _component_counts(mask[None])[0] == alone.max(initial=0)
            offset += counts[i]

    def test_generator_hand_masks(self):
        stacks = hand_mask_stacks()
        assert len(stacks) == 12
        for masks in stacks:
            np.testing.assert_array_equal(labels(masks), ndimage.label(masks, IN_MASK_EIGHT)[0])
            np.testing.assert_array_equal(
                _component_counts(masks), [ndimage.label(m, EIGHT)[1] for m in masks])

    def test_empty_stack(self):
        assert _component_counts(np.zeros((0, PATCH, PATCH), bool)).shape == (0,)


class TestLargestComponent:
    @settings(max_examples=150, deadline=None)
    @given(masks=mask_stacks())
    @with_examples
    def test_equals_ndimage(self, masks):
        got = _largest_component(masks)
        assert got.dtype == bool and got.shape == masks.shape
        for kept, mask in zip(got, masks):
            np.testing.assert_array_equal(kept, oracle_largest(mask))

    @pytest.mark.parametrize("blobs", [
        # (row, first col, length): equal sizes, the raster-first is kept
        [(5, 0, 3), (1, 10, 3)],
        [(2, 6, 3), (2, 0, 3)],
        [(0, 4, 2), (0, 0, 2), (3, 0, 2)],
    ])
    def test_size_ties_keep_ndimage_choice(self, blobs):
        mask = np.zeros((8, 14), dtype=bool)
        for r, c, n in blobs:
            mask[r, c:c + n] = True
        # each mask of a stack breaks its own ties
        masks = stack_of(np.zeros_like(mask), mask, mask[::-1], mask[:, ::-1])
        got = _largest_component(masks)
        for kept, mask in zip(got, masks):
            np.testing.assert_array_equal(kept, oracle_largest(mask))
        first = min(blobs)
        assert got[1, first[0], first[1]] and got[1].sum() == first[2]


def write_frame(root, frame, right, left):
    root.mkdir(exist_ok=True)
    save_mask(root / mask_filename(frame, HandSide.RIGHT), right)
    save_mask(root / mask_filename(frame, HandSide.LEFT), left)


class TestArchiveValidation:
    def test_corner_joined_mask_loads(self, tmp_path):
        corner = np.zeros((PATCH, PATCH), dtype=bool)
        corner[10:20, 10:20] = True
        corner[20:30, 20:30] = True  # meets the first square at one corner
        write_frame(tmp_path / "a", 0, corner, np.zeros_like(corner))
        frames = load_mask_archive(tmp_path / "a")
        np.testing.assert_array_equal(frames[0][HandSide.RIGHT].mask, corner)
        assert not frames[0][HandSide.LEFT].present

    def test_two_blob_mask_names_its_file_and_frame(self, tmp_path):
        one = np.zeros((PATCH, PATCH), dtype=bool)
        one[10:20, 10:20] = True
        two = one.copy()
        two[21:30, 21:30] = True  # one pixel apart diagonally: not touching
        write_frame(tmp_path / "a", 0, one, one)
        write_frame(tmp_path / "a", 1, one, two)
        with pytest.raises(CorruptFileError) as err:
            load_mask_archive(tmp_path / "a")
        message = str(err.value)
        assert mask_filename(1, HandSide.LEFT) in message
        assert "frame 1" in message and "single 8-connected component" in message
