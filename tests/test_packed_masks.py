"""Packed hand masks: a HandRegion holds its mask's rows packed by
np.packbits, and its `mask` unpacks them. Both the packing and the mask
archive round-trip must give back every byte they were given."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signflow.dataset import load_mask_archive, save_mask_archive
from signflow.posture import PATCH, HandRegion, HandSide, _largest_component

EMPTY = np.zeros((PATCH, PATCH), dtype=bool)
FULL = np.ones((PATCH, PATCH), dtype=bool)
LAST_COLUMN = EMPTY.copy()
LAST_COLUMN[:, -1] = True  # the one column held in a padded byte


@st.composite
def region_masks(draw):
    """A valid 65x65 region mask: the largest component of random pixels
    at a density from 0 to 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random((PATCH, PATCH)) < draw(st.floats(0.0, 1.0))
    return _largest_component(mask[None])[0]


def with_edge_masks(test):
    for mask in (EMPTY, FULL, LAST_COLUMN):
        test = example(mask=mask)(test)
    return test


class TestHandRegion:
    @settings(max_examples=100, deadline=None)
    @given(mask=region_masks())
    @with_edge_masks
    def test_mask_round_trips_and_padding_is_zero(self, mask):
        region = HandRegion(mask)
        assert region.bits.dtype == np.uint8 and region.bits.shape == (PATCH, 9)
        assert not (region.bits[:, -1] & 0x7F).any()
        got = region.mask
        assert got.dtype == bool and got.tobytes() == mask.tobytes()
        assert region.present == bool(mask.any())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(region_masks(), region_masks()), min_size=1, max_size=4))
@example([(EMPTY, FULL), (LAST_COLUMN, EMPTY)])
def test_archive_round_trips_packed_bytes(tmp_path_factory, pairs):
    frames = [{HandSide.RIGHT: HandRegion(right), HandSide.LEFT: HandRegion(left)}
              for right, left in pairs]
    d = tmp_path_factory.mktemp("masks")
    save_mask_archive(d, frames)
    back = load_mask_archive(d)
    assert len(back) == len(frames)
    for got, want in zip(back, frames):
        assert list(got) == [HandSide.RIGHT, HandSide.LEFT]
        for side in HandSide:
            assert got[side].present == want[side].present
            assert got[side].bits.tobytes() == want[side].bits.tobytes()
