"""Gesture descriptors and corpus z-normalization.

Four descriptor variants are supported. The relative body-part descriptor
(RBPD) stacks, for each hand, the displacement of every upper-body joint
from that hand; the hand descriptor (HD) keeps only the two hands relative
to the torso. The -T variants pair the reference joint at frame t with the
other joints at frame t+1, mixing spatial and temporal information:

    rbpd    delta_i = joint_i(t)   - hand(t)        66 components
    rbpd-t  delta_i = joint_i(t+1) - hand(t)        66 components
    hd      delta   = hand(t)      - torso(t)        6 components
    hd-t    delta   = hand(t)      - torso(t+1)      6 components

Each variant is one gather-and-subtract over the sequence's (T, 15, 3)
positions and yields a (T, D) array, or (T - 1, D) for the -T variants.
All variants are invariant to translating every joint by a common offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .skeleton import UPPER_BODY, JointId, SkeletonSequence

ZNORM_FLOOR = 1e-8
# elements per chunk of row-blocked work (`fit_znorm`'s centred squares,
# the codebook's distances): a chunk's matrix is about 0.5 MB, so its
# temporaries stay under glibc's heap trim threshold as the work leaves it
# (at 1 MB a gesture-long k-means fit took ~440,000 page faults)
_CHUNK_ELEMENTS = 1 << 16


class DescriptorVariant(str, Enum):
    HD = "hd"
    HD_T = "hd-t"
    RBPD = "rbpd"
    RBPD_T = "rbpd-t"

    @property
    def dimension(self) -> int:
        return 6 if self in (DescriptorVariant.HD, DescriptorVariant.HD_T) else 66

    @property
    def time_extended(self) -> bool:
        return self in (DescriptorVariant.HD_T, DescriptorVariant.RBPD_T)


@dataclass
class ZNormStats:
    """Per-component mean and (floored) population standard deviation."""

    mean: np.ndarray
    stddev: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.stddev = np.asarray(self.stddev, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.shape != self.stddev.shape:
            raise ValueError(f"mean and stddev must be (D,) arrays of one "
                             f"length, got {self.mean.shape} and {self.stddev.shape}")
        if np.any(self.stddev < ZNORM_FLOOR):
            raise ValueError(f"stddev components must be >= {ZNORM_FLOOR}")

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def identity(cls, dimension: int) -> "ZNormStats":
        return cls(np.zeros(dimension), np.ones(dimension))


def descriptor_rows(seq: SkeletonSequence, variant: DescriptorVariant) -> int:
    """Row count of `describe_sequence(seq, variant)`, without describing:
    T for spatial variants, T - 1 (and 0 for T = 0) for time-extended ones."""
    return max(0, len(seq) - DescriptorVariant(variant).time_extended)


def describe_sequence(seq: SkeletonSequence, variant: DescriptorVariant) -> np.ndarray:
    """Descriptor stream for a whole sequence, one row per frame, in order.

    Spatial variants give one row per frame (T rows); time-extended
    variants one per consecutive frame pair (T - 1 rows). The reference
    joints come from frame t, the displaced ones from frame t (spatial) or
    t + 1 (time-extended). RBPD rows hold the 11 upper-body joints minus
    the right hand, then minus the left hand.
    """
    variant = DescriptorVariant(variant)
    pos = seq.positions
    ref, moved = (pos[:-1], pos[1:]) if variant.time_extended else (pos, pos)
    if variant in (DescriptorVariant.RBPD, DescriptorVariant.RBPD_T):
        # UPPER_BODY is joints 0..10 in order and RHand follows LHand, so
        # each frame's joints are 33 contiguous values and its hands one
        # reversed slice, tiled once per joint: one subtraction per hand row
        n = len(UPPER_BODY)
        hands = np.tile(ref[:, JointId.RHand:JointId.LHand - 1:-1], n)
        delta = np.empty((len(ref), 2, 3 * n))
        np.subtract(moved[:, :n].reshape(len(ref), 1, 3 * n), hands, out=delta)
    else:
        delta = ref[:, [JointId.RHand, JointId.LHand]] - moved[:, [JointId.Torso]]
    return delta.reshape(len(delta), variant.dimension)


def fit_znorm(data) -> ZNormStats:
    """Population mean/stddev over the rows of a (n, D) descriptor array,
    stddev floored. Needs at least two rows.

    The bytes are `data.mean(axis=0)` and `np.maximum(data.std(axis=0),
    ZNORM_FLOOR)`. `np.std` of a C-ordered matrix with D >= 2 sums the
    centred squares row after row; they are summed here in that order one
    block of rows at a time, the running total carried as each block's
    first row, so no (n, D) temporary is made. Any other array, such as
    one column or a Fortran-ordered matrix, whose columns numpy sums
    pairwise, keeps `np.std`.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError(f"need >= 2 descriptor rows to fit stats, got shape {data.shape}")
    n, dim = data.shape
    mean = data.mean(axis=0)
    if dim < 2 or not data.flags.c_contiguous:
        return ZNormStats(mean, np.maximum(data.std(axis=0), ZNORM_FLOOR))
    size = max(1, _CHUNK_ELEMENTS // dim)
    work = np.zeros((min(n, size) + 1, dim))
    for start in range(0, n, size):
        block = data[start:start + size]
        squares = work[1:len(block) + 1]
        np.subtract(block, mean, out=squares)
        np.square(squares, out=squares)
        work[0] = np.add.reduce(work[:len(block) + 1], axis=0)
    return ZNormStats(mean, np.maximum(np.sqrt(work[0] / n), ZNORM_FLOOR))
