"""Canonical skeleton-sequence representation.

A sequence is one array: positions (T, 15, 3), one row per capture
timestamp, holding world coordinates in meters (camera frame) of every
joint, column j for JointId(j). Everything downstream (descriptors, the
CSV adapter, the synthetic generator) reads and writes these arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class SignflowError(Exception):
    """Base class for all errors raised by this package."""


class MissingJointError(SignflowError):
    """A required joint is absent from a frame."""

    def __init__(self, joint: "JointId"):
        self.joint = joint
        super().__init__(f"missing joint: {joint.name}")


class EmptyInputError(SignflowError):
    """An operation received an empty collection where data is required."""


def _is_integral(value) -> bool:
    """An integral real number, the one test every count, label and seed
    read from a config or manifest must pass; a bool is not one."""
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and np.isfinite(value) and value == int(value))


def _is_real(value) -> bool:
    """A real number that is finite as a float, the one test every
    real-valued setting read from a config must pass; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


class JointId(IntEnum):
    """The 15 full-body joints, in canonical (serialization) order."""

    Head = 0
    Neck = 1
    Torso = 2
    LShoulder = 3
    RShoulder = 4
    LElbow = 5
    RElbow = 6
    LHand = 7
    RHand = 8
    LHip = 9
    RHip = 10
    LKnee = 11
    RKnee = 12
    LFoot = 13
    RFoot = 14


# The 11 joints kept for sign description: everything above the knees.
UPPER_BODY: tuple[JointId, ...] = (
    JointId.Head,
    JointId.Neck,
    JointId.Torso,
    JointId.LShoulder,
    JointId.RShoulder,
    JointId.LElbow,
    JointId.RElbow,
    JointId.LHand,
    JointId.RHand,
    JointId.LHip,
    JointId.RHip,
)

ALL_JOINTS: tuple[JointId, ...] = tuple(JointId)


@dataclass
class SkeletonSequence:
    """An isolated sign recording.

    timestamps is (T,), positions (T, 15, 3) with column j holding
    JointId(j). Every value must be finite. Both are copies the sequence
    owns: a view would keep a larger buffer, such as a parsed CSV table, alive.
    """

    timestamps: np.ndarray
    positions: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.timestamps = np.array(self.timestamps, dtype=np.float64)
        self.positions = np.array(self.positions, dtype=np.float64)
        n = self.timestamps.shape[0]
        if self.timestamps.ndim != 1 or self.positions.shape != (n, len(JointId), 3):
            raise ValueError(f"positions must be ({n}, {len(JointId)}, 3) "
                             f"for {n} timestamps, got {self.positions.shape}")
        if not np.isfinite(self.timestamps).all():
            raise ValueError("non-finite timestamp")
        if not np.isfinite(self.positions).all():
            raise ValueError("non-finite joint coordinate")

    def __len__(self) -> int:
        return self.timestamps.shape[0]


def forward_fill(positions, observed) -> np.ndarray:
    """Repair unobserved joints by holding each joint's last observed value.

    positions is (T, 15, 3) and observed (T, 15), column j for JointId(j);
    unobserved entries of positions are ignored. The first frame must be
    fully observed; otherwise there is nothing to hold, and
    MissingJointError names its first unobserved joint.
    """
    positions = np.asarray(positions, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape[0] == 0:
        raise ValueError("empty frame list")
    if not observed[0].all():
        raise MissingJointError(JointId(int(observed[0].argmin())))
    # for every (t, j), the last frame <= t at which joint j was observed
    held = np.where(observed, np.arange(observed.shape[0])[:, None], 0)
    np.maximum.accumulate(held, axis=0, out=held)
    return positions[held, np.arange(observed.shape[1])]
