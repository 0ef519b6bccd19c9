"""Canonical skeleton-sequence representation.

A sequence is one array: positions (T, J, 3), one row per capture
timestamp, holding world coordinates in meters (camera frame) of the J
joints its `joints` tuple names, in column order. Everything downstream
(descriptors, the CSV adapter, the synthetic generator) reads and writes
these arrays.
"""

from __future__ import annotations

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
    """An isolated sign recording plus optional metadata.

    timestamps is (T,), positions (T, J, 3) with column j holding
    joints[j]. Every value must be finite.
    """

    timestamps: np.ndarray
    positions: np.ndarray
    joints: tuple = ALL_JOINTS
    label: int | None = None
    subject: str | None = None
    source: str = ""

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.joints = tuple(JointId(j) for j in self.joints)
        if len(set(self.joints)) != len(self.joints):
            raise ValueError("duplicate joint in sequence")
        n = self.timestamps.shape[0]
        if self.timestamps.ndim != 1 or \
                self.positions.shape != (n, len(self.joints), 3):
            raise ValueError(f"positions must be ({n}, {len(self.joints)}, 3) "
                             f"for {n} timestamps, got {self.positions.shape}")
        if not np.isfinite(self.timestamps).all():
            raise ValueError("non-finite timestamp")
        if not np.isfinite(self.positions).all():
            raise ValueError("non-finite joint coordinate")

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    def columns(self, joints) -> list[int]:
        """Column index of each joint; MissingJointError names an absent one."""
        index = {j: i for i, j in enumerate(self.joints)}
        for j in joints:
            if j not in index:
                raise MissingJointError(JointId(j))
        return [index[j] for j in joints]


def forward_fill(positions, observed, joints: tuple = ALL_JOINTS) -> np.ndarray:
    """Repair unobserved joints by holding each joint's last observed value.

    positions is (T, J, 3) and observed (T, J), with columns named by
    joints; unobserved entries of positions are ignored. The first frame
    must be fully observed; otherwise there is nothing to hold, and
    MissingJointError names its first unobserved joint.
    """
    positions = np.asarray(positions, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape[0] == 0:
        raise ValueError("empty frame list")
    if not observed[0].all():
        raise MissingJointError(JointId(joints[int(observed[0].argmin())]))
    # for every (t, j), the last frame <= t at which joint j was observed
    held = np.where(observed, np.arange(observed.shape[0])[:, None], 0)
    np.maximum.accumulate(held, axis=0, out=held)
    return positions[held, np.arange(observed.shape[1])]
