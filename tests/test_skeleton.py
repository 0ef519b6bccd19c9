"""Tests for the canonical skeleton representation and validation."""

import math

import numpy as np
import pytest

from signflow.skeleton import (
    ALL_JOINTS,
    UPPER_BODY,
    JointId,
    MissingJointError,
    SkeletonSequence,
    forward_fill,
)


def full_frame(offset=0.0):
    """(15, 3) positions of one frame, distinct per joint."""
    ids = np.arange(len(ALL_JOINTS), dtype=np.float64)
    return np.stack([offset + 0.1 * ids, offset + 0.01 * ids,
                     np.full(len(ids), offset + 1.0)], axis=1)


def sequence(timestamps, joints=ALL_JOINTS):
    positions = np.stack([full_frame()[list(joints)] for _ in timestamps]) \
        if len(timestamps) else np.empty((0, len(joints), 3))
    return SkeletonSequence(timestamps=timestamps, positions=positions, joints=joints)


class TestJointIds:
    def test_fifteen_joints_eleven_upper(self):
        assert len(ALL_JOINTS) == 15
        assert len(UPPER_BODY) == 11

    def test_upper_body_excludes_legs(self):
        lower = {JointId.LKnee, JointId.RKnee, JointId.LFoot, JointId.RFoot}
        assert lower.isdisjoint(set(UPPER_BODY))
        assert JointId.LHip in UPPER_BODY and JointId.RHip in UPPER_BODY

    def test_upper_body_in_canonical_order(self):
        ids = [int(j) for j in UPPER_BODY]
        assert ids == sorted(ids)


class TestForwardFill:
    def test_holds_last_value(self):
        positions = np.stack([full_frame(), full_frame(), full_frame(1.0)])
        positions[1, JointId.LHand] = 99.0  # ignored: not observed
        observed = np.ones((3, 15), dtype=bool)
        observed[1, JointId.LHand] = False
        filled = forward_fill(positions, observed)
        np.testing.assert_array_equal(filled[1, JointId.LHand], full_frame()[JointId.LHand])
        np.testing.assert_array_equal(filled[2], full_frame(1.0))

    def test_first_frame_missing_raises(self):
        observed = np.ones((1, 15), dtype=bool)
        observed[0, JointId.Torso] = False
        with pytest.raises(MissingJointError) as err:
            forward_fill(full_frame()[None], observed)
        assert err.value.joint == JointId.Torso

    def test_gap_longer_than_one_frame(self):
        positions = np.stack([full_frame(float(t)) for t in range(4)])
        observed = np.ones((4, 15), dtype=bool)
        observed[1:, JointId.RElbow] = False
        filled = forward_fill(positions, observed)
        for frame in filled:
            np.testing.assert_array_equal(frame[JointId.RElbow], full_frame()[JointId.RElbow])
        np.testing.assert_array_equal(filled[3, JointId.Head], full_frame(3.0)[JointId.Head])

    def test_timestamps_preserved(self):
        seq = SkeletonSequence(timestamps=[0.0, 0.4],
                               positions=forward_fill(np.stack([full_frame()] * 2),
                                                      np.ones((2, 15), dtype=bool)))
        assert seq.timestamps.tolist() == [0.0, 0.4]

    def test_names_joint_of_its_column(self):
        joints = (JointId.RFoot, JointId.Head)
        with pytest.raises(MissingJointError) as err:
            forward_fill(np.zeros((2, 2, 3)), [[True, False], [True, True]], joints)
        assert err.value.joint == JointId.Head


class TestSequence:
    def test_len(self):
        assert len(sequence([0.0, 0.1])) == 2

    def test_label_and_subject_optional(self):
        seq = SkeletonSequence(timestamps=[0.0], positions=full_frame()[None],
                               label="wave", subject="s01")
        assert seq.label == "wave"
        assert seq.subject == "s01"
        assert seq.joints == ALL_JOINTS

    def test_frame_joint_missing_raises(self):
        seq = sequence([0.0], joints=UPPER_BODY)
        assert seq.columns((JointId.Head, JointId.RHip)) == [0, 10]
        with pytest.raises(MissingJointError) as err:
            seq.columns((JointId.Head, JointId.LFoot))
        assert err.value.joint == JointId.LFoot

    def test_rejects_non_finite_values(self):
        for bad in (math.nan, math.inf, -math.inf):
            positions = np.stack([full_frame()] * 3)
            with pytest.raises(ValueError, match="timestamp"):
                SkeletonSequence(timestamps=[0.0, bad, 0.1], positions=positions)
            positions[1, JointId.LElbow, 2] = bad
            with pytest.raises(ValueError, match="coordinate"):
                SkeletonSequence(timestamps=[0.0, 0.033, 0.066], positions=positions)

    def test_nan_timestamp_cannot_hide_a_backward_step(self):
        # [0, .033, nan, 0.0]: the NaN made the backward step to 0.0 invisible
        # to a frame-by-frame comparison; the sequence now refuses the NaN
        positions = np.stack([full_frame()] * 4)
        with pytest.raises(ValueError, match="non-finite timestamp"):
            SkeletonSequence(timestamps=[0.0, 0.033, math.nan, 0.0], positions=positions)

    def test_shape_must_match_timestamps_and_joints(self):
        with pytest.raises(ValueError):
            SkeletonSequence(timestamps=[0.0, 0.1], positions=full_frame()[None])
        with pytest.raises(ValueError):
            SkeletonSequence(timestamps=[0.0], positions=full_frame()[None],
                             joints=UPPER_BODY)
        with pytest.raises(ValueError):
            SkeletonSequence(timestamps=[0.0], positions=np.zeros((1, 2, 3)),
                             joints=(JointId.Head, JointId.Head))


def test_numpy_interop_roundtrip():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(4, 15, 3))
    seq = SkeletonSequence(timestamps=np.arange(4.0), positions=pts.tolist())
    assert seq.positions.dtype == np.float64
    np.testing.assert_array_equal(seq.positions, pts)
