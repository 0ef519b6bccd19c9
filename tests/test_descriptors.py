"""Tests for gesture descriptors: layout, invariances, z-normalization.

The oracle is the per-frame path the array code replaced: one frame (or
frame pair) at a time, each joint looked up by id, the right-hand half
built before the left. describe_sequence must equal it exactly.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signflow.descriptors import (
    _CHUNK_ELEMENTS,
    ZNORM_FLOOR,
    DescriptorVariant,
    ZNormStats,
    describe_sequence,
    descriptor_rows,
    fit_znorm,
)
from signflow.skeleton import ALL_JOINTS, UPPER_BODY, JointId, SkeletonSequence

RBPD_VARIANTS = (DescriptorVariant.RBPD, DescriptorVariant.RBPD_T)


def frame_rbpd(ref, other):
    """Every upper-body joint of `other` minus each hand of `ref`, right
    hand first; frames are {JointId: (3,) array} dicts."""
    joints = np.array([other[j] for j in UPPER_BODY])
    return np.concatenate([(joints - ref[hand]).ravel()
                           for hand in (JointId.RHand, JointId.LHand)])


def frame_hd(ref, other):
    """Both hands of `ref` minus the torso of `other`."""
    torso = other[JointId.Torso]
    return np.concatenate([ref[JointId.RHand] - torso, ref[JointId.LHand] - torso])


def oracle(seq, variant):
    """describe_sequence the per-frame way."""
    frames = [dict(zip(ALL_JOINTS, frame)) for frame in seq.positions]
    pairs = list(zip(frames, frames[1:])) if variant.time_extended else \
        list(zip(frames, frames))
    formula = frame_rbpd if variant in RBPD_VARIANTS else frame_hd
    return np.array([formula(ref, other) for ref, other in pairs]).reshape(
        len(pairs), variant.dimension)


def random_sequence(rng, n=1):
    return SkeletonSequence(timestamps=0.1 * np.arange(n),
                            positions=rng.normal(scale=0.5, size=(n, len(ALL_JOINTS), 3)))


def translate(seq, offset):
    return SkeletonSequence(timestamps=seq.timestamps,
                            positions=seq.positions + np.asarray(offset))


def pair(seq_a, seq_b):
    """The two-frame sequence [frame 0 of a, frame 0 of b]."""
    return SkeletonSequence(timestamps=[0.0, 0.1],
                            positions=np.concatenate([seq_a.positions[:1], seq_b.positions[:1]]))


def block(row, half, joint):
    """The (x, y, z) triple of `joint` in one hand's half of an RBPD row."""
    start = 33 * half + 3 * UPPER_BODY.index(joint)
    return row[start:start + 3]


class TestRBPD:
    def test_dimension_and_layout(self):
        seq = random_sequence(np.random.default_rng(0))
        d = describe_sequence(seq, DescriptorVariant.RBPD)
        assert d.shape == (1, 66)
        np.testing.assert_array_equal(d, oracle(seq, DescriptorVariant.RBPD))

    def test_self_hand_block_is_zero(self):
        d = describe_sequence(random_sequence(np.random.default_rng(1), 4),
                              DescriptorVariant.RBPD)
        for row in d:
            np.testing.assert_array_equal(block(row, 0, JointId.RHand), 0.0)
            np.testing.assert_array_equal(block(row, 1, JointId.LHand), 0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            seq = random_sequence(rng)
            offset = rng.normal(scale=5.0, size=3)
            d0 = describe_sequence(seq, DescriptorVariant.RBPD)
            d1 = describe_sequence(translate(seq, offset), DescriptorVariant.RBPD)
            assert np.max(np.abs(d1 - d0)) <= 1e-12

    def test_right_hand_block_comes_first(self):
        seq = random_sequence(np.random.default_rng(3))
        d = describe_sequence(seq, DescriptorVariant.RBPD)[0]
        frame = seq.positions[0]
        np.testing.assert_allclose(d[:3], frame[JointId.Head] - frame[JointId.RHand])


class TestRBPDT:
    def test_reference_hand_at_t_joints_at_t1(self):
        rng = np.random.default_rng(4)
        seq = pair(random_sequence(rng), random_sequence(rng))
        d = describe_sequence(seq, DescriptorVariant.RBPD_T)
        assert d.shape == (1, 66)
        f0, f1 = seq.positions
        np.testing.assert_array_equal(d[0], frame_rbpd(dict(zip(ALL_JOINTS, f0)),
                                                       dict(zip(ALL_JOINTS, f1))))

    def test_self_hand_block_is_frame_motion(self):
        rng = np.random.default_rng(5)
        seq = pair(random_sequence(rng), random_sequence(rng))
        d = describe_sequence(seq, DescriptorVariant.RBPD_T)[0]
        r0, r1 = seq.positions[:, JointId.RHand]
        np.testing.assert_allclose(block(d, 0, JointId.RHand), r1 - r0)

    def test_translation_invariance_common_offset(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            seq = pair(random_sequence(rng), random_sequence(rng))
            offset = rng.normal(scale=5.0, size=3)
            d0 = describe_sequence(seq, DescriptorVariant.RBPD_T)
            d1 = describe_sequence(translate(seq, offset), DescriptorVariant.RBPD_T)
            assert np.max(np.abs(d1 - d0)) <= 1e-12

    def test_static_frames_degenerate_to_rbpd(self):
        seq = random_sequence(np.random.default_rng(7))
        still = pair(seq, seq)
        np.testing.assert_array_equal(describe_sequence(still, DescriptorVariant.RBPD_T),
                                      describe_sequence(seq, DescriptorVariant.RBPD))


class TestHD:
    def test_layout(self):
        seq = random_sequence(np.random.default_rng(8))
        d = describe_sequence(seq, DescriptorVariant.HD)
        assert d.shape == (1, 6)
        t, r, l = seq.positions[0, [JointId.Torso, JointId.RHand, JointId.LHand]]
        np.testing.assert_allclose(d[0, :3], r - t)
        np.testing.assert_allclose(d[0, 3:], l - t)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            seq = random_sequence(rng)
            offset = rng.normal(scale=5.0, size=3)
            d0 = describe_sequence(seq, DescriptorVariant.HD)
            d1 = describe_sequence(translate(seq, offset), DescriptorVariant.HD)
            assert np.max(np.abs(d1 - d0)) <= 1e-12

    def test_hd_is_rbpd_subvector(self):
        # HD components are sign-flipped torso-row entries of RBPD
        seq = random_sequence(np.random.default_rng(10))
        rbpd = describe_sequence(seq, DescriptorVariant.RBPD)[0]
        hd = describe_sequence(seq, DescriptorVariant.HD)[0]
        np.testing.assert_allclose(hd[:3], -block(rbpd, 0, JointId.Torso))
        np.testing.assert_allclose(hd[3:], -block(rbpd, 1, JointId.Torso))


class TestHDT:
    def test_hands_at_t_torso_at_t1(self):
        rng = np.random.default_rng(11)
        seq = pair(random_sequence(rng), random_sequence(rng))
        d = describe_sequence(seq, DescriptorVariant.HD_T)[0]
        t1 = seq.positions[1, JointId.Torso]
        r0, l0 = seq.positions[0, [JointId.RHand, JointId.LHand]]
        np.testing.assert_allclose(d[:3], r0 - t1)
        np.testing.assert_allclose(d[3:], l0 - t1)

    def test_translation_invariance_common_offset(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            seq = pair(random_sequence(rng), random_sequence(rng))
            offset = rng.normal(scale=5.0, size=3)
            d0 = describe_sequence(seq, DescriptorVariant.HD_T)
            d1 = describe_sequence(translate(seq, offset), DescriptorVariant.HD_T)
            assert np.max(np.abs(d1 - d0)) <= 1e-12


class TestDescribeSequence:
    def test_spatial_counts(self):
        seq = random_sequence(np.random.default_rng(13), n=9)
        assert describe_sequence(seq, DescriptorVariant.RBPD).shape == (9, 66)
        assert describe_sequence(seq, DescriptorVariant.HD).shape == (9, 6)
        assert descriptor_rows(seq, DescriptorVariant.HD) == 9

    def test_time_extended_counts(self):
        seq = random_sequence(np.random.default_rng(14), n=9)
        assert describe_sequence(seq, DescriptorVariant.RBPD_T).shape == (8, 66)
        assert describe_sequence(seq, DescriptorVariant.HD_T).shape == (8, 6)
        assert descriptor_rows(seq, DescriptorVariant.HD_T) == 8
        one = random_sequence(np.random.default_rng(14), n=1)
        assert describe_sequence(one, DescriptorVariant.RBPD_T).shape == (0, 66)
        assert descriptor_rows(one, DescriptorVariant.RBPD_T) == 0

    def test_frame_indices_sequential(self):
        # row i describes frame i (and frame i + 1 for the -T variants)
        seq = random_sequence(np.random.default_rng(15), n=5)
        ds = describe_sequence(seq, DescriptorVariant.RBPD_T)
        for i, row in enumerate(ds):
            window = SkeletonSequence(timestamps=seq.timestamps[i:i + 2],
                                      positions=seq.positions[i:i + 2])
            np.testing.assert_array_equal(row, describe_sequence(
                window, DescriptorVariant.RBPD_T)[0])

    def test_matches_pairwise_calls(self):
        seq = random_sequence(np.random.default_rng(16), n=4)
        ds = describe_sequence(seq, DescriptorVariant.HD_T)
        frames = [dict(zip(ALL_JOINTS, f)) for f in seq.positions]
        for i, d in enumerate(ds):
            np.testing.assert_array_equal(d, frame_hd(frames[i], frames[i + 1]))


@st.composite
def sequences(draw):
    """1..12 frames of all 15 joints, coordinates of very different
    magnitudes (and exact duplicates across joints)."""
    n = draw(st.integers(1, 12))
    values = st.one_of(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 1.0, 1e-300]))
    positions = draw(arrays(np.float64, (n, 15, 3), elements=values))
    return SkeletonSequence(timestamps=np.arange(n) / 30.0, positions=positions)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(sequences(), st.sampled_from(list(DescriptorVariant)))
    def test_equals_per_frame_oracle(self, seq, variant):
        np.testing.assert_array_equal(describe_sequence(seq, variant), oracle(seq, variant))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(15), st.just(3)),
                  elements=st.floats(-3.0, 3.0)),
           arrays(np.float64, 3, elements=st.floats(-50.0, 50.0)),
           st.sampled_from(list(DescriptorVariant)))
    def test_translation_invariance(self, positions, offset, variant):
        seq = SkeletonSequence(timestamps=np.arange(len(positions)), positions=positions)
        d0 = describe_sequence(seq, variant)
        d1 = describe_sequence(translate(seq, offset), variant)
        assert d1.shape == d0.shape
        assert np.all(np.abs(d1 - d0) <= 1e-12)


class TestZNorm:
    def test_fit_matches_population_moments(self):
        rng = np.random.default_rng(17)
        data = rng.normal(loc=3.0, scale=2.0, size=(50, 6))
        stats = fit_znorm(data)
        np.testing.assert_allclose(stats.mean, data.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(stats.stddev, data.std(axis=0), atol=1e-12)

    def test_normalized_corpus_has_zero_mean_unit_std(self):
        rng = np.random.default_rng(18)
        data = rng.normal(loc=-1.0, scale=4.0, size=(200, 66))
        stats = fit_znorm(data)
        normed = (data - stats.mean) / stats.stddev
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(normed.std(axis=0), 1.0, atol=1e-12)

    def test_constant_component_floored_not_nan(self):
        data = np.zeros((10, 6))
        data[:, 0] = 7.0  # constant column
        data[:, 1] = np.arange(10)
        stats = fit_znorm(data)
        assert stats.stddev[0] == ZNORM_FLOOR
        out = (data[3] - stats.mean) / stats.stddev
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 6, 7, 66]),
           st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]), st.data())
    def test_blocked_stats_are_numpy_bytes(self, seed, dim, scale, data):
        # n from 2 up to several blocks of rows, block edges included; a
        # Fortran-ordered matrix, whose columns numpy sums pairwise, too
        block = _CHUNK_ELEMENTS // dim
        n = data.draw(st.one_of(
            st.integers(2, 4 * block + 1),
            st.sampled_from([block - 1, block, block + 1, 3 * block])))
        rng = np.random.default_rng(seed)
        offset = rng.normal(size=dim) * rng.choice([0.0, 5.0, 1e4])
        rows = (rng.normal(size=(n, dim)) + offset) * scale
        rows[:, rng.random(dim) < 0.2] = offset[0] * scale  # constant columns
        rows = np.asarray(rows, order=data.draw(st.sampled_from("CF")))
        stats = fit_znorm(rows)
        assert stats.mean.tobytes() == rows.mean(axis=0).tobytes()
        assert stats.stddev.tobytes() == \
            np.maximum(rows.std(axis=0), ZNORM_FLOOR).tobytes()

    def test_fit_holds_one_block(self):
        # np.std would hold a second (n, D) matrix of centred squares
        dim = 66
        rows = np.random.default_rng(21).normal(size=(48_000, dim))
        fit_znorm(rows[:10])
        tracemalloc.start()
        try:
            fit_znorm(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = (_CHUNK_ELEMENTS // dim + 1) * dim * 8
        # plus numpy's reduction buffer and a few (D,) arrays
        assert peak < block + 8 * np.getbufsize() + 64 * dim * 8, (
            f"fit_znorm peaked at {peak:,} traced bytes; one block is {block:,}")

    def test_fit_requires_two(self):
        with pytest.raises(ValueError):
            fit_znorm(np.zeros((1, 6)))
        with pytest.raises(ValueError):
            fit_znorm(np.zeros(6))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ZNormStats(np.zeros(6), np.ones(66))

    def test_identity_stats_are_noop(self):
        rng = np.random.default_rng(20)
        d = rng.normal(size=66)
        stats = ZNormStats.identity(66)
        np.testing.assert_array_equal((d - stats.mean) / stats.stddev, d)
