"""Tests for the synthetic corpus generator."""

import json
import re

import numpy as np
import pytest

from signflow.dataset import CorruptFileError, load_manifest, load_mask_archive, parse_skeleton_csv
from signflow.descriptors import DescriptorVariant, describe_sequence
from signflow.posture import HandSide
from signflow.skeleton import JointId, UPPER_BODY
from signflow.synthetic import (
    ClassSpec,
    SyntheticConfig,
    config_doc,
    generate_synthetic_corpus,
    load_synthetic_config,
    write_corpus,
)


def two_anchor_classes(mask=0):
    return [ClassSpec(template=0, anchor=JointId.Head, mask=mask),
            ClassSpec(template=0, anchor=JointId.Neck, mask=mask)]


class TestDeterminism:
    def test_zero_noise_class_sequences_identical_except_timestamps(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(), counts=(3, 0, 0),
                              noise=0.0, frame_count_range=(20, 20), seed=11,
                              subjects=(3, 1, 1))
        corpus = generate_synthetic_corpus(cfg)
        for label in (0, 1):
            seqs = [s for s, e in zip(corpus.sequences, corpus.manifest.entries)
                    if e.label == label]
            assert len(seqs) == 3
            base = seqs[0].positions
            for other in seqs[1:]:
                np.testing.assert_array_equal(other.positions, base)
            stamps = [tuple(s.timestamps.tolist()) for s in seqs]
            assert len(set(stamps)) == 3

    def test_same_seed_same_corpus(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(mask=1),
                              counts=(2, 1, 1), noise=0.02,
                              frame_count_range=(10, 16), seed=5,
                              subjects=(2, 1, 1))
        a = generate_synthetic_corpus(cfg)
        b = generate_synthetic_corpus(cfg)
        assert len(a.sequences) == len(b.sequences)
        for sa, sb in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(sa.positions, sb.positions)
        for ma, mb in zip(a.masks, b.masks):
            for fa, fb in zip(ma, mb):
                for side in HandSide:
                    np.testing.assert_array_equal(fa[side].mask, fb[side].mask)
        assert a.manifest.entries == b.manifest.entries

    def test_masks_do_not_perturb_sequences(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(), counts=(2, 0, 1),
                              noise=0.01, frame_count_range=(8, 12), seed=3)
        with_m = generate_synthetic_corpus(cfg, with_masks=True)
        without = generate_synthetic_corpus(cfg, with_masks=False)
        assert without.masks is None
        for sa, sb in zip(with_m.sequences, without.sequences):
            np.testing.assert_array_equal(sa.positions, sb.positions)
        assert all(e.mask_dir is None for e in without.manifest.entries)

    def test_different_seed_differs(self):
        mk = lambda seed: generate_synthetic_corpus(SyntheticConfig(
            classes=two_anchor_classes(), counts=(1, 0, 0), noise=0.01,
            frame_count_range=(12, 12), seed=seed), with_masks=False)
        a, b = mk(1), mk(2)
        assert not np.array_equal(a.sequences[0].positions,
                                  b.sequences[0].positions)


class TestAnchorMechanism:
    def make_pair(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(), counts=(1, 0, 0),
                              noise=0.0, frame_count_range=(25, 25), seed=7,
                              subjects=(1, 1, 1))
        corpus = generate_synthetic_corpus(cfg, with_masks=False)
        return corpus.sequences

    def test_world_hand_paths_identical(self):
        a, b = self.make_pair()
        np.testing.assert_array_equal(a.positions[:, JointId.RHand],
                                      b.positions[:, JointId.RHand])

    def test_hd_streams_identical_per_frame(self):
        a, b = self.make_pair()
        for variant in (DescriptorVariant.HD, DescriptorVariant.HD_T):
            da = describe_sequence(a, variant)
            db = describe_sequence(b, variant)
            np.testing.assert_array_equal(da, db)

    def test_rbpd_streams_differ_on_anchor_rows(self):
        a, b = self.make_pair()
        da = describe_sequence(a, DescriptorVariant.RBPD)
        db = describe_sequence(b, DescriptorVariant.RBPD)
        assert not np.array_equal(da, db)
        head = UPPER_BODY.index(JointId.Head)
        neck = UPPER_BODY.index(JointId.Neck)
        half = da.shape[1] // 2
        for base in (0, half):
            for row in (head, neck):
                sl = slice(base + 3 * row, base + 3 * row + 3)
                assert np.max(np.abs(da[:, sl] - db[:, sl])) > 0.05
        # joints not involved in the posing agree exactly
        torso = UPPER_BODY.index(JointId.Torso)
        sl = slice(3 * torso, 3 * torso + 3)
        np.testing.assert_array_equal(da[:, sl], db[:, sl])
        da_t = describe_sequence(a, DescriptorVariant.RBPD_T)
        db_t = describe_sequence(b, DescriptorVariant.RBPD_T)
        assert not np.array_equal(da_t, db_t)

    def test_mask_only_pair_shares_skeleton_stream(self):
        cfg = SyntheticConfig(
            classes=[ClassSpec(template=1, anchor=JointId.Head, mask=0),
                     ClassSpec(template=1, anchor=JointId.Head, mask=1)],
            counts=(1, 0, 0), noise=0.0, frame_count_range=(15, 15), seed=9,
            subjects=(1, 1, 1))
        corpus = generate_synthetic_corpus(cfg)
        a, b = corpus.sequences
        np.testing.assert_array_equal(a.positions, b.positions)
        ra = corpus.masks[0][0][HandSide.RIGHT].mask
        rb = corpus.masks[1][0][HandSide.RIGHT].mask
        assert not np.array_equal(ra, rb)
        la = corpus.masks[0][0][HandSide.LEFT].mask
        lb = corpus.masks[1][0][HandSide.LEFT].mask
        np.testing.assert_array_equal(la, lb)


class TestStructure:
    def test_round_robin_subjects_and_splits(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(), counts=(5, 2, 2),
                              noise=0.0, frame_count_range=(5, 5), seed=1,
                              subjects=(2, 1, 1))
        corpus = generate_synthetic_corpus(cfg, with_masks=False)
        m = corpus.manifest
        train_subjects = [e.subject for e in m.entries
                          if e.split == "train" and e.label == 0]
        assert train_subjects == ["s00", "s01", "s00", "s01", "s00"]
        assert {e.subject for e in m.entries if e.split == "validation"} == {"s02"}
        assert {e.subject for e in m.entries if e.split == "test"} == {"s03"}
        assert m.n_classes == 2
        assert len(m.entries) == 2 * 9

    def test_sequence_metadata(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(), counts=(1, 1, 1),
                              noise=0.0, frame_count_range=(6, 6), seed=2)
        corpus = generate_synthetic_corpus(cfg, with_masks=False)
        # the manifest entry of the same index carries label and subject
        for i, (seq, entry) in enumerate(zip(corpus.sequences, corpus.manifest.entries)):
            assert seq.source == f"synthetic:{i:05d}"
            assert entry.sequence_path == f"seq_{i:05d}.csv"
            assert len(seq) == 6
        assert [e.label for e in corpus.manifest.entries] == [0, 0, 0, 1, 1, 1]

    def test_frame_counts_within_range(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(), counts=(6, 0, 0),
                              noise=0.01, frame_count_range=(8, 14), seed=4)
        corpus = generate_synthetic_corpus(cfg, with_masks=False)
        lengths = {len(s) for s in corpus.sequences}
        assert all(8 <= n <= 14 for n in lengths)
        assert len(lengths) > 1

    def test_masks_are_single_component_regions(self):
        cfg = SyntheticConfig(
            classes=[ClassSpec(template=0, anchor=JointId.Head, mask=m)
                     for m in (0, 1, 2, 3, 4)],
            counts=(1, 0, 0), noise=0.05, frame_count_range=(4, 4), seed=6)
        corpus = generate_synthetic_corpus(cfg)
        for video in corpus.masks:
            for sides in video:
                for region in sides.values():
                    assert region.present
                    assert region.mask.any()


class TestWriteCorpus:
    def test_written_corpus_round_trips(self, tmp_path):
        cfg = SyntheticConfig(classes=two_anchor_classes(mask=2),
                              counts=(2, 1, 1), noise=0.01,
                              frame_count_range=(6, 9), seed=8,
                              subjects=(2, 1, 1))
        corpus = generate_synthetic_corpus(cfg)
        manifest_path = write_corpus(corpus, tmp_path / "corpus",
                                     config_hash="deadbeef")
        m = load_manifest(manifest_path)
        assert m.entries == corpus.manifest.entries
        root = manifest_path.parent
        for i, entry in enumerate(m.entries):
            seq = parse_skeleton_csv(root / entry.sequence_path)
            np.testing.assert_array_equal(seq.positions,
                                          corpus.sequences[i].positions)
            frames = load_mask_archive(root / entry.mask_dir)
            assert len(frames) == len(corpus.masks[i])
            for got, want in zip(frames, corpus.masks[i]):
                for side in HandSide:
                    np.testing.assert_array_equal(got[side].mask,
                                                  want[side].mask)

    def test_config_json_round_trip(self, tmp_path):
        cfg = SyntheticConfig(classes=two_anchor_classes(mask=3),
                              counts=(4, 1, 2), noise=0.015,
                              frame_count_range=(10, 20), seed=42,
                              subjects=(3, 1, 2), subject_scale=1.5)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_doc(cfg), indent=2) + "\n")
        back = load_synthetic_config(p)
        assert back == cfg


class TestValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            SyntheticConfig(classes=[ClassSpec(0, JointId.Head, 0)])

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(classes=two_anchor_classes(), noise=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("noise", True), ("noise", float("inf")), ("noise", float("nan")),
        ("noise", "0.1"), ("noise", None),
        pytest.param("noise", 10 ** 400, id="noise-huge-int"),
        ("subject_scale", False), ("subject_scale", float("inf")),
        ("subject_scale", -1.0)])
    def test_non_real_value_rejected(self, field, value):
        # a bool read as 1.0 was 100 times the default noise
        with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0"):
            SyntheticConfig(classes=two_anchor_classes(), **{field: value})

    def test_real_values_accepted(self):
        cfg = SyntheticConfig(classes=two_anchor_classes(), noise=0, subject_scale=1)
        assert (cfg.noise, cfg.subject_scale) == (0, 1)

    def test_active_hand_anchor_rejected(self):
        with pytest.raises(ValueError):
            ClassSpec(template=0, anchor=JointId.RHand, mask=0)

    def test_lower_body_anchor_rejected(self):
        with pytest.raises(ValueError):
            ClassSpec(template=0, anchor=JointId.LFoot, mask=0)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError):
            ClassSpec(template=99, anchor=JointId.Head, mask=0)

    def test_unknown_mask_rejected(self):
        with pytest.raises(ValueError):
            ClassSpec(template=0, anchor=JointId.Head, mask=77)

    def test_bad_frame_range_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(classes=two_anchor_classes(),
                            frame_count_range=(1, 5))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(classes=two_anchor_classes(), seed=-1)

    def test_no_subjects_for_populated_split_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(classes=two_anchor_classes(), counts=(2, 1, 0),
                            subjects=(1, 0, 1))

    @pytest.mark.parametrize("field, value", [
        ("counts", (8.7, True, 4)), ("counts", (8, True, 4)), ("counts", (8, 2, "4")),
        ("frame_count_range", (10.5, 12)), ("subjects", (2.5, 1, 1)),
        ("seed", 1.5), ("seed", True), ("seed", float("nan"))])
    def test_non_integral_value_rejected(self, field, value):
        # int() would truncate 8.7 to 8 and read True as 1
        with pytest.raises(ValueError, match="integer"):
            SyntheticConfig(classes=two_anchor_classes(), **{field: value})

    def test_integral_floats_become_ints(self):
        cfg = SyntheticConfig(classes=[ClassSpec(1.0, JointId.Head, 2.0),
                                       ClassSpec(1, JointId.Neck, 3)],
                              counts=(8.0, 2, 4), frame_count_range=(10.0, 12),
                              seed=3.0, subjects=(4.0, 2, 2))
        assert cfg.classes[0] == ClassSpec(1, JointId.Head, 2)
        values = (cfg.classes[0].template, cfg.classes[0].mask, *cfg.counts,
                  *cfg.frame_count_range, cfg.seed, *cfg.subjects)
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("field, value", [
        ("template", True), ("template", 1.5), ("template", "1"),
        ("mask", False), ("mask", 2.5)])
    def test_class_spec_ids_must_be_integers(self, field, value):
        kwargs = {"template": 0, "anchor": JointId.Head, "mask": 0, field: value}
        with pytest.raises(ValueError, match="unknown"):
            ClassSpec(**kwargs)

    def test_fractional_template_in_a_file_names_the_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_doc(SyntheticConfig(classes=two_anchor_classes())),
                                indent=2) + "\n")
        p.write_text(p.read_text().replace('"template": 0', '"template": 0.5', 1))
        with pytest.raises(CorruptFileError, match=rf"^{re.escape(str(p))}: "
                                                   r"unknown trajectory template 0\.5"):
            load_synthetic_config(p)

    def test_dict_class_specs_accepted(self):
        cfg = SyntheticConfig(classes=[
            {"template": 0, "anchor": JointId.Head, "mask": 0},
            {"template": 1, "anchor": JointId.Neck, "mask": 1},
        ])
        assert cfg.classes[0].anchor == JointId.Head
