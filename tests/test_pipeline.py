"""End-to-end tests for the training/prediction/evaluation orchestration."""

import json

import numpy as np
import pytest

from signflow.bundle import load_bundle, save_bundle
from signflow.codebook import build_codebook
from signflow.dataset import CorruptFileError, load_manifest, parse_skeleton_csv, write_skeleton_csv
from signflow.descriptors import describe_sequence
from signflow.pipeline import (
    TIMING_STAGES,
    CorpusItem,
    derive_seed,
    evaluate_pipeline,
    items_from_corpus,
    load_items,
    make_config,
    predict_item,
    train_pipeline,
)
from signflow.skeleton import EmptyInputError, JointId, SkeletonSequence
from signflow.synthetic import (
    ClassSpec,
    SyntheticConfig,
    generate_synthetic_corpus,
    write_corpus,
)

EASY_CONFIG = SyntheticConfig(
    classes=[
        ClassSpec(template=0, anchor=JointId.Head, mask=0),
        ClassSpec(template=1, anchor=JointId.Neck, mask=1),
        ClassSpec(template=2, anchor=JointId.Torso, mask=2),
    ],
    counts=(8, 4, 6),
    noise=0.01,
    frame_count_range=(12, 16),
    seed=11,
)

TRAIN_CONFIG = {
    "gesture_k": 24,
    "posture_k": 32,
    "hmm_states": 5,
    "hmm_iters": 8,
    "epochs": 60,
    "posture_cost": 10.0,
    "seed": 3,
}


@pytest.fixture(scope="module")
def easy_items():
    return items_from_corpus(generate_synthetic_corpus(EASY_CONFIG))


@pytest.fixture(scope="module")
def easy_bundle(easy_items):
    return train_pipeline(easy_items, TRAIN_CONFIG)


def _no_fit(*args, **kwargs):
    raise AssertionError("training reached the gesture codebook fit")


class TestConfig:
    def test_defaults_fill_in(self):
        config = make_config()
        assert config["descriptor"] == "rbpd-t"
        assert config["fusion"] == "kde"

    def test_override(self):
        config = make_config(gesture_k=7, fusion="linear")
        assert config["gesture_k"] == 7
        assert config["fusion"] == "linear"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            make_config(nonsense=1)

    def test_bad_descriptor_rejected(self):
        with pytest.raises(ValueError):
            make_config(descriptor="splines")

    def test_bad_fusion_rejected(self):
        with pytest.raises(ValueError, match="fusion"):
            make_config(fusion="majority-vote")

    @pytest.mark.parametrize("key, value", [
        ("sc_sample_cap", -2), ("sc_sample_cap", 2.5), ("sc_sample_cap", "5"),
        ("hmm_iters", -1), ("gesture_k", 0), ("epochs", float("inf")),
        ("hmm_tol", float("nan")), ("hmm_tol", float("inf")), ("hmm_tol", -1e-4),
        ("hmm_tol", "0.1"), ("hmm_tol", True), ("hmm_tol", False),
        ("gesture_k", True), ("sc_sample_cap", False),
        ("seed", 1.5), ("seed", "7"), ("seed", True), ("seed", float("nan")),
        ("seed", None),
        ("posture_cost", float("inf")), ("posture_cost", float("nan")),
        ("posture_cost", -1), ("posture_cost", 0.0), ("posture_cost", "0.8"),
        ("posture_cost", True), ("fusion_cost", float("inf")),
        ("fusion_cost", float("nan")), ("fusion_cost", -1), ("fusion_cost", 0),
        ("fusion_cost", True),
        pytest.param("posture_cost", 10 ** 400, id="posture_cost-huge-int"),
    ])
    def test_bad_number_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=key):
            make_config(**{key: value})

    def test_zero_cap_iters_and_tol_accepted(self):
        config = make_config(sc_sample_cap=0, hmm_iters=0, hmm_tol=0.0)
        assert (config["sc_sample_cap"], config["hmm_iters"]) == (0, 0)

    def test_integral_seed_accepted(self):
        for seed in (7, 7.0, np.int64(7)):
            assert make_config(seed=seed)["seed"] == 7
            assert type(make_config(seed=seed)["seed"]) is int

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(3, "gesture-cb")
        assert a == derive_seed(3, "gesture-cb")
        assert a != derive_seed(3, "posture-cb")
        assert a != derive_seed(4, "gesture-cb")
        assert 0 <= a < 2 ** 31


class TestItems:
    def test_corpus_adaptation_aligns_with_manifest(self, easy_items):
        corpus = generate_synthetic_corpus(EASY_CONFIG)
        assert len(easy_items) == len(corpus.manifest.entries)
        for item, entry in zip(easy_items, corpus.manifest.entries):
            assert item.label == entry.label
            assert item.split == entry.split
            assert item.masks is not None

    def test_corpus_without_masks(self):
        corpus = generate_synthetic_corpus(EASY_CONFIG, with_masks=False)
        items = items_from_corpus(corpus)
        assert all(i.masks is None for i in items)

    def test_load_items_round_trips_written_corpus(self, tmp_path, easy_items):
        corpus = generate_synthetic_corpus(EASY_CONFIG)
        write_corpus(corpus, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        loaded = load_items(manifest, tmp_path)
        assert len(loaded) == len(easy_items)
        for disk, mem in zip(loaded, easy_items):
            assert disk.label == mem.label
            assert disk.split == mem.split
            np.testing.assert_array_equal(disk.sequence.timestamps, mem.sequence.timestamps)
            np.testing.assert_array_equal(disk.sequence.positions, mem.sequence.positions)
            for md, mm in zip(disk.masks, mem.masks):
                for side in mm:
                    np.testing.assert_array_equal(md[side].mask, mm[side].mask)

    def test_mask_frame_count_must_match_skeleton(self, tmp_path):
        corpus = generate_synthetic_corpus(EASY_CONFIG)
        write_corpus(corpus, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        entry = manifest.entries[1]
        last = len(corpus.sequences[1]) - 1
        for name in (f"{last:05d}_L.pgm", f"{last:05d}_R.pgm"):
            (tmp_path / entry.mask_dir / name).unlink()
        with pytest.raises(CorruptFileError) as exc:
            load_items(manifest, tmp_path)
        assert str(tmp_path / entry.mask_dir) in str(exc.value)
        assert load_items(manifest, tmp_path, with_masks=False)

    def test_load_items_split_filter(self, tmp_path):
        corpus = generate_synthetic_corpus(EASY_CONFIG)
        write_corpus(corpus, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        test_only = load_items(manifest, tmp_path, splits=("test",))
        assert test_only
        assert all(i.split == "test" for i in test_only)


class TestTraining:
    def test_bundle_members(self, easy_bundle):
        assert easy_bundle.n_classes == 3
        assert len(easy_bundle.hmms) == 3
        assert easy_bundle.gesture_codebook.k == 24
        assert easy_bundle.posture_model is not None
        assert easy_bundle.fusion_linear is not None
        assert easy_bundle.fusion_kde is not None

    def test_config_echo(self, easy_bundle):
        echo = easy_bundle.config
        assert echo["n_classes"] == 3
        assert echo["gesture_k_effective"] == 24
        assert echo["posture_k_effective"] == 32
        assert echo["seed"] == 3

    def test_gesture_k_clamped_to_data(self):
        cfg = SyntheticConfig(classes=EASY_CONFIG.classes, counts=(2, 0, 0),
                              noise=0.0, frame_count_range=(5, 5), seed=1)
        items = items_from_corpus(generate_synthetic_corpus(cfg,
                                                            with_masks=False))
        # rbpd-t yields n-1 = 4 descriptors per sequence, 6 sequences
        bundle = train_pipeline(items, {"gesture_k": 10 ** 6, "hmm_states": 3,
                                        "hmm_iters": 3, "seed": 0,
                                        "fusion": "gesture-only"})
        assert bundle.gesture_codebook.k == 24
        assert bundle.config["gesture_k_effective"] == 24

    @pytest.mark.parametrize("descriptor", ["hd", "rbpd-t"])
    def test_training_describes_each_sequence_once(self, descriptor, monkeypatch):
        # through the name perfbench traces, straight into the codebook's
        # matrix: the same codebook as from the described arrays
        cfg = SyntheticConfig(classes=EASY_CONFIG.classes, counts=(3, 0, 0),
                              frame_count_range=(6, 9), seed=4)
        train = items_from_corpus(generate_synthetic_corpus(cfg, with_masks=False))
        rows = []

        def counting(seq, variant):
            out = describe_sequence(seq, variant)
            rows.append(len(out))
            return out

        monkeypatch.setattr("signflow.pipeline.describe_sequence", counting)
        bundle = train_pipeline(train, {"descriptor": descriptor, "gesture_k": 8,
                                        "hmm_states": 2, "hmm_iters": 2, "seed": 5,
                                        "fusion": "gesture-only"})
        shift = descriptor.endswith("-t")
        assert rows == [len(i.sequence) - shift for i in train]
        want, _ = build_codebook([describe_sequence(i.sequence, descriptor) for i in train],
                                 k=8, seed=derive_seed(5, "gesture-cb"))
        assert bundle.gesture_codebook.centers.tobytes() == want.centers.tobytes()
        assert bundle.gesture_codebook.wcss_history == want.wcss_history

    def test_no_training_items_rejected(self):
        with pytest.raises(EmptyInputError):
            train_pipeline([], {})

    def test_missing_class_rejected(self, easy_items):
        gap = [i for i in easy_items if not (i.split == "train" and
                                             i.label == 1)]
        with pytest.raises(ValueError, match="covers classes"):
            train_pipeline(gap, TRAIN_CONFIG)

    def test_maskless_training_skips_posture_and_fusion(self):
        corpus = generate_synthetic_corpus(EASY_CONFIG, with_masks=False)
        bundle = train_pipeline(items_from_corpus(corpus),
                                {"gesture_k": 16, "hmm_states": 4,
                                 "hmm_iters": 5, "seed": 2,
                                 "fusion": "gesture-only"})
        assert bundle.posture_model is None
        assert bundle.fusion_linear is None
        assert bundle.fusion_kde is None

    def test_default_kde_without_validation_split_rejected(self, easy_items,
                                                            monkeypatch):
        # the bundle could not run its own default mode, so it is never made
        monkeypatch.setattr("signflow.pipeline.build_codebook", _no_fit)
        no_val = [i for i in easy_items if i.split != "validation"]
        with pytest.raises(ValueError, match="there is no validation split"):
            train_pipeline(no_val, TRAIN_CONFIG)

    @pytest.mark.parametrize("fusion, case, cause", [
        ("kde", "no-masks", "the train split has no hand masks"),
        ("posture-only", "no-masks", "the train split has no hand masks"),
        ("kde", "validation-unmasked", "the validation split lacks hand masks"),
        ("linear", "validation-gap", r"the validation split misses classes \[2\]"),
    ], ids=["kde-no-masks", "posture-only-no-masks", "kde-validation-unmasked",
            "linear-validation-gap"])
    def test_stored_mode_must_be_runnable(self, easy_items, fusion, case, cause,
                                          monkeypatch):
        # each cause is known from the items, so it is raised before any fit
        monkeypatch.setattr("signflow.pipeline.build_codebook", _no_fit)

        def unmasked(i):
            return CorpusItem(i.sequence, i.label, i.split)
        items = {
            "no-masks": [unmasked(i) for i in easy_items],
            "validation-unmasked": [unmasked(i) if i.split == "validation" else i
                                    for i in easy_items],
            "validation-gap": [i for i in easy_items
                               if not (i.split == "validation" and i.label == 2)],
        }[case]
        with pytest.raises(ValueError, match=cause):
            train_pipeline(items, {**TRAIN_CONFIG, "fusion": fusion})

    def test_one_frame_training_item_error_names_its_csv(self, tmp_path,
                                                         easy_items):
        # a degenerate recording aborts training, as it aborts evaluation
        seq = easy_items[0].sequence
        path = tmp_path / "short-train.csv"
        write_skeleton_csv(path, SkeletonSequence(timestamps=seq.timestamps[:1],
                                                  positions=seq.positions[:1]))
        short = CorpusItem(sequence=parse_skeleton_csv(path), label=0, split="train")
        with pytest.raises(EmptyInputError, match="short-train.csv"):
            train_pipeline(easy_items + [short],
                           {**TRAIN_CONFIG, "fusion": "gesture-only"})

    def test_bundle_does_not_depend_on_the_filesystem(self, tmp_path, easy_items):
        # the mask archive's directory order must not reach the bundle
        write_corpus(generate_synthetic_corpus(EASY_CONFIG), tmp_path / "data")
        loaded = load_items(load_manifest(tmp_path / "data" / "manifest.json"),
                            tmp_path / "data")
        save_bundle(train_pipeline(easy_items, TRAIN_CONFIG), tmp_path / "mem.json")
        save_bundle(train_pipeline(loaded, TRAIN_CONFIG), tmp_path / "disk.json")
        assert (tmp_path / "mem.json").read_bytes() == \
               (tmp_path / "disk.json").read_bytes()

    def test_training_is_deterministic(self, tmp_path, easy_items):
        a = train_pipeline(easy_items, TRAIN_CONFIG)
        b = train_pipeline(easy_items, TRAIN_CONFIG)
        save_bundle(a, tmp_path / "a.json")
        save_bundle(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
               (tmp_path / "b.json").read_bytes()


class TestPrediction:
    def test_prediction_fields(self, easy_bundle, easy_items):
        item = next(i for i in easy_items if i.split == "test")
        pred = predict_item(easy_bundle, item.sequence, masks=item.masks)
        assert pred.mode == "kde"
        assert pred.gesture.values.shape == (3,)
        assert pred.posture.shape == (3,)
        assert pred.coupled.shape == (6,) and pred.coupled.dtype == np.float64
        assert 0 <= pred.fused_class < 3
        assert set(pred.timings) == set(TIMING_STAGES)

    def test_gesture_only_skips_posture(self, easy_bundle, easy_items):
        item = next(i for i in easy_items if i.split == "test")
        pred = predict_item(easy_bundle, item.sequence, mode="gesture-only")
        assert pred.posture is None
        assert pred.coupled is None
        assert pred.fused_class == pred.gesture.best_class
        assert pred.timings["posture_description"] == 0.0

    def test_posture_only_uses_argmax(self, easy_bundle, easy_items):
        item = next(i for i in easy_items if i.split == "test")
        pred = predict_item(easy_bundle, item.sequence, masks=item.masks,
                            mode="posture-only")
        assert pred.fused_class == int(pred.posture.argmax())

    def test_unknown_mode_rejected(self, easy_bundle, easy_items):
        item = easy_items[0]
        with pytest.raises(ValueError, match="unknown fusion mode"):
            predict_item(easy_bundle, item.sequence, masks=item.masks,
                         mode="vote")

    def test_posture_mode_without_masks_rejected(self, easy_bundle,
                                                 easy_items):
        item = easy_items[0]
        with pytest.raises(ValueError, match="needs hand masks"):
            predict_item(easy_bundle, item.sequence, mode="kde")

    def test_posture_mode_without_model_rejected(self, easy_items):
        corpus = generate_synthetic_corpus(EASY_CONFIG, with_masks=False)
        bundle = train_pipeline(items_from_corpus(corpus),
                                {"gesture_k": 16, "hmm_states": 4,
                                 "hmm_iters": 5, "seed": 2,
                                 "fusion": "gesture-only"})
        item = easy_items[0]
        with pytest.raises(ValueError, match="posture model"):
            predict_item(bundle, item.sequence, masks=item.masks,
                         mode="posture-only")

    def test_mode_defaults_to_bundle_config(self, easy_bundle, easy_items):
        item = next(i for i in easy_items if i.split == "test")
        pred = predict_item(easy_bundle, item.sequence, masks=item.masks)
        assert pred.mode == easy_bundle.config["fusion"]


class TestEvaluation:
    def test_all_modes_learn_the_easy_corpus(self, easy_bundle, easy_items):
        test = [i for i in easy_items if i.split == "test"]
        for mode in ("kde", "linear", "gesture-only", "posture-only"):
            result = evaluate_pipeline(easy_bundle, test, mode=mode)
            assert result.report.macro_fscore >= 0.9, mode

    def test_timing_total_is_sum_of_stages(self, easy_bundle, easy_items):
        test = [i for i in easy_items if i.split == "test"][:4]
        result = evaluate_pipeline(easy_bundle, test)
        assert result.timings["total"] == sum(result.timings[s]
                                              for s in TIMING_STAGES)
        assert all(result.timings[s] >= 0.0 for s in TIMING_STAGES)

    def test_confusion_rows_are_labels(self, easy_bundle, easy_items):
        test = [i for i in easy_items if i.split == "test"]
        result = evaluate_pipeline(easy_bundle, test)
        assert result.confusion.counts.sum() == len(test)
        for c in range(3):
            expected = sum(1 for i in test if i.label == c)
            assert result.confusion.counts[c].sum() == expected

    def test_predictions_are_deterministic(self, easy_bundle, easy_items):
        test = [i for i in easy_items if i.split == "test"]
        a = evaluate_pipeline(easy_bundle, test)
        b = evaluate_pipeline(easy_bundle, test)
        assert [p.fused_class for p in a.predictions] == \
               [p.fused_class for p in b.predictions]
        np.testing.assert_array_equal(a.confusion.counts, b.confusion.counts)
        assert a.report.macro_fscore == b.report.macro_fscore

    def test_empty_evaluation_rejected(self, easy_bundle):
        with pytest.raises(EmptyInputError):
            evaluate_pipeline(easy_bundle, [])

    def test_one_frame_sequence_error_names_its_csv(self, tmp_path, easy_bundle,
                                                    easy_items):
        # rbpd-t needs two frames; the error must say which recording has one
        assert easy_bundle.config["descriptor"] == "rbpd-t"
        seq = easy_items[0].sequence
        path = tmp_path / "short.csv"
        write_skeleton_csv(path, SkeletonSequence(timestamps=seq.timestamps[:1],
                                                  positions=seq.positions[:1]))
        short = CorpusItem(sequence=parse_skeleton_csv(path), label=0, split="test")
        test = [i for i in easy_items if i.split == "test"][:2]
        with pytest.raises(EmptyInputError, match="short.csv"):
            evaluate_pipeline(easy_bundle, test + [short], mode="gesture-only")

    def test_old_layout_bundle_predicts_identically(self, tmp_path, easy_bundle,
                                                    easy_items):
        # v1 bundles used to echo each linear model's fit settings and a
        # cross-validation accuracy; the loader ignores those keys
        save_bundle(easy_bundle, tmp_path / "new.json")
        doc = json.loads((tmp_path / "new.json").read_text())
        for member, cost in (("posture", 10.0), ("fusion_linear", 0.7641)):
            echo = {"cost": cost, "epochs": 60, "seed": 12345, "folds": 3,
                    "cv_accuracy": 0.875, "n_train": 24}
            doc[member]["model"]["config"] = echo
            doc[member]["config"] = dict(echo)
        (tmp_path / "old.json").write_text(json.dumps(doc, indent=2) + "\n")
        old = load_bundle(tmp_path / "old.json")
        assert old.posture_model.model.weights.tobytes() == \
               easy_bundle.posture_model.model.weights.tobytes()
        assert old.fusion_linear.weights.tobytes() == \
               easy_bundle.fusion_linear.weights.tobytes()
        test = [i for i in easy_items if i.split == "test"]
        for mode in ("kde", "linear", "posture-only"):
            a = evaluate_pipeline(easy_bundle, test, mode=mode)
            b = evaluate_pipeline(old, test, mode=mode)
            assert [p.fused_class for p in a.predictions] == \
                   [p.fused_class for p in b.predictions], mode

    def test_saved_bundle_predicts_identically(self, tmp_path, easy_bundle,
                                               easy_items):
        save_bundle(easy_bundle, tmp_path / "m.json")
        reloaded = load_bundle(tmp_path / "m.json")
        test = [i for i in easy_items if i.split == "test"]
        for item in test:
            a = predict_item(easy_bundle, item.sequence, masks=item.masks)
            b = predict_item(reloaded, item.sequence, masks=item.masks)
            assert a.fused_class == b.fused_class
            np.testing.assert_array_equal(a.gesture.values, b.gesture.values)
            np.testing.assert_array_equal(a.posture, b.posture)
