"""Tests for model bundle serialization."""

import json

import numpy as np
import pytest

from signflow.bundle import (
    FORMAT_VERSION,
    BundleVersionError,
    ModelBundle,
    config_hash,
    load_bundle,
    save_bundle,
)
from signflow.codebook import Codebook
from signflow.dataset import CorruptFileError
from signflow.descriptors import DescriptorVariant, ZNormStats
from signflow.fusion import KdeFusionModel
from signflow.hmm import init_left_right
from signflow.linear_model import MulticlassLinearModel
from signflow.posture import PostureModel


def tiny_bundle(rng=None, with_optional=True):
    rng = rng or np.random.default_rng(100)
    gesture_cb = Codebook(centers=rng.normal(size=(3, 6)),
                          znorm=ZNormStats(mean=rng.normal(size=6),
                                           stddev=np.full(6, 0.5)),
                          seed=7, variant=DescriptorVariant.HD,
                          wcss_history=[5.0, 3.5, 3.5])
    hmms = init_left_right(4, 3, 2)
    kwargs = {}
    if with_optional:
        posture_cb = Codebook(centers=rng.normal(size=(4, 49)),
                              znorm=ZNormStats.identity(49), seed=1)
        kwargs["posture_model"] = PostureModel(
            model=MulticlassLinearModel(weights=rng.normal(size=(2, 8))),
            codebook=posture_cb)
        kwargs["fusion_linear"] = MulticlassLinearModel(
            weights=rng.normal(size=(2, 4)))
        kwargs["fusion_kde"] = KdeFusionModel(
            class_points=[rng.normal(size=(3, 4)), rng.normal(size=(2, 4))],
            bandwidths=np.abs(rng.normal(size=(2, 4))) + 0.1)
    return ModelBundle(gesture_codebook=gesture_cb, hmms=hmms,
                       config={"seed": 7, "descriptor": "hd"}, **kwargs)


class TestRoundTrip:
    def test_every_array_survives_exactly(self, tmp_path):
        b = tiny_bundle()
        p = tmp_path / "model.json"
        save_bundle(b, p)
        back = load_bundle(p)
        np.testing.assert_array_equal(back.gesture_codebook.centers,
                                      b.gesture_codebook.centers)
        np.testing.assert_array_equal(back.gesture_codebook.znorm.mean,
                                      b.gesture_codebook.znorm.mean)
        assert back.gesture_codebook.variant == DescriptorVariant.HD
        assert back.gesture_codebook.wcss_history == b.gesture_codebook.wcss_history
        for ha, hb in zip(back.hmms, b.hmms):
            np.testing.assert_array_equal(ha.pi, hb.pi)
            np.testing.assert_array_equal(ha.A, hb.A)
            np.testing.assert_array_equal(ha.B, hb.B)
        np.testing.assert_array_equal(back.posture_model.model.weights,
                                      b.posture_model.model.weights)
        np.testing.assert_array_equal(back.posture_model.codebook.centers,
                                      b.posture_model.codebook.centers)
        assert back.posture_model.codebook.variant is None
        np.testing.assert_array_equal(back.fusion_linear.weights, b.fusion_linear.weights)
        for pa, pb in zip(back.fusion_kde.class_points, b.fusion_kde.class_points):
            np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(back.fusion_kde.bandwidths,
                                      b.fusion_kde.bandwidths)
        np.testing.assert_array_equal(back.fusion_kde.priors, b.fusion_kde.priors)
        assert back.config == b.config

    def test_optional_parts_absent(self, tmp_path):
        b = tiny_bundle(with_optional=False)
        p = tmp_path / "model.json"
        save_bundle(b, p)
        back = load_bundle(p)
        assert back.posture_model is None
        assert back.fusion_linear is None
        assert back.fusion_kde is None

    def test_save_twice_identical_bytes(self, tmp_path):
        b = tiny_bundle()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(b, p1)
        save_bundle(tiny_bundle(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_human_readable(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        text = p.read_text()
        assert text.startswith("{\n")
        assert '"tool_version"' in text
        assert '"config_hash"' in text
        doc = json.loads(text)
        assert doc["format"] == "signflow-bundle"
        assert doc["version"] == FORMAT_VERSION

    def test_linear_members_store_only_what_prediction_reads(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        assert set(doc["posture"]) == {"codebook", "model"}
        assert set(doc["posture"]["model"]) == {"weights", "n_classes"}
        assert set(doc["fusion_linear"]) == {"model"}
        assert set(doc["fusion_linear"]["model"]) == {"weights", "n_classes"}


class TestErrors:
    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        doc["version"] = 0
        p.write_text(json.dumps(doc))
        with pytest.raises(BundleVersionError):
            load_bundle(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        p.write_text(p.read_text()[:200])
        with pytest.raises(CorruptFileError):
            load_bundle(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        del doc["gesture_codebook"]
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert str(exc.value) == f"{p}: missing key 'gesture_codebook'"

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        blob = p.read_bytes()
        p.write_bytes(blob[:1] + b"\n\xff" + blob[1:])
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert str(exc.value) == f"{p}: line 2: invalid UTF-8 byte 0xff"

    def test_wrong_format_marker(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(CorruptFileError):
            load_bundle(p)

    def test_corrupt_member_reported_with_path(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        doc["hmms"][0]["pi"] = [0.5, 0.4, 0.0, 0.0]  # does not sum to 1
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert "model.json" in str(exc.value)

    def test_mixed_state_counts_name_the_file(self, tmp_path):
        # such a bundle would load, then fail every prediction
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        h = init_left_right(2, 3)
        doc["hmms"][0] = {"pi": h.pi[0].tolist(), "A": h.A[0].tolist(),
                          "B": h.B[0].tolist()}
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert str(exc.value) == \
            f"{p}: class HMMs disagree on the number of states: [2, 4]"

    def test_mixed_symbol_counts_name_the_file(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        h = init_left_right(4, 4)
        doc["hmms"][1] = {"pi": h.pi[0].tolist(), "A": h.A[0].tolist(),
                          "B": h.B[0].tolist()}
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert str(exc.value) == \
            f"{p}: class HMMs disagree on the symbol alphabet size: [3, 4]"

    def test_gesture_codebook_without_variant_names_the_file(self, tmp_path):
        # predict could not describe a sequence for it
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        doc["gesture_codebook"]["variant"] = None
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert str(exc.value) == f"{p}: gesture codebook has no descriptor variant"

    def test_posture_codebook_off_the_shape_context_space_names_the_file(self, tmp_path):
        # a 48-D posture codebook, consistent in itself, over no shape contexts
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        cb = doc["posture"]["codebook"]
        cb["centers"] = [center[:48] for center in cb["centers"]]
        cb["znorm"] = {"mean": [0.0] * 48, "stddev": [1.0] * 48}
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert str(exc.value) == f"{p}: posture codebook must be 49-D, got 48"

    def test_no_class_hmms_names_the_file(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        doc["hmms"] = []
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError, match=r"model\.json: "):
            load_bundle(p)

    def test_file_holds_one_model_per_class(self, tmp_path):
        p = tmp_path / "model.json"
        b = tiny_bundle(with_optional=False)
        save_bundle(b, p)
        doc = json.loads(p.read_text())
        assert [sorted(h) for h in doc["hmms"]] == [["A", "B", "pi"]] * 2
        for j, h in enumerate(doc["hmms"]):
            for name in ("pi", "A", "B"):
                assert h[name] == getattr(b.hmms, name)[j].tolist()


def _edit_kde(doc, case):
    fk = doc["fusion_kde"]
    if case == "nan point":
        fk["class_points"][1][0][2] = float("nan")
    elif case == "inf point":
        fk["class_points"][0][1][0] = float("inf")
    elif case == "empty class":
        fk["class_points"][1] = []
    elif case == "short row":
        fk["class_points"][1] = [row[:-1] for row in fk["class_points"][1]]
    elif case == "flat points":
        fk["class_points"][0] = fk["class_points"][0][0]
    elif case == "nan bandwidth":
        fk["bandwidths"][0][3] = float("nan")
    elif case == "inf bandwidth":
        fk["bandwidths"][1][0] = float("inf")
    elif case == "flat bandwidths":  # one per class, not (C, D)
        fk["bandwidths"] = [0.5, 0.5]
    elif case == "nan prior":
        fk["priors"] = [float("nan"), 1.0]
    elif case == "inf prior":
        fk["priors"] = [float("inf"), float("-inf")]


class TestBadKdeModel:
    """A KDE member that cannot score a query must not load: a NaN point
    used to win every decision, a short or empty class to fail at predict."""

    @pytest.mark.parametrize("case", [
        "nan point", "inf point", "empty class", "short row", "flat points",
        "nan bandwidth", "inf bandwidth", "flat bandwidths", "nan prior",
        "inf prior"])
    def test_load_names_the_file(self, tmp_path, case):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        _edit_kde(doc, case)
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert "model.json" in str(exc.value)


def _edit_stored(doc, case):
    if case == "gesture k":
        doc["gesture_codebook"]["k"] = 4
    elif case == "posture k":
        doc["posture"]["codebook"]["k"] = 3.5
    elif case == "posture n_classes":
        doc["posture"]["model"]["n_classes"] = 3
    elif case == "fusion n_classes":
        doc["fusion_linear"]["model"]["n_classes"] = 1
    elif case == "priors":
        doc["fusion_kde"]["priors"] = [0.5, 0.5]
    elif case == "priors length":
        doc["fusion_kde"]["priors"] = [0.6]


class TestStoredValues:
    """save_bundle writes k, n_classes and the KDE priors for readers; the
    models derive each from their arrays, and a file whose stored value
    disagrees does not load."""

    def test_written_for_readers(self, tmp_path):
        p = tmp_path / "model.json"
        b = tiny_bundle()
        save_bundle(b, p)
        doc = json.loads(p.read_text())
        assert doc["gesture_codebook"]["k"] == 3
        assert doc["posture"]["codebook"]["k"] == 4
        assert doc["posture"]["model"]["n_classes"] == 2
        assert doc["fusion_linear"]["model"]["n_classes"] == 2
        assert doc["fusion_kde"]["priors"] == [0.6, 0.4]
        assert b.fusion_kde.priors.tolist() == [3 / 5, 2 / 5]

    @pytest.mark.parametrize("case", [
        "gesture k", "posture k", "posture n_classes", "fusion n_classes",
        "priors", "priors length"])
    def test_disagreeing_value_names_the_file(self, tmp_path, case):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        _edit_stored(doc, case)
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError, match=r"model\.json: stored .* does "
                                                   r"not match its arrays"):
            load_bundle(p)

    @pytest.mark.parametrize("member, value", [
        ("B", [0.5, 0.5]), ("B", []), ("centers", [0.1, 0.2, 0.3])])
    def test_array_of_wrong_rank_names_the_file(self, tmp_path, member, value):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        if member == "B":
            doc["hmms"][0]["B"] = value
        else:
            doc["gesture_codebook"]["centers"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError, match=rf"model\.json: {member} must be "
                                                   r"a non-empty"):
            load_bundle(p)

    def test_missing_nested_key_says_missing_key(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        del doc["hmms"][0]["B"]
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert str(exc.value) == f"{p}: missing key 'B'"


class TestNonFiniteModel:
    """save_bundle never writes NaN, but json reads it: a NaN in an HMM
    passed the row-sum check and won every decision, and a NaN stddev
    failed only at predict."""

    @pytest.mark.parametrize("case", ["nan emission", "nan stddev"])
    def test_load_names_the_file(self, tmp_path, case):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        if case == "nan emission":
            doc["hmms"][0]["B"][0][1] = float("nan")
        else:
            doc["gesture_codebook"]["znorm"]["stddev"][2] = float("nan")
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError, match=r"model\.json: non-finite number NaN"):
            load_bundle(p)

    @pytest.mark.parametrize("member", ["stddev", "emission", "weight", "point"])
    def test_overflowing_literal_names_the_file(self, tmp_path, member):
        # json parses 1e999 as a float, inf, without calling parse_constant
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(), p)
        doc = json.loads(p.read_text())
        marker = 123456.789
        if member == "stddev":
            doc["gesture_codebook"]["znorm"]["stddev"][0] = marker
        elif member == "emission":
            doc["hmms"][1]["B"][2][0] = marker
        elif member == "weight":
            doc["posture"]["model"]["weights"][0][1] = marker
        else:
            doc["fusion_kde"]["class_points"][0][1][2] = marker
        p.write_text(json.dumps(doc).replace(repr(marker), "1e999"))
        with pytest.raises(CorruptFileError, match=r"model\.json: non-finite number"):
            load_bundle(p)


class TestValidation:
    def test_symbol_count_mismatch(self):
        rng = np.random.default_rng(101)
        cb = Codebook(centers=rng.normal(size=(5, 6)),
                      znorm=ZNormStats.identity(6), seed=0)
        with pytest.raises(ValueError):
            ModelBundle(gesture_codebook=cb, hmms=init_left_right(2, 3))

    def test_posture_class_count_mismatch(self):
        rng = np.random.default_rng(102)
        cb = Codebook(centers=rng.normal(size=(3, 6)),
                      znorm=ZNormStats.identity(6), seed=0)
        posture_cb = Codebook(centers=rng.normal(size=(4, 49)),
                              znorm=ZNormStats.identity(49), seed=0)
        pm = PostureModel(model=MulticlassLinearModel(
            weights=rng.normal(size=(3, 8))), codebook=posture_cb)
        with pytest.raises(ValueError):
            ModelBundle(gesture_codebook=cb,
                        hmms=init_left_right(2, 3, 2),
                        posture_model=pm)

    def test_fusion_shape_mismatch(self):
        rng = np.random.default_rng(104)
        cb = Codebook(centers=rng.normal(size=(3, 6)),
                      znorm=ZNormStats.identity(6), seed=0)
        hmms = init_left_right(2, 3, 2)
        # a linear rule over 3 classes, or over a 6-D coupled response
        for weights in (rng.normal(size=(3, 6)), rng.normal(size=(2, 6))):
            with pytest.raises(ValueError, match="fusion linear"):
                ModelBundle(gesture_codebook=cb, hmms=hmms,
                            fusion_linear=MulticlassLinearModel(weights=weights))
        kde = KdeFusionModel(class_points=[rng.normal(size=(2, 6))] * 2,
                             bandwidths=np.ones((2, 6)))
        with pytest.raises(ValueError, match="fusion kde"):
            ModelBundle(gesture_codebook=cb, hmms=hmms, fusion_kde=kde)

    def test_empty_hmm_list(self):
        rng = np.random.default_rng(103)
        cb = Codebook(centers=rng.normal(size=(3, 6)),
                      znorm=ZNormStats.identity(6), seed=0)
        # a record of no class HMMs cannot be built
        with pytest.raises(ValueError):
            ModelBundle(gesture_codebook=cb, hmms=init_left_right(2, 3, 0))


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_value_change_changes_hash(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_length(self):
        assert len(config_hash({})) == 16
