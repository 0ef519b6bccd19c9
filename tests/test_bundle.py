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
    gesture_cb = Codebook(centers=rng.normal(size=(3, 6)), k=3,
                          znorm=ZNormStats(mean=rng.normal(size=6),
                                           stddev=np.full(6, 0.5)),
                          seed=7, variant=DescriptorVariant.HD,
                          wcss_history=[5.0, 3.5, 3.5])
    hmms = [init_left_right(2, 3), init_left_right(4, 3)]
    kwargs = {}
    if with_optional:
        posture_cb = Codebook(centers=rng.normal(size=(4, 49)), k=4,
                              znorm=ZNormStats.identity(49), seed=1)
        kwargs["posture_model"] = PostureModel(
            model=MulticlassLinearModel(weights=rng.normal(size=(2, 8)),
                                        n_classes=2),
            codebook=posture_cb)
        kwargs["fusion_linear"] = MulticlassLinearModel(
            weights=rng.normal(size=(2, 4)), n_classes=2)
        kwargs["fusion_kde"] = KdeFusionModel(
            class_points=[rng.normal(size=(3, 4)), rng.normal(size=(2, 4))],
            bandwidths=np.abs(rng.normal(size=(2, 4))) + 0.1,
            priors=np.array([0.6, 0.4]))
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
        assert "gesture_codebook" in str(exc.value)

    def test_wrong_format_marker(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(CorruptFileError):
            load_bundle(p)

    def test_corrupt_member_reported_with_path(self, tmp_path):
        p = tmp_path / "model.json"
        save_bundle(tiny_bundle(with_optional=False), p)
        doc = json.loads(p.read_text())
        doc["hmms"][0]["pi"] = [0.5, 0.4]  # does not sum to 1
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFileError) as exc:
            load_bundle(p)
        assert "model.json" in str(exc.value)


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


class TestValidation:
    def test_symbol_count_mismatch(self):
        rng = np.random.default_rng(101)
        cb = Codebook(centers=rng.normal(size=(5, 6)), k=5,
                      znorm=ZNormStats.identity(6), seed=0)
        with pytest.raises(ValueError):
            ModelBundle(gesture_codebook=cb, hmms=[init_left_right(2, 3)])

    def test_posture_class_count_mismatch(self):
        rng = np.random.default_rng(102)
        cb = Codebook(centers=rng.normal(size=(3, 6)), k=3,
                      znorm=ZNormStats.identity(6), seed=0)
        posture_cb = Codebook(centers=rng.normal(size=(4, 49)), k=4,
                              znorm=ZNormStats.identity(49), seed=0)
        pm = PostureModel(model=MulticlassLinearModel(
            weights=rng.normal(size=(3, 8)), n_classes=3), codebook=posture_cb)
        with pytest.raises(ValueError):
            ModelBundle(gesture_codebook=cb,
                        hmms=[init_left_right(2, 3), init_left_right(2, 3)],
                        posture_model=pm)

    def test_fusion_shape_mismatch(self):
        rng = np.random.default_rng(104)
        cb = Codebook(centers=rng.normal(size=(3, 6)), k=3,
                      znorm=ZNormStats.identity(6), seed=0)
        hmms = [init_left_right(2, 3), init_left_right(2, 3)]
        # a linear rule over 3 classes, or over a 6-D coupled response
        for weights, n in ((rng.normal(size=(3, 6)), 3), (rng.normal(size=(2, 6)), 2)):
            with pytest.raises(ValueError, match="fusion linear"):
                ModelBundle(gesture_codebook=cb, hmms=hmms,
                            fusion_linear=MulticlassLinearModel(weights=weights,
                                                                n_classes=n))
        kde = KdeFusionModel(class_points=[rng.normal(size=(2, 6))] * 2,
                             bandwidths=np.ones((2, 6)), priors=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="fusion kde"):
            ModelBundle(gesture_codebook=cb, hmms=hmms, fusion_kde=kde)

    def test_empty_hmm_list(self):
        rng = np.random.default_rng(103)
        cb = Codebook(centers=rng.normal(size=(3, 6)), k=3,
                      znorm=ZNormStats.identity(6), seed=0)
        with pytest.raises(ValueError):
            ModelBundle(gesture_codebook=cb, hmms=[])


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_value_change_changes_hash(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_length(self):
        assert len(config_hash({})) == 16
