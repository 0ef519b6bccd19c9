"""Trained-model persistence.

A bundle holds everything predict/eval needs: the gesture codebook, the
class HMMs (one record, stored as one left-right model per class), the
posture model (codebook + linear weights) when masks were available, the
fusion models fit on the validation split, and a config echo. Serialized
as indented JSON with a format version; floats go through repr, so a load
reproduces the saved model bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .codebook import Codebook
from .dataset import CorruptFileError, read_json
from .descriptors import DescriptorVariant, ZNormStats
from .fusion import KdeFusionModel
from .hmm import DiscreteHMM
from .linear_model import MulticlassLinearModel
from .posture import SC_DIM, PostureModel
from .skeleton import SignflowError

FORMAT_VERSION = 1
FORMAT_NAME = "signflow-bundle"


class BundleVersionError(SignflowError):
    """The file's format version does not match this code."""


def config_hash(config: dict) -> str:
    """Stable short digest of a JSON-serializable config dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class ModelBundle:
    """All trained members of one pipeline run."""

    gesture_codebook: Codebook
    hmms: DiscreteHMM
    posture_model: Optional[PostureModel] = None
    fusion_linear: Optional[MulticlassLinearModel] = None
    fusion_kde: Optional[KdeFusionModel] = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        c = len(self.hmms)
        k = self.gesture_codebook.k
        if self.hmms.n_symbols != k:
            raise ValueError(f"class HMMs expect {self.hmms.n_symbols} symbols, "
                             f"codebook has {k}")
        if self.posture_model is not None:
            pm = self.posture_model
            if pm.model.n_classes != c:
                raise ValueError("posture class count != gesture class count")
            if pm.model.dimension != 2 * pm.codebook.k:
                raise ValueError("posture weights do not match its codebook")
            if pm.codebook.dimension != SC_DIM:
                raise ValueError(f"posture codebook must be {SC_DIM}-D, "
                                 f"got {pm.codebook.dimension}")
        for name, fm in (("linear", self.fusion_linear),
                         ("kde", self.fusion_kde)):
            if fm is not None and (fm.n_classes != c or fm.dimension != 2 * c):
                raise ValueError(f"fusion {name} model shape mismatch")
        if self.gesture_codebook.variant is None:
            raise ValueError("gesture codebook has no descriptor variant")

    @property
    def n_classes(self) -> int:
        return len(self.hmms)


def _codebook_doc(cb: Codebook) -> dict:
    return {
        "centers": cb.centers.tolist(),
        "k": cb.k,
        "seed": cb.seed,
        "variant": cb.variant.value if cb.variant is not None else None,
        "znorm": {"mean": cb.znorm.mean.tolist(),
                  "stddev": cb.znorm.stddev.tolist()},
        "wcss_history": list(cb.wcss_history),
    }


def _floats(value, path) -> np.ndarray:
    """A JSON array as float64; json reads 1e999 as inf, past parse_constant."""
    arr = np.array(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise CorruptFileError(f"{path}: non-finite number in an array")
    return arr


def _stored(doc: dict, key: str, derived, path) -> None:
    """Check the value save_bundle writes under `key` for readers against
    the one the loaded arrays give."""
    if doc[key] != derived:
        raise CorruptFileError(f"{path}: stored {key} {doc[key]!r} does not "
                               f"match its arrays, which give {derived!r}")


def _codebook_from(doc: dict, path) -> Codebook:
    variant = doc.get("variant")
    cb = Codebook(
        centers=_floats(doc["centers"], path),
        znorm=ZNormStats(mean=_floats(doc["znorm"]["mean"], path),
                         stddev=_floats(doc["znorm"]["stddev"], path)),
        seed=int(doc["seed"]),
        variant=DescriptorVariant(variant) if variant is not None else None,
        wcss_history=_floats(doc.get("wcss_history", []), path).tolist(),
    )
    _stored(doc, "k", cb.k, path)
    return cb


def _hmms_from(docs: list, path) -> DiscreteHMM:
    """The file's per-class models as one record; they must agree on shape."""
    classes = [DiscreteHMM(*(_floats([h[p]], path) for p in ("pi", "A", "B")))
               for h in docs]
    for name, axis in (("number of states", 1), ("symbol alphabet size", 2)):
        sizes = sorted({m.B.shape[axis] for m in classes})
        if len(sizes) > 1:
            raise ValueError(f"class HMMs disagree on the {name}: {sizes}")
    return DiscreteHMM(*(np.concatenate([getattr(m, p) for m in classes])
                         for p in ("pi", "A", "B")))


def _linear_doc(m: MulticlassLinearModel) -> dict:
    return {"weights": m.weights.tolist(), "n_classes": m.n_classes}


def _linear_from(doc: dict, path) -> MulticlassLinearModel:
    model = MulticlassLinearModel(weights=_floats(doc["weights"], path))
    _stored(doc, "n_classes", model.n_classes, path)
    return model


def save_bundle(bundle: ModelBundle, path) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "tool_version": __version__,
        "config_hash": config_hash(bundle.config),
        "config": bundle.config,
        "gesture_codebook": _codebook_doc(bundle.gesture_codebook),
        "hmms": [{"pi": pi.tolist(), "A": A.tolist(), "B": B.tolist()}
                 for pi, A, B in zip(bundle.hmms.pi, bundle.hmms.A, bundle.hmms.B)],
        "posture": None,
        "fusion_linear": None,
        "fusion_kde": None,
    }
    if bundle.posture_model is not None:
        pm = bundle.posture_model
        doc["posture"] = {
            "codebook": _codebook_doc(pm.codebook),
            "model": _linear_doc(pm.model),
        }
    if bundle.fusion_linear is not None:
        doc["fusion_linear"] = {"model": _linear_doc(bundle.fusion_linear)}
    if bundle.fusion_kde is not None:
        fk = bundle.fusion_kde
        doc["fusion_kde"] = {
            "class_points": [p.tolist() for p in fk.class_points],
            "bandwidths": fk.bandwidths.tolist(),
            "priors": fk.priors.tolist(),
        }
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def load_bundle(path) -> ModelBundle:
    """Read a bundle; a malformed one raises CorruptFileError naming `path`.

    save_bundle never writes NaN or Infinity, so a file that holds one is
    rejected wherever it sits: checks such as a row summing to 1 let NaN
    through. The models derive their sizes and the KDE priors from their
    arrays; the codebook `k`, linear `n_classes` and KDE `priors` written
    for readers must equal those.
    """
    def non_finite(token):
        raise CorruptFileError(f"{path}: non-finite number {token}")

    doc = read_json(path, parse_constant=non_finite)
    if doc.get("format") != FORMAT_NAME:
        raise CorruptFileError(f"{path}: not a {FORMAT_NAME} file")
    try:
        if doc["version"] != FORMAT_VERSION:
            raise BundleVersionError(
                f"{path}: format version {doc['version']}, this build reads "
                f"{FORMAT_VERSION}")
        hmms = _hmms_from(doc["hmms"], path)
        posture_model = None
        posture = doc.get("posture")
        if posture is not None:
            posture_model = PostureModel(
                model=_linear_from(posture["model"], path),
                codebook=_codebook_from(posture["codebook"], path),
            )
        fusion_linear = None
        fl = doc.get("fusion_linear")
        if fl is not None:
            fusion_linear = _linear_from(fl["model"], path)
        fusion_kde = None
        fk = doc.get("fusion_kde")
        if fk is not None:
            fusion_kde = KdeFusionModel(
                class_points=[_floats(p, path) for p in fk["class_points"]],
                bandwidths=_floats(fk["bandwidths"], path),
            )
            _stored(fk, "priors", fusion_kde.priors.tolist(), path)
        return ModelBundle(
            gesture_codebook=_codebook_from(doc["gesture_codebook"], path),
            hmms=hmms,
            posture_model=posture_model,
            fusion_linear=fusion_linear,
            fusion_kde=fusion_kde,
            config=dict(doc["config"]),
        )
    except KeyError as exc:
        raise CorruptFileError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: {exc}") from None
