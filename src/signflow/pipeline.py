"""End-to-end orchestration: train, predict, evaluate.

Training fits the gesture codebook and per-class HMMs plus the posture
codebook/classifier on the train split, then fits both fusion rules on
the validation split's coupled responses. Prediction runs one sequence
through whichever branches the requested fusion mode needs. Evaluation
tallies a confusion matrix and per-stage mean wall-clock times over six
stages (posture/gesture/combination, description/classification each).

All randomness flows from one seed through sha256-derived child seeds,
so results are a pure function of (inputs, config, seed).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .bundle import ModelBundle
from .codebook import Codebook, build_codebook, encode_sequence, fit_kmeans
from .dataset import (
    CorruptFileError,
    DatasetManifest,
    load_mask_archive,
    parse_skeleton_csv,
)
from .descriptors import DescriptorVariant, describe_sequence, descriptor_rows
from .fusion import (
    DEFAULT_FUSION_COST,
    couple,
    predict_kde,
    predict_linear,
    train_kde_fusion,
    train_linear_fusion,
)
from .hmm import (
    GestureResponse,
    baum_welch_classes,
    classify_gesture,
    init_left_right,
)
# kept importable from this module: perfbench/tracing.py wraps baum_welch
# under this name, although training calls baum_welch_classes
from .hmm import baum_welch  # noqa: F401
from .metrics import ConfusionMatrix, MetricsReport, confusion, precision_recall_fscore
from .posture import (
    DEFAULT_POSTURE_COST,
    bow_from_shape_contexts,
    encode_video_bow,
    posture_response,
    shape_context_rows,
    train_posture_classifier,
    video_shape_contexts,
)
# kept importable from this module: perfbench/tracing.py wraps the posture
# kernels under the names pipeline has always exposed
from .posture import frame_shape_contexts, sample_contour  # noqa: F401
from .skeleton import EmptyInputError, SkeletonSequence, _is_integral, _is_real

FUSION_MODES = ("linear", "kde", "gesture-only", "posture-only")

TIMING_STAGES = (
    "posture_description",
    "posture_classification",
    "gesture_description",
    "gesture_classification",
    "combination_description",
    "combination_classification",
)

DEFAULT_CONFIG = {
    "descriptor": DescriptorVariant.RBPD_T.value,
    "fusion": "kde",
    "gesture_k": 100,
    "posture_k": 100,
    "hmm_states": 8,
    "hmm_iters": 30,
    "hmm_tol": 1e-4,
    "epochs": 60,
    "posture_cost": DEFAULT_POSTURE_COST,
    "fusion_cost": DEFAULT_FUSION_COST,
    "sc_sample_cap": 20000,
    "seed": 0,
}


# integer config keys and their least value; a cap of 0 samples every row
_COUNT_MINIMUMS = {"gesture_k": 1, "posture_k": 1, "hmm_states": 1,
                   "hmm_iters": 0, "epochs": 1, "sc_sample_cap": 0}


def make_config(**overrides) -> dict:
    """DEFAULT_CONFIG with validated overrides."""
    config = dict(DEFAULT_CONFIG)
    for key, value in overrides.items():
        if key not in DEFAULT_CONFIG:
            raise ValueError(f"unknown config key {key!r}")
        config[key] = value
    DescriptorVariant(config["descriptor"])
    if config["fusion"] not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {config['fusion']!r}")
    for key, minimum in _COUNT_MINIMUMS.items():
        value = config[key]
        if not (_is_integral(value) and value >= minimum):
            raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
        config[key] = int(value)
    tol = config["hmm_tol"]
    if not (_is_real(tol) and tol >= 0):
        raise ValueError(f"hmm_tol must be a finite number >= 0, got {tol!r}")
    for key in ("posture_cost", "fusion_cost"):
        cost = config[key]
        if not (_is_real(cost) and cost > 0):
            raise ValueError(f"{key} must be a finite number > 0, got {cost!r}")
    if not _is_integral(config["seed"]):
        raise ValueError(f"seed must be an integer, got {config['seed']!r}")
    config["seed"] = int(config["seed"])
    return config


def derive_seed(seed: int, *tags) -> int:
    """Stable 31-bit child seed for a named training stage."""
    text = "/".join([str(int(seed)), *map(str, tags)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31)


@dataclass
class CorpusItem:
    """One recording ready for the pipeline."""

    sequence: SkeletonSequence
    label: int
    split: str
    masks: Optional[list] = None  # per frame: {HandSide: HandRegion}


def items_from_corpus(corpus) -> list:
    """Adapt an in-memory SyntheticCorpus."""
    items = []
    for i, (seq, entry) in enumerate(zip(corpus.sequences,
                                         corpus.manifest.entries)):
        masks = corpus.masks[i] if corpus.masks is not None else None
        items.append(CorpusItem(sequence=seq, label=entry.label,
                                split=entry.split, masks=masks))
    return items


def load_sequence_masks(mask_dir, sequence: SkeletonSequence) -> list:
    """A sequence's mask archive, which must hold one frame per skeleton
    frame; CorruptFileError names both files if it does not."""
    masks = load_mask_archive(mask_dir)
    if len(masks) != len(sequence):
        raise CorruptFileError(
            f"{mask_dir}: {len(masks)} mask frames, but {sequence.source} "
            f"has {len(sequence)} frames")
    return masks


def load_items(manifest: DatasetManifest, root, splits=None,
               with_masks: bool = True) -> list:
    """Read manifest entries (optionally only some splits) from disk."""
    root = Path(root)
    wanted = set(splits) if splits is not None else None
    items = []
    for entry in manifest.entries:
        if wanted is not None and entry.split not in wanted:
            continue
        seq = parse_skeleton_csv(root / entry.sequence_path)
        masks = None
        if with_masks and entry.mask_dir is not None:
            masks = load_sequence_masks(root / entry.mask_dir, seq)
        items.append(CorpusItem(sequence=seq, label=entry.label,
                                split=entry.split, masks=masks))
    return items


def _codebook_sample(per_video: list, cap: int) -> np.ndarray:
    """Rows np.concatenate(per_video)[::ceil(n / cap)] picks (all of them
    when cap is 0 or n <= cap), gathered without stacking every row."""
    n = sum(rows.shape[0] for rows in per_video)
    if n == 0:
        raise EmptyInputError("no usable hand contours in the training split")
    step = -(-n // cap) if cap and n > cap else 1  # ceil division
    picks = []
    offset = 0
    for rows in per_video:
        picks.append(rows[-offset % step::step])
        offset += rows.shape[0]
    return np.concatenate(picks)


@dataclass
class _Described:
    """A sequence's descriptor rows, counted up front and described only
    when numpy reads them, so `build_codebook` can copy each stream into
    its matrix as it is made."""

    sequence: SkeletonSequence
    variant: DescriptorVariant

    def __len__(self) -> int:
        return descriptor_rows(self.sequence, self.variant)

    def __array__(self, dtype=None, copy=None):
        return describe_sequence(self.sequence, self.variant)


def _gesture_symbols(cb: Codebook, seq: SkeletonSequence):
    descriptors = describe_sequence(seq, cb.variant)
    return encode_sequence(cb, descriptors, source=seq.source)


def train_pipeline(items, config: Optional[dict] = None) -> ModelBundle:
    """Fit every member on the train split, fusion on validation."""
    config = make_config(**(config or {}))
    seed = config["seed"]
    items = list(items)
    train = [i for i in items if i.split == "train"]
    val = [i for i in items if i.split == "validation"]
    if not train:
        raise EmptyInputError("no training items")
    n_classes = max(i.label for i in items) + 1
    covered = {i.label for i in train}
    if covered != set(range(n_classes)):
        raise ValueError(f"train split covers classes {sorted(covered)}, "
                         f"need 0..{n_classes - 1}")
    # every member the stored default mode needs, checked before any fit:
    # never fit a bundle that predict could not run
    with_posture = all(i.masks is not None for i in train)
    missing = sorted(set(range(n_classes)) - {i.label for i in val})
    if not with_posture:
        no_fusion = "the train split has no hand masks"
    elif not val:
        no_fusion = "there is no validation split"
    elif not all(i.masks is not None for i in val):
        no_fusion = "the validation split lacks hand masks"
    elif missing:
        no_fusion = f"the validation split misses classes {missing}"
    else:
        no_fusion = None
    if (no_fusion is not None and config["fusion"] in ("linear", "kde")) or \
            (not with_posture and config["fusion"] == "posture-only"):
        raise ValueError(f"fusion {config['fusion']!r} cannot run on this bundle "
                         f"because {no_fusion}; train with fusion "
                         "'gesture-only' instead")

    # gesture branch: build_codebook holds the train descriptors as one matrix
    variant = DescriptorVariant(config["descriptor"])
    gesture_cb, symbol_seqs = build_codebook(
        [_Described(i.sequence, variant) for i in train],
        k=config["gesture_k"], seed=derive_seed(seed, "gesture-cb"), variant=variant)
    for symbols, item in zip(symbol_seqs, train):
        if len(symbols) == 0:
            raise EmptyInputError(f"{item.sequence.source}: no descriptors to encode")
    hmms, _ = baum_welch_classes(
        init_left_right(config["hmm_states"], gesture_cb.k, n_classes),
        [[s for s, item in zip(symbol_seqs, train) if item.label == c]
         for c in range(n_classes)],
        max_iter=config["hmm_iters"], tol=config["hmm_tol"])

    # posture branch, when the training split carries masks
    posture_model = None
    if with_posture:
        # each train contour's shape-context counts, computed once, feed the
        # codebook sample and the bags-of-words; each normalizes what it uses
        per_video = [video_shape_contexts(i.masks) for i in train]
        sc_data = shape_context_rows(_codebook_sample(
            [counts for counts, _ in per_video], config["sc_sample_cap"]))
        posture_k = min(config["posture_k"], sc_data.shape[0])
        posture_cb = fit_kmeans(sc_data, k=posture_k,
                                seed=derive_seed(seed, "posture-cb"))
        bows = np.stack([bow_from_shape_contexts(counts, halves, posture_cb)
                         for counts, halves in per_video])
        posture_model = train_posture_classifier(
            bows, np.array([i.label for i in train]), posture_cb,
            cost=config["posture_cost"], seed=derive_seed(seed, "posture-clf"),
            epochs=config["epochs"])

    # fusion stage, on validation responses only
    fusion_linear = None
    fusion_kde = None
    if no_fusion is None:
        coupled = []
        for item in val:
            rg = classify_gesture(hmms, _gesture_symbols(gesture_cb,
                                                         item.sequence))
            bow = encode_video_bow(item.masks, posture_model.codebook)
            coupled.append(couple(posture_response(posture_model, bow), rg.values))
        coupled = np.stack(coupled)
        labels = np.array([i.label for i in val])
        fusion_linear = train_linear_fusion(
            coupled, labels, cost=config["fusion_cost"],
            seed=derive_seed(seed, "fusion-linear"), epochs=config["epochs"])
        fusion_kde = train_kde_fusion(coupled, labels)

    echo = dict(config)
    echo["n_classes"] = n_classes
    echo["gesture_k_effective"] = gesture_cb.k
    echo["posture_k_effective"] = \
        posture_model.codebook.k if posture_model is not None else None
    return ModelBundle(gesture_codebook=gesture_cb, hmms=hmms,
                       posture_model=posture_model,
                       fusion_linear=fusion_linear, fusion_kde=fusion_kde,
                       config=echo)


@dataclass
class Prediction:
    """Per-branch responses and the final decision for one sequence."""

    gesture: GestureResponse
    posture: Optional[np.ndarray]
    coupled: Optional[np.ndarray]
    fused_class: int
    mode: str
    timings: dict = field(default_factory=dict, repr=False)


def _check_mode(bundle: ModelBundle, mode: Optional[str], has_masks: bool) -> str:
    mode = mode or bundle.config.get("fusion", "kde")
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    needs_posture = mode != "gesture-only"
    if needs_posture and bundle.posture_model is None:
        raise ValueError(f"fusion mode {mode!r} needs a posture model, "
                         "but the bundle was trained without masks")
    if needs_posture and not has_masks:
        raise ValueError(f"fusion mode {mode!r} needs hand masks for the "
                         "sequence")
    if mode == "linear" and bundle.fusion_linear is None:
        raise ValueError("bundle has no linear fusion model (no usable "
                         "validation split at training time)")
    if mode == "kde" and bundle.fusion_kde is None:
        raise ValueError("bundle has no KDE fusion model (no usable "
                         "validation split at training time)")
    return mode


def predict_item(bundle: ModelBundle, sequence: SkeletonSequence,
                 masks: Optional[list] = None,
                 mode: Optional[str] = None) -> Prediction:
    """Classify one sequence; timings cover the six pipeline stages."""
    mode = _check_mode(bundle, mode, masks is not None)
    timings = dict.fromkeys(TIMING_STAGES, 0.0)

    t0 = time.perf_counter()
    symbols = _gesture_symbols(bundle.gesture_codebook, sequence)
    timings["gesture_description"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rg = classify_gesture(bundle.hmms, symbols)
    timings["gesture_classification"] = time.perf_counter() - t0

    rp = None
    if mode != "gesture-only":
        t0 = time.perf_counter()
        bow = encode_video_bow(masks, bundle.posture_model.codebook)
        timings["posture_description"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        rp = posture_response(bundle.posture_model, bow)
        timings["posture_classification"] = time.perf_counter() - t0

    coupled = None
    if mode == "gesture-only":
        t0 = time.perf_counter()
        fused = rg.best_class
        timings["combination_classification"] = time.perf_counter() - t0
    elif mode == "posture-only":
        t0 = time.perf_counter()
        fused = int(rp.argmax())
        timings["combination_classification"] = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        coupled = couple(rp, rg.values)
        timings["combination_description"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        if mode == "linear":
            fused = predict_linear(bundle.fusion_linear, coupled)
        else:
            fused = predict_kde(bundle.fusion_kde, coupled)
        timings["combination_classification"] = time.perf_counter() - t0

    return Prediction(gesture=rg, posture=rp, coupled=coupled,
                      fused_class=int(fused), mode=mode, timings=timings)


@dataclass
class EvalResult:
    """Metrics, confusion counts, and mean per-sequence stage timings."""

    report: MetricsReport
    confusion: ConfusionMatrix
    timings: dict
    predictions: list


def evaluate_pipeline(bundle: ModelBundle, items,
                      mode: Optional[str] = None) -> EvalResult:
    """Predict every item, tally metrics, average the stage timings."""
    items = list(items)
    if not items:
        raise EmptyInputError("no items to evaluate")
    totals = dict.fromkeys(TIMING_STAGES, 0.0)
    predictions = []
    for item in items:
        pred = predict_item(bundle, item.sequence, masks=item.masks, mode=mode)
        predictions.append(pred)
        for stage in TIMING_STAGES:
            totals[stage] += pred.timings[stage]
    n = len(items)
    timings = {stage: totals[stage] / n for stage in TIMING_STAGES}
    timings["total"] = sum(timings[stage] for stage in TIMING_STAGES)
    cm = confusion([p.fused_class for p in predictions],
                   [i.label for i in items], bundle.n_classes)
    report = precision_recall_fscore(cm)
    return EvalResult(report=report, confusion=cm, timings=timings,
                      predictions=predictions)
