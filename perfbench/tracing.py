"""Spans around the public functions of each signflow module.

The tracer wraps a function under the module attribute its caller looks it
up by (``signflow.pipeline.encode_video_bow`` is the name pipeline code
calls), so nothing under src/ changes. Each call becomes a span: name,
start, end, parent span and the id of the top-level request (one setup,
train or predict call) it belongs to, plus counts taken at the boundary.
Spans stay in memory until the run ends.

Per-row helpers such as ``shape_context`` are left unwrapped: the wrapper
costs about a microsecond, which would swamp them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

import numpy as np


def _frames(args, kwargs, result):
    return {"frames": len(result)}


def _masks(args, kwargs, result):
    return {"masks": sum(len(frame) for frame in result)}


def _bundle_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _kmeans(args, kwargs, result):
    return {"iters": len(result.wcss_history)}


def _baum_welch(args, kwargs, result):
    hmm, report = result
    finite = all(np.isfinite(m).all() for m in (hmm.pi, hmm.A, hmm.B))
    return {"iters": report.iterations, "converged": int(report.converged),
            "nonfinite": int(not finite)}


def _classify(args, kwargs, result):
    models, obs = args[0], args[1]
    return {"steps": len(getattr(obs, "symbols", obs)) * len(models)}


def _video(args, kwargs, result):
    return {"video": kwargs.get("video_id", "")}


def _rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _clamped(args, kwargs, result):
    from signflow.fusion import CLAMP_FLOOR
    rg = args[1]
    values = np.asarray(getattr(rg, "values", rg), dtype=np.float64)
    return {"clamped": int(np.count_nonzero(values < kwargs.get("clamp", CLAMP_FLOOR)))}


# (module whose attribute is replaced, attribute, span name, count hook)
WRAPS = (
    ("signflow.pipeline", "train_pipeline", "pipeline.train_pipeline", None),
    ("signflow.pipeline", "predict_item", "pipeline.predict_item", None),
    ("signflow.pipeline", "load_items", "pipeline.load_items", None),
    ("signflow.pipeline", "parse_skeleton_csv", "dataset.parse_skeleton_csv", _frames),
    ("signflow.pipeline", "load_mask_archive", "dataset.load_mask_archive", _masks),
    ("signflow.bundle", "load_bundle", "bundle.load_bundle", _bundle_bytes),
    ("signflow.pipeline", "describe_sequence", "descriptors.describe_sequence", _frames),
    ("signflow.pipeline", "build_codebook", "codebook.build_codebook", None),
    ("signflow.codebook", "fit_kmeans", "codebook.fit_kmeans", _kmeans),
    ("signflow.pipeline", "fit_kmeans", "codebook.fit_kmeans", _kmeans),
    ("signflow.pipeline", "encode_sequence", "codebook.encode_sequence", None),
    ("signflow.posture", "quantize_batch", "codebook.quantize_batch", None),
    ("signflow.pipeline", "baum_welch", "hmm.baum_welch", _baum_welch),
    ("signflow.pipeline", "classify_gesture", "hmm.classify_gesture", _classify),
    ("signflow.hmm", "forward_log_likelihood", "hmm.forward_log_likelihood", None),
    ("signflow.pipeline", "sample_contour", "posture.sample_contour", None),
    ("signflow.posture", "sample_contour", "posture.sample_contour", None),
    ("signflow.pipeline", "frame_shape_contexts", "posture.frame_shape_contexts", _rows),
    ("signflow.posture", "frame_shape_contexts", "posture.frame_shape_contexts", _rows),
    ("signflow.pipeline", "encode_video_bow", "posture.encode_video_bow", _video),
    ("signflow.pipeline", "posture_response", "posture.posture_response", None),
    ("signflow.pipeline", "train_posture_classifier", "posture.train_posture_classifier", None),
    ("signflow.posture", "fit_multiclass_linear", "linear_model.fit_multiclass_linear", None),
    ("signflow.fusion", "fit_multiclass_linear", "linear_model.fit_multiclass_linear", None),
    ("signflow.linear_model", "_fit", "linear_model.fit", None),
    ("signflow.pipeline", "couple", "fusion.couple", _clamped),
    ("signflow.pipeline", "predict_kde", "fusion.predict_kde", None),
    ("signflow.pipeline", "predict_linear", "fusion.predict_linear", None),
    ("signflow.pipeline", "train_kde_fusion", "fusion.train_kde_fusion", None),
    ("signflow.pipeline", "train_linear_fusion", "fusion.train_linear_fusion", None),
)

LAYERS = ("dataset", "bundle", "descriptors", "codebook", "hmm", "posture",
          "linear_model", "fusion", "pipeline")
SETUP_LAYERS = ("dataset", "bundle")  # measured over one eval set-up


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "error", "attrs")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.error = None
        self.attrs = None

    def to_doc(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.request,
                self.error, self.attrs]


class Tracer:
    """Installs the wraps on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.requests = []  # (request id, kind)
        self.missing = []   # wrap targets the program no longer has
        self._stack = []
        self._request = None
        self._patched = []

    def __enter__(self):
        for module_name, attr, name, hook in WRAPS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook))
            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def request(self, kind: str):
        """Mark the spans of one top-level call with a fresh request id."""
        self._request = len(self.requests)
        self.requests.append((self._request, kind))
        try:
            yield self._request
        finally:
            self._request = None

    def _wrap(self, original, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self._request)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result
        return traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, train_sources: set, train_regions: int) -> dict:
    """Per-layer metrics from one traced run.

    dataset.* and bundle.* cover the eval set-up request; every other layer
    covers the train request plus the predict requests of one pass over the
    test split. Times are inclusive span durations except *.self_s, which
    subtract the part covered by child spans.
    """
    kinds = dict(tracer.requests)
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def in_scope(s):
        kind = kinds.get(s.request)
        if s.name.split(".")[0] in SETUP_LAYERS:
            return kind == "setup"
        return kind in ("train", "predict")

    scoped = [i for i, s in enumerate(spans) if in_scope(s)]
    total = {}
    calls = {}
    attrs = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i in scoped:
        s = spans[i]
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        self_time[s.name.split(".")[0]] += (s.end - s.start) - child_time[i]
        for key, value in (s.attrs or {}).items():
            if isinstance(value, (int, float)):
                attrs[s.name, key] = attrs.get((s.name, key), 0) + value

    def t(name):
        return total.get(name, 0.0)

    def a(name, key):
        return attrs.get((name, key), 0)

    def on_train_contour(i):
        """Span i works on a train-split contour: under the BoW of a train
        video, or under no BoW at all (the posture codebook sample)."""
        p = spans[i].parent
        while p is not None:
            if spans[p].name == "posture.encode_video_bow":
                return (spans[p].attrs or {}).get("video") in train_sources
            p = spans[p].parent
        return True

    kmeans_posture = sum((spans[i].end - spans[i].start for i in scoped
                          if spans[i].name == "codebook.fit_kmeans"
                          and spans[i].parent is not None
                          and spans[spans[i].parent].name == "pipeline.train_pipeline"),
                         0.0)
    train_sc = sum(1 for i in scoped
                   if spans[i].name == "posture.frame_shape_contexts"
                   and kinds[spans[i].request] == "train"
                   and on_train_contour(i))
    degenerate = sum(1 for i in scoped if spans[i].name == "posture.sample_contour"
                     and spans[i].error == "DegenerateContour")
    train_spans = [i for i in scoped if spans[i].name == "pipeline.train_pipeline"]
    bw_runs = calls.get("hmm.baum_welch", 0)

    m = {
        "dataset.parse_csv_s": t("dataset.parse_skeleton_csv"),
        "dataset.frames_parsed": a("dataset.parse_skeleton_csv", "frames"),
        "dataset.load_masks_s": t("dataset.load_mask_archive"),
        "dataset.masks_loaded": a("dataset.load_mask_archive", "masks"),
        "bundle.load_s": t("bundle.load_bundle"),
        "bundle.bytes": a("bundle.load_bundle", "bytes"),
        "descriptors.describe_s": t("descriptors.describe_sequence"),
        "descriptors.frames": a("descriptors.describe_sequence", "frames"),
        "codebook.kmeans_gesture_s": t("codebook.build_codebook"),
        "codebook.kmeans_posture_s": kmeans_posture,
        "codebook.kmeans_iters": a("codebook.fit_kmeans", "iters"),
        "codebook.encode_s": t("codebook.encode_sequence"),
        "codebook.quantize_batch_s": t("codebook.quantize_batch"),
        "hmm.baum_welch_s": t("hmm.baum_welch"),
        "hmm.bw_iters": a("hmm.baum_welch", "iters"),
        "hmm.bw_converged_ratio": _ratio(a("hmm.baum_welch", "converged"), bw_runs),
        "hmm.nonfinite_models": a("hmm.baum_welch", "nonfinite"),
        "hmm.classify_s": t("hmm.classify_gesture"),
        "hmm.forward_s": t("hmm.forward_log_likelihood"),
        "hmm.forward_steps": a("hmm.classify_gesture", "steps"),
        "posture.sample_contour_s": t("posture.sample_contour"),
        "posture.contours": calls.get("posture.sample_contour", 0),
        "posture.degenerate_ratio": _ratio(degenerate,
                                           calls.get("posture.sample_contour", 0)),
        "posture.shape_contexts_s": t("posture.frame_shape_contexts"),
        "posture.sc_rows": a("posture.frame_shape_contexts", "rows"),
        "posture.sc_per_train_contour": _ratio(train_sc, train_regions),
        "posture.bow_s": t("posture.encode_video_bow"),
        "posture.train_classifier_s": t("posture.train_posture_classifier"),
        "linear_model.fit_s": t("linear_model.fit_multiclass_linear"),
        "linear_model.fits": calls.get("linear_model.fit", 0),
        "fusion.train_kde_s": t("fusion.train_kde_fusion"),
        "fusion.train_linear_s": t("fusion.train_linear_fusion"),
        "fusion.predict_kde_s": t("fusion.predict_kde"),
        "fusion.clamped": a("fusion.couple", "clamped"),
        "pipeline.train_self_s": sum(((spans[i].end - spans[i].start) - child_time[i]
                                      for i in train_spans), 0.0),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m
