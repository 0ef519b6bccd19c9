"""The measured process of one benchmark run; run.py starts it.

It runs the user path in-process on inputs already on disk: load the train
and validation splits, train_pipeline, save_bundle, then the eval set-up
(load_bundle plus the test split, what ``signflow eval`` reads before its
first prediction) and predict_item over the test split in a closed loop
with one client. A fresh process per run keeps peak RSS to this path.

Untraced (--trace 0) it measures the end-to-end metrics. Traced
(--trace 1) it trains once untraced and once traced, sets up once and
predicts one pass over the test split, all traced, and derives the
per-layer metrics. It writes its result as JSON to --out.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import signflow  # noqa: E402
from signflow import bundle as bundle_mod  # noqa: E402
from signflow import pipeline  # noqa: E402
from signflow.metrics import confusion, precision_recall_fscore  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter


def _no_request(kind):
    return contextlib.nullcontext()


def _digest(obj) -> str:
    """Identity of an in-memory bundle, NaN parameters included."""
    return hashlib.sha256(pickle.dumps(obj)).hexdigest()


def _nonfinite_models(bundle) -> int:
    return sum(not all(np.isfinite(m).all() for m in (h.pi, h.A, h.B))
               for h in bundle.hmms)


def _train(items, config):
    gc.collect()
    t0 = clock()
    bundle = pipeline.train_pipeline(items, config)
    return bundle, clock() - t0


def _save(bundle, path: Path):
    """Save as `signflow train` does; (sha256 of the bytes, error)."""
    try:
        bundle_mod.save_bundle(bundle, path)
    except (ValueError, OSError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(path.read_bytes()).hexdigest(), None


def _eval_setup(manifest, root, bundle_path, with_masks: bool):
    gc.collect()
    t0 = clock()
    bundle = bundle_mod.load_bundle(bundle_path) if bundle_path else None
    items = pipeline.load_items(manifest, root, splits=("test",),
                                with_masks=with_masks)
    return bundle, items, clock() - t0


class PredictLoop:
    """Closed loop over the test split with one client, run in slices.

    A prediction fails when predict_item raises or a branch response is
    not finite; raised ones have no latency. The first pass over the test
    split is the fixed base of the failure count and gives the labels
    macro-F is computed on. Later passes only add latencies, and each must
    repeat its first-pass outcome: the same label, or a failure.
    """

    def __init__(self, n_items: int, n_classes: int, request):
        self.n, self.n_classes, self.request = n_items, n_classes, request
        self.first = [None] * n_items    # label of an unfailed first-pass call
        self.labels = [None] * n_items   # first-pass label as reported
        self.latencies, self.stage_sums = [], {}
        self.failures = collections.Counter()  # "<pass> <how>" -> count
        self.attempted = self.mismatched = self.out_of_range = 0
        self.wall = 0.0

    def run(self, bundle, items, seconds: float, min_attempts: int = 0):
        gc.collect()
        start = clock()
        while self.attempted < min_attempts or clock() - start < seconds:
            self._one(bundle, items)
        self.wall += clock() - start

    def _one(self, bundle, items):
        slot = self.attempted % self.n
        first_pass = self.attempted < self.n
        item = items[slot]
        self.attempted += 1
        label = None
        with self.request("predict"):
            t0 = clock()
            try:
                pred = pipeline.predict_item(bundle, item.sequence,
                                             masks=item.masks)
            except Exception as exc:  # a failed request; the run goes on
                pred = None
                self._fail(first_pass, "raised")
                if first_pass:  # later passes repeat the item; the count shows them
                    print(f"predict_item failed on {item.sequence.source}: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
            else:
                self.latencies.append(clock() - t0)
        if pred is not None:
            for stage, value in pred.timings.items():
                self.stage_sums[stage] = self.stage_sums.get(stage, 0.0) + value
            finite = bool(np.isfinite(pred.gesture.values).all()) and (
                pred.posture is None or bool(np.isfinite(pred.posture).all()))
            if finite:
                label = pred.fused_class
                self.out_of_range += not 0 <= label < self.n_classes
            else:
                self._fail(first_pass, "nonfinite")
        if first_pass:
            self.first[slot] = label
            self.labels[slot] = pred.fused_class if pred is not None else None
        elif label != self.first[slot]:
            self.mismatched += 1

    def _fail(self, first_pass: bool, how: str):
        self.failures[f"{'first' if first_pass else 'repeat'} {how}"] += 1


def _machine(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "measured": "only the benchmark's own processes; no system-wide "
                    "tracing, no cache dropping",
    }


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    if args.trace:  # one traced train, set-up and pass; overhead from one untraced
        w = dataclasses.replace(w, train_repeats=1, setup_repeats=1,
                                min_latencies=0)
    manifest_path = Path(args.manifest)
    work = manifest_path.parent
    manifest = signflow.load_manifest(manifest_path)
    train_items = pipeline.load_items(manifest, work,
                                      splits=("train", "validation"),
                                      with_masks=w.masks)
    train_sources = {i.sequence.source for i in train_items if i.split == "train"}
    train_regions = sum(r.present for i in train_items if i.split == "train"
                        and i.masks is not None
                        for frame in i.masks for r in frame.values())
    tracer = None
    if args.trace:
        untraced, untraced_s = _train(train_items, w.config)
        untraced = _digest(untraced)
        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        result = _measure(args, w, manifest, train_items, tracer)
    result["machine"] = _machine(args.seed)
    bundle_digest = result.pop("bundle_digest")
    if tracer:
        layers = layer_metrics(tracer, train_sources, train_regions)
        for stage in pipeline.TIMING_STAGES:
            layers[f"pipeline.{stage}_ms"] = result["stage_ms"].get(stage, 0.0)
        layers["trace.train_s"] = result["metrics"]["train_s"]
        layers["trace.untraced_train_s"] = untraced_s
        layers["trace.overhead_train_s"] = layers["trace.train_s"] - untraced_s
        result["checks"]["tracing_keeps_outputs"] = bundle_digest == untraced
        # a renamed or removed target would read as a per-layer speed-up
        result["checks"]["trace_targets_present"] = not tracer.missing
        result["correct"] = all(result["checks"].values())
        result["layers"] = layers
        result["trace_missing"] = tracer.missing
        result["spans"] = [s.to_doc() for s in tracer.spans]
        result["requests"] = tracer.requests
    return result


def _measure(args, w, manifest, train_items, tracer) -> dict:
    """Train, save, set up and predict in rounds spread over the run.

    Round r trains if r < train_repeats and sets up if r < setup_repeats,
    then predicts its share of the loop: of --seconds, and of the whole
    passes over the test split that reach min_latencies (at least one).
    Spreading the repeats over the run keeps one slow spell of a shared
    machine from owning every sample.
    """
    request = tracer.request if tracer else _no_request
    work = Path(args.manifest).parent
    rounds = max(w.train_repeats, w.setup_repeats)
    seconds = 0.0 if tracer else args.seconds
    train_times, setups, digests = [], [], set()
    checks = {}
    for r in range(rounds):
        if r < w.train_repeats:
            with request("train"):
                trained, dt = _train(train_items, w.config)
            train_times.append(dt)
            digests.add(_digest(trained))
        if r == w.train_repeats - 1:
            train_items.clear()
        if r == 0:
            bundle = trained
            bundle_path = work / "bundle.json"
            bundle_sha, save_error = _save(bundle, bundle_path)
            if save_error is None:
                again = work / "bundle-again.json"
                _save(bundle_mod.load_bundle(bundle_path), again)
                checks["bundle_round_trip"] = \
                    again.read_bytes() == bundle_path.read_bytes()
            else:
                bundle_path = None
                print(f"save_bundle failed: {save_error}; predicting with "
                      "the in-memory bundle", file=sys.stderr)
            with_masks = bundle.config.get("fusion", "kde") != "gesture-only"
        if r < w.setup_repeats:
            with request("setup"):
                loaded, test_items, dt = _eval_setup(manifest, work, bundle_path,
                                                     with_masks)
            setups.append(dt)
            model = loaded or bundle
            if r == 0:
                n = len(test_items)
                loop = PredictLoop(n, bundle.n_classes, request)
                # whole passes, so every test item weighs the same in the rates
                target = n * max(1, -(-w.min_latencies // n))
        loop.run(model, test_items, seconds / rounds,
                 min_attempts=-(-target * (r + 1) // rounds))
    checks["train_repeats_agree"] = len(digests) == 1

    truth = [i.label for i in test_items]
    ok = [k for k, label in enumerate(loop.first) if label is not None]
    accuracy = (sum(loop.first[k] == truth[k] for k in ok) / len(ok)
                if ok else None)
    checks["labels_in_range"] = loop.out_of_range == 0
    checks["repeat_predictions_agree"] = loop.mismatched == 0
    # a workload is healthy unless NOTES.md records a defect that fails
    # every prediction on it
    checks["accuracy_floor"] = (accuracy >= w.accuracy_floor
                                if accuracy is not None else w.may_fail_all)
    checks["latencies_collected"] = bool(loop.latencies)

    shown = [k for k, label in enumerate(loop.labels) if label is not None]
    macro_f = precision_recall_fscore(confusion(
        [loop.labels[k] for k in shown], [truth[k] for k in shown],
        bundle.n_classes)).macro_fscore if shown else 0.0
    lat_ms = sorted(1000.0 * x for x in loop.latencies)
    p50, p90 = ((float(np.percentile(lat_ms, q)) for q in (50, 90))
                if lat_ms else (0.0, 0.0))
    nonfinite_models = _nonfinite_models(bundle)
    f = loop.failures
    # fixed base: one pass over the test split, the class HMMs, one save
    failed = (f["first raised"] + f["first nonfinite"] + nonfinite_models
              + (save_error is not None))
    attempted = loop.n + bundle.n_classes + 1
    return {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "correct": all(checks.values()), "checks": checks,
        "attempted": attempted, "failed": failed,
        "failed_base": {
            "predictions": loop.n, "predictions_raised": f["first raised"],
            "predictions_nonfinite": f["first nonfinite"],
            "class_hmms": bundle.n_classes, "hmms_nonfinite": nonfinite_models,
            "bundle_saves": 1, "bundle_saves_failed": int(save_error is not None),
            "repeat_predictions": loop.attempted - loop.n,
            "repeat_predictions_failed": f["repeat raised"] + f["repeat nonfinite"]},
        "save_error": save_error,
        "fingerprint": {
            "bundle_sha256": bundle_sha,
            "labels_sha256": hashlib.sha256(json.dumps(
                loop.labels).encode()).hexdigest()},
        "accuracy_of_unfailed": accuracy,
        "latency_count": len(lat_ms),
        "beyond_p90": sum(x > p90 for x in lat_ms),
        "train_repeats": len(train_times),
        "setup_repeats": len(setups),
        "n_test": len(test_items),
        "stage_ms": {k: 1000.0 * v / len(lat_ms)
                     for k, v in loop.stage_sums.items()},
        "bundle_digest": _digest(bundle),
        "metrics": {
            "setup_s": statistics.median(setups),
            "train_s": statistics.median(train_times),
            "eval_seq_per_s": len(lat_ms) / loop.wall,
            "predict_p50_ms": p50,
            "predict_p90_ms": p90,
            "macro_f": macro_f,
            "failed_ratio": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = run(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
