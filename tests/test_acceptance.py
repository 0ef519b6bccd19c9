"""Acceptance suite: ten checks, one printed PASS/FAIL line each.

Each check states its tolerance inline. Oracles are independent of the
implementation under test: path enumeration for the forward pass,
scalar (r, theta) binning for shape contexts, linear scans for the
quantizer, and generator ground truth for the end-to-end corpora.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from signflow.bundle import load_bundle
from signflow.cli import run_cli
from signflow.codebook import fit_kmeans, quantize_batch
from signflow.descriptors import DescriptorVariant, describe_sequence
from signflow.hmm import DiscreteHMM, baum_welch, forward_log_likelihood, init_left_right
from signflow.pipeline import evaluate_pipeline, items_from_corpus, train_pipeline
from signflow.posture import (
    INNER_RADIUS,
    N_ANGLE_BINS,
    N_RINGS,
    OUTER_RADIUS,
    frame_shape_contexts,
    shape_context_rows,
)
from signflow.skeleton import ALL_JOINTS, JointId, SkeletonSequence
from signflow.synthetic import (
    ClassSpec,
    SyntheticConfig,
    config_doc,
    generate_synthetic_corpus,
)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_hmm(rng, n, k) -> DiscreteHMM:
    # random left-right model as a one-class record: the type constrains
    # A's support, while pi and B stay dense random stochastics
    pi = rng.random(n) + 0.1
    A = np.zeros((n, n))
    for i in range(n - 1):
        stay = 0.1 + 0.8 * rng.random()
        A[i, i] = stay
        A[i, i + 1] = 1.0 - stay
    A[n - 1, n - 1] = 1.0
    B = rng.random((n, k)) + 0.1
    return DiscreteHMM(pi=(pi / pi.sum())[None], A=A[None],
                       B=(B / B.sum(axis=1, keepdims=True))[None])


def _random_sequence(rng, n_frames: int) -> SkeletonSequence:
    positions = [[rng.normal(0.0, 0.5, 3) for _ in ALL_JOINTS]
                 for _ in range(n_frames)]
    return SkeletonSequence(timestamps=np.arange(n_frames) / 30.0,
                            positions=positions)


def _translate(seq: SkeletonSequence, offset) -> SkeletonSequence:
    return SkeletonSequence(timestamps=seq.timestamps,
                            positions=seq.positions + np.asarray(offset))


def test_criterion_1_forward_matches_path_enumeration():
    """200 random instances (N<=3, K<=4, T<=6), brute force over N^T paths,
    relative tolerance 1e-9, runtime < 5 s."""
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        T = int(rng.integers(1, 7))
        hmm = _random_hmm(rng, n, k)
        pi, A, B = hmm.pi[0], hmm.A[0], hmm.B[0]
        obs = rng.integers(0, k, size=T)
        total = 0.0
        for path in itertools.product(range(n), repeat=T):
            p = pi[path[0]] * B[path[0], obs[0]]
            for t in range(1, T):
                p *= A[path[t - 1], path[t]] * B[path[t], obs[t]]
            total += p
        reference = math.log(total)
        got = forward_log_likelihood(hmm, obs)
        worst = max(worst, abs(got - reference) / max(1.0, abs(reference)))
    elapsed = time.perf_counter() - t0
    _verdict(1, worst <= 1e-9 and elapsed < 5.0,
             f"forward vs enumeration, max rel err {worst:.2e} "
             f"(tol 1e-9), {elapsed:.2f}s (limit 5s)")


def test_criterion_2_baum_welch_monotone_and_structured():
    """50 random problems; per-iteration log-likelihood non-decreasing
    within 1e-8; left-right zeros and row-stochasticity (1e-12) hold at
    every iteration; runtime < 30 s."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_drop = 0.0
    structure_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(3, 6))
        seqs = [rng.integers(0, k, size=int(rng.integers(5, 13)))
                for _ in range(int(rng.integers(3, 7)))]
        model = init_left_right(n, k)
        history = []
        for _ in range(6):
            model, report = baum_welch(model, seqs, max_iter=1, tol=0.0)
            history.extend(report.log_likelihoods)
            off_support = ~(np.eye(n, dtype=bool) |
                            np.eye(n, k=1, dtype=bool))
            pi, A, B = model.pi[0], model.A[0], model.B[0]  # the one class
            structure_ok &= bool(np.all(A[off_support] == 0.0))
            structure_ok &= bool(np.all(pi[1:] == 0.0))
            structure_ok &= abs(pi.sum() - 1.0) <= 1e-12
            structure_ok &= bool(np.all(np.abs(A.sum(axis=1) - 1.0)
                                        <= 1e-12))
            structure_ok &= bool(np.all(np.abs(B.sum(axis=1) - 1.0)
                                        <= 1e-12))
        drops = np.diff(np.asarray(history))
        if drops.size:
            worst_drop = max(worst_drop, float(-drops.min()))
    elapsed = time.perf_counter() - t0
    _verdict(2, worst_drop <= 1e-8 and structure_ok and elapsed < 30.0,
             f"worst log-likelihood drop {worst_drop:.2e} (slack 1e-8), "
             f"structure preserved: {structure_ok}, {elapsed:.2f}s "
             f"(limit 30s)")


def test_criterion_3_kmeans_wcss_quantizer_and_1d_example():
    """WCSS non-increasing on 50 random fits (slack 1e-9); quantizer agrees
    with a linear scan on 10,000 probes; the 4-point 1-D set recovers
    centers {0.05, 10.05} exactly; runtime < 10 s."""
    rng = np.random.default_rng(43)
    t0 = time.perf_counter()
    wcss_ok = True
    for _ in range(50):
        n = int(rng.integers(30, 81))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 7))
        cb = fit_kmeans(rng.normal(size=(n, d)), k=k,
                        seed=int(rng.integers(0, 1000)))
        hist = np.asarray(cb.wcss_history)
        wcss_ok &= bool(np.all(np.diff(hist) <= 1e-9))

    cb = fit_kmeans(rng.normal(size=(500, 3)), k=12, seed=7)
    probes = rng.normal(scale=2.0, size=(10000, 3))
    got = quantize_batch(cb, probes)
    agree = True
    for i in range(probes.shape[0]):
        best, best_d = 0, float("inf")
        for j in range(cb.k):
            diff = probes[i] - cb.centers[j]
            dist = float(diff @ diff)
            if dist < best_d:
                best, best_d = j, dist
        agree &= int(got[i]) == best

    four = fit_kmeans(np.array([[0.0], [0.1], [10.0], [10.1]]), k=2, seed=0)
    centers = sorted(float(c) for c in four.centers.ravel())
    exact = centers == [0.05, 10.05]
    elapsed = time.perf_counter() - t0
    _verdict(3, wcss_ok and agree and exact and elapsed < 10.0,
             f"WCSS monotone: {wcss_ok}, 10000-probe scan agreement: "
             f"{agree}, 1-D centers {centers} == [0.05, 10.05]: {exact}, "
             f"{elapsed:.2f}s (limit 10s)")


def test_criterion_4_shape_context_binning_oracle():
    """100 random 20-point sets inside the outer radius: raw counts total
    exactly 19; every point's bin matches scalar (r, theta) binning;
    normalized sum = 1 +- 1e-9; translation invariance <= 1e-12."""
    rng = np.random.default_rng(44)
    ring_ratio = OUTER_RADIUS / INNER_RADIUS
    counts_ok = bins_ok = sums_ok = shift_ok = True
    for _ in range(100):
        # radius 15 disc: all pairwise distances < 30 < OUTER_RADIUS
        r = 15.0 * np.sqrt(rng.random(20))
        a = rng.random(20) * 2.0 * np.pi
        pts = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
        ref = int(rng.integers(0, 20))
        sc = shape_context_rows(frame_shape_contexts(pts))[ref]
        raw = sc * 19.0
        counts_ok &= abs(raw.sum() - 19.0) <= 1e-9
        sums_ok &= abs(sc.sum() - 1.0) <= 1e-9

        oracle = np.zeros(1 + N_ANGLE_BINS * N_RINGS)
        for i in range(20):
            if i == ref:
                continue
            dx = pts[i, 0] - pts[ref, 0]
            dy = pts[i, 1] - pts[ref, 1]
            dist = math.hypot(dx, dy)
            if dist < INNER_RADIUS:
                oracle[0] += 1.0
                continue
            theta = math.atan2(dy, dx) % (2.0 * math.pi)
            abin = min(int(theta * N_ANGLE_BINS / (2.0 * math.pi)),
                       N_ANGLE_BINS - 1)
            ring = min(int(N_RINGS * math.log(dist / INNER_RADIUS)
                           / math.log(ring_ratio)), N_RINGS - 1)
            oracle[1 + ring * N_ANGLE_BINS + abin] += 1.0
        bins_ok &= bool(np.array_equal(raw, oracle))

        shifted = shape_context_rows(
            frame_shape_contexts(pts + np.array([190.3, -77.7])))[ref]
        shift_ok &= float(np.max(np.abs(shifted - sc))) <= 1e-12
    _verdict(4, counts_ok and bins_ok and sums_ok and shift_ok,
             f"raw count 19: {counts_ok}, (r, theta) oracle match: "
             f"{bins_ok}, normalized sum 1 +- 1e-9: {sums_ok}, "
             f"translation <= 1e-12: {shift_ok}")


def test_criterion_5_descriptor_laws():
    """RBPD is 66-D, HD is 6-D; translation invariance <= 1e-12; the
    self-hand triples are exactly zero; -T variants emit n-1 frames."""
    rng = np.random.default_rng(45)
    dims_ok = shift_ok = zeros_ok = count_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 10))
        seq = _random_sequence(rng, n)
        moved = _translate(seq, rng.normal(0.0, 50.0, 3))
        for variant, dim in ((DescriptorVariant.RBPD, 66),
                             (DescriptorVariant.HD, 6),
                             (DescriptorVariant.RBPD_T, 66),
                             (DescriptorVariant.HD_T, 6)):
            ds = describe_sequence(seq, variant)
            dm = describe_sequence(moved, variant)
            expected = n - 1 if variant.value.endswith("-t") else n
            count_ok &= len(ds) == expected
            dims_ok &= all(d.shape == (dim,) for d in ds)
            delta = max(float(np.max(np.abs(a - b)))
                        for a, b in zip(ds, dm))
            shift_ok &= delta <= 1e-12
        rh = list(JointId)[:11].index(JointId.RHand)
        lh = list(JointId)[:11].index(JointId.LHand)
        for d in describe_sequence(seq, DescriptorVariant.RBPD):
            zeros_ok &= bool(np.all(d[3 * rh:3 * rh + 3] == 0.0))
            zeros_ok &= bool(np.all(d[33 + 3 * lh:33 + 3 * lh + 3]
                                    == 0.0))
    _verdict(5, dims_ok and shift_ok and zeros_ok and count_ok,
             f"dims 66/6: {dims_ok}, translation <= 1e-12: {shift_ok}, "
             f"self-hand triple zero: {zeros_ok}, -t count n-1: {count_ok}")


def test_criterion_6_rbpd_t_beats_hd_on_anchor_pairs():
    """6 classes, two anchor pairs sharing world trajectories, sigma 0.01,
    40/10/20 per class: RBPD-T macro F >= 0.90 and >= HD + 0.20;
    runtime < 3 min."""
    t0 = time.perf_counter()
    cfg = SyntheticConfig(
        classes=[
            ClassSpec(template=0, anchor=JointId.Head, mask=0),
            ClassSpec(template=0, anchor=JointId.Neck, mask=1),
            ClassSpec(template=1, anchor=JointId.Head, mask=2),
            ClassSpec(template=1, anchor=JointId.Neck, mask=3),
            ClassSpec(template=2, anchor=JointId.Torso, mask=4),
            ClassSpec(template=3, anchor=JointId.LShoulder, mask=5),
        ],
        counts=(40, 10, 20),
        noise=0.01,
        frame_count_range=(12, 18),
        seed=601,
    )
    items = items_from_corpus(generate_synthetic_corpus(cfg, with_masks=False))
    test = [i for i in items if i.split == "test"]
    scores = {}
    for descriptor in ("rbpd-t", "hd"):
        bundle = train_pipeline(items, {
            "descriptor": descriptor, "fusion": "gesture-only",
            "gesture_k": 64, "hmm_states": 6, "hmm_iters": 10, "seed": 9})
        result = evaluate_pipeline(bundle, test, mode="gesture-only")
        scores[descriptor] = result.report.macro_fscore
    elapsed = time.perf_counter() - t0
    gap = scores["rbpd-t"] - scores["hd"]
    _verdict(6, scores["rbpd-t"] >= 0.90 and gap >= 0.20 and elapsed < 180.0,
             f"macro F rbpd-t {scores['rbpd-t']:.3f} (need >= 0.90), "
             f"hd {scores['hd']:.3f}, gap {gap:.3f} (need >= 0.20), "
             f"{elapsed:.1f}s (limit 180s)")


_FUSION_CACHE = {}


@pytest.fixture(scope="module")
def fusion_setup():
    """Corpus with one mask-only pair and one anchor-only pair, plus a
    bundle trained on it. Shared by criteria 7 and 9."""
    if not _FUSION_CACHE:
        t0 = time.perf_counter()
        cfg = SyntheticConfig(
            classes=[
                ClassSpec(template=0, anchor=JointId.Head, mask=0),
                ClassSpec(template=0, anchor=JointId.Head, mask=1),
                ClassSpec(template=1, anchor=JointId.Head, mask=2),
                ClassSpec(template=1, anchor=JointId.Neck, mask=2),
            ],
            counts=(12, 8, 10),
            noise=0.01,
            frame_count_range=(10, 14),
            seed=701,
        )
        items = items_from_corpus(generate_synthetic_corpus(cfg))
        bundle = train_pipeline(items, {
            "gesture_k": 32, "posture_k": 48, "hmm_states": 5,
            "hmm_iters": 8, "epochs": 120, "posture_cost": 10.0, "seed": 9})
        _FUSION_CACHE["items"] = items
        _FUSION_CACHE["bundle"] = bundle
        _FUSION_CACHE["build_seconds"] = time.perf_counter() - t0
    return _FUSION_CACHE


def test_criterion_7_fusion_beats_both_branches(fusion_setup):
    """KDE-fused accuracy >= max(gesture-only, posture-only) on a corpus
    where one pair differs only in mask and one only in anchor; the two
    fusion rules agree on >= 80% of test items; runtime < 3 min."""
    t0 = time.perf_counter()
    bundle = fusion_setup["bundle"]
    test = [i for i in fusion_setup["items"] if i.split == "test"]

    def accuracy(mode):
        result = evaluate_pipeline(bundle, test, mode=mode)
        cm = result.confusion.counts
        return float(np.trace(cm)) / float(cm.sum()), result

    acc_g, _ = accuracy("gesture-only")
    acc_p, _ = accuracy("posture-only")
    acc_kde, res_kde = accuracy("kde")
    _, res_lin = accuracy("linear")
    agree = float(np.mean([a.fused_class == b.fused_class for a, b in
                           zip(res_kde.predictions, res_lin.predictions)]))
    elapsed = fusion_setup["build_seconds"] + time.perf_counter() - t0
    ok = acc_kde >= max(acc_g, acc_p) and agree >= 0.80 and elapsed < 180.0
    _verdict(7, ok,
             f"kde {acc_kde:.3f} >= max(gesture {acc_g:.3f}, posture "
             f"{acc_p:.3f}), rule agreement {agree:.2f} (need >= 0.80), "
             f"{elapsed:.1f}s (limit 180s)")


def test_criterion_8_bitwise_determinism(tmp_path):
    """Same seed twice: bit-identical bundles and report files; a bundle
    survives a save/load round trip with identical predictions."""
    cfg = SyntheticConfig(
        classes=[
            ClassSpec(template=0, anchor=JointId.Head, mask=0),
            ClassSpec(template=1, anchor=JointId.Neck, mask=1),
            ClassSpec(template=3, anchor=JointId.Torso, mask=2),
        ],
        counts=(6, 3, 5),
        noise=0.01,
        frame_count_range=(8, 10),
        seed=801,
    )
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config_doc(cfg), indent=2) + "\n")
    assert run_cli(["synth", "--config", str(config_path),
                    "--out", str(tmp_path / "data")]) == 0
    flags = ["--gesture-k", "16", "--posture-k", "24", "--states", "4",
             "--hmm-iters", "5", "--posture-cost", "10", "--seed", "3"]
    for tag in ("a", "b"):
        assert run_cli(["train", "--data", str(tmp_path / "data"),
                        "--out", str(tmp_path / f"m{tag}.json"),
                        *flags]) == 0
        assert run_cli(["eval", "--model", str(tmp_path / f"m{tag}.json"),
                        "--data", str(tmp_path / "data"),
                        "--report", str(tmp_path / f"r{tag}.json"),
                        "--confusion", str(tmp_path / f"c{tag}.csv")]) == 0
    bundles_equal = (tmp_path / "ma.json").read_bytes() == \
                    (tmp_path / "mb.json").read_bytes()
    reports_equal = (tmp_path / "ra.json").read_bytes() == \
                    (tmp_path / "rb.json").read_bytes()
    confusion_equal = (tmp_path / "ca.csv").read_bytes() == \
                      (tmp_path / "cb.csv").read_bytes()

    from signflow.dataset import load_manifest
    from signflow.pipeline import load_items
    bundle = load_bundle(tmp_path / "ma.json")
    items = load_items(load_manifest(tmp_path / "data" / "manifest.json"),
                       tmp_path / "data", splits=("test",))
    before = [p.fused_class for p in
              evaluate_pipeline(bundle, items).predictions]
    after = [p.fused_class for p in
             evaluate_pipeline(load_bundle(tmp_path / "ma.json"),
                               items).predictions]
    _verdict(8, bundles_equal and reports_equal and confusion_equal
             and before == after,
             f"bundles bit-identical: {bundles_equal}, reports: "
             f"{reports_equal}, confusion: {confusion_equal}, round-trip "
             f"predictions identical: {before == after}")


def test_criterion_9_timing_stages_and_budget(fusion_setup):
    """Evaluation reports the six stage timings plus a total equal to
    their sum within 1 ms; mean inference < 0.5 s per sequence."""
    bundle = fusion_setup["bundle"]
    test = [i for i in fusion_setup["items"] if i.split == "test"]
    result = evaluate_pipeline(bundle, test, mode="kde")
    stages = {"posture_description", "posture_classification",
              "gesture_description", "gesture_classification",
              "combination_description", "combination_classification"}
    keys_ok = set(result.timings) == stages | {"total"}
    sum_gap = abs(result.timings["total"]
                  - sum(result.timings[s] for s in stages))
    total = result.timings["total"]
    _verdict(9, keys_ok and sum_gap <= 1e-3 and total < 0.5,
             f"six stages + total present: {keys_ok}, |total - sum| "
             f"{sum_gap:.2e}s (limit 1e-3), mean {total * 1000:.1f}ms "
             f"per sequence (limit 500ms)")


@pytest.mark.skipif("SIGNFLOW_MSRC12_DIR" not in os.environ,
                    reason="optional: set SIGNFLOW_MSRC12_DIR to a converted "
                           "MSRC-12 corpus (manifest.json + skeleton CSVs) "
                           "to run the dataset check")
def test_criterion_10_msrc12_gesture_macro_fscore():
    """Optional external check: RBPD-T gesture-only macro F within +-0.07
    of 0.92 on a subject-disjoint MSRC-12 conversion."""
    from signflow.dataset import load_manifest
    from signflow.pipeline import load_items

    root = os.environ["SIGNFLOW_MSRC12_DIR"]
    manifest = load_manifest(os.path.join(root, "manifest.json"))
    items = load_items(manifest, root, with_masks=False)
    bundle = train_pipeline(items, {
        "descriptor": "rbpd-t", "fusion": "gesture-only",
        "gesture_k": 100, "hmm_states": 8, "hmm_iters": 30, "seed": 0})
    test = [i for i in items if i.split == "test"]
    result = evaluate_pipeline(bundle, test, mode="gesture-only")
    f = result.report.macro_fscore
    _verdict(10, abs(f - 0.92) <= 0.07,
             f"MSRC-12 rbpd-t macro F {f:.3f} (need within 0.07 of 0.92)")
