"""Workload definitions and input generation for the signflow benchmark.

Each workload has a fixed training corpus (train and validation splits,
drawn from the workload's own base seed) and a test split drawn from the
run's --seed. Training therefore does identical work on every run, so
train_s measures the program and not the convergence luck of one corpus;
the seed varies what setup, prediction and macro-F see. NOTES.md says why
each workload exists.

Inputs come from the program's own generator (signflow.synthetic) and are
written to disk with its own writers; the measured process only reads them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

# criterion-6 classes: two Head/Neck anchor pairs plus two distinct signs
ANCHOR_PAIR_CLASSES = ((0, "Head", 0), (0, "Neck", 1), (1, "Head", 2),
                       (1, "Neck", 3), (2, "Torso", 4), (3, "LShoulder", 5))


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple          # (trajectory template, anchor joint name, mask id)
    train_counts: tuple     # (train, validation) sequences per class, fixed
    test_count: int         # test sequences per class, drawn from --seed
    frames: tuple           # frame_count_range
    masks: bool
    config: dict            # train_pipeline config
    base_seed: int = 0      # seed of the fixed training corpus
    train_repeats: int = 1  # train_s is the median of this many trainings
    setup_repeats: int = 5  # setup_s is the median of this many set-ups
    min_latencies: int = 100  # so that >= 10 latencies lie beyond p90
    accuracy_floor: float = 0.9  # on the predictions that did not fail
    may_fail_all: bool = False   # a known defect may fail every prediction

    def smoke(self) -> "Workload":
        """Minimal-size variant: same code paths, seconds instead of minutes."""
        lo = min(self.frames[0], 10)
        return dataclasses.replace(
            self, train_counts=(3, 2 if self.train_counts[1] else 0),
            test_count=1, frames=(lo, lo + 2), train_repeats=1,
            setup_repeats=2, min_latencies=1, accuracy_floor=0.0)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fused-short",
        classes=ANCHOR_PAIR_CLASSES,
        train_counts=(40, 10), test_count=20, frames=(12, 18), masks=True,
        config={"seed": 3, "fusion": "kde"},
        base_seed=7),
    Workload(
        name="gesture-long",
        classes=tuple((t, a, 0) for t in range(6) for a in ("Head", "Neck")),
        train_counts=(4, 0), test_count=1, frames=(900, 1100), masks=False,
        config={"seed": 3, "fusion": "gesture-only"},
        # the first of base seeds 1..5 whose training corpus trips the
        # Baum-Welch NaN defect (seeds 2 and 4 do); see NOTES.md
        base_seed=2, accuracy_floor=0.5, may_fail_all=True),
    Workload(
        name="gesture-short",
        classes=ANCHOR_PAIR_CLASSES,
        train_counts=(40, 10), test_count=60, frames=(12, 18), masks=False,
        config={"descriptor": "rbpd-t", "fusion": "gesture-only",
                "gesture_k": 64, "hmm_states": 6, "hmm_iters": 10, "seed": 9},
        base_seed=601, train_repeats=7, accuracy_floor=0.85),
)}


def _corpus(sf, w: Workload, seed: int, counts: tuple):
    cfg = sf.SyntheticConfig(
        classes=[sf.ClassSpec(t, sf.JointId[a], m) for t, a, m in w.classes],
        counts=counts, noise=0.01, frame_count_range=w.frames, seed=seed)
    return sf.generate_synthetic_corpus(cfg, with_masks=w.masks)


def _absolute(entries, root: Path) -> list:
    return [dataclasses.replace(
        e, sequence_path=str(root / e.sequence_path),
        mask_dir=str(root / e.mask_dir) if e.mask_dir is not None else None)
        for e in entries]


def _fixed_split(sf, w: Workload, cache: Path) -> Path:
    """Directory holding the workload's fixed train/validation corpus.

    Written once per checkout; the key covers the workload and the
    program's sources, so any change to the generator writes it anew.
    """
    corpus = (w.classes, w.train_counts, w.frames, w.masks, w.base_seed)
    digest = hashlib.sha256(json.dumps(corpus).encode())
    for src in sorted(Path(sf.__file__).parent.glob("*.py")):
        digest.update(src.read_bytes())
    final = cache / f"{w.name}-{digest.hexdigest()[:16]}"
    if final.is_dir():
        return final
    tmp = cache / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    sf.write_corpus(_corpus(sf, w, w.base_seed, (*w.train_counts, 0)), tmp)
    try:
        os.rename(tmp, final)
    except OSError:  # another run wrote it first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def write_inputs(sf, w: Workload, seed: int, cache: Path, work: Path) -> Path:
    """Write the run's corpus and return the path of its manifest.

    The test split is drawn with the generator's train recipe from --seed
    and relabelled, with subject names of its own so splits stay
    subject-disjoint.
    """
    fixed = _fixed_split(sf, w, cache)
    test = _corpus(sf, w, seed, (w.test_count, 0, 0))
    test.manifest = sf.DatasetManifest([
        dataclasses.replace(e, split="test", subject=f"test-{e.subject}")
        for e in test.manifest.entries])
    sf.write_corpus(test, work / "test")
    entries = (_absolute(sf.load_manifest(fixed / "manifest.json").entries, fixed)
               + _absolute(test.manifest.entries, work / "test"))
    path = work / "manifest.json"
    sf.save_manifest(sf.DatasetManifest(entries), path)
    return path
