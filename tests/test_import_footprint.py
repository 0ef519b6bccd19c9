"""That the package runs without scipy, checked in fresh interpreters.

Every run path is numpy alone: importing signflow, loading a hand-mask
archive (its 8-connected components are counted in numpy), and training,
saving, loading and predicting, gesture-only on a corpus without masks
and with KDE fusion on one with masks, load no scipy module. scipy is a
test dependency: the tests' byte oracles use it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from signflow.dataset import save_mask_archive
from signflow.skeleton import JointId
from signflow.synthetic import (
    ClassSpec,
    SyntheticConfig,
    generate_synthetic_corpus,
    write_corpus,
)

SRC = Path(__file__).resolve().parents[1] / "src"

CORPUS = SyntheticConfig(
    classes=[ClassSpec(template=0, anchor=JointId.Head, mask=0),
             ClassSpec(template=1, anchor=JointId.Neck, mask=1)],
    counts=(3, 0, 1), frame_count_range=(10, 12), seed=2)

# fusion is trained on the validation split
MASK_CORPUS = SyntheticConfig(classes=CORPUS.classes, counts=(3, 2, 1),
                              frame_count_range=(10, 12), seed=2)

REPORT = "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"

TRAIN_SAVE_LOAD_PREDICT = """
import json, sys
from pathlib import Path
from signflow.bundle import load_bundle, save_bundle
from signflow.dataset import load_manifest
from signflow.pipeline import load_items, predict_item, train_pipeline
root, fusion = Path(sys.argv[1]), sys.argv[2]
items = load_items(load_manifest(root / "manifest.json"), root)
assert all((i.masks is None) == (fusion == "gesture-only") for i in items)
save_bundle(train_pipeline(items, {"fusion": fusion, "gesture_k": 4, "posture_k": 4,
                                   "hmm_states": 2, "hmm_iters": 2, "epochs": 2}),
            root / "model.json")
bundle = load_bundle(root / "model.json")
test = next(i for i in items if i.split == "test")
assert predict_item(bundle, test.sequence, test.masks).mode == fusion
"""

MASK_LOAD = """
import json, sys
from signflow.dataset import load_mask_archive
assert len(load_mask_archive(sys.argv[1])) > 0
"""


def scipy_modules(code: str, *args) -> list:
    """The scipy modules a fresh interpreter holds after running code."""
    done = subprocess.run([sys.executable, "-c", code + REPORT, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_modules("import json, sys\nimport signflow") == []


def test_gesture_only_train_save_load_predict_load_no_scipy(tmp_path):
    write_corpus(generate_synthetic_corpus(CORPUS, with_masks=False), tmp_path)
    assert scipy_modules(TRAIN_SAVE_LOAD_PREDICT, tmp_path, "gesture-only") == []
    assert (tmp_path / "model.json").exists()


def test_with_masks_kde_train_save_load_predict_load_no_scipy(tmp_path):
    write_corpus(generate_synthetic_corpus(MASK_CORPUS), tmp_path)
    assert scipy_modules(TRAIN_SAVE_LOAD_PREDICT, tmp_path, "kde") == []
    assert (tmp_path / "model.json").exists()


@pytest.fixture
def mask_archive(tmp_path):
    frames = generate_synthetic_corpus(CORPUS).masks[0]
    save_mask_archive(tmp_path / "masks", frames)
    return tmp_path / "masks"


def test_mask_archive_load_loads_no_scipy(mask_archive):
    assert scipy_modules(MASK_LOAD, mask_archive) == []
