"""Byte-for-byte golden outputs of one tiny end-to-end run.

A small synthetic corpus is trained in every fusion mode through the
command line, and the kde bundle is evaluated once. The sha256 of every
bundle, the report and the confusion file must equal the constants below.
A refactor must keep them; a change that moves any stored float by one
ulp changes a digest here, and one that changes outputs on purpose
records them again and says so.

The digests depend on the floating-point behaviour of the numpy/BLAS
build (they were recorded with Python 3.11 and numpy 2.4 on x86-64); the
run uses no scipy. A change of platform that changes them is not a
defect of the program, and the constants are then recorded again from an
unchanged tree.
"""

import hashlib
import json

import pytest

from signflow.cli import run_cli
from signflow.pipeline import FUSION_MODES
from signflow.skeleton import JointId
from signflow.synthetic import ClassSpec, SyntheticConfig, config_doc

CORPUS = SyntheticConfig(
    classes=[
        ClassSpec(template=0, anchor=JointId.Head, mask=0),
        ClassSpec(template=0, anchor=JointId.Neck, mask=1),
        ClassSpec(template=2, anchor=JointId.Torso, mask=3),
    ],
    counts=(5, 3, 3),
    noise=0.01,
    frame_count_range=(9, 12),
    seed=5,
)

TRAIN_FLAGS = ["--gesture-k", "12", "--posture-k", "16", "--states", "3",
               "--hmm-iters", "5", "--epochs", "8", "--seed", "4"]

GOLDEN = {
    "bundle-linear.json":
        "d1be9e5e081df49286b7cfe2b5d01c9b0836a7a3870cbb496f17a0119d6012cd",
    "bundle-kde.json":
        "73a3967aa5d6c19b784eccda04551f1a521a2f8f6d07cacf357e13efdb2b0da4",
    "bundle-gesture-only.json":
        "2bf13a8aac94727b8aaea5534c81f09bf863dbcabaac3faa32c299d366c2324a",
    "bundle-posture-only.json":
        "3f873d122973afe0118e9fdab94a32eaee3dd8622796fac02668997da6cde88b",
    "report.json":
        "a19efe9f13422cf553272e3a5790cedde619fa38c111edeb2ff121385b07bb72",
    "confusion.csv":
        "ba05d0245575b69d47ceb78caa39f06f98f350ab770ea9043548026f9ef81e63",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "corpus.json"
    config.write_text(json.dumps(config_doc(CORPUS), indent=2) + "\n")
    data = str(root / "data")
    assert run_cli(["synth", "--config", str(config), "--out", data]) == 0
    for mode in FUSION_MODES:
        assert run_cli(["train", "--data", data, "--fusion", mode,
                        "--out", str(root / f"bundle-{mode}.json"),
                        *TRAIN_FLAGS]) == 0
    assert run_cli(["eval", "--model", str(root / "bundle-kde.json"),
                    "--data", data, "--report", str(root / "report.json"),
                    "--confusion", str(root / "confusion.csv")]) == 0
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_equal_golden(digests, name):
    assert digests[name] == GOLDEN[name]
