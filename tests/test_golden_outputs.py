"""Byte-for-byte golden outputs of one tiny end-to-end run.

A small synthetic corpus is trained in every fusion mode through the
command line, and the kde bundle is evaluated once. The sha256 of every
bundle, the report and the confusion file must equal the constants below.
A refactor must keep them; a change that moves any stored float by one
ulp changes a digest here, and one that changes outputs on purpose
records them again and says so.

The digests were recorded with Python 3.11 and numpy 2.4 on x86-64; the
run uses no scipy. Baum-Welch takes no matrix product, so what training
fits (HMMs, codebooks, posture classifier) must not depend on which BLAS
kernel runs: `test_training_bytes_do_not_depend_on_the_blas_kernel`
trains the gesture-only and posture-only bundles under every OpenBLAS
core type this CPU can run, and with numpy's AVX512 loops off, and
compares them with the golden run's. Every bundle also holds fusion
models fitted to validation scores, and scoring (`hmm._log_likelihoods`)
still multiplies its blocks through matmul. On an AVX-512 x86-64 CPU one
KDE class point of this corpus moves by 1 ulp under the Prescott kernel,
which changes the four bundle digests but not the report or the
confusion file; the guard holds those sections to 64 u.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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
        "d6fda5b1c35931dea6f7d1c6dcd38a3b57974331fddb4b755238818a2d4f0265",
    "bundle-kde.json":
        "64ed5e07d715776f940f4cd6a77121086b751ac552275c183eba3d36219451f4",
    "bundle-gesture-only.json":
        "3b28f207e4be3ae904452f5ca4fb73addfc88471484e487735d5c693dc084008",
    "bundle-posture-only.json":
        "db163eca3c445b891884c8fce35c3b00593ce15dac8927124d64dcae4fdf53d0",
    "report.json":
        "a19efe9f13422cf553272e3a5790cedde619fa38c111edeb2ff121385b07bb72",
    "confusion.csv":
        "ba05d0245575b69d47ceb78caa39f06f98f350ab770ea9043548026f9ef81e63",
}


SRC = Path(__file__).resolve().parents[1] / "src"

# OpenBLAS core types and the CPU feature each needs
CORE_TYPES = (("SkylakeX", "AVX512_SKX"), ("Haswell", "AVX2"), ("Prescott", "SSE3"))

TRAIN_GESTURE_AND_POSTURE = """
import sys
from signflow.cli import run_cli
data, out, flags = sys.argv[1], sys.argv[2], sys.argv[3:]
for mode in ("gesture-only", "posture-only"):
    assert run_cli(["train", "--data", data, "--fusion", mode,
                    "--out", f"{out}/bundle-{mode}.json", *flags]) == 0
"""


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding the synthesized corpus under data/."""
    root = tmp_path_factory.mktemp("golden")
    config = root / "corpus.json"
    config.write_text(json.dumps(config_doc(CORPUS), indent=2) + "\n")
    assert run_cli(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
    return root


@pytest.fixture(scope="module")
def digests(root):
    data = str(root / "data")
    for mode in FUSION_MODES:
        assert run_cli(["train", "--data", data, "--fusion", mode,
                        "--out", str(root / f"bundle-{mode}.json"),
                        *TRAIN_FLAGS]) == 0
    assert run_cli(["eval", "--model", str(root / "bundle-kde.json"),
                    "--data", data, "--report", str(root / "report.json"),
                    "--confusion", str(root / "confusion.csv")]) == 0
    return {name: sha256(root / name) for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_equal_golden(digests, name):
    assert digests[name] == GOLDEN[name]


def split_scores(path):
    """(sha256 of a bundle without its fusion sections, the numbers of those
    sections). The fusion models are trained on validation scores."""
    doc = json.loads(path.read_text())
    scored = [doc.pop(key) for key in ("fusion_kde", "fusion_linear")]

    def numbers(x):
        if isinstance(x, dict):
            return [v for value in x.values() for v in numbers(value)]
        if isinstance(x, list):
            return [v for value in x for v in numbers(value)]
        return [x] if isinstance(x, float) else []

    return (hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
            np.array(numbers(scored)))


def test_training_bytes_do_not_depend_on_the_blas_kernel(digests, root, tmp_path):
    """Against the bundles the golden run (`digests`) wrote into root."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    features = umath.__cpu_features__
    runs = {core: {"OPENBLAS_CORETYPE": core}
            for core, needs in CORE_TYPES if features.get(needs)}
    avx512 = [f for f in umath.__cpu_dispatch__
              if features.get(f) and ("AVX512" in f or f == "X86_V4")]
    if avx512:
        runs["AVX512 off"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    bundles = ("bundle-gesture-only.json", "bundle-posture-only.json")
    want = {name: split_scores(root / name) for name in bundles}
    cores = {}
    for run, env in runs.items():
        out = tmp_path / run.replace(" ", "-")
        out.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", TRAIN_GESTURE_AND_POSTURE, str(root / "data"),
             str(out), *TRAIN_FLAGS],
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_VERBOSE": "2", **env},
            capture_output=True, text=True, check=True, timeout=300)
        cores[run] = re.findall(r"Core: (\w+)", done.stdout + done.stderr)
        for name in bundles:
            trained, scores = split_scores(out / name)
            assert trained == want[name][0], (run, name)
            # the fusion sections hold scores from matmul block products
            assert np.all(np.abs(scores - want[name][1])
                          <= 64 * 2.0 ** -53 * np.abs(want[name][1])), (run, name)
    # each core type named its own kernel, so the runs did switch kernels
    picked = [cores[core] for core, _ in CORE_TYPES if core in runs]
    assert all(len(c) == 1 for c in picked) and len({c[0] for c in picked}) == len(picked)
