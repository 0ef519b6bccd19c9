"""CLI surface tests: full command loop, file outputs, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from signflow.bundle import load_bundle
from signflow.cli import build_parser, run_cli, train_config
from signflow.pipeline import make_config
from signflow.skeleton import JointId
from signflow.synthetic import ClassSpec, SyntheticConfig, config_doc

CORPUS = SyntheticConfig(
    classes=[
        ClassSpec(template=0, anchor=JointId.Head, mask=0),
        ClassSpec(template=1, anchor=JointId.Neck, mask=1),
        ClassSpec(template=3, anchor=JointId.Torso, mask=2),
    ],
    counts=(6, 3, 5),
    noise=0.01,
    frame_count_range=(10, 13),
    seed=11,
)

def save_config(cfg, path):
    """Write cfg as a synth config file."""
    Path(path).write_text(json.dumps(config_doc(cfg), indent=2) + "\n")


TRAIN_FLAGS = ["--gesture-k", "20", "--posture-k", "24", "--states", "4",
               "--hmm-iters", "6", "--posture-cost", "10", "--seed", "3"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth + train shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "corpus.json"
    save_config(CORPUS, config)
    assert run_cli(["synth", "--config", str(config),
                    "--out", str(root / "data")]) == 0
    assert run_cli(["train", "--data", str(root / "data"),
                    "--out", str(root / "model.json"), *TRAIN_FLAGS]) == 0
    return root


class TestSynth:
    def test_writes_manifest_and_files(self, tmp_path):
        config = tmp_path / "c.json"
        save_config(CORPUS, config)
        assert run_cli(["synth", "--config", str(config),
                        "--out", str(tmp_path / "d")]) == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert len(manifest["entries"]) == 3 * (6 + 3 + 5)
        first = manifest["entries"][0]
        assert (tmp_path / "d" / first["sequence_path"]).exists()
        assert (tmp_path / "d" / first["mask_dir"]).is_dir()

    def test_no_masks_flag(self, tmp_path):
        config = tmp_path / "c.json"
        save_config(CORPUS, config)
        assert run_cli(["synth", "--config", str(config), "--no-masks",
                        "--out", str(tmp_path / "d")]) == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert all(e["mask_dir"] is None for e in manifest["entries"])

    def test_seed_override_changes_corpus(self, tmp_path):
        config = tmp_path / "c.json"
        save_config(CORPUS, config)
        run_cli(["synth", "--config", str(config), "--out",
                 str(tmp_path / "a"), "--seed", "1"])
        run_cli(["synth", "--config", str(config), "--out",
                 str(tmp_path / "b"), "--seed", "2"])
        seq = json.loads((tmp_path / "a" / "manifest.json").read_text(
            ))["entries"][0]["sequence_path"]
        assert (tmp_path / "a" / seq).read_bytes() != \
               (tmp_path / "b" / seq).read_bytes()


class TestTrain:
    def test_bundle_is_loadable(self, workdir):
        bundle = load_bundle(workdir / "model.json")
        assert bundle.n_classes == 3
        assert bundle.posture_model is not None
        assert bundle.fusion_kde is not None

    def test_env_seed_fallback_matches_flag(self, tmp_path, monkeypatch,
                                            workdir):
        flags = [f for f in TRAIN_FLAGS if f not in ("--seed", "3")]
        monkeypatch.setenv("SIGNFLOW_SEED", "3")
        assert run_cli(["train", "--data", str(workdir / "data"),
                        "--out", str(tmp_path / "env.json"), *flags]) == 0
        assert (tmp_path / "env.json").read_bytes() == \
               (workdir / "model.json").read_bytes()

    def test_parser_defaults_are_the_config_defaults(self, monkeypatch):
        monkeypatch.delenv("SIGNFLOW_SEED", raising=False)
        args = build_parser().parse_args(["train", "--data", "d", "--out", "m"])
        assert train_config(args) == make_config()

    def test_no_masks_needs_gesture_only(self, workdir, tmp_path, capsys):
        flags = ["--data", str(workdir / "data"), "--no-masks", *TRAIN_FLAGS]
        assert run_cli(["train", "--out", str(tmp_path / "kde.json"), *flags]) == 1
        assert "gesture-only" in capsys.readouterr().err
        assert not (tmp_path / "kde.json").exists()
        assert run_cli(["train", "--out", str(tmp_path / "g.json"),
                        "--fusion", "gesture-only", *flags]) == 0
        assert load_bundle(tmp_path / "g.json").posture_model is None


class TestEval:
    def test_prints_macro_fscore_and_writes_files(self, workdir, tmp_path,
                                                  capsys):
        report = tmp_path / "report.json"
        cm = tmp_path / "cm.csv"
        timing = tmp_path / "timing.json"
        code = run_cli(["eval", "--model", str(workdir / "model.json"),
                        "--data", str(workdir / "data"),
                        "--report", str(report), "--confusion", str(cm),
                        "--timing", str(timing)])
        assert code == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines()
                    if l.startswith("macro-fscore"))
        assert float(line.split()[1]) >= 0.9

        doc = json.loads(report.read_text())
        assert doc["format"] == "signflow-report"
        assert doc["config_hash"]
        assert doc["n_sequences"] == 15
        assert len(doc["per_class_fscore"]) == 3
        assert len(doc["confusion"]) == 3

        lines = cm.read_text().splitlines()
        assert lines[0].startswith("# signflow ")
        assert "config=" in lines[0]
        counts = [[int(c) for c in row.split(",")] for row in lines[1:]]
        assert sum(sum(r) for r in counts) == 15

        tdoc = json.loads(timing.read_text())
        assert set(tdoc["stages"]) == {
            "posture_description", "posture_classification",
            "gesture_description", "gesture_classification",
            "combination_description", "combination_classification"}
        assert tdoc["total"] == pytest.approx(sum(tdoc["stages"].values()))

    def test_reports_are_bit_identical_across_runs(self, workdir, tmp_path):
        paths = []
        for tag in ("x", "y"):
            report = tmp_path / f"r{tag}.json"
            cm = tmp_path / f"c{tag}.csv"
            assert run_cli(["eval", "--model", str(workdir / "model.json"),
                            "--data", str(workdir / "data"),
                            "--report", str(report),
                            "--confusion", str(cm)]) == 0
            paths.append((report, cm))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_gesture_only_needs_no_masks(self, workdir, capsys):
        code = run_cli(["eval", "--model", str(workdir / "model.json"),
                        "--data", str(workdir / "data"),
                        "--fusion", "gesture-only", "--split", "validation"])
        assert code == 0
        assert "fusion gesture-only" in capsys.readouterr().out


class TestPredict:
    def test_training_sequence_recovers_label(self, workdir, capsys):
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        entry = next(e for e in manifest["entries"] if e["split"] == "train")
        code = run_cli(["predict", "--model", str(workdir / "model.json"),
                        "--sequence", str(workdir / "data" /
                                          entry["sequence_path"]),
                        "--masks", str(workdir / "data" / entry["mask_dir"])])
        assert code == 0
        out = capsys.readouterr().out
        fused = int(next(l for l in out.splitlines()
                         if l.startswith("fused-class")).split()[1])
        assert fused == entry["label"]

    def test_negative_mask_size_names_the_file(self, workdir, tmp_path, capsys):
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        entry = next(e for e in manifest["entries"] if e["split"] == "train")
        masks = tmp_path / "masks"
        shutil.copytree(workdir / "data" / entry["mask_dir"], masks)
        (masks / "00001_R.pgm").write_bytes(b"P5\n-5 -5\n255\n" + b"\xff" * 25)
        code = run_cli(["predict", "--model", str(workdir / "model.json"),
                        "--sequence", str(workdir / "data" /
                                          entry["sequence_path"]),
                        "--masks", str(masks)])
        assert code == 1
        assert f"{masks / '00001_R.pgm'}: non-numeric header field" in capsys.readouterr().err

    def test_mask_frames_must_match_sequence_frames(self, workdir, tmp_path, capsys):
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        entry = next(e for e in manifest["entries"] if e["split"] == "train")
        masks = tmp_path / "masks"
        shutil.copytree(workdir / "data" / entry["mask_dir"], masks)
        frames = len(list(masks.glob("*.pgm"))) // 2
        for side in "RL":  # drop the last frame
            (masks / f"{frames - 1:05d}_{side}.pgm").unlink()
        sequence = workdir / "data" / entry["sequence_path"]
        code = run_cli(["predict", "--model", str(workdir / "model.json"),
                        "--sequence", str(sequence), "--masks", str(masks)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {masks}: {frames - 1} mask frames, but {sequence} has "
            f"{frames} frames\n")

    def test_posture_mode_without_masks_fails(self, workdir, capsys):
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        entry = manifest["entries"][0]
        code = run_cli(["predict", "--model", str(workdir / "model.json"),
                        "--sequence", str(workdir / "data" /
                                          entry["sequence_path"]),
                        "--fusion", "kde"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _with_bad_byte(src, dst):
    blob = Path(src).read_bytes()
    Path(dst).write_bytes(blob[:len(blob) // 2] + b"\xff" + blob[len(blob) // 2:])


def _long_comment_csv(workdir, tmp_path, entry):
    bad = tmp_path / "seq.csv"
    bad.write_text("#" + "x" * 140_000 + "\n1.0,2.0\n")
    return ["predict", "--model", str(workdir / "model.json"), "--sequence", str(bad)], bad


def _non_utf8_csv(workdir, tmp_path, entry):
    bad = tmp_path / "seq.csv"
    _with_bad_byte(workdir / "data" / entry["sequence_path"], bad)
    return ["predict", "--model", str(workdir / "model.json"), "--sequence", str(bad)], bad


def _non_utf8_manifest(workdir, tmp_path, entry):
    bad = tmp_path / "manifest.json"
    _with_bad_byte(workdir / "data" / "manifest.json", bad)
    return ["eval", "--model", str(workdir / "model.json"), "--data", str(tmp_path)], bad


def _non_utf8_bundle(workdir, tmp_path, entry):
    bad = tmp_path / "model.json"
    _with_bad_byte(workdir / "model.json", bad)
    return ["inspect", "--model", str(bad)], bad


def _bundle_with(edit):
    """An inspect command whose bundle is the trained one after edit(doc)."""
    def make(workdir, tmp_path, entry):
        bad = tmp_path / "model.json"
        doc = json.loads((workdir / "model.json").read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        return ["inspect", "--model", str(bad)], bad
    return make


def _set_hmm_b(value):
    def edit(doc):
        doc["hmms"][0]["B"] = value
    return edit


def _flat_centers(doc):
    # k values, one per center: a count check alone lets this through
    cb = doc["gesture_codebook"]
    cb["centers"] = [center[0] for center in cb["centers"]]


def _scalar_znorm(doc):
    doc["gesture_codebook"]["znorm"] = {"mean": 1.0, "stddev": 1.0}


def _bad_mask_header(workdir, tmp_path, entry):
    masks = tmp_path / "masks"
    shutil.copytree(workdir / "data" / entry["mask_dir"], masks)
    bad = masks / "00001_L.pgm"
    bad.write_bytes(b"P6\n65 65\n255\n" + bytes(65 * 65))
    return ["predict", "--model", str(workdir / "model.json"),
            "--sequence", str(workdir / "data" / entry["sequence_path"]),
            "--masks", str(masks)], bad


def _synth_config(edit):
    """A synth command whose config file is CORPUS's after edit(text)."""
    def make(workdir, tmp_path, entry):
        bad = tmp_path / "corpus.json"
        save_config(CORPUS, bad)
        bad.write_text(edit(bad.read_text()))
        return ["synth", "--config", str(bad), "--out", str(tmp_path / "out")], bad
    return make


def _manifest_with(edit):
    """A train command whose manifest is the corpus's after edit(doc, e),
    e being the doc's copy of one train entry."""
    def make(workdir, tmp_path, entry):
        bad = tmp_path / "manifest.json"
        doc = json.loads((workdir / "data" / "manifest.json").read_text())
        edit(doc, next(e for e in doc["entries"] if e == entry))
        bad.write_text(json.dumps(doc))
        return ["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.json")], bad
    return make


def _without_anchor(text):
    doc = json.loads(text)
    del doc["classes"][1]["anchor"]
    return json.dumps(doc)


class TestMalformedInput:
    @pytest.mark.parametrize("make", [
        _long_comment_csv, _non_utf8_csv, _non_utf8_manifest, _non_utf8_bundle,
        _bad_mask_header,
        _synth_config(lambda text: text.replace('"Neck"', '"Nose"')),
        _synth_config(_without_anchor),
        _synth_config(lambda text: f"[{text}]"),
        _synth_config(lambda text: text.replace('"noise": ', '"noise": ,')),
        _synth_config(lambda text: text.replace('"noise": 0.01', '"noise": NaN')),
        _synth_config(lambda text: text.replace('"noise": 0.01', '"noise": true')),
        _synth_config(lambda text: text.replace('"noise": 0.01', '"noise": 1e999')),
        _manifest_with(lambda doc, e: e.update(sequence_path=5)),
        _manifest_with(lambda doc, e: e.update(subject=["x"])),
        _manifest_with(lambda doc, e: doc.update(entries=5)),
        _manifest_with(lambda doc, e: doc.update(entries=[])),
        _bundle_with(_set_hmm_b([0.5, 0.5])), _bundle_with(_set_hmm_b([])),
        _bundle_with(_flat_centers), _bundle_with(_scalar_znorm),
    ], ids=["csv long comment", "csv not utf-8", "manifest not utf-8",
            "bundle not utf-8", "mask bad header", "synth config unknown joint",
            "synth config no anchor", "synth config not an object",
            "synth config syntax error", "synth config nan noise",
            "synth config boolean noise", "synth config overflowing noise",
            "manifest numeric path", "manifest list subject",
            "manifest numeric entries", "manifest no entries",
            "bundle 1-d emissions", "bundle empty emissions", "bundle 1-d centers",
            "bundle scalar znorm"])
    def test_one_error_line_names_the_file(self, workdir, tmp_path, capsys, make):
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        entry = next(e for e in manifest["entries"] if e["split"] == "train")
        argv, bad = make(workdir, tmp_path, entry)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_non_integer_seed_variable_is_named(self, workdir, tmp_path, capsys,
                                                monkeypatch, value):
        monkeypatch.setenv("SIGNFLOW_SEED", value)
        out = tmp_path / "m.json"
        assert run_cli(["train", "--data", str(workdir / "data"),
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: SIGNFLOW_SEED: expected an integer, got {value!r}"]
        assert not out.exists()


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["eval", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["transmogrify"]) == 2
        capsys.readouterr()

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert run_cli(["inspect", "--model",
                        str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert run_cli(["--version"]) == 0
        assert "signflow" in capsys.readouterr().out

    def test_module_entry_point_runs_without_warnings(self):
        # `python -m signflow.cli` warns if importing the package already
        # imported signflow.cli; -W error turns that warning into exit 1
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "signflow.cli",
             "--help"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestInspect:
    def test_summary_lines(self, workdir, capsys):
        assert run_cli(["inspect", "--model",
                        str(workdir / "model.json")]) == 0
        out = capsys.readouterr().out
        assert "classes 3" in out
        assert "config-hash" in out
        assert "fusion-kde yes" in out
        assert out.startswith("signflow bundle version 1\n")
