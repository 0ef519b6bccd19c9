"""signflow benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload fused-short --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --smoke

It writes the run's corpus under .perfbench/ (outside any timed region),
starts measure.py in a fresh process to run the user path on it, prints a
readable report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The full result (machine facts, fingerprints, spans) goes to
.perfbench/out/. --smoke runs every workload at minimal size, traced and
untraced, and checks that every metric is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
# one BLAS thread: the loop is one client, and a second thread only adds
# noise from whatever else shares the machine
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0
SMOKE_DEADLINE_S = 600.0

# end-to-end metrics every run reports but BENCHMARK.json does not gate;
# the gated ones take their units from BENCHMARK.json
UNGATED_UNITS = {"predict_p50_ms": "ms", "predict_p90_ms": "ms",
                 "failed_ratio": "ratio"}


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def e2e_units(spec: dict) -> dict:
    return {**{e["name"]: e["unit"] for e in spec["end_to_end"]}, **UNGATED_UNITS}


def _import_program():
    src = ROOT / "src" / "signflow"
    if not (src / "__init__.py").is_file():
        raise BenchError(f"no program source at {src}; run from the root of "
                         "a signflow checkout")
    os.environ.update(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import signflow
    if Path(signflow.__file__).resolve().parent != src.resolve():
        raise BenchError(f"imported signflow from {signflow.__file__}, "
                         f"not from {src}")
    return signflow


def run_workload(sf, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float, smoke: bool = False) -> dict:
    """Write the inputs, run measure.py on them, return its result."""
    from workloads import WORKLOADS, write_inputs

    w = WORKLOADS[workload]
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = write_inputs(sf, w.smoke() if smoke else w, seed,
                                STATE / "cache", work)
        out = work / "result.json"
        cmd = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--manifest", str(manifest),
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out)]
        if smoke:
            cmd.append("--smoke")
        remaining = deadline - time.monotonic()
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"measured process exceeded the deadline "
                             f"({remaining:.0f} s left)") from None
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"measured process exited with {exc.returncode}") from None
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reports = STATE / "out"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report_lines(r: dict, spec: dict) -> list:
    """Readable account of one run: every metric with its unit and base."""
    m = r["metrics"]
    b = r["failed_base"]
    mach = r["machine"]
    lines = [
        f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}",
        f"machine: nproc {mach['nproc']} (usable {mach['cpus_usable']}), "
        f"{mach['machine']}, python {mach['python']}, numpy {mach['numpy']}, "
        f"scipy {mach['scipy']}, BLAS threads {mach['blas_threads']}; "
        f"measured {mach['measured']}",
    ]
    notes = {
        "setup_s": f"median of {r['setup_repeats']} eval set-ups "
                   "(load_bundle + test split from disk)",
        "train_s": f"median of {r['train_repeats']} train_pipeline calls",
        "eval_seq_per_s": f"{r['latency_count']} predictions, closed loop, "
                          "one client",
        "predict_p50_ms": f"of {r['latency_count']} latencies",
        "predict_p90_ms": f"of {r['latency_count']} latencies, "
                          f"{r['beyond_p90']} beyond p90",
        "macro_f": f"first pass over {r['n_test']} test sequences",
        "failed_ratio": (
            f"{r['failed']} failed / {r['attempted']} attempted: "
            f"{b['predictions']} first-pass predictions "
            f"({b['predictions_raised']} raised, {b['predictions_nonfinite']} "
            f"non-finite), {b['class_hmms']} class HMMs "
            f"({b['hmms_nonfinite']} non-finite), {b['bundle_saves']} bundle "
            f"save ({b['bundle_saves_failed']} failed); not counted: "
            f"{b['repeat_predictions_failed']} of {b['repeat_predictions']} "
            "repeat predictions failed"),
        "peak_rss_mb": "ru_maxrss of the measured process",
    }
    units = e2e_units(spec)
    for name, note in notes.items():
        flag = "  [reported, not gated]" if name in UNGATED_UNITS else ""
        lines.append(f"  {name} {m[name]!r} {units[name]}  ({note}){flag}")
    if r["save_error"]:
        lines.append(f"bundle save failed: {r['save_error']}")
    fp = r["fingerprint"]
    lines.append(f"fingerprint: bundle_sha256 {fp['bundle_sha256']}  "
                 f"labels_sha256 {fp['labels_sha256']}")
    lines.append(f"checks: {r['checks']}")
    if r["trace"]:
        if r["trace_missing"]:
            lines.append(f"trace targets missing: {r['trace_missing']}")
        for e in spec["per_layer"]:
            lines.append(f"  {e['name']} {r['layers'][e['name']]!r} {e['unit']}")
    return lines


def final_line(r: dict, spec: dict) -> str:
    values = r["layers"] if r["trace"] else r["metrics"]
    listed = spec["per_layer"] if r["trace"] else spec["end_to_end"]
    return json.dumps({
        "correct": r["correct"], "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                    for e in listed}})


def smoke(sf) -> int:
    """Every workload at minimal size, untraced and traced."""
    from workloads import WORKLOADS

    spec = _spec()
    problems = []
    deadline = time.monotonic() + SMOKE_DEADLINE_S
    for name in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(sf, name, 1, 0.2, trace, deadline, smoke=True)
            print("\n".join(report_lines(r, spec)))
            last = json.loads(final_line(r, spec))
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            for e in listed:
                got = last["metrics"].get(e["name"])
                if got is None or got["unit"] != e["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace {trace}: {e['name']} missing "
                                    "or without its unit")
            if set(r["metrics"]) != set(e2e_units(spec)) or not all(
                    math.isfinite(v) for v in r["metrics"].values()):
                problems.append(f"{name}: end-to-end metrics {sorted(r['metrics'])} "
                                f"are not {sorted(e2e_units(spec))}, or not finite")
            b = r["failed_base"]
            if r["attempted"] < 1 or r["attempted"] != \
                    b["predictions"] + b["class_hmms"] + b["bundle_saves"]:
                problems.append(f"{name}: failed_ratio base {b} does not add up "
                                f"to attempted {r['attempted']}")
            if trace and name.startswith("gesture") and any(
                    v for k, v in r["layers"].items() if k.startswith("posture.")):
                problems.append(f"{name}: posture.* non-zero on a gesture workload")
            if not r["correct"]:
                problems.append(f"{name} trace {trace}: checks failed {r['checks']}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="signflow benchmark; see perfbench/NOTES.md")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at minimal size and check the output")
    args = ap.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        sf = _import_program()
        if args.smoke:
            return smoke(sf)
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS or args.seed is None or \
                args.seed < 0 or args.seconds is None or args.seconds < 0 or \
                args.trace is None:
            ap.error(f"need --workload {{{','.join(WORKLOADS)}}}, --seed >= 0, "
                     "--seconds >= 0 and --trace {0,1}")
        spec = _spec()
        r = run_workload(sf, args.workload, args.seed, args.seconds,
                         args.trace, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(r, spec)))
    print(final_line(r, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
