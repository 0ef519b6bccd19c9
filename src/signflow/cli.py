"""Command-line entry point.

Subcommands: synth (generate a corpus), train (fit a model bundle),
predict (classify one sequence), eval (score a split and write report,
confusion, and timing files), inspect (summarize a bundle).

Every command's outputs are a pure function of (inputs, config, seed);
wall-clock timings are the one exception and go to their own file so
the report and confusion outputs stay bit-identical across runs. The
seed comes from --seed, falling back to the SIGNFLOW_SEED environment
variable, then 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .bundle import FORMAT_VERSION, config_hash, load_bundle, save_bundle
from .dataset import load_manifest, parse_skeleton_csv
from .descriptors import DescriptorVariant
from .pipeline import (
    DEFAULT_CONFIG,
    FUSION_MODES,
    TIMING_STAGES,
    evaluate_pipeline,
    load_items,
    load_sequence_masks,
    make_config,
    predict_item,
    train_pipeline,
)
from .skeleton import SignflowError
from .synthetic import (
    config_doc,
    generate_synthetic_corpus,
    load_synthetic_config,
    write_corpus,
)

DESCRIPTOR_CHOICES = tuple(v.value for v in DescriptorVariant)


def _seed_fallback() -> int:
    value = os.environ.get("SIGNFLOW_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise SignflowError(f"SIGNFLOW_SEED: expected an integer, got {value!r}") from None


def _float_list(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def cmd_synth(args) -> int:
    cfg = load_synthetic_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    corpus = generate_synthetic_corpus(cfg, with_masks=not args.no_masks)
    manifest_path = write_corpus(corpus, args.out,
                                 config_hash=config_hash(config_doc(cfg)))
    print(f"wrote {len(corpus.sequences)} sequences, "
          f"{len(cfg.classes)} classes -> {manifest_path}")
    return 0


def train_config(args) -> dict:
    """The training config that the parsed train arguments ask for."""
    seed = args.seed if args.seed is not None else _seed_fallback()
    return make_config(descriptor=args.descriptor, fusion=args.fusion,
                       gesture_k=args.gesture_k, posture_k=args.posture_k,
                       hmm_states=args.states, hmm_iters=args.hmm_iters,
                       epochs=args.epochs, posture_cost=args.posture_cost,
                       fusion_cost=args.fusion_cost, seed=seed)


def cmd_train(args) -> int:
    data = Path(args.data)
    manifest = load_manifest(data / "manifest.json")
    items = load_items(manifest, data, with_masks=not args.no_masks)
    bundle = train_pipeline(items, train_config(args))
    save_bundle(bundle, args.out)
    branches = ["gesture"]
    if bundle.posture_model is not None:
        branches.append("posture")
    if bundle.fusion_kde is not None:
        branches.append("fusion")
    print(f"trained {bundle.n_classes} classes ({'+'.join(branches)}), "
          f"codebook k={bundle.gesture_codebook.k} -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    sequence = parse_skeleton_csv(args.sequence)
    masks = load_sequence_masks(args.masks, sequence) if args.masks else None
    pred = predict_item(bundle, sequence, masks=masks, mode=args.fusion)
    print(f"fused-class {pred.fused_class}")
    print(f"mode {pred.mode}")
    print(f"gesture-best {pred.gesture.best_class}")
    print(f"gesture-response {_float_list(pred.gesture.values)}")
    if pred.posture is not None:
        print(f"posture-response {_float_list(pred.posture)}")
    return 0


def cmd_eval(args) -> int:
    bundle = load_bundle(args.model)
    data = Path(args.data)
    manifest = load_manifest(data / "manifest.json")
    mode = args.fusion or bundle.config.get("fusion", "kde")
    with_masks = mode != "gesture-only"
    items = load_items(manifest, data, splits=(args.split,),
                       with_masks=with_masks)
    result = evaluate_pipeline(bundle, items, mode=mode)
    chash = config_hash(bundle.config)

    print(f"split {args.split} sequences {len(items)} "
          f"classes {bundle.n_classes} fusion {mode}")
    print(f"macro-precision {result.report.macro_precision:.6f}")
    print(f"macro-recall {result.report.macro_recall:.6f}")
    print(f"macro-fscore {result.report.macro_fscore:.6f}")

    if args.report:
        doc = {
            "format": "signflow-report",
            "tool_version": __version__,
            "config_hash": chash,
            "fusion": mode,
            "split": args.split,
            "n_sequences": len(items),
            "n_classes": bundle.n_classes,
            "macro_precision": result.report.macro_precision,
            "macro_recall": result.report.macro_recall,
            "macro_fscore": result.report.macro_fscore,
            "per_class_precision": result.report.precision.tolist(),
            "per_class_recall": result.report.recall.tolist(),
            "per_class_fscore": result.report.fscore.tolist(),
            "confusion": result.confusion.counts.tolist(),
        }
        Path(args.report).write_text(
            json.dumps(doc, indent=2, allow_nan=False) + "\n")
    if args.confusion:
        lines = [f"# signflow {__version__} config={chash}"]
        lines += [",".join(str(int(c)) for c in row)
                  for row in result.confusion.counts]
        Path(args.confusion).write_text("\n".join(lines) + "\n")
    if args.timing:
        doc = {
            "format": "signflow-timing",
            "tool_version": __version__,
            "config_hash": chash,
            "split": args.split,
            "n_sequences": len(items),
            "stages": {s: result.timings[s] for s in TIMING_STAGES},
            "total": result.timings["total"],
        }
        Path(args.timing).write_text(
            json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def cmd_inspect(args) -> int:
    bundle = load_bundle(args.model)
    print(f"signflow bundle version {FORMAT_VERSION}")
    print(f"config-hash {config_hash(bundle.config)}")
    print(f"classes {bundle.n_classes}")
    print(f"descriptor {bundle.config.get('descriptor', '?')}")
    print(f"gesture-codebook k={bundle.gesture_codebook.k} "
          f"dim={bundle.gesture_codebook.dimension}")
    print(f"hmm-states {bundle.hmms.n_states}")
    if bundle.posture_model is not None:
        print(f"posture-codebook k={bundle.posture_model.codebook.k}")
    else:
        print("posture-codebook none")
    print(f"fusion-linear {'yes' if bundle.fusion_linear else 'none'}")
    print(f"fusion-kde {'yes' if bundle.fusion_kde else 'none'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signflow",
        description="Skeleton-based sign recognition: gesture and posture "
                    "branches with late fusion.")
    parser.add_argument("--version", action="version",
                        version=f"signflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", required=True, help="SyntheticConfig JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--no-masks", action="store_true",
                   help="skeletons only, no mask archives")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model bundle on a corpus")
    p.add_argument("--data", required=True,
                   help="corpus directory containing manifest.json")
    p.add_argument("--out", required=True, help="bundle output path")
    d = DEFAULT_CONFIG
    p.add_argument("--descriptor", choices=DESCRIPTOR_CHOICES,
                   default=d["descriptor"])
    p.add_argument("--fusion", choices=FUSION_MODES, default=d["fusion"],
                   help="default decision rule stored in the bundle")
    p.add_argument("--gesture-k", type=int, default=d["gesture_k"])
    p.add_argument("--posture-k", type=int, default=d["posture_k"])
    p.add_argument("--states", type=int, default=d["hmm_states"],
                   help="HMM state count")
    p.add_argument("--hmm-iters", type=int, default=d["hmm_iters"])
    p.add_argument("--epochs", type=int, default=d["epochs"],
                   help="SGD epochs for the linear classifiers")
    p.add_argument("--posture-cost", type=float, default=d["posture_cost"])
    p.add_argument("--fusion-cost", type=float, default=d["fusion_cost"])
    p.add_argument("--seed", type=int, default=None,
                   help="training seed (falls back to SIGNFLOW_SEED, then 0)")
    p.add_argument("--no-masks", action="store_true",
                   help="skip the posture branch even if masks exist")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify one sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--sequence", required=True, help="skeleton CSV")
    p.add_argument("--masks", default=None, help="mask archive directory")
    p.add_argument("--fusion", choices=FUSION_MODES, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score one split of a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "validation", "test"))
    p.add_argument("--fusion", choices=FUSION_MODES, default=None)
    p.add_argument("--report", default=None, help="metrics JSON path")
    p.add_argument("--confusion", default=None, help="confusion CSV path")
    p.add_argument("--timing", default=None,
                   help="stage timing JSON path (wall clock, not "
                        "deterministic)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="summarize a bundle")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SignflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
