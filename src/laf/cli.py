"""Command-line entry point.

Subcommands mirror the pipeline stages and are composable through files:

    laf synth    --config cfg.json --out corpus.bin
    laf transfer --config cfg.json --corpus corpus.bin --out corpus.laf.bin
    laf train    --config cfg.json --corpus corpus.laf.bin --mode laf --out lstm.json
    laf localize --config cfg.json --checkpoint lstm.json --corpus corpus.laf.bin --out det.jsonl
    laf eval     --config cfg.json --detections det.jsonl --corpus corpus.laf.bin \\
                 --scores det.jsonl.scores.json --out report.json
    laf pipeline --config cfg.json --out-dir run/

``--seed`` overrides every stage seed from the config. Exit codes: 0 success,
1 validation error, 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .config import RunConfig, TRAIN_MODES, apply_global_seed, load_run_config
from .errors import LafError
from .evaluation import format_report_table
from .synth import corpus_stats


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration (defaults used when omitted)")
    parser.add_argument("--seed", type=int, help="override every stage seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="laf",
                                     description="Weakly-supervised temporal action localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--out", required=True, help="corpus output path (laf-corpus v2)")
    p.add_argument("--modes-out", help="sidecar JSON of Gaussian mode centers")

    p = sub.add_parser("transfer", help="run domain transfer and attach LAF weights")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="LAF-annotated corpus output path")
    p.add_argument("--model-out", help="LAF proposal model checkpoint (default: <out>.model.json)")
    p.add_argument("--log-out", help="per-iteration transfer log (default: <out>.log.json)")

    p = sub.add_parser("train", help="train the sequence detector")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=TRAIN_MODES, help="training mode (default: config train_mode)")
    p.add_argument("--out", required=True, help="model checkpoint output path")
    p.add_argument("--loss-out", help="loss curve JSON (default: <out>.losses.json)")

    p = sub.add_parser("localize", help="detect action windows on the test split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="detections output path (JSON Lines)")
    p.add_argument("--scores-out", help="average-fusion video score vectors "
                                        "(default: <out>.scores.json)")

    p = sub.add_parser("eval", help="score detections against ground truth")
    _add_common(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scores", required=True, help="average-fusion video scores from localize")
    p.add_argument("--out", required=True, help="metrics report output path (JSON)")

    p = sub.add_parser("pipeline", help="run synth/transfer/train/localize/eval in sequence")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=TRAIN_MODES, help="training mode (default: config train_mode)")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        config = apply_global_seed(config, args.seed)
    return config


def _default(path: str | None, base: str, suffix: str) -> str:
    return path if path is not None else base + suffix


def run(args: argparse.Namespace) -> None:
    config = _load_config(args)
    if args.command == "synth":
        corpus = pipeline.stage_synth(config, args.out, args.modes_out)
        print(json.dumps(corpus_stats(corpus), indent=2))
    elif args.command == "transfer":
        _, log = pipeline.stage_transfer(config, args.corpus, args.out,
                                         _default(args.model_out, args.out, ".model.json"),
                                         _default(args.log_out, args.out, ".log.json"))
        for entry in log:
            print(f"iteration {entry['iteration']}: |I|={entry['size_I']} |V|={entry['size_V']} "
                  f"validation accuracy {entry['validation_accuracy']:.4f}")
    elif args.command == "train":
        _, losses = pipeline.stage_train(config, args.corpus, args.mode, args.out,
                                         _default(args.loss_out, args.out, ".losses.json"))
        if losses:
            print(f"trained {len(losses)} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    elif args.command == "localize":
        detections, _ = pipeline.stage_localize(config, args.checkpoint, args.corpus, args.out,
                                                _default(args.scores_out, args.out, ".scores.json"))
        print(f"wrote {len(detections)} detections to {args.out}")
    elif args.command == "eval":
        report = pipeline.stage_eval(config, args.detections, args.corpus, args.scores, args.out)
        print(format_report_table(report))
    elif args.command == "pipeline":
        report = pipeline.run_pipeline(config, args.out_dir, args.mode)
        print(format_report_table(report))
        print(f"artifacts in {Path(args.out_dir).resolve()}")
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run(args)
    except LafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
