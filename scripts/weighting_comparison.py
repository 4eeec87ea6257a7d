#!/usr/bin/env python3
"""Compare step-weighting strategies for detector training.

Trains the sequence detector three times per seed on an identical synthetic
corpus and initialization, differing only in the per-step loss weights:

  laf       weights from the domain-transfer proposal model
  uniform   every step weighs 1
  random30  a seeded 30% of steps weigh 1, the rest 0

and reports localization mAP at the chosen temporal overlap ratio.

    python scripts/weighting_comparison.py --seeds 5 --ratio 0.5
"""

import argparse

from laf.config import TRAIN_MODES
from laf.experiments import summarize_weighting, weighting_trial


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeded trials")
    parser.add_argument("--ratio", type=float, default=0.5, help="temporal overlap ratio")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    if not 0.0 < args.ratio <= 1.0:
        parser.error(f"--ratio must lie in (0, 1], got {args.ratio:g}")

    print(f"mAP@{args.ratio:g} per seed")
    print("seed  " + "  ".join(f"{mode:>9}" for mode in TRAIN_MODES))
    trials = []
    for seed in range(args.seeds):
        scores = weighting_trial(seed, map_ratio=args.ratio)
        trials.append(scores)
        print(f"{seed:>4}  " + "  ".join(f"{scores[mode]:9.3f}" for mode in TRAIN_MODES))
    summary = summarize_weighting(trials)
    print("mean  " + "  ".join(f"{summary[mode]:9.3f}" for mode in TRAIN_MODES))
    print(f"laf beat both baselines in {summary['laf_wins']}/{args.seeds} trials")


if __name__ == "__main__":
    main()
