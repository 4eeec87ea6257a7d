#!/usr/bin/env python3
"""Measure how much domain transfer cleans the synthetic web-image pool.

Runs the desk-scale noisy-pool experiment over several seeds and prints the
image-pool purity before and after filtering.

    python scripts/purity_experiment.py --seeds 5
"""

import argparse

import numpy as np

from laf.experiments import purity_trial


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeded trials")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    print("seed  initial  final   gain")
    initials, finals = [], []
    for seed in range(args.seeds):
        initial, final = purity_trial(seed)
        initials.append(initial)
        finals.append(final)
        print(f"{seed:>4}  {initial:.3f}    {final:.3f}   {final - initial:+.3f}")
    print(f"mean  {np.mean(initials):.3f}    {np.mean(finals):.3f}   "
          f"{np.mean(finals) - np.mean(initials):+.3f}")


if __name__ == "__main__":
    main()
