"""Desk-scale synthetic experiments shared by the scripts and the test suite.

The corpus family, set by ``configs/desk_experiment.json``: 8 fine-grained
actions under 4 activities, 16-d features, 40% of web images drawn from
image-domain-only noise modes, and action segments covering 20% of each
video. Mode separation is six standard deviations, so classifiers succeed or
fail on label/weight flow rather than on raw feature difficulty.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .config import TRAIN_MODES, RunConfig, apply_global_seed, load_run_config
from .evaluation import EvalConfig
from .pipeline import stage_eval, stage_localize, stage_synth, stage_train, stage_transfer
from .synth import generate_corpus, image_pool_purity
from .transfer import run_domain_transfer

DESK_CONFIG = Path(__file__).resolve().parents[2] / "configs" / "desk_experiment.json"


def experiment_config(seed: int = 0) -> RunConfig:
    """The desk config file with every stage seed set to ``seed``.

    Its LSTM schedule is decayless and short, sized so all three weighting
    modes converge in seconds on the desk-scale corpus.
    """
    return apply_global_seed(load_run_config(DESK_CONFIG), seed)


def purity_trial(seed: int) -> tuple[float, float]:
    """(initial, post-transfer) web-pool purity for one seeded corpus."""
    config = experiment_config(seed)
    corpus = generate_corpus(config.synth)
    result = run_domain_transfer(corpus, config.transfer)
    return image_pool_purity(corpus.images), image_pool_purity(result.image_pool)


def weighting_trial(seed: int, modes: tuple[str, ...] = TRAIN_MODES,
                    map_ratio: float = 0.5) -> dict[str, float]:
    """Train one detector per weighting mode on a shared corpus; report mAP.

    The corpus, transfer output, and model initialization are identical across
    modes, so the step weights are the only difference. Each mode runs the
    stages of ``laf pipeline`` in memory, so its mAP is the one ``laf eval``
    reports.
    """
    eval_config = EvalConfig(hit_ks=(1,), overlap_ratios=(map_ratio,))  # checks the ratio first
    config = dataclasses.replace(experiment_config(seed), eval=eval_config)
    corpus, _ = stage_transfer(config, stage_synth(config))

    scores: dict[str, float] = {}
    for mode in modes:
        model, _ = stage_train(config, corpus, mode)
        detections, fused = stage_localize(config, model, corpus)
        report = stage_eval(config, detections, corpus, fused)
        (scores[mode],) = report["map_at"].values()
    return scores


def summarize_weighting(trials: list[dict[str, float]]) -> dict[str, float]:
    means = {mode: sum(t[mode] for t in trials) / len(trials) for mode in trials[0]}
    wins = sum(1 for t in trials
               if t["laf"] > t.get("uniform", -1.0) and t["laf"] > t.get("random30", -1.0))
    means["laf_wins"] = wins
    return means
