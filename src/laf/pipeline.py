"""File-to-file pipeline stages behind the CLI subcommands.

Each stage reads and writes artifacts on disk so runs are composable and
individually inspectable: synth -> transfer -> train -> localize -> eval.
All writes are atomic (temp file + rename).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .classifier import save_classifier
from .config import RunConfig
from .corpus import Corpus, load_corpus, save_corpus, with_laf_weights
from .errors import ValidationError
from .evaluation import evaluate
from .ioutil import atomic_write_json, json_floats, read_json_object
from .localization import load_detections, localize_videos, save_detections
from .lstm import load_lstm, save_lstm, train_lstm
from .synth import corpus_stats, generate_corpus, mode_centers
from .transfer import run_domain_transfer


def stage_synth(config: RunConfig, out_corpus: str | Path,
                out_modes: str | Path | None = None) -> dict:
    """Generate and write a synthetic corpus; returns its stats report."""
    corpus = generate_corpus(config.synth)
    save_corpus(corpus, out_corpus)
    if out_modes is not None:
        atomic_write_json(out_modes, mode_centers(config.synth).to_json())
    return corpus_stats(corpus)


def stage_transfer(config: RunConfig, corpus_path: str | Path, out_corpus: str | Path,
                   out_model: str | Path, out_log: str | Path) -> list[dict]:
    """Run domain transfer, annotate the corpus with LAF weights, save artifacts."""
    corpus = load_corpus(corpus_path)
    result = run_domain_transfer(corpus, config.transfer)
    annotated = with_laf_weights(corpus, result.laf_weights)
    save_corpus(annotated, out_corpus)
    save_classifier(result.proposal_model, out_model)
    log = [entry.to_json() for entry in result.log]
    atomic_write_json(out_log, log)
    return log


def training_videos_for_mode(corpus: Corpus, mode: str, seed: int) -> list:
    """Materialize per-video step weights for the requested training mode."""
    if mode == "laf":
        missing = [v.id for v in corpus.train_videos if v.laf_weights is None]
        if missing:
            raise ValidationError(f"train mode 'laf' needs laf_weights on every train video; "
                                  f"missing on {missing[:5]} (run the transfer stage first)")
        return list(corpus.train_videos)
    if mode == "uniform":
        return [dataclasses.replace(v, laf_weights=np.ones(v.num_steps))
                for v in corpus.train_videos]
    if mode == "random30":
        # THUMOS-style random baseline: floor(0.3 * T) seeded steps weigh 1, the rest 0.
        rng = np.random.default_rng(seed)
        videos = []
        for video in corpus.train_videos:
            chosen = rng.choice(video.num_steps, size=int(0.3 * video.num_steps), replace=False)
            weights = np.zeros(video.num_steps)
            weights[chosen] = 1.0
            videos.append(dataclasses.replace(video, laf_weights=weights))
        return videos
    raise ValidationError(f"unknown train mode {mode!r}")


def stage_train(config: RunConfig, corpus_path: str | Path, mode: str,
                out_model: str | Path, out_losses: str | Path | None = None) -> list[float]:
    corpus = load_corpus(corpus_path)
    videos = training_videos_for_mode(corpus, mode, config.lstm.seed)
    model, losses = train_lstm(videos, config.lstm, corpus.num_labels, corpus.feature_dim)
    save_lstm(model, out_model)
    if out_losses is not None:
        atomic_write_json(out_losses, {"mode": mode, "epoch_losses": losses})
    return losses


def stage_localize(config: RunConfig, checkpoint_path: str | Path, corpus_path: str | Path,
                   out_detections: str | Path, out_scores: str | Path | None = None) -> int:
    """Detect on every test video; optionally save average-fusion score vectors."""
    corpus = load_corpus(corpus_path)
    model = load_lstm(checkpoint_path)
    if model.input_dim != corpus.feature_dim or model.num_labels != corpus.num_labels:
        raise ValidationError(f"checkpoint dims (d={model.input_dim}, N={model.num_labels}) do not "
                              f"match corpus (d={corpus.feature_dim}, N={corpus.num_labels})")
    detections, fused = localize_videos(model, corpus.test_videos, config.localization)
    save_detections(detections, out_detections)
    if out_scores is not None:
        atomic_write_json(out_scores, {video_id: vec.tolist() for video_id, vec in fused.items()})
    return len(detections)


def stage_eval(config: RunConfig, detections_path: str | Path, corpus_path: str | Path,
               out_report: str | Path, scores_path: str | Path | None = None) -> dict:
    corpus = load_corpus(corpus_path)
    detections = load_detections(detections_path)
    video_scores = None
    if scores_path is not None:
        video_scores = {vid: json_floats(vec, f"{scores_path}: scores of {vid!r}")
                        for vid, vec in read_json_object(scores_path).items()}
    report = evaluate(detections, corpus.test_videos, config.eval, corpus.num_labels,
                      video_scores=video_scores)
    atomic_write_json(out_report, report)
    return report


def run_pipeline(config: RunConfig, out_dir: str | Path, mode: str | None = None) -> dict:
    """Chain all five stages inside ``out_dir`` using the configured file names."""
    top_k = max(config.eval.hit_ks)
    if top_k > config.synth.num_labels:  # fail before any stage runs, not after training
        raise ValidationError(f"eval.hit_ks asks for k={top_k}, but the synth corpus has only "
                              f"{config.synth.num_labels} labels")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = config.paths
    mode = mode or config.train_mode

    stage_synth(config, out / paths.corpus, out / paths.mode_centers)
    stage_transfer(config, out / paths.corpus, out / paths.annotated_corpus,
                   out / paths.proposal_model, out / paths.transfer_log)
    stage_train(config, out / paths.annotated_corpus, mode, out / paths.lstm_model,
                out / paths.loss_curve)
    stage_localize(config, out / paths.lstm_model, out / paths.annotated_corpus,
                   out / paths.detections, out / paths.video_scores)
    return stage_eval(config, out / paths.detections, out / paths.annotated_corpus,
                      out / paths.report, out / paths.video_scores)
