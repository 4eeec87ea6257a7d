"""The five pipeline stages: synth -> transfer -> train -> localize -> eval.

Each stage takes its inputs either as objects or as the files that hold them,
writes its artifacts only where an output path is given, and returns its
outputs. ``laf pipeline`` chains the stages in memory and writes every
artifact without reading one back; the CLI subcommands chain them through
files. All writes are atomic (temp file + rename).
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
from .localization import DetectionTable, load_detections, localize_videos, save_detections
from .lstm import LstmModel, load_lstm, save_lstm, train_lstm
from .synth import generate_corpus, mode_centers
from .transfer import run_domain_transfer

Source = str | Path  # a stage input given as the file that holds it


def _read(value, load):
    """``value`` itself, or what ``load`` reads from it when it is a path."""
    return load(value) if isinstance(value, (str, Path)) else value


def _load_scores(path: Source) -> dict[str, np.ndarray]:
    return {vid: json_floats(vec, f"{path}: scores of {vid!r}")
            for vid, vec in read_json_object(path).items()}


def stage_synth(config: RunConfig, out_corpus: Source | None = None,
                out_modes: Source | None = None) -> Corpus:
    corpus = generate_corpus(config.synth)
    if out_corpus is not None:
        save_corpus(corpus, out_corpus)
    if out_modes is not None:
        atomic_write_json(out_modes, mode_centers(config.synth).to_json())
    return corpus


def stage_transfer(config: RunConfig, corpus: Corpus | Source, out_corpus: Source | None = None,
                   out_model: Source | None = None, out_log: Source | None = None
                   ) -> tuple[Corpus, list[dict]]:
    """Run domain transfer; returns the corpus with LAF weights and the per-round log."""
    corpus = _read(corpus, load_corpus)
    result = run_domain_transfer(corpus, config.transfer)
    annotated = with_laf_weights(corpus, result.laf_weights)
    log = [entry.to_json() for entry in result.log]
    if out_corpus is not None:
        save_corpus(annotated, out_corpus)
    if out_model is not None:
        save_classifier(result.proposal_model, out_model)
    if out_log is not None:
        atomic_write_json(out_log, log)
    return annotated, log


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


def stage_train(config: RunConfig, corpus: Corpus | Source, mode: str | None = None,
                out_model: Source | None = None, out_losses: Source | None = None
                ) -> tuple[LstmModel, list[float]]:
    """Train the detector in ``mode`` (default: the config's ``train_mode``)."""
    corpus = _read(corpus, load_corpus)
    mode = mode or config.train_mode
    videos = training_videos_for_mode(corpus, mode, config.lstm.seed)
    model, losses = train_lstm(videos, config.lstm, corpus.num_labels, corpus.feature_dim)
    if out_model is not None:
        save_lstm(model, out_model)
    if out_losses is not None:
        atomic_write_json(out_losses, {"mode": mode, "epoch_losses": losses})
    return model, losses


def stage_localize(config: RunConfig, model: LstmModel | Source, corpus: Corpus | Source,
                   out_detections: Source | None = None, out_scores: Source | None = None
                   ) -> tuple[DetectionTable, dict[str, np.ndarray]]:
    """Detections on every test video and their average-fusion score vectors."""
    corpus = _read(corpus, load_corpus)
    model = _read(model, load_lstm)
    if model.input_dim != corpus.feature_dim or model.num_labels != corpus.num_labels:
        raise ValidationError(f"checkpoint dims (d={model.input_dim}, N={model.num_labels}) do not "
                              f"match corpus (d={corpus.feature_dim}, N={corpus.num_labels})")
    detections, fused = localize_videos(model, corpus.test_videos, config.localization)
    if out_detections is not None:
        save_detections(detections, out_detections)
    if out_scores is not None:
        atomic_write_json(out_scores, {video_id: vec.tolist() for video_id, vec in fused.items()})
    return detections, fused


def stage_eval(config: RunConfig, detections: DetectionTable | Source, corpus: Corpus | Source,
               scores: dict[str, np.ndarray] | Source, out_report: Source | None = None) -> dict:
    """The report: Hit@k of the average-fusion ``scores`` that ``stage_localize`` returns,
    and mAP of the detections."""
    corpus = _read(corpus, load_corpus)
    detections = _read(detections, load_detections)
    report = evaluate(detections, corpus.test_videos, config.eval, corpus.num_labels,
                      _read(scores, _load_scores))
    if out_report is not None:
        atomic_write_json(out_report, report)
    return report


def run_pipeline(config: RunConfig, out_dir: Source, mode: str | None = None) -> dict:
    """Chain the five stages in memory, writing every artifact under fixed names in ``out_dir``."""
    top_k = max(config.eval.hit_ks)
    if top_k > config.synth.num_labels:  # fail before any stage runs, not after training
        raise ValidationError(f"eval.hit_ks asks for k={top_k}, but the synth corpus has only "
                              f"{config.synth.num_labels} labels")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = stage_synth(config, out / "corpus.bin", out / "mode_centers.json")
    corpus, _ = stage_transfer(config, corpus, out / "corpus.laf.bin",
                               out / "proposal_model.json", out / "transfer_log.json")
    model, _ = stage_train(config, corpus, mode, out / "lstm_model.json", out / "loss_curve.json")
    detections, fused = stage_localize(config, model, corpus, out / "detections.jsonl",
                                       out / "video_scores.json")
    return stage_eval(config, detections, corpus, fused, out / "report.json")
