"""Bidirectional image/frame filtering and LAF scoring.

The loop alternates two transfer directions: a classifier trained on the
current frame set prunes the web-image pool (keep an image only if the
probability of its own label exceeds theta1), then a classifier trained on
the surviving images prunes the frame set with theta2. After each round a
fresh frame-side classifier is scored on the validation videos (frame-level
probabilities averaged per video); the loop stops when that accuracy drops
below the best seen so far, or after max_iterations. The image-side
classifier from the best round (the first logged with the highest accuracy)
becomes the LAF proposal model, and its probability for a video's own label at
every step of every training video is that step's LAF weight.

A side whose pool a filter left whole keeps its classifier (and the frame
side its accuracy): a fit is deterministic in its rows, their order and the
seed, so a refit would rebuild that model bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classifier import (Classifier, ClassifierTrainConfig, predict_softmax_many,
                         scores_for_labels, train_classifier)
from .corpus import Corpus, VideoSequence, WebImage
from .errors import TransferCollapseError, ValidationError
from .evaluation import hit_at_k
from .localization import classify_video


@dataclass(frozen=True)
class TransferConfig:
    theta1: float = 0.5
    theta2: float = 0.5
    max_iterations: int = 10
    frames_per_video: int = 10
    min_items_per_label: int = 1
    classifier_config: ClassifierTrainConfig = field(default_factory=ClassifierTrainConfig)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not (0.0 <= self.theta1 <= 1.0 and 0.0 <= self.theta2 <= 1.0):
            raise ValidationError("thresholds must lie in [0, 1]")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")
        if self.frames_per_video < 1:
            raise ValidationError("frames_per_video must be positive")
        if self.min_items_per_label < 0:
            raise ValidationError("min_items_per_label must be nonnegative")


@dataclass(frozen=True)
class TransferIterationLog:
    iteration: int
    size_images: int
    size_frames: int
    validation_accuracy: float
    # Largest below-threshold score among removed items; None when nothing was
    # removed. Lets tests assert that filtering never discarded a passing item.
    max_removed_image_score: float | None
    max_removed_frame_score: float | None

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "size_I": self.size_images,
            "size_V": self.size_frames,
            "validation_accuracy": self.validation_accuracy,
            "max_removed_image_score": self.max_removed_image_score,
            "max_removed_frame_score": self.max_removed_frame_score,
        }


@dataclass(eq=False)
class LafResult:
    """LAF proposal model plus per-step weights for every training video."""

    proposal_model: Classifier
    laf_weights: dict[str, np.ndarray]
    log: list[TransferIterationLog]
    image_pool: tuple[WebImage, ...]  # images the proposal model was trained on


def initialize_frame_set(train_videos: Sequence[VideoSequence], frames_per_video: int,
                         seed: int) -> np.ndarray:
    """Random initial frame sample: per video, that many distinct steps (or all).

    Returns an (n, 2) integer array of (index into ``train_videos``, step) rows,
    grouped by video with steps ascending.
    """
    if not train_videos:
        raise ValidationError("cannot initialize a frame set from zero videos")
    if frames_per_video < 1:
        raise ValidationError("frames_per_video must be positive")
    rng = np.random.default_rng(seed)
    rows = []
    for index, video in enumerate(train_videos):
        count = min(frames_per_video, video.num_steps)
        steps = np.sort(rng.choice(video.num_steps, size=count, replace=False))
        rows.append(np.column_stack([np.full(count, index), steps]))
    return np.concatenate(rows)


def filter_scores(features: np.ndarray, labels: np.ndarray, clf: Classifier, theta: float,
                  min_items_per_label: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep mask + own-label scores for the threshold filter with a per-label floor.

    An item survives iff its score strictly exceeds theta. If that would leave
    a label with fewer than ``min_items_per_label`` survivors, the label's
    top-scoring ``min_items_per_label`` items are retained instead.
    """
    labels = np.asarray(labels)
    scores = scores_for_labels(clf, features, labels)
    keep = scores > theta
    if min_items_per_label > 0:
        for label in np.unique(labels):
            members = np.flatnonzero(labels == label)
            if keep[members].sum() < min_items_per_label:
                keep[members] = False
                best = members[np.argsort(-scores[members], kind="stable")]
                keep[best[:min_items_per_label]] = True
    return keep, scores


def validation_accuracy(clf: Classifier, validation_videos: Sequence[VideoSequence]) -> float:
    """Video accuracy: :func:`hit_at_k` at k=1 (its tie rule) of each video's
    :func:`classify_video` fusion of its frame probabilities."""
    if not validation_videos:
        raise ValidationError("validation accuracy needs a nonempty video set")
    fused = [classify_video(predict_softmax_many(clf, video.frames)) for video in validation_videos]
    return hit_at_k(np.stack(fused), np.asarray([video.label for video in validation_videos]), 1)


def laf_scores_for_video(proposal_model: Classifier, video: VideoSequence) -> np.ndarray:
    """Per-step weights: the model's probability for the video's own label at each step,
    from :func:`scores_for_labels` as the filters get theirs."""
    return scores_for_labels(proposal_model, video.frames, np.full(video.num_steps, video.label))


def run_domain_transfer(corpus: Corpus, config: TransferConfig) -> LafResult:
    """Run the filtering loop and score all training steps with the best model."""
    if not corpus.images:
        raise ValidationError("domain transfer needs a nonempty image pool")
    if not corpus.train_videos:
        raise ValidationError("domain transfer needs training videos")
    if not corpus.validation_videos:
        raise ValidationError("domain transfer needs a validation split")

    def fit(features: np.ndarray, labels: np.ndarray) -> Classifier:
        return train_classifier(features, labels, corpus.num_labels, config.classifier_config)

    def prune(pool, features, labels, clf: Classifier, theta: float, name: str, iteration: int):
        """The rows of ``pool`` the filter keeps, and the best removed score (None if none)."""
        keep, scores = filter_scores(features[pool], labels[pool], clf, theta,
                                     config.min_items_per_label)
        if not keep.any():
            raise TransferCollapseError(f"transfer collapsed: {name} empty at iteration {iteration}")
        removed = scores[~keep]
        return pool[keep], float(removed.max()) if removed.size else None

    # Both pools are fixed arrays; a round only shrinks the index arrays into them.
    image_features = np.stack([img.feature for img in corpus.images])
    image_labels = np.asarray([img.label for img in corpus.images])
    videos = corpus.train_videos
    frame_set = initialize_frame_set(videos, config.frames_per_video, config.seed)
    frame_features = np.stack([videos[v].frames[s] for v, s in frame_set])
    frame_labels = np.asarray([videos[v].label for v, _ in frame_set])
    images = np.arange(len(image_labels))
    frames = np.arange(len(frame_labels))
    # Each model is refit only once a filter removes part of its pool.
    frame_model, image_model, accuracy = fit(frame_features, frame_labels), None, None

    log: list[TransferIterationLog] = []
    rounds: list[tuple[Classifier, np.ndarray]] = []  # each round's image model and pool
    for iteration in range(1, config.max_iterations + 1):
        # Frames -> images: prune the web pool with the frame-trained model.
        images, max_removed_image = prune(images, image_features, image_labels, frame_model,
                                          config.theta1, "image pool", iteration)
        if image_model is None or max_removed_image is not None:
            image_model = fit(image_features[images], image_labels[images])

        # Images -> frames: prune the frame set with the image-trained model.
        frames, max_removed_frame = prune(frames, frame_features, frame_labels, image_model,
                                          config.theta2, "frame set", iteration)

        # Refit on the pruned frames: next round's filter and this round's validation model.
        if max_removed_frame is not None:
            frame_model, accuracy = fit(frame_features[frames], frame_labels[frames]), None
        if accuracy is None:
            accuracy = validation_accuracy(frame_model, corpus.validation_videos)
        log.append(TransferIterationLog(
            iteration=iteration,
            size_images=images.size,
            size_frames=frames.size,
            validation_accuracy=accuracy,
            max_removed_image_score=max_removed_image,
            max_removed_frame_score=max_removed_frame,
        ))
        rounds.append((image_model, images))
        if accuracy < max(entry.validation_accuracy for entry in log):
            break

    best = max(log, key=lambda entry: entry.validation_accuracy).iteration
    proposal_model, pool = rounds[best - 1]
    weights = {video.id: laf_scores_for_video(proposal_model, video) for video in videos}
    return LafResult(proposal_model=proposal_model, laf_weights=weights, log=log,
                     image_pool=tuple(corpus.images[i] for i in pool))
