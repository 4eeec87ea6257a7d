"""Seeded synthetic corpora with controllable cross-domain structure.

Feature vectors are drawn from isotropic Gaussian modes arranged so that
action frames look the same in both domains while background distributions
differ per domain:

* one ACTION mode per action label -- video action segments and relevant web
  images draw from it;
* one CONTEXT mode per activity, shared by its sibling actions -- video
  background frames draw from it;
* one IMAGE-NOISE mode per activity -- irrelevant web images draw from it.

Every video gets exactly one contiguous action segment at a random position,
recorded in ``gt_segments``; every image gets a ground-truth ``relevant``
flag. Generation is fully determined by ``SynthSpec.seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import SPLITS, Corpus, Interval, VideoSequence, WebImage
from .errors import ValidationError


@dataclass(frozen=True)
class SynthSpec:
    num_activities: int = 4
    actions_per_activity: int = 2
    feature_dim: int = 16
    train_videos_per_action: int = 6
    validation_videos_per_action: int = 2
    test_videos_per_action: int = 4
    frames_per_video: tuple[int, int] = (30, 45)
    action_segment_fraction: float = 0.2
    images_per_action: int = 40
    image_noise_fraction: float = 0.3
    mode_separation: float = 6.0
    mode_stddev: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.num_activities < 1 or self.actions_per_activity < 1:
            raise ValidationError("need at least one activity and one action per activity")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be >= 1")
        lo, hi = self.frames_per_video
        if not (1 <= lo <= hi):
            raise ValidationError(f"bad frames_per_video range ({lo}, {hi})")
        if not (0.0 < self.action_segment_fraction <= 1.0):
            raise ValidationError("action_segment_fraction must lie in (0, 1]")
        if self.action_segment_fraction * lo < 1.0:
            raise ValidationError("action_segment_fraction * min frames must be >= 1")
        if not (0.0 <= self.image_noise_fraction < 1.0):
            raise ValidationError("image_noise_fraction must lie in [0, 1)")
        if not (self.mode_separation > 0 and self.mode_stddev > 0):  # NaN fails too
            raise ValidationError("mode_separation and mode_stddev must be positive")
        if min(self.train_videos_per_action, self.validation_videos_per_action,
               self.test_videos_per_action, self.images_per_action) < 1:
            raise ValidationError("per-action corpus sizes must be >= 1")

    @property
    def num_labels(self) -> int:
        return self.num_activities * self.actions_per_activity

    def activity_of(self, label: int) -> int:
        return label // self.actions_per_activity


@dataclass(frozen=True, eq=False)
class ModeCenters:
    """Gaussian mode centers; rows are actions (N, d) or activities (A, d)."""

    action: np.ndarray
    context: np.ndarray
    noise: np.ndarray

    def to_json(self) -> dict:
        return {
            "format": "laf-synth-modes",
            "action": self.action.tolist(),
            "context": self.context.tolist(),
            "noise": self.noise.tolist(),
        }


def _unit_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    vecs = rng.standard_normal((count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def mode_centers(spec: SynthSpec) -> ModeCenters:
    """Seeded random unit directions scaled by the mode separation."""
    rng = np.random.default_rng((spec.seed, 0))
    scale = spec.mode_separation
    return ModeCenters(
        action=_unit_directions(rng, spec.num_labels, spec.feature_dim) * scale,
        context=_unit_directions(rng, spec.num_activities, spec.feature_dim) * scale,
        noise=_unit_directions(rng, spec.num_activities, spec.feature_dim) * scale,
    )


# Features are drawn into shared row blocks of at most this size, so a corpus is a few
# large buffers that go back to the OS when freed, not thousands of small heap arrays.
# A corpus whose upper bound of rows is smaller gets one block of that bound: numpy puts
# arrays of 4 MB or more on huge pages, which would raise a small corpus's footprint.
_BLOCK_BYTES = 16 << 20


class _RowBlocks:
    """Hands out consecutive (count, dim) row ranges of shared float64 blocks."""

    def __init__(self, max_rows: int, dim: int):
        self.block_rows = max(1, min(max_rows, _BLOCK_BYTES // (8 * dim)))
        self.block, self.used = np.empty((0, dim)), 0

    def take(self, count: int) -> np.ndarray:
        if self.used + count > len(self.block):
            self.block = np.empty((max(count, self.block_rows), self.block.shape[1]))
            self.used = 0
        self.used += count
        return self.block[self.used - count:self.used]


def _draw_normal(rng, rows: np.ndarray, center: np.ndarray, stddev: float) -> np.ndarray:
    """``rows`` = rng.normal(center, stddev, rows.shape), drawn in place, bit for bit."""
    rng.standard_normal(out=rows)
    rows *= stddev
    rows += center
    return rows


def _make_video(rng, spec: SynthSpec, centers: ModeCenters, label: int, vid_id: str,
                blocks: _RowBlocks) -> VideoSequence:
    lo, hi = spec.frames_per_video
    steps = int(rng.integers(lo, hi + 1))
    seg_len = max(1, math.floor(spec.action_segment_fraction * steps))
    start = int(rng.integers(0, steps - seg_len + 1))
    activity = spec.activity_of(label)
    frames = _draw_normal(rng, blocks.take(steps), centers.context[activity], spec.mode_stddev)
    _draw_normal(rng, frames[start:start + seg_len], centers.action[label], spec.mode_stddev)
    return VideoSequence(id=vid_id, label=label, frames=frames,
                         gt_segments=(Interval(start, start + seg_len),))


def generate_corpus(spec: SynthSpec) -> Corpus:
    centers = mode_centers(spec)
    rng = np.random.default_rng((spec.seed, 1))

    split_counts = {split: getattr(spec, f"{split}_videos_per_action") for split in SPLITS}
    rows_per_label = sum(split_counts.values()) * spec.frames_per_video[1] + spec.images_per_action
    blocks = _RowBlocks(spec.num_labels * rows_per_label, spec.feature_dim)
    videos: dict[str, tuple[VideoSequence, ...]] = {}  # Corpus keywords, drawn in SPLITS order
    for split, count in split_counts.items():
        videos[f"{split}_videos"] = tuple(
            _make_video(rng, spec, centers, label, f"{split}-{label:03d}-{i:03d}", blocks)
            for label in range(spec.num_labels)
            for i in range(count)
        )

    images = []
    for label in range(spec.num_labels):
        activity = spec.activity_of(label)
        for j in range(spec.images_per_action):
            relevant = bool(rng.random() >= spec.image_noise_fraction)
            center = centers.action[label] if relevant else centers.noise[activity]
            feature = _draw_normal(rng, blocks.take(1)[0], center, spec.mode_stddev)
            images.append(WebImage(id=f"img-{label:03d}-{j:04d}", label=label,
                                   feature=feature, relevant=relevant))

    return Corpus(num_labels=spec.num_labels, feature_dim=spec.feature_dim, images=tuple(images),
                  **videos)


def image_pool_purity(images) -> float:
    """Fraction of images whose ground-truth relevance flag is true."""
    flags = [img.relevant for img in images]
    if not flags or any(flag is None for flag in flags):
        raise ValidationError("purity requires ground-truth relevance flags on every image")
    return float(np.mean(flags))


def corpus_stats(corpus: Corpus) -> dict:
    """Exact counts for a synthetic corpus (requires ground-truth flags)."""
    purity = image_pool_purity(corpus.images)
    gt_videos = [v for v in corpus.all_videos if v.gt_segments is not None]
    if not gt_videos:
        raise ValidationError("corpus_stats requires gt_segments on synthetic videos")
    action_steps = sum(seg.length for v in gt_videos for seg in v.gt_segments)
    total_steps = sum(v.num_steps for v in gt_videos)

    def per_label(items) -> list[int]:
        return np.bincount([item.label for item in items], minlength=corpus.num_labels).tolist()

    return {
        "num_labels": corpus.num_labels,
        "feature_dim": corpus.feature_dim,
        "num_images": len(corpus.images),
        "image_purity": purity,
        "action_step_fraction": action_steps / total_steps,
        "images_per_label": per_label(corpus.images),
        "videos_per_label": {split: per_label(getattr(corpus, f"{split}_videos")) for split in SPLITS},
    }
