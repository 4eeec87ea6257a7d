"""Video-level fusion and sliding-window temporal localization.

Per-step softmax activations are averaged over the whole video for
classification, and over fixed-length sliding windows for localization; the
windows of each label then go through greedy temporal non-maximum
suppression.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Interval, VideoSequence
from .errors import CorpusFormatError, ValidationError
from .ioutil import atomic_write_text, json_fields, read_json_lines
from .lstm import LstmModel, lstm_forward


@dataclass(frozen=True)
class LocalizationConfig:
    window_len: int = 10
    window_stride: int = 1
    nms_overlap: float = 0.5

    def __post_init__(self):
        if self.window_len < 1 or self.window_stride < 1:
            raise ValidationError("window_len and window_stride must be positive")
        if not (0.0 <= self.nms_overlap < 1.0):
            raise ValidationError("nms_overlap must lie in [0, 1)")


@dataclass(frozen=True)
class Detection:
    """A scored temporal window for one label in one video."""

    video_id: str
    label: int
    interval: Interval
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValidationError(f"detection score must be finite, got {self.score!r}")


def classify_video(step_probs: np.ndarray) -> np.ndarray:
    """Average fusion: the mean of per-step probability vectors."""
    step_probs = np.asarray(step_probs, dtype=np.float64)
    if step_probs.ndim != 2 or step_probs.shape[0] < 1:
        raise ValidationError(f"need a (T>=1, N) probability matrix, got {step_probs.shape}")
    return step_probs.mean(axis=0)


def sliding_window_scores(step_probs: np.ndarray, window_len: int, window_stride: int = 1
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, ends and (W, N) means of [s, s+window_len), s = 0, stride, ..., via a strided view.

    A video shorter than the window yields a single whole-video window, so
    every video stays scoreable.
    """
    step_probs = np.asarray(step_probs, dtype=np.float64)
    steps = step_probs.shape[0]
    if steps < 1:
        raise ValidationError("need at least one step")
    length = min(window_len, steps)
    means = sliding_window_view(step_probs, length, axis=0)[::window_stride].mean(axis=-1)
    starts = np.arange(0, steps - length + 1, window_stride)
    return starts, starts + length, means


def temporal_iou(a: Interval, b: Interval) -> float:
    """Intersection over union of two half-open step intervals."""
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    union = a.length + b.length - inter
    return inter / union


def temporal_nms(detections: Sequence[Detection], nms_overlap: float) -> list[Detection]:
    """Greedy suppression within one label.

    Repeatedly keep the best remaining detection (ties: earlier start, then
    longer window, then input order) and drop everything overlapping it by
    more than ``nms_overlap``; the result is ordered by descending score. Each
    kept window clears the later ones with one array row, in O(len) memory.
    """
    labels = {d.label for d in detections}
    if len(labels) > 1:
        raise ValidationError(f"temporal_nms expects a single label, got {sorted(labels)}")
    starts = np.array([d.interval.start for d in detections], dtype=np.int64)
    ends = np.array([d.interval.end for d in detections], dtype=np.int64)
    order = np.lexsort((starts - ends, starts, -np.array([d.score for d in detections])))
    starts, ends = starts[order], ends[order]
    lengths = ends - starts
    alive = np.ones(len(order), dtype=bool)  # after the loop: the kept ranks
    for rank in range(len(order)):
        if alive[rank]:
            later = slice(rank + 1, None)
            inter = np.maximum(np.minimum(ends[later], ends[rank])
                               - np.maximum(starts[later], starts[rank]), 0)
            alive[later] &= inter / (lengths[rank] + lengths[later] - inter) <= nms_overlap
    return [detections[index] for index in order[alive].tolist()]


def localize(video_id: str, step_probs: np.ndarray,
             config: LocalizationConfig) -> dict[int, list[Detection]]:
    """Window-scored detections per label from one video's (T, N) step probabilities,
    after per-label NMS."""
    starts, ends, means = sliding_window_scores(step_probs, config.window_len, config.window_stride)
    intervals = [Interval(s, e) for s, e in zip(starts.tolist(), ends.tolist())]
    result: dict[int, list[Detection]] = {}
    for label in range(means.shape[1]):
        candidates = [Detection(video_id, label, interval, score)
                      for interval, score in zip(intervals, means[:, label].tolist())]
        result[label] = temporal_nms(candidates, config.nms_overlap)
    return result


def localize_videos(model: LstmModel, videos: Sequence[VideoSequence], config: LocalizationConfig
                    ) -> tuple[list[Detection], dict[str, np.ndarray]]:
    """Detections on every video and each video's average-fusion scores, from one
    forward pass per video."""
    detections: list[Detection] = []
    fused: dict[str, np.ndarray] = {}
    for video in videos:
        _, probs, _ = lstm_forward(model, video.frames)
        fused[video.id] = classify_video(probs)
        for dets in localize(video.id, probs, config).values():
            detections.extend(dets)
    return detections, fused


def detection_rank(d: Detection) -> tuple:
    """The one detection order: by label, then descending score, video id and start."""
    return d.label, -d.score, d.video_id, d.interval.start


def save_detections(detections: Iterable[Detection], path: str | Path) -> None:
    """JSON Lines in :func:`detection_rank` order."""
    lines = [json.dumps({"video_id": d.video_id, "label": d.label, "start": d.interval.start,
                         "end": d.interval.end, "score": d.score}, separators=(",", ":"))
             for d in sorted(detections, key=detection_rank)]
    atomic_write_text(path, "\n".join(lines) + "\n")


DETECTION_KINDS = {"video_id": str, "label": int, "start": int, "end": int, "score": float}


def load_detections(path: str | Path) -> list[Detection]:
    detections = []
    for line_no, rec in read_json_lines(path):
        try:
            det = json_fields(rec, DETECTION_KINDS, "detection")
            detections.append(Detection(det["video_id"], det["label"],
                                        Interval(det["start"], det["end"]), det["score"]))
        except ValidationError as exc:
            raise CorpusFormatError(f"line {line_no}: {exc}") from exc
    return detections
