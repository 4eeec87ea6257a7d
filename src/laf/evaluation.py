"""Hit@k classification metric and mean average precision at temporal overlap.

A detection counts as a true positive at ratio r when its interval IoU with
some still-unmatched ground-truth segment of the same video strictly exceeds
r; each segment can be matched once, and duplicates count as false
positives. AP is the raw (non-interpolated) sum of precisions at true-positive
ranks divided by the number of ground-truth segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Interval, VideoSequence
from .errors import ValidationError
from .localization import Detection, DetectionTable, detection_rank, temporal_iou


@dataclass(frozen=True)
class EvalConfig:
    hit_ks: tuple[int, ...] = (1, 5)
    overlap_ratios: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)

    def __post_init__(self):
        if not self.hit_ks or any(k < 1 for k in self.hit_ks):
            raise ValidationError("hit_ks must be positive integers")
        if not self.overlap_ratios or any(not (0.0 < r <= 1.0) for r in self.overlap_ratios):
            raise ValidationError("overlap ratios must lie in (0, 1]")


def hit_at_k(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose true label is among the k top-scored labels.

    Score ties rank the lower label index first, so top-k is deterministic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValidationError(f"need a nonempty (videos, labels) score matrix, got {scores.shape}")
    if labels.shape != (scores.shape[0],):
        raise ValidationError("one true label per score row required")
    if not (1 <= k <= scores.shape[1]):
        raise ValidationError(f"k={k} outside [1, {scores.shape[1]}]")
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return float(np.mean(np.any(top == labels[:, None], axis=1)))


def average_precision(detections: DetectionTable | Sequence[Detection],
                      ground_truth: Mapping[str, Sequence[Interval]], ratio: float) -> float:
    """AP for one label; ground truth maps video id -> its true segments.

    Detections go in :func:`detection_rank` order. In each video with ground
    truth, whose rows its code selects, one IoU array against its segments gives
    every detection its best still-unmatched segment (the first one on ties).
    """
    total_gt = sum(len(segs) for segs in ground_truth.values())
    if total_gt == 0:
        raise ValidationError("undefined AP: no ground-truth segments for this label")
    table = DetectionTable.of(detections)
    table = table.take(detection_rank(table))
    is_tp = np.zeros(len(table), dtype=bool)
    code = dict(zip(table.videos, range(len(table.videos))))
    for video_id, segments in ground_truth.items():
        rows = np.flatnonzero(table.video == code.get(video_id, -1))
        bounds = np.array([(seg.start, seg.end) for seg in segments], dtype=np.int64).reshape(-1, 2)
        iou = temporal_iou(table.start[rows, None], table.end[rows, None], *bounds.T)
        matched = np.zeros(len(segments), dtype=bool)
        for k in np.flatnonzero((iou > ratio).any(axis=1)):
            free = np.where(matched, -1.0, iou[k])
            best = free.argmax()
            if free[best] > ratio:
                matched[best] = is_tp[rows[k]] = True
    tp_cum = np.cumsum(is_tp)
    precision = tp_cum / np.arange(1, len(table) + 1)
    return float(precision[is_tp].sum() / total_gt)


def ground_truth_by_label(videos: Sequence[VideoSequence]) -> dict[int, dict[str, list[Interval]]]:
    """Group the gt_segments of annotated videos by their video-level label."""
    grouped: dict[int, dict[str, list[Interval]]] = {}
    for video in videos:
        if video.gt_segments:
            grouped.setdefault(video.label, {})[video.id] = list(video.gt_segments)
    return grouped


def max_pooled_scores(detections: DetectionTable, videos: Sequence[VideoSequence],
                      num_labels: int) -> np.ndarray:
    """Fallback video-level scores: the best detection score per (video, label).

    Used when average-fusion scores were not saved alongside the detections;
    videos without any detection for a label keep score 0. Ids no row uses may be unknown.
    """
    index = {video.id: row for row, video in enumerate(videos)}
    scores = np.zeros((len(videos), num_labels))
    rows = np.array([index.get(vid, len(videos)) for vid in detections.videos], dtype=np.intp)
    np.maximum.at(scores, (rows[detections.video], detections.label), detections.score)
    return scores


def evaluate(detections: DetectionTable | Sequence[Detection], videos: Sequence[VideoSequence],
             config: EvalConfig, num_labels: int,
             video_scores: Mapping[str, np.ndarray] | None = None) -> dict:
    """Full report: Hit@k over videos plus mAP and per-label AP at each ratio. The table
    is ranked once; each label's rows are then one slice, in :func:`detection_rank` order."""
    if not videos:
        raise ValidationError("evaluation needs a nonempty video set")
    table = DetectionTable.of(detections)
    steps = {video.id: video.num_steps for video in videos}
    limit = np.array([steps.get(vid, -1) for vid in table.videos], dtype=np.int64)[table.video]
    bad = (limit < 0) | (table.label < 0) | (table.label >= num_labels) | (table.end > limit)
    for det in table.take(bad):  # the first bad detection raises
        if det.video_id not in steps:
            raise ValidationError(f"detection references unknown video id {det.video_id!r}")
        if not 0 <= det.label < num_labels:
            raise ValidationError(f"detection label {det.label} on {det.video_id!r} "
                                  f"outside [0, {num_labels})")
        raise ValidationError(f"detection [{det.interval.start}, {det.interval.end}) exceeds "
                              f"the {steps[det.video_id]} steps of {det.video_id!r}")

    if video_scores is not None:
        missing = [v.id for v in videos if v.id not in video_scores]
        if missing:
            raise ValidationError(f"missing classification scores for videos: {missing[:5]}")
        rows = [np.asarray(video_scores[v.id], dtype=np.float64) for v in videos]
        if any(row.shape != (num_labels,) or not np.isfinite(row).all() for row in rows):
            raise ValidationError(f"classification scores must be a finite "
                                  f"({len(videos)}, {num_labels}) matrix")
        scores = np.stack(rows)
    else:
        scores = max_pooled_scores(table, videos, num_labels)
    labels = np.asarray([video.label for video in videos])

    report: dict = {"hit_at": {}, "map_at": {}, "per_label_ap": {}}
    for k in config.hit_ks:
        report["hit_at"][str(k)] = hit_at_k(scores, labels, k)

    gt = ground_truth_by_label(videos)
    gt_labels = sorted(gt)
    rank = detection_rank(table)  # average_precision finds each label's slice ranked
    bounds = np.searchsorted(table.label[rank], [[label, label + 1] for label in gt_labels])
    by_label = {label: table.take(rank[slice(*ends)]) for label, ends in zip(gt_labels, bounds)}
    per_label: dict[str, dict[str, float]] = {str(label): {} for label in gt_labels}
    for ratio in config.overlap_ratios:
        key = format(ratio, "g")
        aps = {label: average_precision(dets, gt[label], ratio) for label, dets in by_label.items()}
        report["map_at"][key] = float(np.mean(list(aps.values()))) if aps else 0.0
        for label, ap in aps.items():
            per_label[str(label)][key] = ap
    report["per_label_ap"] = per_label
    return report


def format_report_table(report: dict) -> str:
    """Plain-text rendering of a report, one metric per line."""
    lines = ["metric      value"]
    for k, value in report["hit_at"].items():
        lines.append(f"hit@{k:<7} {value:.4f}")
    for ratio, value in report["map_at"].items():
        lines.append(f"mAP@{ratio:<7} {value:.4f}")
    return "\n".join(lines)
