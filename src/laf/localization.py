"""Video-level fusion and sliding-window temporal localization.

Per-step softmax activations are averaged over the whole video for
classification, and over fixed-length sliding windows for localization; the
windows of every label of a video then go through greedy temporal
non-maximum suppression together. Detections travel as the columns of one
:class:`DetectionTable` from localization to the file and to evaluation.
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
from .ioutil import atomic_write_bytes, json_fields, json_line
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


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detections as columns: row i scores ``score[i]`` for window [start[i], end[i]) of
    ``label[i]`` in video ``videos[video[i]]``. :meth:`from_columns` codes ids into their
    sorted distinct set ``videos``, so codes sort as ids do; ``videos`` may hold unused ids."""

    videos: tuple[str, ...]
    video: np.ndarray
    label: np.ndarray
    start: np.ndarray
    end: np.ndarray
    score: np.ndarray

    @classmethod
    def of(cls, detections: DetectionTable | Iterable[Detection]) -> DetectionTable:
        """The rows of ``detections`` in their order; a table is returned as it is."""
        if isinstance(detections, DetectionTable):
            return detections
        rows = [(d.video_id, d.label, d.interval.start, d.interval.end, d.score) for d in detections]
        return cls.from_columns(*(zip(*rows) if rows else ((),) * 5))

    @classmethod
    def from_columns(cls, ids, labels, starts, ends, scores, video=None) -> DetectionTable:
        """The five columns as a table; with ``video``, row i's id is ``ids[video[i]]``."""
        videos = tuple(sorted(set(ids)))
        index = dict(zip(videos, range(len(videos))))
        codes = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))
        try:
            return cls(videos, codes if video is None else codes[video],
                       *(np.array(c, dtype=np.int64) for c in (labels, starts, ends)),
                       np.array(scores, dtype=np.float64))
        except OverflowError as exc:
            raise ValidationError(f"detection labels and bounds must fit in 64 bits ({exc})") from exc

    @classmethod
    def concat(cls, tables: Sequence[DetectionTable]) -> DetectionTable:
        if not tables:
            return cls.of(())
        videos, codes, *columns = zip(*(vars(table).values() for table in tables))
        offsets = np.cumsum([0, *map(len, videos)])
        return cls.from_columns([v for ids in videos for v in ids], *map(np.concatenate, columns),
                                video=np.concatenate([c + k for c, k in zip(codes, offsets)]))

    def __len__(self) -> int:
        return len(self.score)

    def take(self, rows) -> DetectionTable:
        videos, *columns = vars(self).values()
        return DetectionTable(videos, *(column[rows] for column in columns))


@dataclass(frozen=True)
class WindowScores:
    """One video's candidate windows [start, end) with their (W, N) label ``scores``;
    its length is the W * N candidates."""

    video_id: str
    start: np.ndarray
    end: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.scores.size


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


def temporal_iou(start_a, end_a, start_b, end_b):
    """Intersection over union of half-open step intervals, elementwise with broadcasting."""
    inter = np.maximum(np.minimum(end_a, end_b) - np.maximum(start_a, start_b), 0)
    return inter / ((end_a - start_a) + (end_b - start_b) - inter)


def _neighbours(starts: np.ndarray, ends: np.ndarray, overlap: float) -> np.ndarray:
    """A (W, 2B) table whose row i lists the windows with IoU above ``overlap`` with
    window i, padded with W.

    In start order a window can overlap only the B windows on either side,
    where ``searchsorted`` finds B; memory is O(W * B) = O(W * L / stride),
    never W x W.
    """
    by_start = np.argsort(starts, kind="stable")
    s, e = starts[by_start], ends[by_start]
    band = int((np.searchsorted(s, e) - np.arange(len(s))).max(initial=1)) - 1
    table = np.full((len(s), 2 * band), len(s))
    for d in range(1, band + 1):
        near = temporal_iou(s[:-d], e[:-d], s[d:], e[d:]) > overlap
        earlier, later = by_start[:-d][near], by_start[d:][near]
        table[earlier, d - 1], table[later, band + d - 1] = later, earlier
    return table


def _nms_mask(starts: np.ndarray, ends: np.ndarray, scores: np.ndarray,
              overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy NMS of every label of one video at once: the (N, W) rank order of each
    label's windows, and the (N, W) mask of the kept ones in that order.

    Each label keeps its best remaining window and drops the windows whose IoU
    with it exceeds ``overlap``. The tie rule ranks a higher score first, then
    the earlier start, then the longer window, then input order. Rank position
    p is taken for all labels together: a window still alive at its rank is
    kept and clears its neighbours in that label. IoU is symmetric, so the
    neighbours of an alive window are dead or ranked later: the result is the
    per-label greedy one, and the windows left alive are the kept ones.
    """
    by_start, columns = np.lexsort((starts - ends, starts)), np.arange(scores.shape[1])
    order = by_start[np.argsort(-scores[by_start], axis=0, kind="stable")]  # (W, N)
    cells = order * scores.shape[1]  # of the flat (W+1, N) alive, built in place
    cells += columns
    neighbours = _neighbours(starts, ends, overlap) * scores.shape[1]  # row W pads
    alive = np.ones(cells.size + scores.shape[1], dtype=bool)
    for windows, at_rank in zip(order, cells):
        labels = alive[at_rank].nonzero()[0]
        if labels.size:
            alive[neighbours[windows[labels]] + labels[:, None]] = False
    return order.T, alive[cells].T


def temporal_nms(candidates: WindowScores | Sequence[Detection], nms_overlap: float):
    """Greedy suppression within each label, with the tie rule of :func:`_nms_mask`.

    Window scores give a :class:`DetectionTable` of the kept (window, label) pairs,
    label by label in rank order: :func:`detection_rank` order for windows of one
    length. A list of one label's detections gives the kept ones in rank order.
    """
    if isinstance(candidates, WindowScores):
        order, kept = _nms_mask(candidates.start, candidates.end, candidates.scores, nms_overlap)
        labels, windows = np.repeat(np.arange(len(kept)), kept.sum(axis=1)), order[kept]
        return DetectionTable((candidates.video_id,), np.zeros(len(windows), dtype=np.int64),
                              labels, candidates.start[windows], candidates.end[windows],
                              candidates.scores[windows, labels])
    labels = {d.label for d in candidates}
    if len(labels) > 1:
        raise ValidationError(f"temporal_nms expects a single label, got {sorted(labels)}")
    table = DetectionTable.of(candidates)
    order, kept = _nms_mask(table.start, table.end, table.score[:, None], nms_overlap)
    return [candidates[i] for i in order[kept]]


def localize(video_id: str, step_probs: np.ndarray, config: LocalizationConfig) -> DetectionTable:
    """The NMS survivors of every label's windows over one video's (T, N) step probabilities."""
    starts, ends, means = sliding_window_scores(step_probs, config.window_len, config.window_stride)
    return temporal_nms(WindowScores(video_id, starts, ends, means), config.nms_overlap)


INFERENCE_ROWS = 4096  # packed rows per inference forward; a longer video runs alone


def localize_videos(model: LstmModel, videos: Sequence[VideoSequence], config: LocalizationConfig
                    ) -> tuple[DetectionTable, dict[str, np.ndarray]]:
    """Detections on every video and each video's average-fusion scores, in input order.

    Videos sorted by length (longest first, stable) fill groups of at most
    :data:`INFERENCE_ROWS` steps, a longer video alone; one forward per group keeps one
    group's trace in memory. A video's scores depend, in their last bits, on its group.
    """
    groups, rows = [], INFERENCE_ROWS
    for k in sorted(range(len(videos)), key=lambda k: -videos[k].num_steps):
        rows += videos[k].num_steps
        if rows > INFERENCE_ROWS:
            groups.append([])
            rows = videos[k].num_steps
        groups[-1].append(k)
    tables, fused = [None] * len(videos), [None] * len(videos)
    for group in groups:
        lengths = [videos[k].num_steps for k in group]
        probs = lstm_forward(model, np.concatenate([videos[k].frames for k in group]),
                             lengths=lengths)[1]  # the logits and trace go at once
        for k, video_probs in zip(group, np.split(probs, np.cumsum(lengths)[:-1])):
            fused[k] = classify_video(video_probs)
            tables[k] = localize(videos[k].id, video_probs, config)
    return DetectionTable.concat(tables), {v.id: f for v, f in zip(videos, fused)}


def detection_rank(table: DetectionTable) -> np.ndarray:
    """The one detection order, as row indices: by label, then descending score,
    video id and start; stable, so full ties keep their order. A table already in
    this order, as :func:`temporal_nms` makes for one video, is found in O(n)."""
    keys, ranked = (table.label, -table.score, table.video, table.start), True
    for key in keys[::-1]:  # ranked[i]: rows i and i+1 in order on this key and the later ones
        ranked = (key[:-1] < key[1:]) | ((key[:-1] == key[1:]) & ranked)  # never for a NaN
    return np.arange(len(table)) if np.all(ranked) else np.lexsort(keys[::-1])


DETECTION_CHUNK = 4096  # rows encoded at a time by the saver, lines parsed at once by the loader


def save_detections(table: DetectionTable, path: str | Path) -> None:
    """JSON Lines in :func:`detection_rank` order, each line as ``json.dumps`` with
    compact separators writes the record, formatted from the columns and encoded
    :data:`DETECTION_CHUNK` rows at a time; each chunk is written as it is encoded."""
    rank = detection_rank(table)
    quoted = [json.dumps(vid) for vid in table.videos]

    def encode(first: int) -> bytes:
        _, *columns = vars(table.take(rank[first:first + DETECTION_CHUNK])).values()
        lines = [f'{{"video_id":{quoted[v]},"label":{label},"start":{start},"end":{end},'
                 f'"score":{score!r}}}' for v, label, start, end, score
                 in zip(*(c.tolist() for c in columns))]
        return ("\n".join(lines) + "\n").encode("utf-8")

    # An empty table is one empty chunk: the file is a lone "\n".
    atomic_write_bytes(path, map(encode, range(0, len(table) or 1, DETECTION_CHUNK)))


DETECTION_KINDS = {"video_id": str, "label": int, "start": int, "end": int, "score": float}


def _detection_columns(columns: Sequence[Sequence]) -> DetectionTable:
    """The table of the :data:`DETECTION_KINDS` columns, whose values must be of the
    kinds that :func:`json_fields` takes and give a finite score and a valid
    :class:`Interval`; ValueError otherwise. Both loaders build their table here."""
    for column, kind in zip(columns, DETECTION_KINDS.values()):
        if {*map(type, column)} - ({int, float} if kind is float else {kind}):
            raise ValueError("a field of the wrong JSON type")
    table = DetectionTable.from_columns(*columns)
    if not (np.isfinite(table.score).all() and (0 <= table.start).all()
            and (table.start < table.end).all()):
        raise ValueError("a score or interval out of range")
    return table


def load_detections(path: str | Path) -> DetectionTable:
    """Read a detections file with one ``json.loads`` per :data:`DETECTION_CHUNK` nonblank lines.

    Each parse is kept only where it reads every line as
    :func:`load_detection_lines` would: each line's first byte is ``{`` and it
    holds no other ``{``; the parse gives one dict per line, each with exactly
    the five fields; and the values are valid. No JSON string spans a line
    break, so every record starts at a line start, and a record that ran past
    its line would nest the next line's ``{`` and leave fewer records than
    lines; anything but whitespace after a record is a syntax error or an
    extra value. So each line parses alone to the same record. Any other file
    is read line by line, and its errors name the line.
    """
    lines = [line for line in Path(path).read_bytes().split(b"\n") if line.strip()]
    try:
        return DetectionTable.concat([_parse_at_once(lines[first:first + DETECTION_CHUNK])
                                      for first in range(0, len(lines), DETECTION_CHUNK)])
    except (ValueError, KeyError, ValidationError):
        return load_detection_lines(path)


def _parse_at_once(lines: list[bytes]) -> DetectionTable:
    """The detections of ``lines`` from one parse of them joined as a JSON array;
    ValueError or KeyError unless each line is one valid detection record: it starts
    with its only ``{``, and the parse gives one five-field dict per line."""
    text = b"[" + b",\n".join(lines) + b"]"
    raw = np.frombuffer(text, dtype=np.uint8)  # lines hold no "\n": each starts after "[" or "\n"
    firsts = raw[np.r_[0, np.flatnonzero(raw == ord("\n"))] + 1]
    if np.count_nonzero(raw == ord("{")) != len(lines) or (firsts != ord("{")).any():
        raise ValueError("not one flat record per line")
    records = json.loads(text.decode("utf-8"))
    if len(records) != len(lines) or {*map(type, records)} != {dict} \
            or {*map(len, records)} != {len(DETECTION_KINDS)}:
        raise ValueError("not one record of the five fields per line")
    return _detection_columns([[r[key] for r in records] for key in DETECTION_KINDS])


def load_detection_lines(path: str | Path) -> DetectionTable:
    """Read a detections file one line at a time; an error names its line."""
    records = []
    for line_no, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        if line.strip():
            rec = json_line(line, line_no)
            try:
                det = json_fields(rec, DETECTION_KINDS, "detection")
                Interval(det["start"], det["end"])
            except ValidationError as exc:
                raise CorpusFormatError(f"line {line_no}: {exc}") from exc
            records.append(tuple(det.values()))
    return _detection_columns(list(zip(*records)) or [()] * len(DETECTION_KINDS))
