"""Domain types and the corpus file (laf-corpus version 2).

A corpus holds a web-image pool with noisy action labels plus weakly-labeled
video sequences split into train / validation / test. Frames and images are
opaque fixed-dimension float64 feature vectors; one video step is one sampled
frame. Labels are integer indices in ``[0, num_labels)``.

A file holds a JSON header line, one JSON line per image or video (the record
without its features), then one payload of little-endian float64 rows: each
image's feature, then each video's ``steps`` frames, in record order, checked
by the header's sha256. The loader reads the file once and hands out read-only
views into the payload, so round trips are bit-exact. README has the keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import operator
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .errors import CorpusFormatError, ValidationError
from .ioutil import atomic_write_bytes, json_fields, json_floats, json_line, json_value

CORPUS_FORMAT = "laf-corpus"
CORPUS_VERSION = 2
SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class Interval:
    """Half-open step interval [start, end); numpy integer bounds are stored as ints."""

    start: int
    end: int

    def __post_init__(self):
        for name, value in (("start", self.start), ("end", self.end)):
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValidationError(f"interval {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not (0 <= self.start < self.end):
            raise ValidationError(f"invalid interval [{self.start}, {self.end}): need 0 <= start < end")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, eq=False)
class WebImage:
    """One web image: an id, a (possibly wrong) action label, and a feature.

    ``relevant`` is the ground-truth relevance flag carried only by synthetic
    corpora so filtering quality can be measured.
    """

    id: str
    label: int
    feature: np.ndarray
    relevant: bool | None = None

    def __post_init__(self):
        feature = np.asarray(self.feature, dtype=np.float64)
        if feature.ndim != 1 or not np.isfinite(feature).all():
            raise ValidationError(f"image {self.id!r}: feature must be a finite vector, "
                                  f"got shape {feature.shape}")


@dataclass(frozen=True, eq=False)
class VideoSequence:
    """One video: a (T, d) frame-feature matrix with a single video-level label.

    ``gt_segments`` are ground-truth action intervals (evaluation / synthetic
    corpora only). ``laf_weights`` are per-step loss weights in [0, 1] filled
    in by the domain-transfer stage.
    """

    id: str
    label: int
    frames: np.ndarray
    gt_segments: tuple[Interval, ...] | None = None
    laf_weights: np.ndarray | None = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or not np.isfinite(frames).all():
            raise ValidationError(f"video {self.id!r}: frames must be a finite (T>=1, d) matrix, "
                                  f"got shape {frames.shape}")
        steps = frames.shape[0]
        for seg in self.gt_segments or ():
            if seg.end > steps:
                raise ValidationError(f"video {self.id!r}: gt segment [{seg.start}, {seg.end}) "
                                      f"exceeds {steps} steps")
        if self.laf_weights is not None:
            weights = np.asarray(self.laf_weights, dtype=np.float64)
            if weights.shape != (steps,) or not np.all((weights >= 0.0) & (weights <= 1.0)):
                raise ValidationError(f"video {self.id!r}: laf_weights must be {steps} values "
                                      f"in [0, 1], got shape {weights.shape}")

    @property
    def num_steps(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Web images plus videos; labels lie in [0, num_labels), every feature has
    ``feature_dim`` values, and video ids are unique across the splits.
    ``lines`` (from the loader) holds each record's file line for error messages.
    """

    num_labels: int
    feature_dim: int
    images: tuple[WebImage, ...]
    train_videos: tuple[VideoSequence, ...]
    validation_videos: tuple[VideoSequence, ...]
    test_videos: tuple[VideoSequence, ...]
    lines: InitVar[list[int] | None] = None

    def __post_init__(self, lines):
        if self.num_labels < 1 or self.feature_dim < 1:
            raise ValidationError(f"corpus needs num_labels >= 1 and feature_dim >= 1, "
                                  f"got {self.num_labels} and {self.feature_dim}")
        video_ids: set[str] = set()
        for index, record in enumerate((*self.images, *self.all_videos)):
            self._check_member(record, video_ids, "" if lines is None else f"line {lines[index]}: ")

    @property
    def all_videos(self) -> tuple[VideoSequence, ...]:
        return self.train_videos + self.validation_videos + self.test_videos

    def _check_member(self, record: WebImage | VideoSequence, video_ids: set[str], where: str):
        """Check one record's label and width against the corpus (errors begin with
        ``where``); ``video_ids`` holds the videos checked before it and gains this one."""
        is_video = isinstance(record, VideoSequence)
        where += f"{'video' if is_video else 'image'} {record.id!r}"
        if not isinstance(record.label, numbers.Integral) or isinstance(record.label, bool) \
                or not 0 <= record.label < self.num_labels:
            raise ValidationError(f"{where}: label {record.label!r} is not an integer in "
                                  f"[0, {self.num_labels})")
        width = np.shape(record.frames)[1] if is_video else np.shape(record.feature)[0]
        if width != self.feature_dim:
            raise ValidationError(f"{where}: feature dimension {width} != corpus feature_dim "
                                  f"{self.feature_dim}")
        if is_video:
            if record.id in video_ids:
                raise ValidationError(f"{where}: duplicate video id")
            video_ids.add(record.id)


HEADER_KINDS = {"format": str, "version": int, "num_labels": int, "feature_dim": int,
                "records": int, "rows": int, "sha256": str}
IMAGE_KINDS = {"id": str, "label": int, "relevant": bool}
VIDEO_KINDS = {"split": str, "id": str, "label": int, "steps": int, "gt_segments": list,
               "laf_weights": list}
OPTIONAL_KEYS = ("relevant", "gt_segments", "laf_weights")


def _parse_header(rec) -> dict:
    version = json_fields(rec, {"format": str, "version": int}, "line 1: header")
    if version != {"format": CORPUS_FORMAT, "version": CORPUS_VERSION}:
        raise CorpusFormatError(f"line 1: expected a {CORPUS_FORMAT!r} version {CORPUS_VERSION} "
                                f"header, got {version['format']!r} version {version['version']}")
    return json_fields(rec, HEADER_KINDS, "line 1: header")


def _interval(pair) -> Interval:
    if type(pair) is not list or len(pair) != 2:
        raise CorpusFormatError(f"gt segment {pair!r} is not a [start, end] pair")
    return Interval(*(json_value(v, int, f"gt segment {pair!r}") for v in pair))


def _parse_record(rec, table: np.ndarray, row: int) -> tuple[str, WebImage | VideoSequence]:
    """("image", image) or (split, video) from one record line and the payload rows at ``row``."""
    kind = rec.get("kind") if isinstance(rec, dict) else None
    if kind not in ("image", "video"):
        raise CorpusFormatError(f"expected an image or video record, got kind {kind!r}")
    fields = json_fields(rec, VIDEO_KINDS if kind == "video" else IMAGE_KINDS, f"{kind} record",
                         OPTIONAL_KEYS)
    count = fields.get("steps", 1)
    if not 1 <= count <= len(table) - row:
        raise CorpusFormatError(f"needs {count} payload rows, but 1 to {len(table) - row} are left")
    if kind == "image":
        return kind, WebImage(fields["id"], fields["label"], table[row], fields["relevant"])
    if fields["split"] not in SPLITS:
        raise CorpusFormatError(f"unknown split {fields['split']!r}")
    segments, weights = fields["gt_segments"], fields["laf_weights"]
    return fields["split"], VideoSequence(
        fields["id"], fields["label"], table[row:row + count],
        gt_segments=None if segments is None else tuple(map(_interval, segments)),
        laf_weights=None if weights is None else json_floats(weights, "laf_weights"))


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file once; an error names the offending line or the payload."""
    data = Path(path).read_bytes()
    if not data:
        raise CorpusFormatError(f"{path}: no records")
    starts, header = [0], {"records": 0}  # where each text line starts, then the payload
    while len(starts) < header["records"] + 2:
        end = data.find(b"\n", starts[-1])
        if end < 0:
            raise CorpusFormatError(f"line {len(starts)}: missing; the file ends before it")
        if len(starts) == 1:
            header = _parse_header(json_line(data[:end], 1))
        starts.append(end + 1)
    size, rows = len(data) - starts[-1], header["rows"]  # of the payload
    width, extra = divmod(size, 8 * rows) if rows else (1, size)
    if extra or width < 1:
        raise CorpusFormatError(f"payload: {size} bytes are not {rows} rows of float64 values")
    if hashlib.sha256(memoryview(data)[starts[-1]:]).hexdigest() != header["sha256"]:
        raise CorpusFormatError("payload: its sha256 does not match the header's")
    table, row = np.frombuffer(data, "<f8", rows * width, starts[-1]).reshape(rows, width), 0
    groups: dict[str, list] = {"image": [], **{split: [] for split in SPLITS}}
    for line_no in range(2, len(starts)):
        rec = json_line(data[starts[line_no - 1]:starts[line_no] - 1], line_no)
        try:
            group, record = _parse_record(rec, table, row)
        except ValidationError as exc:
            raise type(exc)(f"line {line_no}: {exc}") from exc
        groups[group].append((line_no, record))
        row += 1 if group == "image" else record.num_steps
    if row != rows:
        raise CorpusFormatError(f"payload: {rows} rows, but the records use {row}")
    return Corpus(header["num_labels"], header["feature_dim"],
                  *(tuple(record for _, record in group) for group in groups.values()),
                  lines=[line_no for group in groups.values() for line_no, _ in group])


def _image_record(img: WebImage) -> dict:
    rec = {"kind": "image", "id": img.id, "label": int(img.label)}
    return rec if img.relevant is None else {**rec, "relevant": bool(img.relevant)}


def _video_record(vid: VideoSequence, split: str) -> dict:
    rec = {"kind": "video", "split": split, "id": vid.id, "label": int(vid.label),
           "steps": vid.num_steps}
    if vid.gt_segments is not None:
        rec["gt_segments"] = [[seg.start, seg.end] for seg in vid.gt_segments]
    if vid.laf_weights is not None:
        rec["laf_weights"] = [float(w) for w in vid.laf_weights]
    return rec


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus atomically; round-trips bit-exactly through load_corpus.

    The payload is streamed block by block (the stacked image features, then
    each video's frames) into both the digest and the file, never copied whole.
    """
    videos = [(split, vid) for split in SPLITS for vid in getattr(corpus, f"{split}_videos")]
    records = [_image_record(img) for img in corpus.images] + \
        [_video_record(vid, split) for split, vid in videos]
    images = np.array([img.feature for img in corpus.images], "<f8").reshape(-1, corpus.feature_dim)
    blocks = [images, *(np.ascontiguousarray(vid.frames, "<f8") for _, vid in videos)]
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION, "num_labels": corpus.num_labels,
              "feature_dim": corpus.feature_dim, "records": len(records),
              "rows": sum(map(len, blocks)), "sha256": digest.hexdigest()}
    text = "\n".join(json.dumps(rec, separators=(",", ":")) for rec in (header, *records)).encode()
    atomic_write_bytes(path, [text + b" " * (-(len(text) + 1) % 8) + b"\n", *blocks])


def with_laf_weights(corpus: Corpus, weights: dict[str, np.ndarray]) -> Corpus:
    """Return a copy of the corpus with laf_weights set on every train video."""
    missing = [v.id for v in corpus.train_videos if v.id not in weights]
    if missing:
        raise ValidationError(f"missing LAF weights for train videos: {missing[:5]}")
    train = tuple(dataclasses.replace(v, laf_weights=weights[v.id]) for v in corpus.train_videos)
    return dataclasses.replace(corpus, train_videos=train)
