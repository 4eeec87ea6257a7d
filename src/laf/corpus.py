"""Domain types and JSON Lines (de)serialization for corpora.

A corpus holds a web-image pool with noisy action labels plus weakly-labeled
video sequences split into train / validation / test. Frames and images are
opaque fixed-dimension float64 feature vectors; one video step is one sampled
frame. Labels are integer indices in ``[0, num_labels)``.

File format (one JSON object per line):

    {"format": "laf-corpus", "version": 1, "num_labels": N, "feature_dim": d}
    {"kind": "image", "id": ..., "label": ..., "feature": "<base64 f64le>"[, "relevant": bool]}
    {"kind": "video", "split": "train|validation|test", "id": ..., "label": ...,
     "frames": ["<base64 f64le>", ...][, "gt_segments": [[s, e], ...]][, "laf_weights": [...]]}

Feature values are base64-encoded IEEE-754 64-bit little-endian arrays, so a
save/load round trip is bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import CorpusFormatError, ValidationError
from .ioutil import (atomic_write_text, decode_f64, decode_f64_rows, encode_f64, json_fields,
                     json_floats, json_value, read_json_lines)

CORPUS_FORMAT = "laf-corpus"
CORPUS_VERSION = 1
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
    ``feature_dim`` values, and video ids are unique across the splits."""

    num_labels: int
    feature_dim: int
    images: tuple[WebImage, ...]
    train_videos: tuple[VideoSequence, ...]
    validation_videos: tuple[VideoSequence, ...]
    test_videos: tuple[VideoSequence, ...]

    def __post_init__(self):
        if self.num_labels < 1 or self.feature_dim < 1:
            raise ValidationError(f"corpus needs num_labels >= 1 and feature_dim >= 1, "
                                  f"got {self.num_labels} and {self.feature_dim}")
        video_ids: set[str] = set()
        for record in (*self.images, *self.all_videos):
            self.check_member(record, video_ids)

    @property
    def all_videos(self) -> tuple[VideoSequence, ...]:
        return self.train_videos + self.validation_videos + self.test_videos

    def check_member(self, record: WebImage | VideoSequence, video_ids: set[str]) -> None:
        """Check one record's label and width against the corpus; ``video_ids``
        holds the ids of the videos checked before it and gains this one."""
        is_video = isinstance(record, VideoSequence)
        where = f"{'video' if is_video else 'image'} {record.id!r}"
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


HEADER_KINDS = {"format": str, "version": int, "num_labels": int, "feature_dim": int}
IMAGE_KINDS = {"id": str, "label": int, "feature": str, "relevant": bool}
VIDEO_KINDS = {"split": str, "id": str, "label": int, "frames": list, "gt_segments": list,
               "laf_weights": list}
OPTIONAL_KEYS = ("relevant", "gt_segments", "laf_weights")


def _parse_header(rec) -> Corpus:
    header = json_fields(rec, HEADER_KINDS, "header")
    if header["format"] != CORPUS_FORMAT or header["version"] != CORPUS_VERSION:
        raise CorpusFormatError(f"expected a {CORPUS_FORMAT!r} version {CORPUS_VERSION} header")
    return Corpus(header["num_labels"], header["feature_dim"], (), (), (), ())


def _interval(pair) -> Interval:
    if type(pair) is not list or len(pair) != 2:
        raise CorpusFormatError(f"gt segment {pair!r} is not a [start, end] pair")
    return Interval(*(json_value(v, int, f"gt segment {pair!r}") for v in pair))


def _parse_record(rec) -> tuple[str, WebImage | VideoSequence]:
    """("image", image) or (split, video) from one parsed record line."""
    kind = rec.get("kind") if isinstance(rec, dict) else None
    if kind == "image":
        image = json_fields(rec, IMAGE_KINDS, "image record", OPTIONAL_KEYS)
        return kind, WebImage(image["id"], image["label"], decode_f64(image["feature"], "feature"),
                              image["relevant"])
    if kind != "video":
        raise CorpusFormatError(f"expected an image or video record, got kind {kind!r}")
    video = json_fields(rec, VIDEO_KINDS, "video record", OPTIONAL_KEYS)
    if video["split"] not in SPLITS:
        raise CorpusFormatError(f"unknown split {video['split']!r}")
    segments, weights = video["gt_segments"], video["laf_weights"]
    return video["split"], VideoSequence(
        video["id"], video["label"], decode_f64_rows(video["frames"], "frames"),
        gt_segments=None if segments is None else tuple(map(_interval, segments)),
        laf_weights=None if weights is None else json_floats(weights, "laf_weights"))


def load_corpus(path: str | Path) -> Corpus:
    """Parse a corpus file; raises with the offending line number on bad input."""
    header: Corpus | None = None
    video_ids: set[str] = set()
    records: dict[str, list] = {"image": [], **{split: [] for split in SPLITS}}
    for line_no, rec in read_json_lines(path):
        try:
            if header is None:
                header = _parse_header(rec)
            else:
                group, record = _parse_record(rec)
                header.check_member(record, video_ids)
                records[group].append(record)
        except ValidationError as exc:
            raise type(exc)(f"line {line_no}: {exc}") from exc
    if header is None:
        raise ValidationError(f"{path}: no records")
    return Corpus(header.num_labels, header.feature_dim, tuple(records["image"]),
                  *(tuple(records[split]) for split in SPLITS))


def _image_record(img: WebImage) -> dict:
    rec = {"kind": "image", "id": img.id, "label": int(img.label), "feature": encode_f64(img.feature)}
    if img.relevant is not None:
        rec["relevant"] = bool(img.relevant)
    return rec


def _video_record(vid: VideoSequence, split: str) -> dict:
    rec = {
        "kind": "video",
        "split": split,
        "id": vid.id,
        "label": int(vid.label),
        "frames": [encode_f64(frame) for frame in vid.frames],
    }
    if vid.gt_segments is not None:
        rec["gt_segments"] = [[seg.start, seg.end] for seg in vid.gt_segments]
    if vid.laf_weights is not None:
        rec["laf_weights"] = [float(w) for w in vid.laf_weights]
    return rec


def corpus_lines(corpus: Corpus) -> Iterable[str]:
    dump = lambda obj: json.dumps(obj, separators=(",", ":"))
    yield dump({"format": CORPUS_FORMAT, "version": CORPUS_VERSION,
                "num_labels": corpus.num_labels, "feature_dim": corpus.feature_dim})
    for img in corpus.images:
        yield dump(_image_record(img))
    for split in SPLITS:
        for vid in getattr(corpus, f"{split}_videos"):
            yield dump(_video_record(vid, split))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus atomically; round-trips bit-exactly through load_corpus."""
    atomic_write_text(path, "\n".join(corpus_lines(corpus)) + "\n")


def with_laf_weights(corpus: Corpus, weights: dict[str, np.ndarray]) -> Corpus:
    """Return a copy of the corpus with laf_weights set on every train video."""
    missing = [v.id for v in corpus.train_videos if v.id not in weights]
    if missing:
        raise ValidationError(f"missing LAF weights for train videos: {missing[:5]}")
    train = tuple(dataclasses.replace(v, laf_weights=weights[v.id]) for v in corpus.train_videos)
    return dataclasses.replace(corpus, train_videos=train)
