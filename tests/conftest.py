import json
import tracemalloc

import numpy as np
import pytest

from laf.corpus import Corpus, Interval, VideoSequence, WebImage
from laf.localization import Detection

# Video ids whose sorted order ("a" < "a\u00e9" < "b") reverses their first appearance.
MULTI_VIDEO_IDS = ("b", "a\u00e9", "a")


def table_rows(table) -> list[Detection]:
    """The rows of a detection table as :class:`Detection` objects, read from its columns."""
    ids = [table.videos[code] for code in table.video.tolist()]
    columns = (getattr(table, name).tolist() for name in ("label", "start", "end", "score"))
    return [Detection(vid, label, Interval(start, end), score)
            for vid, label, start, end, score in zip(ids, *columns)]


def true_label_scores(videos, num_labels) -> dict[str, np.ndarray]:
    """Video scores that rank each video's own label first, as ``evaluate`` takes them."""
    return {video.id: np.eye(num_labels)[video.label] for video in videos}


def traced_peak(fn):
    """``fn()``'s result and the peak memory ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_image(idx, label, feature, relevant=None):
    return WebImage(id=f"img-{idx}", label=label, feature=np.asarray(feature, dtype=np.float64),
                    relevant=relevant)


def make_video(idx, label, frames, split="train", gt=None, weights=None):
    return VideoSequence(
        id=f"{split}-{idx}",
        label=label,
        frames=np.asarray(frames, dtype=np.float64),
        gt_segments=tuple(Interval(s, e) for s, e in gt) if gt is not None else None,
        laf_weights=np.asarray(weights, dtype=np.float64) if weights is not None else None,
    )


def multi_video_detections(rng, count, labels=1):
    """``count`` >= 3 detections over MULTI_VIDEO_IDS, with scores and starts drawn from
    few values so that they tie across videos; the first three name the videos in turn."""
    videos = [*MULTI_VIDEO_IDS, *rng.choice(MULTI_VIDEO_IDS, count - 3).tolist()]
    return [Detection(video, int(label), Interval(int(start), int(start + length)), float(score))
            for video, label, start, length, score
            in zip(videos, rng.integers(0, labels, count), rng.integers(0, 3, count),
                   rng.integers(1, 5, count), rng.choice([0.3, 0.6], count))]


def random_corpus(rng, num_labels=3, dim=4, images=5, videos=2, max_steps=6,
                  with_optional=True):
    """Small corpus with randomized contents; optional fields on a coin flip."""
    imgs = []
    for i in range(images):
        relevant = bool(rng.random() < 0.5) if with_optional and rng.random() < 0.5 else None
        imgs.append(make_image(i, int(rng.integers(num_labels)), rng.normal(0, 1, dim), relevant))
    split_videos = {"train": [], "validation": [], "test": []}
    for split in split_videos:
        for i in range(videos):
            steps = int(rng.integers(1, max_steps + 1))
            gt = None
            weights = None
            if with_optional and rng.random() < 0.5:
                end = int(rng.integers(1, steps + 1))
                start = int(rng.integers(0, end))
                gt = [(start, end)]
            if split == "train" and with_optional and rng.random() < 0.5:
                weights = rng.uniform(0, 1, steps)
            split_videos[split].append(
                make_video(i, int(rng.integers(num_labels)), rng.normal(0, 1, (steps, dim)),
                           split=split, gt=gt, weights=weights))
    return Corpus(num_labels=num_labels, feature_dim=dim, images=tuple(imgs),
                  train_videos=tuple(split_videos["train"]),
                  validation_videos=tuple(split_videos["validation"]),
                  test_videos=tuple(split_videos["test"]))


def assert_videos_equal(a: VideoSequence, b: VideoSequence):
    assert a.id == b.id and a.label == b.label
    assert np.array_equal(a.frames, b.frames)
    assert a.gt_segments == b.gt_segments
    if a.laf_weights is None:
        assert b.laf_weights is None
    else:
        assert b.laf_weights is not None and np.array_equal(a.laf_weights, b.laf_weights)


def assert_corpora_equal(a: Corpus, b: Corpus):
    assert (a.num_labels, a.feature_dim) == (b.num_labels, b.feature_dim)
    assert len(a.images) == len(b.images)
    for x, y in zip(a.images, b.images):
        assert (x.id, x.label, x.relevant) == (y.id, y.label, y.relevant)
        assert np.array_equal(x.feature, y.feature)
    for split in ("train_videos", "validation_videos", "test_videos"):
        xs, ys = getattr(a, split), getattr(b, split)
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert_videos_equal(x, y)


def corpus_parts(path) -> tuple[list[bytes], bytes]:
    """A corpus file's text lines (header first) and its binary payload."""
    data = path.read_bytes()
    records = json.loads(data[:data.index(b"\n")])["records"]
    *lines, payload = data.split(b"\n", records + 1)
    return lines, payload


def edit_corpus_lines(path, edit) -> None:
    """Replace a corpus file's text lines by ``edit(lines)``; the payload stays as is."""
    lines, payload = corpus_parts(path)
    path.write_bytes(b"\n".join([*edit(lines), payload]))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
