import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laf import localization
from laf.corpus import Interval
from laf.errors import ValidationError
from laf.localization import (DETECTION_CHUNK, Detection, DetectionTable, LocalizationConfig,
                              classify_video, detection_rank, load_detection_lines,
                              load_detections, localize, localize_videos, save_detections,
                              sliding_window_scores, temporal_iou, temporal_nms)
from laf.lstm import LstmTrainConfig, lstm_forward, train_lstm
from laf.synth import SynthSpec, generate_corpus

from conftest import multi_video_detections, table_rows, traced_peak
from oracles import brute_force_nms, reference_grouped_probs, reference_inference_groups


def det(start, end, score, label=0, video="v"):
    return Detection(video_id=video, label=label, interval=Interval(start, end), score=score)


def iou(a, b):
    return temporal_iou(a.start, a.end, b.start, b.end)


def of_label(table, label):
    """One label's rows of a detection table as Detections, best first."""
    return [d for d in table_rows(table.take(detection_rank(table))) if d.label == label]


# --- average fusion ---------------------------------------------------------

def test_classify_video_constant_rows():
    probs = np.tile([0.2, 0.5, 0.3], (6, 1))
    np.testing.assert_allclose(classify_video(probs), [0.2, 0.5, 0.3])


def test_classify_video_mean():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(classify_video(probs), [0.5, 0.5])


def test_classify_video_keeps_normalization(rng):
    probs = rng.dirichlet(np.ones(4), size=9)
    assert classify_video(probs).sum() == pytest.approx(1.0, abs=1e-12)


def test_classify_video_permutation_invariant(rng):
    probs = rng.dirichlet(np.ones(3), size=7)
    shuffled = probs[rng.permutation(7)]
    np.testing.assert_allclose(classify_video(probs), classify_video(shuffled), atol=1e-15)


# --- sliding windows --------------------------------------------------------

def window_intervals(starts, ends):
    return [Interval(int(s), int(e)) for s, e in zip(starts, ends)]


def test_single_window_when_length_matches():
    probs = np.random.default_rng(0).dirichlet(np.ones(3), size=10)
    starts, ends, means = sliding_window_scores(probs, window_len=10)
    assert window_intervals(starts, ends) == [Interval(0, 10)]
    assert means.shape == (1, 3)
    np.testing.assert_allclose(means[0], probs.mean(axis=0))


def test_window_start_positions():
    probs = np.ones((12, 2)) / 2
    starts, _, _ = sliding_window_scores(probs, window_len=10, window_stride=1)
    assert starts.tolist() == [0, 1, 2]
    starts, ends, means = sliding_window_scores(np.ones((25, 2)) / 2, window_len=10,
                                                window_stride=5)
    assert window_intervals(starts, ends) == [Interval(0, 10), Interval(5, 15), Interval(10, 20),
                                              Interval(15, 25)]
    assert means.shape == (4, 2)


def test_short_video_yields_whole_video_window():
    probs = np.random.default_rng(1).dirichlet(np.ones(2), size=5)
    starts, ends, means = sliding_window_scores(probs, window_len=10)
    assert window_intervals(starts, ends) == [Interval(0, 5)]
    assert means.shape == (1, 2)
    np.testing.assert_allclose(means[0], probs.mean(axis=0))


@pytest.mark.parametrize("steps,labels,window_len,stride", [
    (1000, 240, 10, 1), (1000, 240, 10, 3), (97, 13, 10, 4), (40, 5, 14, 2), (30, 4, 1, 1),
    (7, 3, 10, 1), (1, 6, 10, 3), (12, 2, 12, 5)])
def test_window_means_are_bitwise_the_per_slice_means(steps, labels, window_len, stride):
    probs = np.random.default_rng(steps + labels).dirichlet(np.ones(labels), size=steps)
    starts, ends, means = sliding_window_scores(probs, window_len, stride)
    assert np.array_equal(means, np.array([probs[s:e].mean(axis=0) for s, e in zip(starts, ends)]))
    length = min(window_len, steps)
    assert starts.tolist() == list(range(0, steps - length + 1, stride))
    assert np.array_equal(ends, starts + length)


def test_window_means_allocate_no_window_copy():
    probs = np.random.default_rng(2).dirichlet(np.ones(240), size=1000)
    _, peak = traced_peak(lambda: sliding_window_scores(probs, window_len=10, window_stride=1))
    # the (991, 240) means are 1.9 MB; a copied (991, 240, 10) window array is 19 MB
    assert peak < 4e6


# --- temporal IoU -----------------------------------------------------------

def test_iou_examples():
    assert iou(Interval(3, 9), Interval(3, 9)) == 1.0
    assert iou(Interval(0, 5), Interval(5, 10)) == 0.0
    assert iou(Interval(0, 10), Interval(5, 15)) == pytest.approx(1 / 3)
    # elementwise with broadcasting: each start/end pair against [5, 15)
    assert temporal_iou(np.array([0, 5, 20]), np.array([10, 15, 30]), 5, 15).tolist() == \
        [5 / 15, 1.0, 0.0]


intervals = st.tuples(st.integers(0, 30), st.integers(1, 10)).map(
    lambda p: Interval(p[0], p[0] + p[1]))


@given(intervals, intervals)
@settings(max_examples=200, deadline=None)
def test_iou_symmetric_bounded_and_identity(a, b):
    value = iou(a, b)
    assert value == iou(b, a)
    assert 0.0 <= value <= 1.0
    assert (value == 1.0) == (a == b)
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    assert value == inter / (a.length + b.length - inter)  # the exact integer ratio


# --- NMS --------------------------------------------------------------------

def test_nms_single_detection_kept():
    only = det(0, 10, 0.5)
    assert temporal_nms([only], 0.5) == [only]


def test_nms_worked_example():
    detections = [det(0, 10, 0.9), det(5, 15, 0.8), det(20, 30, 0.7)]
    kept = temporal_nms(detections, nms_overlap=0.3)
    # IoU((0,10),(5,15)) = 5/15 = 1/3 > 0.3 suppresses the middle window
    assert kept == [detections[0], detections[2]]


def test_nms_keeps_disjoint_detections(rng):
    detections = [det(i * 10, i * 10 + 5, float(rng.random())) for i in range(6)]
    for overlap in (0.0, 0.3, 0.9):
        assert sorted(temporal_nms(detections, overlap), key=lambda d: d.interval.start) == \
            sorted(detections, key=lambda d: d.interval.start)


def test_nms_tie_breaks_earlier_start_then_longer():
    ties = [det(4, 9, 0.5), det(2, 7, 0.5), det(2, 9, 0.5)]
    kept = temporal_nms(ties, nms_overlap=0.0)
    assert kept[0] == det(2, 9, 0.5)


def test_nms_rejects_mixed_labels():
    with pytest.raises(ValidationError):
        temporal_nms([det(0, 5, 1.0, label=0), det(0, 5, 0.9, label=1)], 0.5)


def test_nms_matches_brute_force_on_random_small_inputs():
    rng = np.random.default_rng(42)
    for _ in range(400):
        count = int(rng.integers(0, 13))
        detections = [det(int(s), int(s) + int(l), float(rng.choice([0.1, 0.25, 0.5, 0.5, 0.9])))
                      for s, l in zip(rng.integers(0, 12, count), rng.integers(1, 15, count))]
        overlap = float(rng.choice([0.0, 0.2, 0.5, 0.7, 0.8, 0.95]))
        assert temporal_nms(detections, overlap) == brute_force_nms(detections, overlap)


def test_nms_full_ties_keep_input_order():
    first, second = det(2, 7, 0.5, video="a"), det(2, 7, 0.5, video="b")
    assert temporal_nms([first, second], 0.5) == [first]
    assert temporal_nms([second, first], 0.5) == [second]


def test_localize_matches_brute_force_nms_on_every_label():
    rng = np.random.default_rng(10)
    for case in range(600):
        steps, labels = int(rng.integers(1, 60)), int(rng.integers(1, 5))
        # odd cases: quantized scores, so most windows tie with several others
        probs = rng.random((steps, labels))
        if case % 2:
            probs = np.round(probs * 4) / 4
        config = LocalizationConfig(window_len=int(rng.integers(1, 15)),
                                    window_stride=int(rng.integers(1, 4)),
                                    nms_overlap=float(rng.choice([0.0, 0.2, 0.5, 0.7, 0.95])))
        result = localize("v", probs, config)
        length = min(config.window_len, steps)
        for label in range(labels):
            candidates = [det(s, s + length, float(probs[s:s + length].mean(axis=0)[label]),
                              label=label)
                          for s in range(0, steps - length + 1, config.window_stride)]
            assert of_label(result, label) == brute_force_nms(candidates, config.nms_overlap), case
        assert len(result) == sum(len(of_label(result, label)) for label in range(labels))
        assert np.array_equal(detection_rank(result), np.arange(len(result))), case


def test_nms_neighbour_graph_memory_is_banded():
    probs = np.random.default_rng(5).random((100_000, 2))
    kept, peak = traced_peak(
        lambda: localize("v", probs, LocalizationConfig(window_len=10, nms_overlap=0.5)))
    # W = 99,991 windows: a W x W boolean matrix alone would take 10 GB; the band
    # graph holds at most 18 neighbours per window
    assert peak < 64e6
    assert 0 < len(kept) < 2 * 99_991


def test_nms_output_is_an_antichain(rng):
    detections = [det(int(s), int(s) + int(l), float(rng.random()))
                  for s, l in zip(rng.integers(0, 40, 25), rng.integers(1, 15, 25))]
    for overlap in (0.1, 0.5):
        kept = temporal_nms(detections, overlap)
        for a, b in itertools.combinations(kept, 2):
            assert iou(a.interval, b.interval) <= overlap
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)


# --- end-to-end localization ------------------------------------------------

import functools


@functools.lru_cache(maxsize=2)
def trained_localizer(seed=0):
    spec = SynthSpec(num_activities=1, actions_per_activity=2, feature_dim=8,
                     train_videos_per_action=10, validation_videos_per_action=1,
                     test_videos_per_action=4, frames_per_video=(30, 40),
                     action_segment_fraction=0.3, images_per_action=1,
                     image_noise_fraction=0.0, mode_separation=6.0, seed=seed)
    corpus = generate_corpus(spec)
    # oracle weighting: only segment steps carry loss, so segment frames
    # dominate the trained model's responses
    videos = []
    for video in corpus.train_videos:
        weights = np.zeros(video.num_steps)
        (segment,) = video.gt_segments
        weights[segment.start:segment.end] = 1.0
        videos.append(dataclasses.replace(video, laf_weights=weights))
    config = LstmTrainConfig(num_cells=12, proj_dim=6, unroll_k=20, learning_rate=0.1,
                             lr_decay=1.0, batch_size=12, epochs=8, seed=seed)
    model, _ = train_lstm(videos, config, corpus.num_labels, corpus.feature_dim)
    return corpus, model


def localize_video(model, video, config):
    _, probs, _ = lstm_forward(model, video.frames)
    return localize(video.id, probs, config)


def test_localize_single_window_video():
    corpus, model = trained_localizer()
    video = corpus.test_videos[0]
    short = dataclasses.replace(video, frames=video.frames[:10], gt_segments=None)
    result = localize_video(model, short, LocalizationConfig(window_len=10))
    assert len(result) == 2
    for label in (0, 1):
        (only,) = of_label(result, label)
        assert only.interval == Interval(0, 10) and only.video_id == short.id


def test_localize_finds_planted_segment():
    corpus, model = trained_localizer()
    hits = 0
    for video in corpus.test_videos:
        top = of_label(localize_video(model, video, LocalizationConfig()), video.label)[0]
        (segment,) = video.gt_segments
        hits += iou(top.interval, segment) >= 0.5
    assert hits >= 3  # of 8 test videos


def test_localize_is_deterministic():
    corpus, model = trained_localizer()
    video = corpus.test_videos[0]
    config = LocalizationConfig()
    assert table_rows(localize_video(model, video, config)) == \
        table_rows(localize_video(model, video, config))


def test_localize_depends_on_frame_order():
    corpus, model = trained_localizer()
    video = corpus.test_videos[0]
    reversed_video = dataclasses.replace(video, frames=video.frames[::-1].copy(),
                                         gt_segments=None)
    config = LocalizationConfig()
    assert table_rows(localize_video(model, video, config)) != \
        table_rows(localize_video(model, reversed_video, config))


def test_localize_rejects_dim_mismatch():
    corpus, model = trained_localizer()
    video = corpus.test_videos[0]
    bad = dataclasses.replace(video, frames=np.zeros((12, model.input_dim + 1)))
    with pytest.raises(ValidationError):
        localize_videos(model, [bad], LocalizationConfig())


# --- detections file --------------------------------------------------------

RANK_KEYS = ("label", "score", "video", "start")


@st.composite
def detection_tables(draw):
    """Up to 40 rows over three videos, every key drawn from a few values so that each
    ties often, scores 0.0 and -0.0 among them; some tables come sorted on all rank
    keys but one, the rest in drawn order."""
    size = draw(st.integers(0, 40))

    def column(values, dtype=np.int64):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=size, max_size=size)),
                        dtype=dtype)

    video, label, start, score = column([0, 1, 2]), column([0, 1, 2]), column([0, 1, 2, 3]), \
        column([0.0, -0.0, 0.5, 1.0], np.float64)
    table = DetectionTable(("a", "b", "c"), video, label, start, start + 1, score)
    keys = dict(label=table.label, score=-table.score, video=table.video, start=table.start)
    dropped = draw(st.sampled_from([None, *RANK_KEYS]))
    if dropped is None:
        return table
    return table.take(np.lexsort([keys[k] for k in RANK_KEYS[::-1] if k != dropped]))


@given(detection_tables())
@settings(max_examples=300, deadline=None)
def test_detection_rank_is_the_stable_lexsort_and_the_identity_on_ranked_tables(table):
    expected = np.lexsort((table.start, table.video, -table.score, table.label))
    assert np.array_equal(detection_rank(table), expected)
    assert np.array_equal(detection_rank(table.take(expected)), np.arange(len(table)))


def test_detection_with_numpy_integer_bounds_saves_and_loads_equal(tmp_path):
    start, label = np.random.default_rng(3).integers(0, 50, size=2)
    detection = Detection("v0", int(label), Interval(start, start + 10), 0.5)
    assert type(detection.interval.start) is int and type(detection.interval.end) is int
    path = tmp_path / "det.jsonl"
    save_detections(DetectionTable.of([detection]), path)
    assert table_rows(load_detections(path)) == [detection]


def test_detections_round_trip_and_ordering(tmp_path):
    detections = [det(0, 10, 0.5, label=1, video="b"), det(3, 9, 0.75, label=0, video="a"),
                  det(5, 15, 0.25, label=1, video="a")]
    path = tmp_path / "det.jsonl"
    save_detections(DetectionTable.of(detections), path)
    loaded = table_rows(load_detections(path))
    assert loaded == [det(3, 9, 0.75, label=0, video="a"), det(0, 10, 0.5, label=1, video="b"),
                      det(5, 15, 0.25, label=1, video="a")]
    labels = [d.label for d in loaded]
    assert labels == sorted(labels)


def test_round_trip_orders_tied_detections_of_several_videos_by_id(tmp_path):
    rng = np.random.default_rng(13)
    for case in range(40):
        detections = multi_video_detections(rng, int(rng.integers(3, 15)), labels=3)
        path = tmp_path / f"det{case}.jsonl"
        save_detections(DetectionTable.of(detections), path)
        assert table_rows(load_detections(path)) == sorted(
            detections, key=lambda d: (d.label, -d.score, d.video_id, d.interval.start))


def test_parse_at_once_reads_what_the_line_parser_reads(tmp_path, monkeypatch):
    path = tmp_path / "det.jsonl"
    many = b"".join(b'{"video_id":"c","label":%d,"start":%d,"end":%d,"score":%r}\n'
                    % (k % 7, k, k + 3, 1.0 / (k + 1)) for k in range(5000))  # two parses
    path.write_bytes(b'{"video_id":"b","label":1,"start":0,"end":10,"score":2}\r\n\r\n  \n'
                     b'{"video_id":"a\\u00e9","label":0,"start":3,"end":9,"score":0.75}\r\n'
                     b'{"score":-0.0,"end":4,"start":1,"label":0,"video_id":"b"}\n\n' + many)
    expected = load_detection_lines(path)
    assert table_rows(expected)[:3] == [det(0, 10, 2.0, label=1, video="b"),
                                        det(3, 9, 0.75, label=0, video="a\u00e9"),
                                        det(1, 4, -0.0, label=0, video="b")]
    monkeypatch.setattr("laf.localization.load_detection_lines", None)  # no line-parser fallback
    loaded = load_detections(path)
    assert len(loaded) == 5003
    assert loaded.videos == expected.videos
    for name in ("video", "label", "start", "end", "score"):
        got, want = getattr(loaded, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    assert np.signbit(loaded.score[:3]).tolist() == [False, False, True]
    assert type(loaded.score[0].item()) is float


def random_table(rng, count: int) -> DetectionTable:
    """``count`` detections over five ids that need JSON escapes, with tied scores."""
    ids = [f'v{k}"\u00e9' for k in range(5)]
    starts = rng.integers(0, 500, count)
    return DetectionTable.from_columns(rng.choice(ids, count).tolist(), rng.integers(0, 9, count),
                                       starts, starts + rng.integers(1, 20, count),
                                       np.round(rng.normal(size=count), 2) / 3)


def test_save_detections_writes_compact_json_lines_across_chunks(tmp_path):
    table = random_table(np.random.default_rng(29), 3 * DETECTION_CHUNK + 123)
    path = tmp_path / "det.jsonl"
    save_detections(table, path)
    ranked = sorted(table_rows(table),
                    key=lambda d: (d.label, -d.score, d.video_id, d.interval.start))
    expected = "".join(json.dumps({"video_id": d.video_id, "label": d.label,
                                   "start": d.interval.start, "end": d.interval.end,
                                   "score": d.score}, separators=(",", ":")) + "\n"
                       for d in ranked)
    assert path.read_bytes() == expected.encode("utf-8")
    save_detections(DetectionTable.of([]), path)
    assert path.read_bytes() == b"\n"


def test_save_detections_writes_each_chunk_as_it_is_encoded(tmp_path):
    # chunks all encoded before the first write cost ~1.15x the file; one chunk at a
    # time holds one chunk's lines, text and bytes, plus the rank
    table = random_table(np.random.default_rng(31), 60_000)
    path = tmp_path / "det.jsonl"
    _, peak = traced_peak(lambda: save_detections(table, path))
    assert peak < 0.5 * path.stat().st_size


def assert_same_table(a, b):
    assert a.videos == b.videos
    for name in ("video", "label", "start", "end", "score"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def check_grouped_inference(model, videos, config, budget):
    """``localize_videos`` equals plain grouped forwards exactly, in input order, and
    one-video forwards within 1e-12 relative; returns each forward call's lengths."""
    calls = []

    def forward(model, frames, *args, lengths=None, **kwargs):
        calls.append(list(lengths))
        return lstm_forward(model, frames, *args, lengths=lengths, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localization, "INFERENCE_ROWS", budget)
        patch.setattr(localization, "lstm_forward", forward)
        detections, fused = localize_videos(model, videos, config)
    grouped = reference_grouped_probs([v.frames for v in videos], budget,
                                      lambda frames, lengths: lstm_forward(
                                          model, frames, lengths=lengths)[1])
    single = [lstm_forward(model, v.frames)[1] for v in videos]
    assert list(fused) == [v.id for v in videos]
    for probs, rtol in ((grouped, 0.0), (single, 1e-12)):  # rtol 0: exactly equal
        expected = DetectionTable.concat([localize(v.id, p, config) for v, p in zip(videos, probs)])
        assert_same_table(detections, dataclasses.replace(expected, score=detections.score))
        np.testing.assert_allclose(detections.score, expected.score, rtol=rtol, atol=0)
        for video, p in zip(videos, probs):
            np.testing.assert_allclose(fused[video.id], classify_video(p), rtol=rtol, atol=0)
    return calls


@pytest.mark.parametrize("budget, count, groups", [(40, 0, 0), (20, 1, 1), (80, 8, 4), (20, 8, 8)])
def test_localize_videos_runs_one_forward_per_length_sorted_group(budget, count, groups):
    # the test videos run 30-40 steps: two fit in 80 rows, none in 20
    corpus, model = trained_localizer()
    videos = corpus.test_videos[:count]
    lengths = [v.num_steps for v in videos]
    calls = check_grouped_inference(model, videos, LocalizationConfig(), budget)
    assert calls == [[lengths[k] for k in group]
                     for group in reference_inference_groups(lengths, budget)]
    assert len(calls) == groups
    assert all(sum(call) <= budget or len(call) == 1 for call in calls)


def test_localize_videos_covers_every_test_video():
    corpus, model = trained_localizer()
    config = LocalizationConfig()
    calls = check_grouped_inference(model, corpus.test_videos, config, localization.INFERENCE_ROWS)
    assert calls == [sorted((v.num_steps for v in corpus.test_videos), reverse=True)]
    detections, _ = localize_videos(model, corpus.test_videos, config)
    assert {d.video_id for d in table_rows(detections)} == {v.id for v in corpus.test_videos}


def test_config_validation():
    with pytest.raises(ValidationError):
        LocalizationConfig(window_len=0)
    with pytest.raises(ValidationError):
        LocalizationConfig(nms_overlap=1.0)
