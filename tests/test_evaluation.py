import itertools

import numpy as np
import pytest

from laf.corpus import Interval, VideoSequence
from laf.errors import ValidationError
from laf.evaluation import EvalConfig, average_precision, evaluate, ground_truth_by_label, hit_at_k
from laf.localization import Detection, DetectionTable

from conftest import MULTI_VIDEO_IDS, make_video, multi_video_detections, true_label_scores
from oracles import brute_force_average_precision


def det(start, end, score, label=0, video="v"):
    return Detection(video_id=video, label=label, interval=Interval(start, end), score=score)


# --- hit@k ------------------------------------------------------------------

def test_hit_at_one_perfect():
    scores = np.eye(4) + 0.01
    labels = np.arange(4)
    assert hit_at_k(scores, labels, 1) == 1.0


def test_hit_at_k_saturates_at_num_labels(rng):
    scores = rng.random((12, 6))
    labels = rng.integers(0, 6, 12)
    assert hit_at_k(scores, labels, 6) == 1.0


def test_hit_at_k_tie_break_prefers_lower_label():
    scores = np.zeros((2, 5))  # all ties: top-k is (0, 1, ..., k-1)
    assert hit_at_k(scores, np.array([0, 1]), 1) == 0.5
    assert hit_at_k(scores, np.array([0, 1]), 2) == 1.0
    assert hit_at_k(scores, np.array([4, 4]), 4) == 0.0


def test_hit_at_k_input_validation():
    with pytest.raises(ValidationError):
        hit_at_k(np.zeros((0, 3)), np.zeros(0, dtype=int), 1)
    with pytest.raises(ValidationError):
        hit_at_k(np.zeros((2, 3)), np.zeros(2, dtype=int), 4)


def test_hit_at_k_random_scores_match_chance_rate():
    rng = np.random.default_rng(0)
    scores = rng.random((20000, 240))
    labels = rng.integers(0, 240, 20000)
    assert abs(hit_at_k(scores, labels, 1) - 1 / 240) < 0.002
    assert abs(hit_at_k(scores, labels, 5) - 5 / 240) < 0.004


# --- average precision ------------------------------------------------------

def test_single_detection_above_ratio_scores_one():
    gt = {"v": [Interval(0, 10)]}
    assert average_precision([det(2, 12, 0.9)], gt, 0.5) == 1.0  # IoU = 8/14 ... > 05


def test_single_detection_below_ratio_scores_zero():
    gt = {"v": [Interval(0, 10)]}
    assert average_precision([det(6, 16, 0.9)], gt, 0.5) == 0.0  # IoU = 4/16 = 0.25


def test_boundary_iou_equal_to_ratio_is_a_false_positive():
    # strict "over some ratio": IoU exactly 0.5 does not match at r = 0.5
    gt = {"v": [Interval(0, 5)]}
    assert average_precision([det(0, 10, 1.0)], gt, 0.5) == 0.0
    assert average_precision([det(0, 10, 1.0)], gt, 0.49) == 1.0


def test_fp_then_tp_gives_half():
    gt = {"v": [Interval(0, 10)]}
    detections = [det(20, 30, 0.9), det(1, 11, 0.5)]  # rank-1 FP, rank-2 TP
    assert average_precision(detections, gt, 0.5) == 0.5


def test_duplicate_detections_of_one_segment_count_as_fp():
    gt = {"v": [Interval(0, 10)]}
    detections = [det(0, 10, 0.9), det(0, 10, 0.8)]
    assert average_precision(detections, gt, 0.5) == 1.0  # second one is an FP after the match
    # reversed scores: the better-ranked copy still takes the segment
    detections = [det(0, 10, 0.8), det(0, 10, 0.9)]
    assert average_precision(detections, gt, 0.5) == 1.0


def test_best_iou_segment_is_consumed():
    gt = {"v": [Interval(0, 10), Interval(8, 18)]}
    # the detection overlaps both; it must take the higher-IoU one, leaving
    # the other for the weaker detection
    detections = [det(7, 17, 0.9), det(0, 10, 0.5)]
    assert average_precision(detections, gt, 0.3) == 1.0


def test_zero_ground_truth_is_undefined():
    with pytest.raises(ValidationError, match="undefined"):
        average_precision([det(0, 5, 1.0)], {}, 0.5)


def test_no_detections_scores_zero():
    assert average_precision([], {"v": [Interval(0, 5)]}, 0.5) == 0.0


def test_ap_invariant_under_monotone_score_transforms(rng):
    gt = {"v": [Interval(0, 10), Interval(15, 25)], "w": [Interval(3, 9)]}
    detections = [det(int(s), int(s) + int(l), float(score), video=video)
                  for s, l, score, video in zip(rng.integers(0, 20, 12), rng.integers(2, 12, 12),
                                                rng.random(12), rng.choice(["v", "w"], 12))]
    base = average_precision(detections, gt, 0.3)
    for transform in (lambda x: 2 * x + 1, np.exp, lambda x: x ** 3):
        mapped = [Detection(d.video_id, d.label, d.interval, float(transform(d.score)))
                  for d in detections]
        assert average_precision(mapped, gt, 0.3) == pytest.approx(base, abs=1e-12)


def test_ap_matches_brute_force_on_exhaustive_small_family():
    starts = [0, 2, 4]
    lengths = [2, 4]
    segments = [Interval(s, s + l) for s, l in itertools.product(starts, lengths)]
    rng = np.random.default_rng(7)
    checked = 0
    for gt_count in (1, 2):
        for gt_segs in itertools.combinations(segments, gt_count):
            for det_count in (0, 1, 2, 3):
                for _ in range(3):
                    detections = [
                        det(int(s), int(s) + int(l), float(rng.choice([0.2, 0.5, 0.5, 0.8])))
                        for s, l in zip(rng.integers(0, 6, det_count), rng.integers(1, 6, det_count))
                    ]
                    gt = {"v": list(gt_segs)}
                    for ratio in (0.2, 0.5):
                        expected = brute_force_average_precision(detections, gt, ratio)
                        assert average_precision(detections, gt, ratio) == pytest.approx(expected, abs=1e-12)
                        checked += 1
    assert checked > 500


def random_segments(rng, count):
    return [Interval(int(s), int(s + n)) for s, n in zip(rng.integers(0, 3, count),
                                                         rng.integers(1, 5, count))]


def test_ap_matches_brute_force_on_tied_detections_of_several_videos():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        detections = multi_video_detections(rng, int(rng.integers(3, 10)))
        gt = {vid: random_segments(rng, int(count))
              for vid, count in zip(MULTI_VIDEO_IDS, rng.integers(0, 3, 3))}
        if not any(gt.values()):
            continue
        for ratio in (0.1, 0.4):
            expected = brute_force_average_precision(detections, gt, ratio)
            assert average_precision(detections, gt, ratio) == pytest.approx(expected, abs=1e-12)
            checked += 1
    assert checked > 400


def test_evaluate_per_label_ap_matches_brute_force_on_several_videos():
    rng = np.random.default_rng(12)
    config = EvalConfig(hit_ks=(1,), overlap_ratios=(0.1, 0.4))
    for _ in range(60):
        videos = [VideoSequence(vid, int(label), np.zeros((6, 1)),
                                gt_segments=tuple(random_segments(rng, int(rng.integers(1, 3)))))
                  for vid, label in zip(MULTI_VIDEO_IDS, rng.integers(0, 2, 3))]
        detections = multi_video_detections(rng, int(rng.integers(3, 12)), labels=2)
        report = evaluate(DetectionTable.of(detections), videos, config, 2,
                          true_label_scores(videos, 2))
        labels = sorted({video.label for video in videos})
        assert list(report["per_label_ap"]) == [str(label) for label in labels]
        for label in labels:
            gt = {video.id: list(video.gt_segments) for video in videos if video.label == label}
            ours = [d for d in detections if d.label == label]
            for ratio in config.overlap_ratios:
                expected = brute_force_average_precision(ours, gt, ratio)
                assert report["per_label_ap"][str(label)][format(ratio, "g")] == \
                    pytest.approx(expected, abs=1e-12)


def test_ap_is_one_exactly_when_all_segments_match_before_any_fp():
    gt = {"v": [Interval(0, 10), Interval(20, 30)]}
    # both segments matched, no false positive outranks a true positive
    assert average_precision([det(0, 10, 0.9), det(20, 30, 0.8)], gt, 0.5) == 1.0
    # trailing false positives do not reduce AP
    assert average_precision([det(0, 10, 0.9), det(20, 30, 0.8), det(40, 50, 0.1)],
                             gt, 0.5) == 1.0
    # a false positive above a true positive caps AP below 1
    assert average_precision([det(40, 50, 0.95), det(0, 10, 0.9), det(20, 30, 0.8)],
                             gt, 0.5) < 1.0
    # an unmatched segment caps AP below 1 even with a clean ranking
    assert average_precision([det(0, 10, 0.9)], gt, 0.5) < 1.0


# --- mean AP ----------------------------------------------------------------

def map_at_half(detections, videos, num_labels=2):
    return evaluate(DetectionTable.of(detections), videos,
                    EvalConfig(hit_ks=(1,), overlap_ratios=(0.5,)), num_labels,
                    true_label_scores(videos, num_labels))["map_at"]["0.5"]


def test_map_of_a_single_label_equals_its_ap():
    videos = [make_video(0, 0, np.zeros((30, 2)), split="test", gt=[(0, 10)])]
    detections = [det(0, 10, 0.9, video=videos[0].id), det(20, 30, 0.8, video=videos[0].id)]
    assert map_at_half(detections, videos) == 1.0
    detections = [det(20, 30, 0.9, video=videos[0].id), det(1, 11, 0.5, video=videos[0].id)]
    assert map_at_half(detections, videos) == average_precision(
        detections, ground_truth_by_label(videos)[0], 0.5) == 0.5


def test_map_averages_labels():
    videos = [make_video(0, 0, np.zeros((30, 2)), split="test", gt=[(0, 10)]),
              make_video(1, 1, np.zeros((30, 2)), split="test", gt=[(20, 30)])]
    assert map_at_half([det(0, 10, 1.0, label=0, video=videos[0].id)], videos) == 0.5


def test_map_excludes_labels_without_ground_truth():
    videos = [make_video(0, 0, np.zeros((30, 2)), split="test", gt=[(0, 10)]),
              make_video(1, 1, np.zeros((30, 2)), split="test")]
    detections = [det(0, 10, 1.0, label=0, video=videos[0].id),
                  det(0, 5, 1.0, label=1, video=videos[1].id)]
    assert map_at_half(detections, videos) == 1.0


# --- report assembly --------------------------------------------------------

def eval_videos():
    return [make_video(0, 0, np.zeros((12, 2)), split="test", gt=[(0, 6)]),
            make_video(1, 1, np.zeros((12, 2)), split="test", gt=[(4, 10)])]


def test_report_keys_match_config():
    videos = eval_videos()
    config = EvalConfig(hit_ks=(1, 2), overlap_ratios=(0.1, 0.25))
    report = evaluate(DetectionTable.of([]), videos, config, 2, true_label_scores(videos, 2))
    assert list(report["hit_at"]) == ["1", "2"]
    assert list(report["map_at"]) == ["0.1", "0.25"]
    assert set(report["per_label_ap"]) == {"0", "1"}
    assert all(value == 0.0 for value in report["map_at"].values())


def test_perfect_detections_give_full_map():
    videos = eval_videos()
    detections = [det(0, 6, 1.0, label=0, video=videos[0].id),
                  det(4, 10, 1.0, label=1, video=videos[1].id)]
    report = evaluate(DetectionTable.of(detections), videos, EvalConfig(hit_ks=(1, 2)), 2,
                      true_label_scores(videos, 2))
    assert all(value == 1.0 for value in report["map_at"].values())


def test_unknown_video_id_rejected():
    cases = [([det(0, 5, 1.0, video="nope")], "detection references unknown video id 'nope'"),
             ([det(0, 5, 1.0, label=2, video="test-1")],
              "detection label 2 on 'test-1' outside [0, 2)"),
             ([det(0, 5, 1.0, video="test-0"), det(4, 13, 0.5, label=1, video="test-1"),
               det(0, 5, 1.0, video="nope")], "detection [4, 13) exceeds the 12 steps of 'test-1'")]
    videos = eval_videos()
    for detections, message in cases:  # the first bad row names the error
        with pytest.raises(ValidationError) as info:
            evaluate(DetectionTable.of(detections), videos, EvalConfig(), 2,
                     true_label_scores(videos, 2))
        assert str(info.value) == message


def test_hit_at_k_uses_provided_fusion_scores():
    videos = eval_videos()
    scores = {videos[0].id: np.array([0.9, 0.1]), videos[1].id: np.array([0.2, 0.8])}
    report = evaluate(DetectionTable.of([]), videos, EvalConfig(hit_ks=(1,)), 2, scores)
    assert report["hit_at"]["1"] == 1.0
    swapped = {videos[0].id: np.array([0.1, 0.9]), videos[1].id: np.array([0.8, 0.2])}
    report = evaluate(DetectionTable.of([]), videos, EvalConfig(hit_ks=(1,)), 2, swapped)
    assert report["hit_at"]["1"] == 0.0


def test_grouping_helpers():
    videos = eval_videos()
    gt = ground_truth_by_label(videos)
    assert set(gt) == {0, 1} and gt[0][videos[0].id] == [Interval(0, 6)]


def test_config_validation():
    with pytest.raises(ValidationError):
        EvalConfig(hit_ks=())
    with pytest.raises(ValidationError):
        EvalConfig(overlap_ratios=(0.0,))
