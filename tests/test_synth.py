import dataclasses

import numpy as np
import pytest

from laf.classifier import ClassifierTrainConfig, predict_softmax_many, train_classifier
from laf import synth
from laf.corpus import SPLITS, Corpus, Interval, VideoSequence, WebImage
from laf.errors import ValidationError
from laf.experiments import experiment_config
from laf.synth import SynthSpec, corpus_stats, generate_corpus, image_pool_purity, mode_centers

from oracles import reference_generate_corpus

SMALL = SynthSpec(num_activities=2, actions_per_activity=2, feature_dim=6,
                  train_videos_per_action=3, validation_videos_per_action=1,
                  test_videos_per_action=2, frames_per_video=(8, 12),
                  action_segment_fraction=0.25, images_per_action=10,
                  image_noise_fraction=0.3, seed=5)


def test_generation_is_deterministic():
    a, b = generate_corpus(SMALL), generate_corpus(SMALL)
    assert all(np.array_equal(x.feature, y.feature) for x, y in zip(a.images, b.images))
    assert all(np.array_equal(x.frames, y.frames)
               for x, y in zip(a.train_videos, b.train_videos))
    assert [v.gt_segments for v in a.all_videos] == [v.gt_segments for v in b.all_videos]


def assert_matches_reference(spec):
    corpus, reference = generate_corpus(spec), reference_generate_corpus(spec)
    assert [(img.id, img.label, img.relevant) for img in corpus.images] == \
        [(id_, label, relevant) for id_, label, _, relevant in reference["images"]]
    assert all(img.feature.tobytes() == feature.tobytes()
               for img, (_, _, feature, _) in zip(corpus.images, reference["images"]))
    for split in ("train", "validation", "test"):
        videos = getattr(corpus, f"{split}_videos")
        assert [(v.id, v.label, v.gt_segments) for v in videos] == \
            [(id_, label, (Interval(*segment),)) for id_, label, _, segment in reference[split]]
        assert all(v.frames.tobytes() == frames.tobytes()
                   for v, (_, _, frames, _) in zip(videos, reference[split]))
    return corpus


@pytest.mark.parametrize("spec", [experiment_config(0).synth, experiment_config(1009).synth,
                                  dataclasses.replace(SMALL, mode_stddev=1.7)],
                         ids=["desk-seed0", "desk-seed1009", "stddev1.7"])
def test_generation_matches_the_per_video_reference(spec):
    assert_matches_reference(spec)


def test_generation_across_row_blocks_matches_the_reference(monkeypatch):
    monkeypatch.setattr(synth, "_BLOCK_BYTES", 8 * SMALL.feature_dim * 25)  # 25 rows a block
    corpus = assert_matches_reference(SMALL)
    blocks = {id(v.frames.base) for v in corpus.all_videos} | \
        {id(img.feature.base) for img in corpus.images}
    assert len(blocks) > 9  # 232 to 328 rows, 25 to a block


def test_different_seed_changes_data():
    a = generate_corpus(SMALL)
    b = generate_corpus(dataclasses.replace(SMALL, seed=6))
    assert not np.array_equal(a.images[0].feature, b.images[0].feature)


def test_zero_noise_makes_every_image_relevant():
    corpus = generate_corpus(dataclasses.replace(SMALL, image_noise_fraction=0.0))
    assert all(img.relevant is True for img in corpus.images)
    assert image_pool_purity(corpus.images) == 1.0


def test_full_action_fraction_covers_whole_videos():
    corpus = generate_corpus(dataclasses.replace(SMALL, action_segment_fraction=1.0))
    for video in corpus.all_videos:
        (segment,) = video.gt_segments
        assert (segment.start, segment.end) == (0, video.num_steps)
    stats = corpus_stats(corpus)
    assert stats["action_step_fraction"] == 1.0


def test_counts_and_segment_bounds():
    corpus = generate_corpus(SMALL)
    assert corpus.num_labels == 4
    assert len(corpus.images) == 4 * 10
    assert len(corpus.train_videos) == 4 * 3
    assert len(corpus.validation_videos) == 4 * 1
    assert len(corpus.test_videos) == 4 * 2
    for video in corpus.all_videos:
        assert 8 <= video.num_steps <= 12
        (segment,) = video.gt_segments
        assert 0 <= segment.start < segment.end <= video.num_steps
        assert segment.length == max(1, int(0.25 * video.num_steps))


def test_purity_matches_binomial_expectation():
    spec = dataclasses.replace(SMALL, images_per_action=500)
    purity = corpus_stats(generate_corpus(spec))["image_purity"]
    n = spec.num_labels * spec.images_per_action
    assert abs(purity - 0.7) < 4 * np.sqrt(0.7 * 0.3 / n)


def uneven_corpus():
    """Labels 0, 1 and 2 hold 0, 1 and 3 web images, and as many videos in the train
    and test splits; the validation split is empty."""
    labels = (2, 1, 2, 2)
    images = tuple(WebImage(f"img-{k}", label, np.zeros(2), relevant=True)
                   for k, label in enumerate(labels))

    def videos(split):
        return tuple(VideoSequence(f"{split}-{k}", label, np.zeros((4, 2)),
                                   gt_segments=(Interval(0, 2),))
                     for k, label in enumerate(labels))

    return Corpus(num_labels=3, feature_dim=2, images=images, train_videos=videos("train"),
                  validation_videos=(), test_videos=videos("test"))


def test_stats_counts_sum_to_corpus_sizes():
    corpus = generate_corpus(SMALL)
    stats = corpus_stats(corpus)
    assert sum(stats["images_per_label"]) == len(corpus.images)
    assert sum(stats["videos_per_label"]["train"]) == len(corpus.train_videos)
    assert sum(stats["videos_per_label"]["test"]) == len(corpus.test_videos)

    stats = corpus_stats(uneven_corpus())
    counts = [stats["images_per_label"], *stats["videos_per_label"].values()]
    assert list(stats["videos_per_label"]) == list(SPLITS)
    assert counts == [[0, 1, 3], [0, 1, 3], [0, 0, 0], [0, 1, 3]]  # images, train, validation, test
    assert all(type(n) is int for per_label in counts for n in per_label)


def test_stats_require_ground_truth_flags():
    corpus = generate_corpus(SMALL)
    stripped = dataclasses.replace(
        corpus, images=tuple(dataclasses.replace(img, relevant=None) for img in corpus.images))
    with pytest.raises(ValidationError):
        corpus_stats(stripped)


def test_sibling_actions_share_their_context_mode():
    centers = mode_centers(SMALL)
    # labels 0,1 belong to activity 0; labels 2,3 to activity 1
    assert SMALL.activity_of(0) == SMALL.activity_of(1) == 0
    assert SMALL.activity_of(2) == SMALL.activity_of(3) == 1
    corpus = generate_corpus(dataclasses.replace(SMALL, train_videos_per_action=30,
                                                 frames_per_video=(30, 30)))
    for label_pair, activity in (((0, 1), 0), ((2, 3), 1)):
        context_frames = []
        for video in corpus.train_videos:
            if video.label in label_pair:
                (segment,) = video.gt_segments
                mask = np.ones(video.num_steps, dtype=bool)
                mask[segment.start:segment.end] = False
                context_frames.append(video.frames[mask])
        mean = np.vstack(context_frames).mean(axis=0)
        # empirical context mean sits on the one shared activity center
        assert np.linalg.norm(mean - centers.context[activity]) < 0.5


def test_mode_separation_controls_classifier_accuracy():
    # the action modes must be learnable, otherwise downstream tests would
    # exercise noise rather than the algorithms
    for seed in range(3):
        spec = dataclasses.replace(SMALL, seed=seed, images_per_action=40,
                                   image_noise_fraction=0.0)
        corpus = generate_corpus(spec)
        features = np.stack([img.feature for img in corpus.images])
        labels = np.asarray([img.label for img in corpus.images])
        clf = train_classifier(features, labels, corpus.num_labels,
                               ClassifierTrainConfig(epochs=60, seed=seed))
        accuracy = np.mean(predict_softmax_many(clf, features).argmax(axis=1) == labels)
        assert accuracy >= 0.95


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(action_segment_fraction=0.0)
    with pytest.raises(ValidationError):
        SynthSpec(frames_per_video=(10, 5))
    with pytest.raises(ValidationError):
        SynthSpec(action_segment_fraction=0.05, frames_per_video=(10, 20))
    with pytest.raises(ValidationError):
        SynthSpec(image_noise_fraction=1.0)


def test_mode_centers_have_requested_separation():
    centers = mode_centers(SMALL)
    np.testing.assert_allclose(np.linalg.norm(centers.action, axis=1), SMALL.mode_separation)
    assert centers.action.shape == (4, 6)
    assert centers.context.shape == (2, 6)
    assert centers.noise.shape == (2, 6)
