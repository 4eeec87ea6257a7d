import dataclasses
import math

import numpy as np
import pytest

from laf import transfer
from laf.classifier import (Classifier, ClassifierTrainConfig, predict_softmax_many,
                            train_classifier)
from laf.errors import TransferCollapseError, ValidationError
from laf.experiments import experiment_config
from laf.synth import SynthSpec, generate_corpus, image_pool_purity
from laf.transfer import (TransferConfig, filter_scores, initialize_frame_set,
                          laf_scores_for_video, run_domain_transfer, validation_accuracy)

from conftest import make_video

FAST_CLF = ClassifierTrainConfig(epochs=40)

SPEC = SynthSpec(num_activities=2, actions_per_activity=2, feature_dim=8,
                 train_videos_per_action=4, validation_videos_per_action=2,
                 test_videos_per_action=1, frames_per_video=(12, 16),
                 action_segment_fraction=0.3, images_per_action=20,
                 image_noise_fraction=0.3, seed=0)


def small_corpus(seed=0, **overrides):
    return generate_corpus(dataclasses.replace(SPEC, seed=seed, **overrides))


def transfer_config(**overrides):
    base = dict(theta1=0.5, theta2=0.5, max_iterations=3, frames_per_video=6,
                min_items_per_label=1, classifier_config=FAST_CLF, seed=0)
    base.update(overrides)
    return TransferConfig(**base)


# --- initial frame sampling -------------------------------------------------

def test_initial_sample_saturates_to_all_frames():
    corpus = small_corpus()
    rows = initialize_frame_set(corpus.train_videos, frames_per_video=100, seed=1)
    assert len(rows) == sum(v.num_steps for v in corpus.train_videos)
    for index, video in enumerate(corpus.train_videos):
        assert rows[rows[:, 0] == index, 1].tolist() == list(range(video.num_steps))


def test_initial_sample_counts_one_per_video():
    corpus = small_corpus()
    rows = initialize_frame_set(corpus.train_videos, frames_per_video=1, seed=1)
    assert len(rows) == len(corpus.train_videos)


def test_initial_sample_deterministic_and_labeled():
    corpus = small_corpus()
    a = initialize_frame_set(corpus.train_videos, 4, seed=9)
    b = initialize_frame_set(corpus.train_videos, 4, seed=9)
    assert np.array_equal(a, b)
    # every row names a step of a training video, so it carries that video's label
    assert a.shape == (4 * len(corpus.train_videos), 2)
    for index, step in a:
        assert 0 <= step < corpus.train_videos[index].num_steps
    with pytest.raises(ValidationError):
        initialize_frame_set([], 4, seed=0)


# --- threshold filtering ----------------------------------------------------

def score_classifier():
    # two labels over a 1-d feature: P(label 0 | x) = exp(x) / (exp(x) + 1)
    return Classifier(np.array([[1.0], [0.0]]), np.zeros(2))


def features_scoring(*probs):
    # features whose label-0 scores are exactly probs
    return np.array([[math.log(p / (1 - p))] for p in probs])


def kept(features, theta, floor, labels=None):
    labels = np.zeros(len(features), dtype=int) if labels is None else np.asarray(labels)
    keep, _ = filter_scores(features, labels, score_classifier(), theta, floor)
    return np.flatnonzero(keep).tolist()


def test_filter_keeps_everything_at_theta_zero():
    # softmax scores are strictly positive
    assert kept(features_scoring(0.6, 0.3, 0.1), theta=0.0, floor=0) == [0, 1, 2]


def test_filter_drops_everything_at_theta_one():
    assert kept(features_scoring(0.6, 0.3, 0.1), theta=1.0, floor=0) == []


def test_filter_retains_only_items_above_threshold():
    # constructed scores 0.6 / 0.3 / 0.1 against theta 0.5
    features = features_scoring(0.6, 0.3, 0.1)
    keep, scores = filter_scores(features, np.zeros(3, dtype=int), score_classifier(), 0.5, 0)
    np.testing.assert_allclose(scores, [0.6, 0.3, 0.1], atol=1e-12)
    assert keep.tolist() == [True, False, False]


def test_filter_floor_rescues_top_scoring_items():
    # top two by score, original order
    assert kept(features_scoring(0.6, 0.3, 0.1), theta=0.99, floor=2) == [0, 1]


def test_filter_floor_is_per_label():
    # label-1 item scores 0.8; label-0 items score 0.6 and 0.1
    features = features_scoring(0.6, 0.2, 0.1)
    assert kept(features, theta=0.7, floor=1, labels=[0, 1, 0]) == [0, 1]


def test_filter_preserves_order():
    assert kept(features_scoring(0.9, 0.55, 0.8, 0.2), theta=0.5, floor=0) == [0, 1, 2]


# --- validation accuracy ----------------------------------------------------

def test_validation_accuracy_perfect_and_half():
    right = make_video(0, 0, [[5.0], [5.0]], split="validation")
    wrong = make_video(1, 1, [[5.0], [5.0]], split="validation")
    clf = Classifier(np.array([[1.0], [-1.0]]), np.zeros(2))  # always predicts label 0
    assert validation_accuracy(clf, [right]) == 1.0
    assert validation_accuracy(clf, [right, wrong]) == 0.5
    with pytest.raises(ValidationError):
        validation_accuracy(clf, [])


def test_validation_accuracy_uniform_ties_pick_label_zero():
    clf = Classifier(np.zeros((4, 1)), np.zeros(4))
    videos = [make_video(i, i, [[1.0]], split="validation") for i in range(4)]
    # uniform probabilities everywhere: argmax tie-break predicts label 0
    assert validation_accuracy(clf, videos) == 0.25


# --- LAF scores -------------------------------------------------------------

def test_laf_scores_uniform_model():
    clf = Classifier(np.zeros((240, 2)), np.zeros(240))
    video = make_video(0, 17, np.random.default_rng(0).normal(0, 1, (5, 2)))
    np.testing.assert_allclose(laf_scores_for_video(clf, video), 1.0 / 240)


def test_laf_scores_match_constructed_probability():
    clf = score_classifier()
    video = make_video(0, 0, [[math.log(0.9 / 0.1)], [math.log(0.25 / 0.75)]])
    np.testing.assert_allclose(laf_scores_for_video(clf, video), [0.9, 0.25], atol=1e-12)


def test_laf_scores_lie_in_open_unit_interval(rng):
    clf = Classifier(rng.normal(0, 1, (3, 4)), rng.normal(0, 1, 3))
    video = make_video(0, 2, rng.normal(0, 1, (7, 4)))
    scores = laf_scores_for_video(clf, video)
    assert np.all(scores > 0) and np.all(scores < 1)


def test_laf_scores_own_their_data(rng):
    # a view of the own-label column would keep the whole (T, N) softmax alive
    clf = Classifier(rng.normal(0, 1, (5, 4)), rng.normal(0, 1, 5))
    video = make_video(0, 3, rng.normal(0, 1, (9, 4)))
    scores = laf_scores_for_video(clf, video)
    assert scores.base is None
    assert np.array_equal(scores, predict_softmax_many(clf, video.frames)[:, 3])
    result = run_domain_transfer(small_corpus(), transfer_config(max_iterations=1))
    assert all(weights.base is None for weights in result.laf_weights.values())


# --- the transfer loop ------------------------------------------------------

def test_single_iteration_structure():
    corpus = small_corpus()
    result = run_domain_transfer(corpus, transfer_config(max_iterations=1))
    assert len(result.log) == 1
    assert len([e.validation_accuracy for e in result.log]) == 1
    # the proposal model is the classifier retrained on the once-filtered pool
    retrained = train_classifier(np.stack([img.feature for img in result.image_pool]),
                                 [img.label for img in result.image_pool], corpus.num_labels,
                                 FAST_CLF)
    assert np.array_equal(retrained.weights, result.proposal_model.weights)


def test_weights_cover_every_training_step():
    corpus = small_corpus()
    result = run_domain_transfer(corpus, transfer_config())
    assert set(result.laf_weights) == {v.id for v in corpus.train_videos}
    for video in corpus.train_videos:
        weights = result.laf_weights[video.id]
        assert weights.shape == (video.num_steps,)
        assert np.all((weights > 0) & (weights < 1))


def test_pool_sizes_never_grow():
    for seed in range(3):
        corpus = small_corpus(seed=seed)
        result = run_domain_transfer(corpus, transfer_config(max_iterations=4, seed=seed))
        sizes_i = [entry.size_images for entry in result.log]
        sizes_v = [entry.size_frames for entry in result.log]
        assert sizes_i[0] <= len(corpus.images)
        assert all(a >= b for a, b in zip(sizes_i, sizes_i[1:]))
        assert all(a >= b for a, b in zip(sizes_v, sizes_v[1:]))


def test_removed_items_scored_at_or_below_threshold():
    desk = experiment_config(0)
    for corpus, config in ((small_corpus(), transfer_config(max_iterations=4)),
                           (generate_corpus(desk.synth), desk.transfer)):
        log = run_domain_transfer(corpus, config).log
        for entry in log:
            if entry.max_removed_image_score is not None:
                assert entry.max_removed_image_score <= config.theta1
            if entry.max_removed_frame_score is not None:
                assert entry.max_removed_frame_score <= config.theta2
        assert any(entry.max_removed_image_score is not None for entry in log)
        assert any(entry.max_removed_frame_score is not None for entry in log)


def test_transfer_is_deterministic():
    corpus = small_corpus()
    a = run_domain_transfer(corpus, transfer_config())
    b = run_domain_transfer(corpus, transfer_config())
    assert [e.validation_accuracy for e in a.log] == [e.validation_accuracy for e in b.log]
    assert [e.to_json() for e in a.log] == [e.to_json() for e in b.log]
    assert np.array_equal(a.proposal_model.weights, b.proposal_model.weights)
    for vid in a.laf_weights:
        assert np.array_equal(a.laf_weights[vid], b.laf_weights[vid])


DESK_LOGS = {  # (size_I, size_V, accuracy, max removed image, max removed frame) per round
    0: [(164, 161, 0.5625, 0.4770737790142184, 0.4925076862262146),
        (152, 153, 0.5625, 0.44594502483358256, 0.48571357162796563)]
       + [(152, 153, 0.5625, None, None)] * 4,
    1009: [(134, 136, 0.25, 0.4906398107450809, 0.4959254919690723)]
          + [(134, 136, 0.25, None, None)] * 5,
}


@pytest.mark.parametrize("seed", sorted(DESK_LOGS))
def test_a_pool_is_refit_only_when_a_filter_changed_it(seed, monkeypatch):
    fits = []
    monkeypatch.setattr(transfer, "train_classifier",
                        lambda features, *args: fits.append(len(features))
                        or train_classifier(features, *args))
    config = experiment_config(seed)
    result = run_domain_transfer(generate_corpus(config.synth), config.transfer)
    assert [(e.size_images, e.size_frames, e.validation_accuracy, e.max_removed_image_score,
             e.max_removed_frame_score) for e in result.log] == DESK_LOGS[seed]
    # The starting frame model, then an image and a frame fit in each round that removed some:
    # 5 and 3 fits where refitting every round made 13.
    assert fits[1:] == {0: [164, 161, 152, 153], 1009: [134, 136]}[seed]
    # Every round ties in accuracy, so the first round's pool is returned.
    assert len(result.image_pool) == DESK_LOGS[seed][0][0]


def test_best_iteration_model_is_returned():
    corpus = small_corpus()
    result = run_domain_transfer(corpus, transfer_config(max_iterations=4))
    history = [e.validation_accuracy for e in result.log]
    assert history and max(history) == history[int(np.argmax(history))]
    # the returned model must equal a from-scratch train on the stored pool
    retrained = train_classifier(np.stack([img.feature for img in result.image_pool]),
                                 [img.label for img in result.image_pool], corpus.num_labels,
                                 FAST_CLF)
    assert np.array_equal(retrained.weights, result.proposal_model.weights)
    assert np.array_equal(retrained.biases, result.proposal_model.biases)


def test_purity_improves_on_noisy_pools():
    gains = []
    for seed in range(5):
        corpus = small_corpus(seed=seed, image_noise_fraction=0.3, images_per_action=30)
        result = run_domain_transfer(corpus, transfer_config(seed=seed))
        gains.append(image_pool_purity(result.image_pool) - image_pool_purity(corpus.images))
    assert np.mean(gains) > 0


def test_identical_domains_with_zero_thresholds_keep_everything():
    # images drawn from the same modes as action frames, thresholds 0
    corpus = small_corpus(image_noise_fraction=0.0)
    config = transfer_config(theta1=0.0, theta2=0.0, max_iterations=2, min_items_per_label=0)
    result = run_domain_transfer(corpus, config)
    for entry in result.log:
        assert entry.size_images == len(corpus.images)
    assert result.log[0].size_frames == result.log[-1].size_frames


def test_collapse_raises():
    corpus = small_corpus()
    for theta1, theta2, pool in ((1.0, 0.5, "image pool"), (0.0, 1.0, "frame set")):
        config = transfer_config(theta1=theta1, theta2=theta2, min_items_per_label=0)
        with pytest.raises(TransferCollapseError) as info:
            run_domain_transfer(corpus, config)
        assert str(info.value) == f"transfer collapsed: {pool} empty at iteration 1"


def test_preconditions():
    corpus = small_corpus()
    no_validation = dataclasses.replace(corpus, validation_videos=())
    with pytest.raises(ValidationError, match="validation"):
        run_domain_transfer(no_validation, transfer_config())
    no_images = dataclasses.replace(corpus, images=())
    with pytest.raises(ValidationError, match="image"):
        run_domain_transfer(no_images, transfer_config())


def test_config_validation():
    with pytest.raises(ValidationError):
        TransferConfig(theta1=1.5)
    with pytest.raises(ValidationError):
        TransferConfig(max_iterations=0)
