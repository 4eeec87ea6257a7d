import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laf.classifier import (Classifier, ClassifierTrainConfig, cross_entropy_gradient,
                            load_classifier, predict_softmax_many, save_classifier,
                            scores_for_labels, train_classifier)
from laf.errors import CorpusFormatError, ValidationError

from conftest import traced_peak
from oracles import cross_entropy_loss, reference_train_classifier


def uniform_classifier(num_labels, dim):
    return Classifier(np.zeros((num_labels, dim)), np.zeros(num_labels))


def two_blob_data(rng, n_per=50, spread=0.5):
    a = rng.normal([-2.0, 0.0], spread, (n_per, 2))
    b = rng.normal([2.0, 0.0], spread, (n_per, 2))
    features = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return features, labels


def test_zero_epochs_gives_uniform_predictions(rng):
    features, labels = rng.normal(0, 1, (10, 3)), rng.integers(4, size=10)
    clf = train_classifier(features, labels, 4, ClassifierTrainConfig(epochs=0))
    assert np.array_equal(clf.weights, np.zeros((4, 3)))
    np.testing.assert_allclose(predict_softmax_many(clf, np.array([[5.0, -3.0, 1.0]])), 0.25)


def test_uniform_probability_matches_one_over_n():
    clf = uniform_classifier(240, 2)
    probs = predict_softmax_many(clf, np.array([[1.0, -4.0]]))
    np.testing.assert_allclose(probs, 1.0 / 240)


def test_constructed_logits_give_closed_form_softmax():
    # logits (ln 2, 0) -> probabilities (2/3, 1/3)
    clf = Classifier(np.array([[math.log(2.0)], [0.0]]), np.zeros(2))
    probs = predict_softmax_many(clf, np.array([[1.0]]))
    np.testing.assert_allclose(probs, [[2 / 3, 1 / 3]], rtol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_normalized_and_positive(seed):
    rng = np.random.default_rng(seed)
    clf = Classifier(rng.normal(0, 3, (5, 4)), rng.normal(0, 3, 5))
    probs = predict_softmax_many(clf, rng.normal(0, 3, (1, 4)))
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs > 0) and np.all(probs <= 1)


def test_softmax_strictly_inside_unit_interval_for_moderate_logits(rng):
    clf = Classifier(rng.normal(0, 1, (5, 4)), rng.normal(0, 1, 5))
    probs = predict_softmax_many(clf, rng.normal(0, 1, (1, 4)))
    assert np.all(probs > 0) and np.all(probs < 1)


def test_softmax_stable_at_logit_magnitude_700():
    clf = Classifier(np.array([[700.0], [-700.0], [0.0]]), np.zeros(3))
    probs = predict_softmax_many(clf, np.array([[1.0]]))
    assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs > 0)


def test_score_for_label():
    feature = np.array([0.3, -0.7])
    copies = np.tile(feature, (4, 1))  # one row per label to score
    assert scores_for_labels(uniform_classifier(4, 2), copies, np.arange(4))[2] == pytest.approx(0.25)
    rng = np.random.default_rng(3)
    clf = Classifier(rng.normal(0, 1, (4, 2)), rng.normal(0, 1, 4))
    scores = scores_for_labels(clf, copies, np.arange(4))
    best = int(np.argmax(clf.weights @ feature + clf.biases))
    assert scores[best] == pytest.approx(scores.max())
    assert scores.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        scores_for_labels(clf, feature[None, :], [4])


@pytest.mark.parametrize("num_labels,dim", [(8, 16), (40, 16), (240, 64)])
def test_blocked_scores_are_bitwise_the_single_product(num_labels, dim):
    rng = np.random.default_rng(num_labels)
    clf = Classifier(rng.normal(0, 1, (num_labels, dim)), rng.normal(0, 1, num_labels))
    for n in (1, 2, 1023, 1024, 1025, 1026, 2049, 2400, 3073, 4097, 9600):
        features, labels = rng.normal(0, 1, (n, dim)), rng.integers(0, num_labels, n)
        single = predict_softmax_many(clf, features)[np.arange(n), labels]
        assert scores_for_labels(clf, features, labels).tobytes() == single.tobytes(), n


def test_blocked_scores_hold_a_fraction_of_the_full_softmax():
    rng = np.random.default_rng(5)
    n, num_labels = 9600, 240
    clf = Classifier(rng.normal(0, 1, (num_labels, 64)), rng.normal(0, 1, num_labels))
    features, labels = rng.normal(0, 1, (n, 64)), rng.integers(0, num_labels, n)
    _, peak = traced_peak(lambda: scores_for_labels(clf, features, labels))
    assert peak < n * num_labels * 8 / 4  # the single product holds 18.4 MB


def test_scores_need_one_label_per_row():
    clf = uniform_classifier(3, 2)
    with pytest.raises(ValidationError, match="need n labels for n feature rows"):
        scores_for_labels(clf, np.zeros((4, 2)), [0, 1, 2])


def test_dimension_mismatch_rejected():
    clf = uniform_classifier(2, 3)
    with pytest.raises(ValidationError):
        predict_softmax_many(clf, np.zeros((1, 4)))


def brute_force_linear_boundary(features, labels):
    """Grid search over 2-D line directions/offsets for a perfect separator."""
    best = 0.0
    for angle in np.linspace(0, np.pi, 180, endpoint=False):
        direction = np.array([np.cos(angle), np.sin(angle)])
        projections = features @ direction
        for cut in np.linspace(projections.min(), projections.max(), 200):
            predictions = (projections > cut).astype(int)
            accuracy = max(np.mean(predictions == labels), np.mean(1 - predictions == labels))
            best = max(best, accuracy)
    return best


def test_separable_blobs_reach_perfect_training_accuracy(rng):
    features, labels = two_blob_data(rng)
    # independent oracle: some linear boundary separates the sample perfectly
    assert brute_force_linear_boundary(features, labels) == 1.0
    clf = train_classifier(features, labels, 2,
                           ClassifierTrainConfig(epochs=200, seed=7))
    predictions = predict_softmax_many(clf, features).argmax(axis=1)
    assert np.mean(predictions == labels) == 1.0


def test_duplicated_dataset_full_batch_equivalence(rng):
    features, labels = two_blob_data(rng, n_per=10)
    config = ClassifierTrainConfig(epochs=20, batch_size=1000, seed=0)
    clf_single = train_classifier(features, labels, 2, config)
    clf_double = train_classifier(np.vstack([features, features]), np.tile(labels, 2), 2, config)
    # full-batch means are identical up to summation order
    np.testing.assert_allclose(clf_single.weights, clf_double.weights, atol=1e-12)
    np.testing.assert_allclose(clf_single.biases, clf_double.biases, atol=1e-12)


def test_gradient_matches_central_differences():
    step = 1e-6
    for seed in range(8):
        rng = np.random.default_rng(seed)
        num_labels = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 9))
        count = int(rng.integers(3, 12))
        features = rng.normal(0, 1, (count, dim))
        labels = rng.integers(0, num_labels, count)
        weights = rng.normal(0, 1, (num_labels, dim))
        biases = rng.normal(0, 1, num_labels)
        l2 = float(rng.uniform(0, 0.1))
        grad_w, grad_b = cross_entropy_gradient(weights, biases, features, labels, l2)
        worst = 0.0
        for grad, params in ((grad_w, weights), (grad_b, biases)):
            it = np.nditer(params, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = params[idx]
                params[idx] = orig + step
                up = cross_entropy_loss(weights, biases, features, labels, l2)
                params[idx] = orig - step
                down = cross_entropy_loss(weights, biases, features, labels, l2)
                params[idx] = orig
                numeric = (up - down) / (2 * step)
                worst = max(worst, abs(grad[idx] - numeric) / max(1.0, abs(grad[idx]), abs(numeric)))
        assert worst < 1e-6


def test_training_is_bitwise_deterministic(rng):
    features, labels = two_blob_data(rng, n_per=20)
    config = ClassifierTrainConfig(epochs=30, batch_size=8, seed=123)
    a = train_classifier(features, labels, 2, config)
    b = train_classifier(features, labels, 2, config)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.biases, b.biases)


@pytest.mark.parametrize("n, dim, num_labels, batch_size, epochs", [
    (37, 5, 4, 8, 6),    # the last batch is short
    (9, 3, 3, 1, 4),     # batches of one example
    (5, 4, 3, 32, 7),    # one batch smaller than batch_size
    (12, 3, 1, 5, 3),    # one label
    (10, 3, 4, 4, 0),    # no epoch
    (64, 16, 8, 32, 5),  # the desk shape
])
def test_training_is_bitwise_the_reference(n, dim, num_labels, batch_size, epochs):
    rng = np.random.default_rng(n * dim + epochs)
    features, labels = rng.normal(0, 2, (n, dim)), rng.integers(num_labels, size=n)
    config = ClassifierTrainConfig(learning_rate=0.3, epochs=epochs, l2_penalty=1e-3,
                                   batch_size=batch_size, seed=n)
    clf = train_classifier(features, labels, num_labels, config)
    weights, biases = reference_train_classifier(features, labels, num_labels, 0.3, epochs, 1e-3,
                                                 batch_size, n)
    assert clf.weights.tobytes() == weights.tobytes() and clf.biases.tobytes() == biases.tobytes()


def test_l2_penalty_shrinks_parameter_norm(rng):
    features, labels = two_blob_data(rng)
    plain = train_classifier(features, labels, 2, ClassifierTrainConfig(epochs=100, l2_penalty=0.0))
    shrunk = train_classifier(features, labels, 2, ClassifierTrainConfig(epochs=100, l2_penalty=0.01))
    norm = lambda c: np.sqrt(np.sum(c.weights ** 2) + np.sum(c.biases ** 2))
    assert norm(shrunk) < norm(plain)


def test_training_input_validation():
    with pytest.raises(ValidationError, match="empty"):
        train_classifier(np.zeros((0, 2)), [], 2, ClassifierTrainConfig())
    with pytest.raises(ValidationError, match="label"):
        train_classifier(np.zeros((1, 2)), [5], 2, ClassifierTrainConfig())
    with pytest.raises(ValidationError, match="n labels"):
        train_classifier(np.zeros((2, 2)), [0], 2, ClassifierTrainConfig())


def test_checkpoint_round_trip(tmp_path, rng):
    clf = Classifier(rng.normal(0, 1, (3, 5)), rng.normal(0, 1, 3))
    path = tmp_path / "clf.json"
    save_classifier(clf, path)
    loaded = load_classifier(path)
    assert loaded.weights.tobytes() == clf.weights.tobytes()
    assert loaded.biases.tobytes() == clf.biases.tobytes()


def test_checkpoint_rejects_other_formats(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format":"something-else","version":1}')
    with pytest.raises(CorpusFormatError):
        load_classifier(path)
    path.write_text("[]")
    with pytest.raises(CorpusFormatError, match="JSON object"):
        load_classifier(path)
    save_classifier(uniform_classifier(3, 2), path)
    good = json.loads(path.read_text())
    for broken in ({k: v for k, v in good.items() if k != "weights"}, dict(good, num_labels=4)):
        path.write_text(json.dumps(broken))
        with pytest.raises(CorpusFormatError, match="malformed checkpoint"):
            load_classifier(path)


@pytest.mark.parametrize("edit, match", [
    ({"num_labels": "2"}, "'num_labels': must be a JSON integer"), ({"num_labels": 2.0}, "num_labels"),
    ({"num_labels": True}, "num_labels"), ({"feature_dim": 3.5}, "feature_dim"),
    ({"version": True}, "version"), ({"biases": None}, "'biases': must be a JSON string"),
    ({"num_labels": -2, "feature_dim": -3}, r"weights: 6 values, expected shape \(-2, -3\)")])
def test_checkpoint_dims_and_header_must_be_json_integers(tmp_path, edit, match):
    path = tmp_path / "x.json"
    save_classifier(uniform_classifier(2, 3), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(CorpusFormatError, match=match):
        load_classifier(path)
