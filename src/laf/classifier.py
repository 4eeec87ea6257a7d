"""Multinomial softmax regression over feature vectors.

This is the shallow classifier both filtering directions rely on: it maps a
d-dimensional feature to N label probabilities via a single linear layer,
trained with mini-batch gradient descent on L2-regularized cross-entropy.
Parameters start at zero, so a zero-epoch model predicts the uniform
distribution and training is bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .ioutil import atomic_write_text, decode_f64, encode_f64, json_fields, read_json_object
from .numerics import softmax

CHECKPOINT_FORMAT = "laf-softmax"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ClassifierTrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    l2_penalty: float = 1e-4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not self.learning_rate > 0:  # NaN fails too
            raise ValidationError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if not self.l2_penalty >= 0:
            raise ValidationError("l2_penalty must be nonnegative")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be positive")


@dataclass(eq=False)
class Classifier:
    """Linear softmax model: logits = weights @ feature + biases."""

    weights: np.ndarray  # (num_labels, feature_dim)
    biases: np.ndarray   # (num_labels,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValidationError(f"inconsistent classifier shapes {self.weights.shape} / {self.biases.shape}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValidationError("classifier parameters must be finite")

    @property
    def num_labels(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


def predict_softmax_many(clf: Classifier, features: np.ndarray) -> np.ndarray:
    """Row-wise softmax probabilities for an (n, d) feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != clf.feature_dim:
        raise ValidationError(f"feature matrix shape {features.shape} incompatible with d={clf.feature_dim}")
    logits = features @ clf.weights.T
    logits += clf.biases
    return softmax(logits, axis=1, out=logits)


def scores_for_labels(clf: Classifier, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Own-label probabilities: probs[i] = softmax(x_i)[labels[i]]."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= clf.num_labels):
        raise ValidationError(f"labels outside [0, {clf.num_labels})")
    probs = predict_softmax_many(clf, features)
    return probs[np.arange(len(labels)), labels]


def cross_entropy_gradient(weights: np.ndarray, biases: np.ndarray, features: np.ndarray,
                           labels: np.ndarray, l2_penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient wrt weights and biases of the mean NLL plus (l2/2) * squared norm, worked
    in place with the operations of ``delta.T @ x / n + l2 * W`` in their order."""
    n = len(labels)
    delta = features @ weights.T
    delta += biases
    softmax(delta, axis=1, out=delta)
    delta[np.arange(n), labels] -= 1.0
    grad_w = delta.T @ features
    grad_w /= n
    grad_w += l2_penalty * weights
    grad_b = delta.sum(axis=0) / n + l2_penalty * biases
    return grad_w, grad_b


def train_classifier(features: np.ndarray, labels: np.ndarray, num_labels: int,
                     config: ClassifierTrainConfig) -> Classifier:
    """Mini-batch gradient descent from zero-initialized parameters.

    Takes an (n, d) feature matrix and n labels. Each epoch shuffles the
    example order with the seeded generator and gathers the rows in that
    order once; its batches are consecutive slices of them. Batch gradients
    are averaged, so the learning rate is comparable across batch sizes.
    Deterministic given the rows, their order, the config and the seed.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValidationError("cannot train on an empty example set")
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise ValidationError(f"need an (n, d) feature matrix and n labels, "
                              f"got {features.shape} and {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_labels:
        raise ValidationError(f"labels outside [0, {num_labels})")
    n, dim = features.shape
    weights = np.zeros((num_labels, dim))
    biases = np.zeros(num_labels)
    rng = np.random.default_rng(config.seed)
    size, lr = config.batch_size, config.learning_rate
    for _ in range(config.epochs):
        order = rng.permutation(n)
        shuffled, shuffled_labels = features[order], labels[order]
        for start in range(0, n, size):
            grad_w, grad_b = cross_entropy_gradient(weights, biases, shuffled[start:start + size],
                                                    shuffled_labels[start:start + size],
                                                    config.l2_penalty)
            grad_w *= lr  # weights -= lr * grad_w, without the temporary
            weights -= grad_w
            grad_b *= lr
            biases -= grad_b
    return Classifier(weights=weights, biases=biases)


def save_classifier(clf: Classifier, path: str | Path) -> None:
    obj = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "num_labels": clf.num_labels,
        "feature_dim": clf.feature_dim,
        "weights": encode_f64(clf.weights),
        "biases": encode_f64(clf.biases),
    }
    atomic_write_text(path, json.dumps(obj) + "\n")


def load_classifier(path: str | Path) -> Classifier:
    obj = read_json_object(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    where = f"{path}: malformed checkpoint"
    fields = json_fields(obj, {"num_labels": int, "feature_dim": int, "weights": str,
                               "biases": str}, where)
    num_labels = fields["num_labels"]
    return Classifier(
        weights=decode_f64(fields["weights"], f"{where}: weights",
                           (num_labels, fields["feature_dim"])),
        biases=decode_f64(fields["biases"], f"{where}: biases", (num_labels,)))
