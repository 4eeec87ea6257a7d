"""Overflow-safe elementwise primitives shared by the classifier and the LSTM."""

from __future__ import annotations

import numpy as np

TINY = np.finfo(np.float64).tiny


def softmax(logits: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax with max-logit subtraction; stable for logits up to ~|700|.

    Entries are floored at the smallest normal float64: exp underflows to an
    exact 0 once logit gaps pass ~745, and a hard zero would both violate the
    strictly-positive output contract and produce infinite log losses. The
    work happens in one new array, or in ``out``, which may be ``logits``.
    """
    e = np.subtract(logits, logits.max(axis=axis, keepdims=True), out=out, dtype=np.float64)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return np.maximum(e, TINY, out=e)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function evaluated without overflow on either tail.

    Equals 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) for x < 0,
    bit for bit: it is exp(min(x, 0)) / (1 + exp(-|x|)). ``x`` is an array (not a
    scalar); the result goes to a new array or to ``out``, which may be ``x``.
    """
    e = np.copysign(x, -1.0)
    np.exp(e, out=e)
    e += 1.0
    y = np.minimum(x, 0.0, out=out)
    np.exp(y, out=y)
    return np.divide(y, e, out=y)
