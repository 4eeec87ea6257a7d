"""LSTM with a recurrent projection layer and weighted-loss truncated BPTT.

Cell update per step (sigma = logistic, elementwise peepholes):

    i_t = sigma(W_ix x_t + W_ir r_{t-1} + w_ic * c_{t-1} + b_i)
    f_t = sigma(W_fx x_t + W_rf r_{t-1} + w_cf * c_{t-1} + b_f)
    c_t = f_t * c_{t-1} + i_t * tanh(W_cx x_t + W_cr r_{t-1} + b_c)
    o_t = sigma(W_ox x_t + W_or r_{t-1} + w_oc * c_t + b_o)
    m_t = o_t * tanh(c_t)
    r_t = W_rm m_t
    y_t = W_yr r_t + b_y

The sequence loss is a weighted sum of per-step cross-entropies against the
single video-level label. The backward pass is exact, except that the error
injected at step t flows back at most ``unroll_k`` steps (the cell state
itself is never reset; only error flow is cut). With ``unroll_k >= T`` the
result is full BPTT.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import VideoSequence
from .errors import CorpusFormatError, ValidationError
from .ioutil import atomic_write_text, decode_f64, encode_f64, read_json_object
from .numerics import sigmoid, softmax

CHECKPOINT_FORMAT = "laf-lstm"
CHECKPOINT_VERSION = 1

PARAM_FIELDS = (
    "w_ix", "w_fx", "w_cx", "w_ox",
    "w_ir", "w_rf", "w_cr", "w_or",
    "w_ic", "w_cf", "w_oc",
    "b_i", "b_f", "b_c", "b_o",
    "w_rm", "w_yr", "b_y",
)


def param_shapes(input_dim: int, num_cells: int, proj_dim: int, num_labels: int) -> dict[str, tuple]:
    shapes: dict[str, tuple] = {}
    for name in ("w_ix", "w_fx", "w_cx", "w_ox"):
        shapes[name] = (num_cells, input_dim)
    for name in ("w_ir", "w_rf", "w_cr", "w_or"):
        shapes[name] = (num_cells, proj_dim)
    for name in ("w_ic", "w_cf", "w_oc", "b_i", "b_f", "b_c", "b_o"):
        shapes[name] = (num_cells,)
    shapes["w_rm"] = (proj_dim, num_cells)
    shapes["w_yr"] = (num_labels, proj_dim)
    shapes["b_y"] = (num_labels,)
    return shapes


@dataclass(eq=False)
class LstmModel:
    input_dim: int
    num_cells: int
    proj_dim: int
    num_labels: int
    w_ix: np.ndarray
    w_fx: np.ndarray
    w_cx: np.ndarray
    w_ox: np.ndarray
    w_ir: np.ndarray
    w_rf: np.ndarray
    w_cr: np.ndarray
    w_or: np.ndarray
    w_ic: np.ndarray  # diagonal peepholes, stored as vectors
    w_cf: np.ndarray
    w_oc: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    w_rm: np.ndarray
    w_yr: np.ndarray
    b_y: np.ndarray

    def __post_init__(self):
        expected = param_shapes(self.input_dim, self.num_cells, self.proj_dim, self.num_labels)
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValidationError(f"parameter {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"parameter {name} contains non-finite values")
            setattr(self, name, arr)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def copy(self) -> "LstmModel":
        kwargs = {name: getattr(self, name).copy() for name in PARAM_FIELDS}
        return LstmModel(self.input_dim, self.num_cells, self.proj_dim, self.num_labels, **kwargs)


@dataclass(frozen=True, eq=False)
class LstmState:
    c: np.ndarray  # cell activation (num_cells,)
    r: np.ndarray  # projected recurrent activation (proj_dim,)


@dataclass(eq=False)
class StepTrace:
    """Per-step cache consumed by the backward pass."""

    x: np.ndarray
    prev_c: np.ndarray
    prev_r: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray   # tanh block input
    c: np.ndarray
    hc: np.ndarray  # tanh(c)
    o: np.ndarray
    m: np.ndarray
    r: np.ndarray
    y: np.ndarray


def zero_state(model: LstmModel) -> LstmState:
    return LstmState(c=np.zeros(model.num_cells), r=np.zeros(model.proj_dim))


def zero_grads(model: LstmModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}


def init_model(input_dim: int, num_cells: int, proj_dim: int, num_labels: int,
               init_scale: float = 0.05, seed: int = 0) -> LstmModel:
    """Uniform(-scale, scale) everywhere, then forget-gate bias pinned to 1."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(input_dim, num_cells, proj_dim, num_labels)
    params = {name: rng.uniform(-init_scale, init_scale, shapes[name]) for name in PARAM_FIELDS}
    params["b_f"] = np.ones(num_cells)
    return LstmModel(input_dim, num_cells, proj_dim, num_labels, **params)


def lstm_step(model: LstmModel, x: np.ndarray, state: LstmState) -> tuple[LstmState, np.ndarray, StepTrace]:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise ValidationError(f"input shape {x.shape} != ({model.input_dim},)")
    prev_c, prev_r = state.c, state.r
    i = sigmoid(model.w_ix @ x + model.w_ir @ prev_r + model.w_ic * prev_c + model.b_i)
    f = sigmoid(model.w_fx @ x + model.w_rf @ prev_r + model.w_cf * prev_c + model.b_f)
    g = np.tanh(model.w_cx @ x + model.w_cr @ prev_r + model.b_c)
    c = f * prev_c + i * g
    o = sigmoid(model.w_ox @ x + model.w_or @ prev_r + model.w_oc * c + model.b_o)
    hc = np.tanh(c)
    m = o * hc
    r = model.w_rm @ m
    y = model.w_yr @ r + model.b_y
    trace = StepTrace(x=x, prev_c=prev_c, prev_r=prev_r, i=i, f=f, g=g, c=c, hc=hc, o=o, m=m, r=r, y=y)
    return LstmState(c=c, r=r), y, trace


def lstm_forward(model: LstmModel, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[StepTrace]]:
    """Run a whole sequence from the zero state; returns logits, softmax, traces."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValidationError(f"frames must be a (T>=1, d) matrix, got {frames.shape}")
    state = zero_state(model)
    steps = frames.shape[0]
    logits = np.empty((steps, model.num_labels))
    traces: list[StepTrace] = []
    for t in range(steps):
        state, y, trace = lstm_step(model, frames[t], state)
        logits[t] = y
        traces.append(trace)
    return logits, softmax(logits, axis=1), traces


def weighted_sequence_loss(probs: np.ndarray, label: int, weights: np.ndarray,
                           weight_floor: float = 0.0) -> float:
    """Sum over steps of max(weight, floor) * -log P(label)."""
    probs = np.asarray(probs)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (probs.shape[0],):
        raise ValidationError(f"weights length {weights.shape} != {probs.shape[0]} steps")
    if weights.size and weights.min() < 0:
        raise ValidationError("weights must be nonnegative")
    effective = np.maximum(weights, weight_floor)
    return float(np.sum(effective * -np.log(probs[:, label])))


def _shift_down(rows: np.ndarray) -> np.ndarray:
    """Age the per-source error carriers by one step; the oldest row retires."""
    out = np.zeros_like(rows)
    out[1:] = rows[:-1]
    return out


def lstm_backward(model: LstmModel, traces: Sequence[StepTrace], label: int, weights: np.ndarray,
                  unroll_k: int | None = None, weight_floor: float = 0.0) -> dict[str, np.ndarray]:
    """Gradients of :func:`weighted_sequence_loss` wrt every parameter.

    ``unroll_k`` truncates error flow: the loss at step t reaches parameters
    only at steps max(0, t - unroll_k + 1) .. t. ``None`` (or any value >= T)
    selects plain full BPTT. Each live error source is kept in its own carrier
    row so it can retire exactly ``unroll_k`` steps after injection.
    """
    steps = len(traces)
    if steps == 0:
        raise ValidationError("backward pass needs at least one step")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (steps,):
        raise ValidationError(f"weights length {weights.shape} != {steps} steps")
    effective = np.maximum(weights, weight_floor)

    truncate = unroll_k is not None and unroll_k < steps
    if truncate and unroll_k < 1:
        raise ValidationError("unroll_k must be >= 1")
    rows = unroll_k if truncate else 1

    grads = zero_grads(model)
    dc = np.zeros((rows, model.num_cells))
    dr = np.zeros((rows, model.proj_dim))
    onehot = np.zeros(model.num_labels)
    onehot[label] = 1.0

    for t in reversed(range(steps)):
        tr = traces[t]
        if truncate:
            dc = _shift_down(dc)
            dr = _shift_down(dr)

        # Inject this step's loss error (row 0 is the age-0 source).
        dy = effective[t] * (softmax(tr.y) - onehot)
        grads["w_yr"] += np.outer(dy, tr.r)
        grads["b_y"] += dy
        dr[0] += model.w_yr.T @ dy

        # Projection and output gate.
        dm = dr @ model.w_rm
        grads["w_rm"] += np.outer(dr.sum(axis=0), tr.m)
        ds_o = (dm * tr.hc) * tr.o * (1.0 - tr.o)
        dcell = dc + dm * tr.o * (1.0 - tr.hc ** 2) + ds_o * model.w_oc

        # Cell recurrence and the remaining gates.
        ds_i = (dcell * tr.g) * tr.i * (1.0 - tr.i)
        ds_f = (dcell * tr.prev_c) * tr.f * (1.0 - tr.f)
        ds_c = (dcell * tr.i) * (1.0 - tr.g ** 2)

        sum_o = ds_o.sum(axis=0)
        sum_i = ds_i.sum(axis=0)
        sum_f = ds_f.sum(axis=0)
        sum_c = ds_c.sum(axis=0)
        grads["w_ox"] += np.outer(sum_o, tr.x)
        grads["w_or"] += np.outer(sum_o, tr.prev_r)
        grads["w_oc"] += sum_o * tr.c
        grads["b_o"] += sum_o
        grads["w_ix"] += np.outer(sum_i, tr.x)
        grads["w_ir"] += np.outer(sum_i, tr.prev_r)
        grads["w_ic"] += sum_i * tr.prev_c
        grads["b_i"] += sum_i
        grads["w_fx"] += np.outer(sum_f, tr.x)
        grads["w_rf"] += np.outer(sum_f, tr.prev_r)
        grads["w_cf"] += sum_f * tr.prev_c
        grads["b_f"] += sum_f
        grads["w_cx"] += np.outer(sum_c, tr.x)
        grads["w_cr"] += np.outer(sum_c, tr.prev_r)
        grads["b_c"] += sum_c

        # Carriers entering step t-1.
        dc = dcell * tr.f + ds_f * model.w_cf + ds_i * model.w_ic
        dr = ds_i @ model.w_ir + ds_f @ model.w_rf + ds_c @ model.w_cr + ds_o @ model.w_or

    return grads


@dataclass(frozen=True)
class LstmTrainConfig:
    num_cells: int = 32
    proj_dim: int = 16
    unroll_k: int = 20
    learning_rate: float = 0.0024
    lr_decay: float = 0.1
    batch_size: int = 12
    epochs: int = 10
    gradient_clip: float | None = 5.0
    weight_floor_epsilon: float = 0.0
    init_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if min(self.num_cells, self.proj_dim, self.unroll_k, self.batch_size) < 1:
            raise ValidationError("num_cells, proj_dim, unroll_k, batch_size must be positive")
        if self.learning_rate <= 0 or not (0.0 < self.lr_decay <= 1.0):
            raise ValidationError("learning_rate must be positive and lr_decay in (0, 1]")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.gradient_clip is not None and self.gradient_clip <= 0:
            raise ValidationError("gradient_clip must be positive or None")
        if not (0.0 <= self.weight_floor_epsilon < 1.0):
            raise ValidationError("weight_floor_epsilon must lie in [0, 1)")
        if self.init_scale <= 0:
            raise ValidationError("init_scale must be positive")


def _clip_global_norm(grads: dict[str, np.ndarray], clip: float) -> None:
    total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
    if total > clip:
        scale = clip / total
        for g in grads.values():
            g *= scale


def train_lstm(train_videos: Sequence[VideoSequence], config: LstmTrainConfig, num_labels: int,
               feature_dim: int) -> tuple[LstmModel, list[float]]:
    """Seeded mini-batch SGD over videos; returns the model and per-epoch mean losses.

    Every video must carry laf_weights (use all-ones for unweighted training).
    Batches accumulate video gradients in index order and average them; the
    learning rate is multiplied by lr_decay after each epoch.
    """
    if not train_videos:
        raise ValidationError("cannot train on an empty video list")
    for video in train_videos:
        if video.laf_weights is None:
            raise ValidationError(f"video {video.id!r} is missing laf_weights")

    model = init_model(feature_dim, config.num_cells, config.proj_dim, num_labels,
                       config.init_scale, config.seed)
    rng = np.random.default_rng(config.seed)
    epoch_losses: list[float] = []
    count = len(train_videos)
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.lr_decay ** epoch
        order = rng.permutation(count)
        total_loss = 0.0
        for start in range(0, count, config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = zero_grads(model)
            for index in batch:
                video = train_videos[index]
                _, probs, traces = lstm_forward(model, video.frames)
                total_loss += weighted_sequence_loss(probs, video.label, video.laf_weights,
                                                     config.weight_floor_epsilon)
                video_grads = lstm_backward(model, traces, video.label, video.laf_weights,
                                            config.unroll_k, config.weight_floor_epsilon)
                for name in PARAM_FIELDS:
                    grads[name] += video_grads[name]
            for name in PARAM_FIELDS:
                grads[name] /= len(batch)
            if config.gradient_clip is not None:
                _clip_global_norm(grads, config.gradient_clip)
            for name in PARAM_FIELDS:
                getattr(model, name)[...] -= lr * grads[name]
        epoch_losses.append(total_loss / count)
    return model, epoch_losses


def save_lstm(model: LstmModel, path: str | Path) -> None:
    obj: dict = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dims": {
            "input": model.input_dim,
            "cells": model.num_cells,
            "projection": model.proj_dim,
            "outputs": model.num_labels,
        },
    }
    for name in PARAM_FIELDS:
        obj[name] = encode_f64(getattr(model, name))
    atomic_write_text(path, json.dumps(obj) + "\n")


def load_lstm(path: str | Path) -> LstmModel:
    obj = read_json_object(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    try:
        dims = obj["dims"]
        input_dim, num_cells = int(dims["input"]), int(dims["cells"])
        proj_dim, num_labels = int(dims["projection"]), int(dims["outputs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{path}: malformed dims block") from exc
    shapes = param_shapes(input_dim, num_cells, proj_dim, num_labels)
    params = {}
    for name in PARAM_FIELDS:
        if name not in obj:
            raise CorpusFormatError(f"{path}: missing parameter {name!r}")
        flat = decode_f64(obj[name], str(path))
        if flat.size != int(np.prod(shapes[name])):
            raise CorpusFormatError(f"{path}: parameter {name!r} has {flat.size} values, "
                                    f"expected shape {shapes[name]}")
        params[name] = flat.reshape(shapes[name])
    return LstmModel(input_dim, num_cells, proj_dim, num_labels, **params)
