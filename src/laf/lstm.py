"""LSTM with a recurrent projection layer and weighted-loss truncated BPTT.

Cell update per step (sigma = logistic, elementwise peepholes):

    i_t = sigma(W_ix x_t + W_ir r_{t-1} + w_ic * c_{t-1} + b_i)
    f_t = sigma(W_fx x_t + W_rf r_{t-1} + w_cf * c_{t-1} + b_f)
    c_t = f_t * c_{t-1} + i_t * tanh(W_cx x_t + W_cr r_{t-1} + b_c)
    o_t = sigma(W_ox x_t + W_or r_{t-1} + w_oc * c_t + b_o)
    m_t = o_t * tanh(c_t)
    r_t = W_rm m_t
    y_t = W_yr r_t + b_y

The sequence loss is a weighted sum of per-step cross-entropies against each
video's single label. The backward pass is exact, except that the error
injected at step t flows back at most ``unroll_k`` steps (the cell state
itself is never reset; only error flow is cut). With ``unroll_k >= T`` the
result is full BPTT.

Forward and backward run B videos packed back to back as (R, d) rows, with
``lengths`` giving their step counts; one video is the B=1 case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import VideoSequence
from .errors import ValidationError
from .ioutil import atomic_write_text, decode_f64, encode_f64, json_fields, read_json_object
from .numerics import sigmoid, softmax

CHECKPOINT_FORMAT = "laf-lstm"
CHECKPOINT_VERSION = 1
DIM_KEYS = ("input", "cells", "projection", "outputs")  # checkpoint "dims", in LstmModel order


def param_shapes(input_dim: int, num_cells: int, proj_dim: int, num_labels: int) -> dict[str, tuple]:
    """The 18 parameters and their shapes, in the one order of checkpoints, initialization
    and gradients."""
    return {**dict.fromkeys(("w_ix", "w_fx", "w_cx", "w_ox"), (num_cells, input_dim)),
            **dict.fromkeys(("w_ir", "w_rf", "w_cr", "w_or"), (num_cells, proj_dim)),
            **dict.fromkeys(("w_ic", "w_cf", "w_oc", "b_i", "b_f", "b_c", "b_o"), (num_cells,)),
            "w_rm": (proj_dim, num_cells), "w_yr": (num_labels, proj_dim), "b_y": (num_labels,)}


PARAM_FIELDS = tuple(param_shapes(0, 0, 0, 0))


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


@dataclass(frozen=True, eq=False)
class LstmState:
    c: np.ndarray  # cell activation (num_cells,)
    r: np.ndarray  # projected recurrent activation (proj_dim,)


class SequenceTrace:
    """One forward pass's activations, one time-major row per step; the backward pass reads it.

    Rows run step by step and, within a step, over the videos still running,
    longest first (a stable sort); ``packed`` is each row's row in the input.
    ``blocks[t]`` is step t's (first row, video count, first previous-state row).
    The state arrays hold the B start states in their first B rows: ``c``/``r`` view
    the rows after them, ``prev_c``/``prev_r`` are copies of each row's previous state.
    ``i, f, g, o`` are the gate-major (4, R, C) ``gates`` (``g`` is the block input);
    ``probs`` holds the output softmax. One video (B=1) has the same layout, one row per block.
    """

    def __init__(self, x, states_c, states_r, gates, hc, m, probs, layout):
        self.x, self.hc, self.m, self.probs = x, hc, m, probs
        self.lengths, self.packed, self.blocks, prev = layout
        batch = len(self.lengths)
        self.prev_c, self.c = states_c[prev], states_c[batch:]
        self.prev_r, self.r = states_r[prev], states_r[batch:]
        self.i, self.f, self.g, self.o = gates

    def __len__(self) -> int:
        return len(self.x)


def _layout(lengths, rows: int) -> tuple:
    """The :class:`SequenceTrace` layout of ``rows`` packed rows: lengths, packed, blocks, prev."""
    lengths = np.asarray([rows] if lengths is None else lengths)
    if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not lengths.size \
            or lengths.min() < 1 or lengths.sum() != rows:
        raise ValidationError(f"lengths must be positive step counts summing to {rows} rows")
    batch = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max())[:, None]
    running = steps < lengths[order]  # (T, B): step t of the t-th longest video exists
    packed = (np.cumsum(lengths)[order] - lengths[order] + steps)[running]
    active = running.sum(axis=1)
    first = np.cumsum(active) - active
    prev = first + batch - np.r_[batch, active[:-1]]  # previous step's block in the state rows
    return (lengths, packed, list(zip(first.tolist(), active.tolist(), prev.tolist())),
            np.arange(rows) + np.repeat(prev - first, active))


def zero_state(model: LstmModel) -> LstmState:
    return LstmState(c=np.zeros(model.num_cells), r=np.zeros(model.proj_dim))


def init_model(input_dim: int, num_cells: int, proj_dim: int, num_labels: int,
               init_scale: float = 0.05, seed: int = 0) -> LstmModel:
    """Uniform(-scale, scale) everywhere, then forget-gate bias pinned to 1."""
    rng = np.random.default_rng(seed)
    params = {name: rng.uniform(-init_scale, init_scale, shape)
              for name, shape in param_shapes(input_dim, num_cells, proj_dim, num_labels).items()}
    params["b_f"] = np.ones(num_cells)
    return LstmModel(input_dim, num_cells, proj_dim, num_labels, **params)


def _stacked(model: LstmModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input weights (4C, d), recurrent weights (4C, P) and biases (4C), gates in i, f, g, o order."""
    return (np.concatenate([model.w_ix, model.w_fx, model.w_cx, model.w_ox]),
            np.concatenate([model.w_ir, model.w_rf, model.w_cr, model.w_or]),
            np.concatenate([model.b_i, model.b_f, model.b_c, model.b_o]))


def lstm_step(model: LstmModel, x: np.ndarray, state: LstmState) -> tuple[LstmState, np.ndarray, SequenceTrace]:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise ValidationError(f"input shape {x.shape} != ({model.input_dim},)")
    logits, _, trace = lstm_forward(model, x[None, :], state)
    return LstmState(c=trace.c[0], r=trace.r[0]), logits[0], trace


def lstm_forward(model: LstmModel, frames: np.ndarray, state: LstmState | None = None, *,
                 lengths: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray, SequenceTrace]:
    """Run B packed videos from ``state`` (default: zero); returns logits, softmax and the trace.

    ``frames`` holds the videos back to back, ``lengths`` their step counts (default: one
    video); outputs keep that row order, and ``state`` needs B=1. The input product is one
    matrix product; each step adds one recurrent product over the videos still running.
    Every B, one video included, runs this one time-major block loop.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] != model.input_dim:
        raise ValidationError(f"frames must be a (T>=1, {model.input_dim}) matrix, got {frames.shape}")
    rows, cells = frames.shape[0], model.num_cells
    lengths, packed, blocks, _ = layout = _layout(lengths, rows)
    batch = len(lengths)
    if state is not None and batch > 1:
        raise ValidationError("a start state is allowed for one video only")
    start = zero_state(model) if state is None else state
    w_x, w_r, bias = _stacked(model)
    x = frames[packed]
    # Pre-activations, activated in place. A step's block of n rows at row a is stored gate-major
    # at slab rows 4a + kn + (j - a), so its i/f pair, its g and its o are contiguous slabs.
    starts, counts = np.repeat(np.array(blocks)[:, :2], [n for _, n, _ in blocks], axis=0).T
    slot = (3 * starts + np.arange(rows))[:, None] + counts[:, None] * np.arange(4)
    gates = x @ w_x.T  # after the loop, its buffer holds the trace's gate-major (4, R, C) gates
    gates += bias
    slabs = np.empty((4 * rows, cells))
    slabs[slot] = gates.reshape(rows, 4, cells)
    c, r = np.empty((batch + rows, cells)), np.empty((batch + rows, model.proj_dim))
    c[:batch], r[:batch] = start.c, start.r
    hc, m = np.empty((2, rows, cells))
    peep_if, w_oc = np.stack([model.w_ic, model.w_cf])[:, None], model.w_oc
    w_r_t, w_rm_t = w_r.T, model.w_rm.T
    for a, n, p in blocks:
        z, c0, c1, r0 = (slabs[4 * a:4 * (a + n)].reshape(4, n, cells), c[p:p + n],
                         c[a + batch:a + batch + n], r[p:p + n])
        z += np.dot(r0, w_r_t).reshape(n, 4, cells).swapaxes(0, 1)
        i, f, g, o = z
        i_f = z[:2]
        i_f += peep_if * c0
        sigmoid(i_f, out=i_f)
        np.tanh(g, out=g)
        np.multiply(f, c0, out=c1)
        c1 += i * g
        o += w_oc * c1
        sigmoid(o, out=o)
        h, mt = hc[a:a + n], m[a:a + n]
        np.tanh(c1, out=h)
        np.multiply(o, h, out=mt)
        np.dot(mt, w_rm_t, out=r[a + batch:a + batch + n])
    gates = np.take(slabs, slot.T, axis=0, out=gates.reshape(4, rows, cells), mode="clip")
    del slabs, z, i, f, g, o, i_f  # the slabs and their views go before the (R, N) outputs
    y = r[batch:] @ model.w_yr.T + model.b_y
    unpack = np.argsort(packed)  # back to the packed order; both outputs are copies
    logits = y[unpack]
    probs = softmax(y, axis=1, out=y)  # row by row, so it commutes with the reordering
    return logits, probs[unpack], SequenceTrace(x, c, r, gates, hc, m, probs, layout)


def weighted_sequence_loss(probs: np.ndarray, labels, weights: np.ndarray) -> float:
    """Sum over steps of weight * -log P(label); ``labels`` is one label or one per row."""
    probs = np.asarray(probs)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (probs.shape[0],):
        raise ValidationError(f"weights length {weights.shape} != {probs.shape[0]} steps")
    if weights.size and weights.min() < 0:
        raise ValidationError("weights must be nonnegative")
    return float(np.sum(weights * -np.log(probs[np.arange(len(probs)), labels])))


def lstm_backward(model: LstmModel, trace: SequenceTrace, labels, weights: np.ndarray,
                  unroll_k: int | None = None) -> dict[str, np.ndarray]:
    """Gradients of :func:`weighted_sequence_loss`, summed over the traced videos.

    ``labels`` is one label or one per video; ``weights`` are packed like the frames.
    ``unroll_k`` truncates error flow: the loss at step t reaches parameters only at
    steps max(0, t - unroll_k + 1) .. t. ``None`` (or any value >= the longest video)
    selects plain full BPTT. Each live error source keeps its own carrier row in a
    (``unroll_k``, B) ring, so it retires exactly ``unroll_k`` steps after injection.
    The loop records per-row gate-error and projection-error sums; weight gradients
    are matrix products after it.
    """
    rows, batch = len(trace), len(trace.lengths)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (rows,):
        raise ValidationError(f"weights length {weights.shape} != {rows} steps")
    if np.shape(labels) not in ((), (batch,)):
        raise ValidationError(f"labels: expected one or {batch}, got shape {np.shape(labels)}")

    truncate = unroll_k is not None and unroll_k < len(trace.blocks)
    if truncate and unroll_k < 1:
        raise ValidationError("unroll_k must be >= 1")
    ring = unroll_k if truncate else 1
    cells = model.num_cells
    _, w_r, _ = _stacked(model)

    # Loss error of every row, from the forward pass's softmax, and what it injects into r_t.
    dy = trace.probs.copy()
    dy[np.arange(rows), np.repeat(np.broadcast_to(labels, batch), trace.lengths)[trace.packed]] -= 1.0
    dy *= weights[trace.packed, None]
    inject = dy @ model.w_yr

    # Per-row derivative factors: gate errors are carrier errors times these.
    i, f, g, o, hc = trace.i, trace.f, trace.g, trace.o, trace.hc
    d_o = hc * o * (1.0 - o)                               # ds_o = dm * d_o
    d_cell = o * (1.0 - hc ** 2) + d_o * model.w_oc        # dcell = dc + dm * d_cell
    d_ifg = np.stack([g * i * (1.0 - i), trace.prev_c * f * (1.0 - f), i * (1.0 - g ** 2)])
    d_carry = f + d_ifg[0] * model.w_ic + d_ifg[1] * model.w_cf  # dc_{t-1} = dcell * d_carry

    gate_sums, dr_sums = np.empty((rows, 4, cells)), np.empty((rows, model.proj_dim))
    dc, dr = np.zeros((ring, batch, cells)), np.zeros((ring, batch, model.proj_dim))
    # A step's gate errors per live source: gate-major, and copied to (K, n, 4C) rows for w_r.
    ds, ds_rows = np.empty((4, ring, batch, cells)), np.empty((ring, batch, 4, cells))
    for t in reversed(range(len(trace.blocks))):
        a, n, _ = trace.blocks[t]
        b, dc_t, dr_t, ds_t, rows_t = a + n, dc[:, :n], dr[:, :n], ds[:, :, :n], ds_rows[:, :n]
        if truncate:  # slot t % k held the sources injected k steps later: they retire
            slot = t % ring
            dc_t[slot] = 0.0
            dr_t[slot] = inject[a:b]
        else:
            dr_t[0] += inject[a:b]
        dm = np.matmul(dr_t, model.w_rm)
        dc_t += dm * d_cell[a:b]  # dcell, in place
        np.multiply(dc_t, d_ifg[:, None, a:b], out=ds_t[:3])
        np.multiply(dm, d_o[a:b], out=ds_t[3])
        np.copyto(rows_t, ds_t.transpose(1, 2, 0, 3))
        np.add.reduce(rows_t, axis=0, out=gate_sums[a:b])
        np.add.reduce(dr_t, axis=0, out=dr_sums[a:b])
        dc_t *= d_carry[a:b]
        np.matmul(rows_t.reshape(ring, n, -1), w_r, out=dr_t)

    sums = gate_sums.reshape(rows, 4 * cells)
    s_i, s_f, _, s_o = np.split(sums, 4, axis=1)
    values = [*np.split(sums.T @ trace.x, 4), *np.split(sums.T @ trace.prev_r, 4),
              (s_i * trace.prev_c).sum(axis=0), (s_f * trace.prev_c).sum(axis=0),
              (s_o * trace.c).sum(axis=0), *np.split(sums.sum(axis=0), 4),
              dr_sums.T @ trace.m, dy.T @ trace.r, dy.sum(axis=0)]
    return dict(zip(PARAM_FIELDS, values))


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
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if min(self.num_cells, self.proj_dim, self.unroll_k, self.batch_size) < 1:
            raise ValidationError("num_cells, proj_dim, unroll_k, batch_size must be positive")
        if not self.learning_rate > 0 or not (0.0 < self.lr_decay <= 1.0):  # NaN fails too
            raise ValidationError("learning_rate must be positive and lr_decay in (0, 1]")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.gradient_clip is not None and not self.gradient_clip > 0:
            raise ValidationError("gradient_clip must be positive or None")


@np.errstate(over="ignore", invalid="ignore")  # the divergence check reports non-finite values
def train_lstm(train_videos: Sequence[VideoSequence], config: LstmTrainConfig, num_labels: int,
               feature_dim: int) -> tuple[LstmModel, list[float]]:
    """Seeded mini-batch SGD over videos; returns the model and per-epoch mean losses.

    Every video must carry laf_weights (use all-ones for unweighted training).
    Each mini-batch is one forward and one backward call over its videos, packed
    in the seeded batch order; its summed gradient is averaged over the videos.
    The learning rate is multiplied by lr_decay after each epoch. The first batch
    whose loss or gradient norm is not finite raises ``ValidationError`` naming
    its (1-based) epoch and batch, before its update is applied.
    """
    if not train_videos:
        raise ValidationError("cannot train on an empty video list")
    for video in train_videos:
        if video.laf_weights is None:
            raise ValidationError(f"video {video.id!r} is missing laf_weights")

    model = init_model(feature_dim, config.num_cells, config.proj_dim, num_labels,
                       seed=config.seed)
    rng = np.random.default_rng(config.seed)
    clip = config.gradient_clip
    epoch_losses: list[float] = []
    count = len(train_videos)
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.lr_decay ** epoch
        order = rng.permutation(count)
        total_loss = 0.0
        for batch_number, start in enumerate(range(0, count, config.batch_size), 1):
            batch = [train_videos[index] for index in order[start:start + config.batch_size]]
            lengths = [video.num_steps for video in batch]
            labels = [video.label for video in batch]
            weights = np.concatenate([video.laf_weights for video in batch])
            frames = np.concatenate([video.frames for video in batch])
            probs, trace = lstm_forward(model, frames, lengths=lengths)[1:]  # logits dropped
            total_loss += weighted_sequence_loss(probs, np.repeat(labels, lengths), weights)
            del probs  # the trace keeps its own time-major copy for the backward pass
            grads = lstm_backward(model, trace, labels, weights, config.unroll_k)
            for g in grads.values():
                g /= len(batch)
            norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
            if not (np.isfinite(total_loss) and np.isfinite(norm)):
                raise ValidationError(f"training diverged at epoch {epoch + 1}, batch {batch_number}: "
                                      f"epoch loss so far {total_loss}, gradient norm {norm}")
            if clip is not None and norm > clip:
                scale = clip / norm
                for g in grads.values():
                    g *= scale
            for name in PARAM_FIELDS:
                getattr(model, name)[...] -= lr * grads[name]
        epoch_losses.append(total_loss / count)
    return model, epoch_losses


def save_lstm(model: LstmModel, path: str | Path) -> None:
    dims = (model.input_dim, model.num_cells, model.proj_dim, model.num_labels)
    obj = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
           "dims": dict(zip(DIM_KEYS, dims)),
           **{name: encode_f64(getattr(model, name)) for name in PARAM_FIELDS}}
    atomic_write_text(path, json.dumps(obj) + "\n")


def load_lstm(path: str | Path) -> LstmModel:
    obj = read_json_object(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    dims = json_fields(obj.get("dims"), dict.fromkeys(DIM_KEYS, int), f"{path}: dims")
    shapes = param_shapes(*dims.values())
    params = json_fields(obj, dict.fromkeys(PARAM_FIELDS, str), str(path))
    return LstmModel(*dims.values(), **{name: decode_f64(text, f"{path}: {name}", shapes[name])
                                        for name, text in params.items()})
