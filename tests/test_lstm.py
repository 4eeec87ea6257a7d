import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laf import lstm
from laf.errors import CorpusFormatError, ValidationError
from laf.lstm import (PARAM_FIELDS, LstmModel, LstmState, LstmTrainConfig, init_model,
                      load_lstm, lstm_backward, lstm_forward, lstm_step, param_shapes,
                      save_lstm, train_lstm, weighted_sequence_loss, zero_state)
from laf.numerics import sigmoid, softmax
from laf.synth import SynthSpec, generate_corpus

from oracles import reference_lstm_backward, reference_lstm_forward, reference_lstm_step


def zero_model(d=2, nc=3, nr=2, nl=2):
    shapes = param_shapes(d, nc, nr, nl)
    params = {name: np.zeros(shape) for name, shape in shapes.items()}
    return LstmModel(d, nc, nr, nl, **params)


def random_model(seed, d=2, nc=3, nr=2, nl=2, scale=0.4):
    return init_model(d, nc, nr, nl, init_scale=scale, seed=seed)


def sequence_loss_of(model, frames, label, weights):
    _, probs, _ = lstm_forward(model, frames)
    return weighted_sequence_loss(probs, label, weights)


def finite_difference_grads(loss_fn, model, step=1e-6):
    grads = {}
    for name in PARAM_FIELDS:
        params = getattr(model, name)
        grad = np.zeros_like(params)
        it = np.nditer(params, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[idx]
            params[idx] = orig + step
            up = loss_fn(model)
            params[idx] = orig - step
            down = loss_fn(model)
            params[idx] = orig
            grad[idx] = (up - down) / (2 * step)
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in PARAM_FIELDS:
        diff = np.abs(analytic[name] - numeric[name])
        denom = np.maximum(1.0, np.maximum(np.abs(analytic[name]), np.abs(numeric[name])))
        worst = max(worst, float((diff / denom).max()))
    return worst


# --- single step ------------------------------------------------------------

def test_zero_parameters_give_half_gates_and_zero_outputs():
    model = zero_model()
    state, y, trace = lstm_step(model, np.array([3.0, -2.0]), zero_state(model))
    np.testing.assert_array_equal(trace.i, 0.5)
    np.testing.assert_array_equal(trace.f, 0.5)
    np.testing.assert_array_equal(trace.o, 0.5)
    np.testing.assert_array_equal(state.c, 0.0)
    np.testing.assert_array_equal(trace.m, 0.0)
    np.testing.assert_array_equal(state.r, 0.0)
    np.testing.assert_array_equal(y, 0.0)


def test_scalar_cell_closed_form():
    # everything zero except the block-input bias: c_1 = 0.5 * tanh(b_c)
    model = zero_model(d=1, nc=1, nr=1, nl=1)
    model.b_c[0] = 1.0
    state, _, _ = lstm_step(model, np.array([0.0]), zero_state(model))
    assert state.c[0] == pytest.approx(0.5 * math.tanh(1.0), abs=1e-15)
    assert state.c[0] == pytest.approx(0.3807970779778824, abs=1e-12)


def test_step_matches_straight_line_reference():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = random_model(seed, d=3, nc=4, nr=3, nl=3, scale=0.8)
        x = rng.normal(0, 1, 3)
        prev = LstmState(c=rng.normal(0, 1, 4), r=rng.normal(0, 1, 3))
        state, y, _ = lstm_step(model, x, prev)
        ref_c, ref_r, ref_y = reference_lstm_step(model, x, prev.c, prev.r)
        np.testing.assert_allclose(state.c, ref_c, atol=1e-12, rtol=0)
        np.testing.assert_allclose(state.r, ref_r, atol=1e-12, rtol=0)
        np.testing.assert_allclose(y, ref_y, atol=1e-12, rtol=0)


def test_step_rejects_wrong_input_dim():
    model = zero_model(d=2)
    with pytest.raises(ValidationError):
        lstm_step(model, np.zeros(3), zero_state(model))


def test_sigmoid_is_bitwise_the_stable_tail_formula():
    special = [0.0, 1e-300, 36.0, 745.0, np.inf]
    edges = [-0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf]
    x = np.array(special + [-v for v in special[1:]] + edges
                 + list(np.random.default_rng(0).normal(0, 30, 1000)))
    out = sigmoid(x)
    pos, neg = x >= 0, x < 0
    expected_pos = 1.0 / (1.0 + np.exp(-x[pos]))
    expected_neg = np.exp(x[neg]) / (1.0 + np.exp(x[neg]))
    assert out[pos].tobytes() == expected_pos.tobytes()
    assert out[neg].tobytes() == expected_neg.tobytes()
    assert out[0] == 0.5 and out[4] == 1.0 and out[-1001] == 0.0
    assert out[9] == 0.5 and np.signbit(x[9])  # -0.0 takes the x >= 0 branch
    # in place, and in place on strided views, byte for byte the same
    fresh = sigmoid(x.copy()).tobytes()
    y = x.copy()
    assert sigmoid(y, out=y) is y and y.tobytes() == fresh
    interleaved = np.full(2 * len(x), 7.0)
    interleaved[::2] = x
    view = interleaved[::2]
    sigmoid(view, out=view)
    assert view.tobytes() == fresh and np.all(interleaved[1::2] == 7.0)
    grid = np.ascontiguousarray(x.reshape(-1, 8).T).T  # a transposed (n, 8) view
    assert sigmoid(grid, out=grid).tobytes() == fresh


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gate_ranges(seed):
    rng = np.random.default_rng(seed)
    model = random_model(seed, scale=1.5)
    state = LstmState(c=rng.normal(0, 2, 3), r=rng.normal(0, 2, 2))
    _, _, trace = lstm_step(model, rng.normal(0, 2, 2), state)
    for gate in (trace.i, trace.f, trace.o):
        assert np.all((gate > 0) & (gate < 1))
    assert np.all((trace.g > -1) & (trace.g < 1))
    assert np.all((trace.hc > -1) & (trace.hc < 1))


# --- forward ----------------------------------------------------------------

def test_forward_matches_looped_reference_step():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(2, 30))
        model = random_model(seed, d=3, nc=4, nr=3, nl=3, scale=0.8)
        frames = rng.normal(0, 1, (steps, 3))
        logits, _, trace = lstm_forward(model, frames)
        c, r = np.zeros(4), np.zeros(3)
        for t in range(steps):
            c, r, y = reference_lstm_step(model, frames[t], c, r)
            np.testing.assert_allclose(logits[t], y, atol=1e-12, rtol=0)
            np.testing.assert_allclose(trace.c[t], c, atol=1e-12, rtol=0)
            np.testing.assert_allclose(trace.r[t], r, atol=1e-12, rtol=0)


def test_forward_from_a_state_continues_the_sequence():
    model = random_model(6, scale=0.8)
    frames = np.random.default_rng(6).normal(0, 1, (9, 2))
    logits, _, trace = lstm_forward(model, frames)
    tail, _, tail_trace = lstm_forward(model, frames[4:], LstmState(c=trace.c[3], r=trace.r[3]))
    np.testing.assert_allclose(tail, logits[4:], atol=1e-12, rtol=0)
    np.testing.assert_array_equal(tail_trace.prev_c[0], trace.c[3])


def test_forward_rejects_wrong_frame_dim():
    with pytest.raises(ValidationError, match="matrix"):
        lstm_forward(zero_model(d=2), np.zeros((4, 3)))


def test_forward_single_step_equals_step_from_zero_state():
    model = random_model(3)
    frame = np.array([0.4, -1.2])
    logits, probs, trace = lstm_forward(model, frame[None, :])
    state, y, _ = lstm_step(model, frame, zero_state(model))
    np.testing.assert_array_equal(logits[0], y)
    np.testing.assert_allclose(probs[0], softmax(y))
    assert len(trace) == 1


def test_zero_model_forward_gives_uniform_softmax():
    model = zero_model(nl=5)
    _, probs, _ = lstm_forward(model, np.random.default_rng(0).normal(0, 1, (4, 2)))
    np.testing.assert_allclose(probs, 0.2)


def test_forward_is_order_sensitive():
    model = random_model(11, scale=0.8)
    frames = np.random.default_rng(5).normal(0, 1, (3, 2))
    logits_fwd, _, _ = lstm_forward(model, frames)
    logits_rev, _, _ = lstm_forward(model, frames[::-1])
    assert not np.allclose(logits_fwd[-1], logits_rev[-1])


# --- loss -------------------------------------------------------------------

def test_loss_zero_weights_zero():
    probs = np.full((4, 3), 1 / 3)
    assert weighted_sequence_loss(probs, 0, np.zeros(4)) == 0.0


def test_loss_uniform_single_step():
    probs = np.full((1, 240), 1 / 240)
    assert weighted_sequence_loss(probs, 7, np.ones(1)) == pytest.approx(math.log(240), rel=1e-12)
    assert weighted_sequence_loss(probs, 7, np.ones(1)) == pytest.approx(5.4806, abs=1e-4)


def test_loss_weighted_sum():
    probs = np.array([[0.5, 0.5], [0.1, 0.9]])
    loss = weighted_sequence_loss(probs, 0, np.array([1.0, 0.0]))
    assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_loss_rejects_bad_weights():
    probs = np.full((2, 2), 0.5)
    with pytest.raises(ValidationError):
        weighted_sequence_loss(probs, 0, np.array([1.0]))
    with pytest.raises(ValidationError):
        weighted_sequence_loss(probs, 0, np.array([-0.5, 0.2]))


# --- backward ---------------------------------------------------------------

def test_zero_weights_give_zero_gradients():
    model = random_model(2)
    frames = np.random.default_rng(2).normal(0, 1, (4, 2))
    _, _, trace = lstm_forward(model, frames)
    grads = lstm_backward(model, trace, 1, np.zeros(4))
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(grads[name], 0.0)


def test_full_bptt_matches_finite_differences():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(2, 6))
        model = random_model(seed, d=2, nc=3, nr=2, nl=2, scale=0.5)
        frames = rng.normal(0, 1, (steps, 2))
        label = int(rng.integers(0, 2))
        weights = rng.uniform(0.1, 1.0, steps)
        _, _, trace = lstm_forward(model, frames)
        analytic = lstm_backward(model, trace, label, weights)
        numeric = finite_difference_grads(
            lambda m: sequence_loss_of(m, frames, label, weights), model)
        assert max_relative_error(analytic, numeric) < 1e-5


def test_truncation_at_sequence_length_is_bitwise_full_bptt():
    model = random_model(8)
    frames = np.random.default_rng(8).normal(0, 1, (6, 2))
    weights = np.random.default_rng(9).uniform(0, 1, 6)
    _, _, trace = lstm_forward(model, frames)
    full = lstm_backward(model, trace, 1, weights, None)
    at_t = lstm_backward(model, trace, 1, weights, 6)
    beyond = lstm_backward(model, trace, 1, weights, 1000)
    for name in PARAM_FIELDS:
        assert np.array_equal(full[name], at_t[name])
        assert np.array_equal(full[name], beyond[name])


def test_unroll_one_matches_detached_recurrence_surrogate():
    model = random_model(13, scale=0.5)
    rng = np.random.default_rng(13)
    frames = rng.normal(0, 1, (5, 2))
    label = 1
    weights = rng.uniform(0.1, 1.0, 5)
    _, _, trace = lstm_forward(model, frames)
    analytic = lstm_backward(model, trace, label, weights, unroll_k=1)

    def detached_loss(m):
        # prev states frozen at the unperturbed forward values: exactly the
        # computation a one-step error horizon differentiates
        total = 0.0
        for t in range(len(trace)):
            _, y, _ = lstm_step(m, frames[t], LstmState(c=trace.prev_c[t], r=trace.prev_r[t]))
            total += weights[t] * -math.log(softmax(y)[label])
        return total

    numeric = finite_difference_grads(detached_loss, model)
    assert max_relative_error(analytic, numeric) < 1e-5


def test_truncated_backward_matches_windowed_recomputation():
    # independent route: the truncated gradient is the sum over steps t of the
    # full gradient of that step's loss over the window [t-k+1, t], starting
    # from the cached pre-window state
    model = random_model(21, scale=0.5)
    rng = np.random.default_rng(21)
    steps = 7
    frames = rng.normal(0, 1, (steps, 2))
    label = 0
    weights = rng.uniform(0.1, 1.0, steps)
    _, _, trace = lstm_forward(model, frames)
    for unroll in (2, 3, 5):
        staged = lstm_backward(model, trace, label, weights, unroll)
        total = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
        for t in range(steps):
            first = max(0, t - unroll + 1)
            state = LstmState(c=trace.prev_c[first], r=trace.prev_r[first])
            _, _, window = lstm_forward(model, frames[first:t + 1], state)
            window_weights = np.zeros(t - first + 1)
            window_weights[-1] = weights[t]
            partial = lstm_backward(model, window, label, window_weights)
            for name in PARAM_FIELDS:
                total[name] += partial[name]
        for name in PARAM_FIELDS:
            np.testing.assert_allclose(staged[name], total[name], atol=1e-12)


def test_zero_weight_step_is_ignored_by_loss_and_gradients():
    model = random_model(17)
    frames = np.random.default_rng(17).normal(0, 1, (4, 2))
    weights = np.array([1.0, 0.0, 0.7, 0.4])
    _, probs, trace = lstm_forward(model, frames)
    base_loss = weighted_sequence_loss(probs, 0, weights)
    base_grads = lstm_backward(model, trace, 0, weights)

    tampered = probs.copy()
    tampered[1] = [0.99, 0.01]
    assert weighted_sequence_loss(tampered, 0, weights) == base_loss

    trace.probs[1] = [0.99, 0.01]  # perturb the zero-weight step's softmax
    tampered_grads = lstm_backward(model, trace, 0, weights)
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(base_grads[name], tampered_grads[name])


@pytest.mark.parametrize("lengths, labels", [
    ([5, 9, 1, 12, 5, 3], [2, 0, 3, 1, 2, 0]),  # unsorted, with ties and a 1-step video
    ([6, 6, 6], [1, 3, 1]),  # every step runs every video
])
def test_batch_matches_per_video_calls(lengths, labels):
    # lengths on both sides of unroll_k; some steps weigh zero
    model = random_model(31, d=3, nc=4, nr=3, nl=4, scale=0.6)
    rng = np.random.default_rng(31)
    frames = rng.normal(0, 1, (sum(lengths), 3))
    weights = rng.uniform(0.1, 1.0, sum(lengths))
    weights[::4] = 0.0
    ends = np.cumsum(lengths)
    videos = [slice(end - length, end) for end, length in zip(ends, lengths)]
    logits, probs, trace = lstm_forward(model, frames, lengths=lengths)
    traces = []
    for rows in videos:
        one_logits, one_probs, one_trace = lstm_forward(model, frames[rows])
        np.testing.assert_allclose(logits[rows], one_logits, rtol=1e-12, atol=0)
        np.testing.assert_allclose(probs[rows], one_probs, rtol=1e-12, atol=0)
        traces.append(one_trace)
    for unroll in (None, 1, 4, 9, 12):
        batched = lstm_backward(model, trace, labels, weights, unroll)
        summed = {name: np.zeros_like(getattr(model, name)) for name in PARAM_FIELDS}
        for rows, one_trace, label in zip(videos, traces, labels):
            for name, grad in lstm_backward(model, one_trace, label, weights[rows], unroll).items():
                summed[name] += grad
        for name in PARAM_FIELDS:
            np.testing.assert_allclose(batched[name], summed[name], rtol=1e-12, atol=1e-15)


TRACE_VIEWS = ("i", "f", "g", "o", "hc", "m", "c", "r", "prev_c", "prev_r", "probs")


@pytest.mark.parametrize("lengths, labels, unroll_k, start", [
    ([5, 9, 1, 12, 5, 3], [2, 0, 3, 1, 2, 0], 9, False),  # unsorted, with ties and a 1-step video
    ([2, 7, 4, 11], [1, 3, 3, 0], 4, False),  # lengths on both sides of unroll_k
    ([6, 3, 8], [0, 2, 1], None, False),
    ([10], [3], 3, True),  # one video from a start state
])
def test_kernels_are_bitwise_the_reference_loops(lengths, labels, unroll_k, start):
    model = random_model(36, d=5, nc=6, nr=3, nl=4, scale=0.8)
    rng = np.random.default_rng(36)
    frames = rng.normal(0, 2, (sum(lengths), 5))
    weights = rng.uniform(0.0, 1.0, sum(lengths))
    state = LstmState(c=rng.normal(0, 2, 6), r=rng.normal(0, 2, 3)) if start else None
    got = lstm_forward(model, frames, state, lengths=lengths)
    want = reference_lstm_forward(model, frames, state, lengths)
    pairs = [*zip(got[:2], want[:2]),
             *((getattr(got[2], name), getattr(want[2], name)) for name in TRACE_VIEWS)]
    grads = lstm_backward(model, got[2], labels, weights, unroll_k)
    ref_grads = reference_lstm_backward(model, want[2], labels, weights, unroll_k)
    assert list(grads) == list(ref_grads) == list(PARAM_FIELDS)
    pairs += [(grads[name], ref_grads[name]) for name in PARAM_FIELDS]
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def test_batch_probabilities_are_bitwise_the_softmax_of_its_logits():
    # the trace keeps the time-major softmax for the backward pass; the caller gets it
    # back in the packed order of an unsorted batch
    model = random_model(33, d=3, nc=4, nr=3, nl=5, scale=0.8)
    frames = np.random.default_rng(33).normal(0, 2, (21, 3))
    logits, probs, trace = lstm_forward(model, frames, lengths=[4, 9, 1, 7])
    assert probs.tobytes() == softmax(logits, axis=1).tobytes()
    assert trace.probs.tobytes() == probs[trace.packed].tobytes()


@pytest.mark.parametrize("lengths", [None, [4, 9, 1, 7]])
def test_outputs_and_trace_share_no_memory(lengths):
    model = random_model(34, d=3, nc=4, nr=3, nl=5, scale=0.8)
    frames = np.random.default_rng(34).normal(0, 2, (21, 3))
    logits, probs, trace = lstm_forward(model, frames, lengths=lengths)
    kept = trace.probs.copy()
    logits[:] = -1.0
    probs[:] = -1.0
    assert np.array_equal(trace.probs, kept)
    logits, probs, trace = lstm_forward(model, frames, lengths=lengths)
    kept = logits.copy(), probs.copy()
    trace.probs[:] = -1.0
    assert np.array_equal(logits, kept[0]) and np.array_equal(probs, kept[1])


def test_single_video_outputs_are_the_softmax_of_the_output_layer():
    # B=1 inference: the logits of the traced projections and their softmax, bit for bit
    model = random_model(35, d=3, nc=4, nr=3, nl=5, scale=0.8)
    logits, probs, trace = lstm_forward(model, np.random.default_rng(35).normal(0, 2, (13, 3)))
    expected = trace.r @ model.w_yr.T + model.b_y
    assert logits.tobytes() == expected.tobytes()
    assert probs.tobytes() == softmax(expected, axis=1).tobytes() == trace.probs.tobytes()


def test_batch_rejects_bad_lengths_and_states():
    model = random_model(32)
    frames = np.zeros((5, 2))
    for lengths in ([2, 2], [5, 0], [2.0, 3.0], [], [[5]]):
        with pytest.raises(ValidationError, match="lengths"):
            lstm_forward(model, frames, lengths=lengths)
    with pytest.raises(ValidationError, match="one video"):
        lstm_forward(model, frames, zero_state(model), lengths=[2, 3])
    _, _, trace = lstm_forward(model, frames, lengths=[2, 3])
    with pytest.raises(ValidationError, match="labels"):
        lstm_backward(model, trace, [0, 1, 1], np.ones(5))


# --- training ---------------------------------------------------------------

def tiny_training_corpus(seed=0, videos_per_action=30):
    spec = SynthSpec(num_activities=1, actions_per_activity=2, feature_dim=6,
                     train_videos_per_action=videos_per_action,
                     validation_videos_per_action=1, test_videos_per_action=1,
                     frames_per_video=(8, 12), action_segment_fraction=0.5,
                     images_per_action=1, image_noise_fraction=0.0,
                     mode_separation=6.0, seed=seed)
    corpus = generate_corpus(spec)
    videos = [dataclasses.replace(v, laf_weights=np.ones(v.num_steps))
              for v in corpus.train_videos]
    return corpus, videos


def small_train_config(**overrides):
    base = dict(num_cells=16, proj_dim=8, unroll_k=20, learning_rate=0.1, lr_decay=1.0,
                batch_size=12, epochs=5, seed=0)
    base.update(overrides)
    return LstmTrainConfig(**base)


def test_zero_epochs_returns_seeded_initial_model():
    corpus, videos = tiny_training_corpus()
    config = small_train_config(epochs=0)
    model, losses = train_lstm(videos, config, corpus.num_labels, corpus.feature_dim)
    assert losses == []
    reference = init_model(corpus.feature_dim, config.num_cells, config.proj_dim,
                           corpus.num_labels, seed=config.seed)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(model, name), getattr(reference, name))
    np.testing.assert_array_equal(model.b_f, 1.0)


def test_training_loss_decreases():
    corpus, videos = tiny_training_corpus()
    model, losses = train_lstm(videos, small_train_config(), corpus.num_labels,
                               corpus.feature_dim)
    assert len(losses) == 5
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_training_loss_decreases_statistically():
    # early-epoch wobble is allowed on individual seeds; the trend must hold
    monotone = 0
    for seed in range(3):
        corpus, videos = tiny_training_corpus(seed=seed)
        _, losses = train_lstm(videos, small_train_config(seed=seed), corpus.num_labels,
                               corpus.feature_dim)
        assert losses[-1] < 0.6 * losses[0]
        monotone += all(a > b for a, b in zip(losses, losses[1:]))
    assert monotone >= 2


def test_training_is_bitwise_deterministic():
    corpus, videos = tiny_training_corpus(videos_per_action=8)
    config = small_train_config(epochs=2)
    a, _ = train_lstm(videos, config, corpus.num_labels, corpus.feature_dim)
    b, _ = train_lstm(videos, config, corpus.num_labels, corpus.feature_dim)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_training_makes_one_forward_and_backward_call_per_batch(monkeypatch):
    # perfbench counts lstm.train_steps from len(frames) of lstm_forward under train_lstm
    corpus, videos = tiny_training_corpus(videos_per_action=13)  # 26 videos: batches of 12, 12, 2
    config = small_train_config(epochs=3)
    forward_rows, backward_calls = [], []

    def counted_forward(model, frames, *args, **kwargs):
        forward_rows.append(len(frames))
        return lstm_forward(model, frames, *args, **kwargs)

    def counted_backward(*args, **kwargs):
        backward_calls.append(1)
        return lstm_backward(*args, **kwargs)

    monkeypatch.setattr(lstm, "lstm_forward", counted_forward)
    monkeypatch.setattr(lstm, "lstm_backward", counted_backward)
    train_lstm(videos, config, corpus.num_labels, corpus.feature_dim)
    batches = -(-len(videos) // config.batch_size)
    assert sum(forward_rows) == config.epochs * sum(video.num_steps for video in videos)
    assert len(forward_rows) == len(backward_calls) == config.epochs * batches


def test_training_requires_weights_and_videos():
    corpus, videos = tiny_training_corpus(videos_per_action=2)
    missing = [dataclasses.replace(videos[0], laf_weights=None)] + videos[1:]
    with pytest.raises(ValidationError, match="laf_weights"):
        train_lstm(missing, small_train_config(), corpus.num_labels, corpus.feature_dim)
    with pytest.raises(ValidationError, match="empty"):
        train_lstm([], small_train_config(), corpus.num_labels, corpus.feature_dim)


def test_divergence_stops_training_before_the_update():
    corpus, videos = tiny_training_corpus(videos_per_action=8)
    config = small_train_config(epochs=3, learning_rate=1e300, gradient_clip=None)
    with pytest.raises(ValidationError, match=r"diverged at epoch \d+, batch \d+"):
        train_lstm(videos, config, corpus.num_labels, corpus.feature_dim)


def test_gradient_clip_bounds_update_norm():
    corpus, videos = tiny_training_corpus(videos_per_action=4)
    clipped, _ = train_lstm(videos, small_train_config(epochs=1, gradient_clip=1e-6),
                            corpus.num_labels, corpus.feature_dim)
    reference = init_model(corpus.feature_dim, 16, 8, corpus.num_labels, 0.05, 0)
    drift = sum(np.abs(getattr(clipped, n) - getattr(reference, n)).max() for n in PARAM_FIELDS)
    assert drift < 1e-3  # updates were scaled down to the tiny clip norm


# --- checkpointing ----------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = random_model(5, d=3, nc=4, nr=2, nl=3)
    path = tmp_path / "model.json"
    save_lstm(model, path)
    loaded = load_lstm(path)
    assert (loaded.input_dim, loaded.num_cells, loaded.proj_dim, loaded.num_labels) == (3, 4, 2, 3)
    for name in PARAM_FIELDS:
        assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()


CHECKPOINT_ORDER = ("w_ix", "w_fx", "w_cx", "w_ox", "w_ir", "w_rf", "w_cr", "w_or",
                    "w_ic", "w_cf", "w_oc", "b_i", "b_f", "b_c", "b_o", "w_rm", "w_yr", "b_y")


def test_param_fields_are_the_checkpoint_order(tmp_path):
    assert PARAM_FIELDS == CHECKPOINT_ORDER
    assert [f.name for f in dataclasses.fields(LstmModel)][4:] == list(CHECKPOINT_ORDER)
    path = tmp_path / "model.json"
    save_lstm(random_model(1), path)
    assert list(json.loads(path.read_text())) == ["format", "version", "dims", *CHECKPOINT_ORDER]


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "model.json"
    save_lstm(init_model(2, 3, 2, 4, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "2aa254cca46903ea14e1a42d3911d4b8d94eaae04d17cbc9989f25e97556c211"


def test_checkpoint_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(CorpusFormatError):
        load_lstm(path)
    save_lstm(random_model(1), path)
    obj = json.loads(path.read_text())
    del obj["w_rm"]
    path.write_text(json.dumps(obj))
    with pytest.raises(CorpusFormatError, match="w_rm"):
        load_lstm(path)


@pytest.mark.parametrize("key, value, match", [
    ("outputs", 2.9, "'outputs': must be a JSON integer"), ("outputs", "2", "'outputs'"),
    ("cells", True, "'cells'"), ("input", None, "'input'"),
    ("projection", -2, r"w_ir: 6 values, expected shape \(3, -2\)")])
def test_checkpoint_dims_must_be_json_integers(tmp_path, key, value, match):
    path = tmp_path / "model.json"
    save_lstm(random_model(1), path)
    obj = json.loads(path.read_text())
    obj["dims"][key] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(CorpusFormatError, match=match):
        load_lstm(path)


def test_checkpoint_version_true_is_not_version_one(tmp_path):
    path = tmp_path / "model.json"
    save_lstm(random_model(1), path)
    path.write_text(path.read_text().replace('"version": 1', '"version": true'))
    with pytest.raises(CorpusFormatError, match="version"):
        load_lstm(path)


def test_config_validation():
    with pytest.raises(ValidationError):
        LstmTrainConfig(lr_decay=0.0)
    with pytest.raises(ValidationError):
        LstmTrainConfig(unroll_k=0)
