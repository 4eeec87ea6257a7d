"""Independent reference implementations the real code is checked against.

Everything here is written with plain loops over indices, sacrificing speed
for obviousness, and must stay independent of the package internals it
verifies.
"""

import math
from types import SimpleNamespace

import numpy as np


def reference_lstm_step(model, x, prev_c, prev_r):
    """Scalar-loop evaluation of the gated cell update; returns (c, r, y)."""
    nc, nr, nl = model.num_cells, model.proj_dim, model.num_labels
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))

    def gate(wx_rows, wr_rows, peephole, bias, cell_ref):
        values = []
        for j in range(nc):
            acc = bias[j]
            for k in range(len(x)):
                acc += wx_rows[j][k] * x[k]
            for k in range(nr):
                acc += wr_rows[j][k] * prev_r[k]
            if peephole is not None:
                acc += peephole[j] * cell_ref[j]
            values.append(acc)
        return values

    i = [sig(v) for v in gate(model.w_ix, model.w_ir, model.w_ic, model.b_i, prev_c)]
    f = [sig(v) for v in gate(model.w_fx, model.w_rf, model.w_cf, model.b_f, prev_c)]
    g = [math.tanh(v) for v in gate(model.w_cx, model.w_cr, None, model.b_c, prev_c)]
    c = [f[j] * prev_c[j] + i[j] * g[j] for j in range(nc)]
    o = [sig(v) for v in gate(model.w_ox, model.w_or, model.w_oc, model.b_o, c)]
    m = [o[j] * math.tanh(c[j]) for j in range(nc)]
    r = [sum(model.w_rm[k][j] * m[j] for j in range(nc)) for k in range(nr)]
    y = [model.b_y[n] + sum(model.w_yr[n][k] * r[k] for k in range(nr)) for n in range(nl)]
    return np.array(c), np.array(r), np.array(y)


LSTM_PARAMS = ("w_ix", "w_fx", "w_cx", "w_ox", "w_ir", "w_rf", "w_cr", "w_or", "w_ic", "w_cf",
               "w_oc", "b_i", "b_f", "b_c", "b_o", "w_rm", "w_yr", "b_y")


def reference_lstm_forward(model, frames, state=None, lengths=None):
    """The batched LSTMP forward as one loop over time-major blocks whose gates are
    strided (n, 4, C) views, with a ``np.where`` sigmoid. Returns (logits, probs, trace);
    the trace is a namespace with the (R, .) arrays :func:`reference_lstm_backward` reads."""

    def sigmoid(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)

    frames = np.asarray(frames, dtype=np.float64)
    rows, cells = frames.shape[0], model.num_cells
    lengths = np.asarray([rows] if lengths is None else lengths)
    batch = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max())[:, None]
    running = steps < lengths[order]
    packed = (np.cumsum(lengths)[order] - lengths[order] + steps)[running]
    active = running.sum(axis=1)
    first = np.cumsum(active) - active
    prev_rows = first + batch - np.r_[batch, active[:-1]]
    blocks = list(zip(first.tolist(), active.tolist(), prev_rows.tolist()))
    prev = np.arange(rows) + np.repeat(prev_rows - first, active)

    w_x = np.concatenate([model.w_ix, model.w_fx, model.w_cx, model.w_ox])
    w_r = np.concatenate([model.w_ir, model.w_rf, model.w_cr, model.w_or])
    bias = np.concatenate([model.b_i, model.b_f, model.b_c, model.b_o])
    x = frames[packed]
    gates = x @ w_x.T + bias
    c, r = np.empty((batch + rows, cells)), np.empty((batch + rows, model.proj_dim))
    c[:batch] = np.zeros(cells) if state is None else state.c
    r[:batch] = np.zeros(model.proj_dim) if state is None else state.r
    hc, m = np.empty((2, rows, cells))
    peep_if, w_oc = np.stack([model.w_ic, model.w_cf])[:, None], model.w_oc
    w_r_t, w_rm_t, z_all = w_r.T, model.w_rm.T, gates.reshape(rows, 4, cells)
    for a, n, p in blocks:
        z, c0, c1, r0 = z_all[a:a + n], c[p:p + n], c[a + batch:a + batch + n], r[p:p + n]
        z += np.dot(r0, w_r_t).reshape(z.shape)
        i, f, g, o = gate = z.swapaxes(0, -2)
        gate[:2] += peep_if * c0
        gate[:2] = sigmoid(gate[:2])
        np.tanh(g, out=g)
        np.multiply(f, c0, out=c1)
        c1 += i * g
        o[:] = sigmoid(o + w_oc * c1)
        h, mt = hc[a:a + n], m[a:a + n]
        np.tanh(c1, out=h)
        np.multiply(o, h, out=mt)
        np.dot(mt, w_rm_t, out=r[a + batch:a + batch + n])
    y = r[batch:] @ model.w_yr.T + model.b_y
    unpack = np.argsort(packed)
    logits = y[unpack]
    np.subtract(y, y.max(axis=1, keepdims=True), out=y)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    probs = np.maximum(y, np.finfo(np.float64).tiny, out=y)
    i, f, g, o = np.split(gates, 4, axis=1)
    trace = SimpleNamespace(x=x, lengths=lengths, packed=packed, blocks=blocks, i=i, f=f, g=g,
                            o=o, hc=hc, m=m, c=c[batch:], r=r[batch:], prev_c=c[prev],
                            prev_r=r[prev], probs=probs)
    return logits, probs[unpack], trace


def reference_lstm_backward(model, trace, labels, weights, unroll_k=None):
    """Truncated-BPTT gradients of the weighted loss over a (``unroll_k``, B) ring of
    carrier rows, whose gate errors are (K, n, 4, C) rows; returns the 18 gradients."""
    rows, batch = len(trace.x), len(trace.lengths)
    weights = np.asarray(weights, dtype=np.float64)
    truncate = unroll_k is not None and unroll_k < len(trace.blocks)
    ring = unroll_k if truncate else 1
    cells = model.num_cells
    w_r = np.concatenate([model.w_ir, model.w_rf, model.w_cr, model.w_or])

    dy = trace.probs.copy()
    dy[np.arange(rows), np.repeat(np.broadcast_to(labels, batch), trace.lengths)[trace.packed]] -= 1.0
    dy *= weights[trace.packed, None]
    inject = dy @ model.w_yr

    i, f, g, o, hc = trace.i, trace.f, trace.g, trace.o, trace.hc
    d_o = hc * o * (1.0 - o)
    d_cell = o * (1.0 - hc ** 2) + d_o * model.w_oc
    d_ifg = np.stack([g * i * (1.0 - i), trace.prev_c * f * (1.0 - f), i * (1.0 - g ** 2)], axis=1)
    d_carry = f + d_ifg[:, 0] * model.w_ic + d_ifg[:, 1] * model.w_cf

    gate_sums, dr_sums = np.empty((rows, 4, cells)), np.empty((rows, model.proj_dim))
    dc, dr = np.zeros((ring, batch, cells)), np.zeros((ring, batch, model.proj_dim))
    ds = np.empty((ring, batch, 4, cells))
    for t in reversed(range(len(trace.blocks))):
        a, n, _ = trace.blocks[t]
        b, dc_t, dr_t, ds_t = a + n, dc[:, :n], dr[:, :n], ds[:, :n]
        if truncate:
            slot = t % ring
            dc_t[slot] = 0.0
            dr_t[slot] = inject[a:b]
        else:
            dr_t[0] += inject[a:b]
        dm = np.matmul(dr_t, model.w_rm)
        dcell = dc_t + dm * d_cell[a:b]
        np.multiply(dcell[:, :, None], d_ifg[a:b], out=ds_t[:, :, :3])
        np.multiply(dm, d_o[a:b], out=ds_t[:, :, 3])
        np.add.reduce(ds_t, axis=0, out=gate_sums[a:b])
        np.add.reduce(dr_t, axis=0, out=dr_sums[a:b])
        np.multiply(dcell, d_carry[a:b], out=dc_t)
        np.matmul(ds_t.reshape(ring, n, -1), w_r, out=dr_t)

    sums = gate_sums.reshape(rows, 4 * cells)
    s_i, s_f, _, s_o = np.split(sums, 4, axis=1)
    values = [*np.split(sums.T @ trace.x, 4), *np.split(sums.T @ trace.prev_r, 4),
              (s_i * trace.prev_c).sum(axis=0), (s_f * trace.prev_c).sum(axis=0),
              (s_o * trace.c).sum(axis=0), *np.split(sums.sum(axis=0), 4),
              dr_sums.T @ trace.m, dy.T @ trace.r, dy.sum(axis=0)]
    return dict(zip(LSTM_PARAMS, values))


def reference_inference_groups(lengths, budget):
    """Input positions grouped for inference: longest first (``sorted`` is stable), each
    group taking the next video while its steps stay within ``budget``; a video longer
    than the budget forms a group alone."""
    groups = []
    for k in sorted(range(len(lengths)), key=lambda k: -lengths[k]):
        if groups and sum(lengths[j] for j in groups[-1]) + lengths[k] <= budget:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def reference_grouped_probs(videos, budget, forward):
    """Each video's (T, N) rows of one ``forward(frames, lengths)`` per group of
    :func:`reference_inference_groups`, in input order; ``videos`` are (T, d) frame
    matrices and ``forward`` returns the stacked rows of the videos it is given."""
    probs = [None] * len(videos)
    for group in reference_inference_groups([len(v) for v in videos], budget):
        out = forward(np.concatenate([videos[k] for k in group]), [len(videos[k]) for k in group])
        first = 0
        for k in group:
            probs[k] = out[first:first + len(videos[k])]
            first += len(videos[k])
    return probs


def brute_force_nms(detections, overlap):
    """Greedy suppression by repeated max search (no sorting tricks)."""

    def iou(a, b):
        inter = max(0, min(a.end, b.end) - max(a.start, b.start))
        return inter / (a.length + b.length - inter)

    remaining = list(detections)
    kept = []
    while remaining:
        best = remaining[0]
        for det in remaining[1:]:
            better = det.score > best.score
            tie = det.score == best.score and (
                det.interval.start < best.interval.start
                or (det.interval.start == best.interval.start
                    and det.interval.length > best.interval.length))
            if better or tie:
                best = det
        kept.append(best)
        remaining = [det for det in remaining
                     if det is not best and iou(det.interval, best.interval) <= overlap]
    return kept


def brute_force_average_precision(detections, ground_truth, ratio):
    """Rank-walk matcher written directly from the matching rule."""

    def iou(a, b):
        inter = max(0, min(a.end, b.end) - max(a.start, b.start))
        return inter / (a.length + b.length - inter)

    ranked = sorted(detections, key=lambda d: (-d.score, d.video_id, d.interval.start))
    consumed = {vid: set() for vid in ground_truth}
    total_gt = sum(len(segs) for segs in ground_truth.values())
    true_positives = 0
    ap = 0.0
    for rank, det in enumerate(ranked, start=1):
        candidates = []
        for index, segment in enumerate(ground_truth.get(det.video_id, [])):
            if index in consumed.get(det.video_id, set()):
                continue
            value = iou(det.interval, segment)
            if value > ratio:
                candidates.append((value, index))
        if candidates:
            candidates.sort(key=lambda pair: -pair[0])
            consumed[det.video_id].add(candidates[0][1])
            true_positives += 1
            ap += true_positives / rank
    return ap / total_gt


def cross_entropy_loss(weights, biases, features, labels, l2_penalty):
    """Mean negative log-likelihood of softmax regression plus (l2/2) * squared norm of
    all parameters: the objective whose gradient ``cross_entropy_gradient`` returns."""
    nll = 0.0
    for x, label in zip(features, labels):
        logits = [b + sum(w * v for w, v in zip(row, x)) for row, b in zip(weights, biases)]
        top = max(logits)
        nll += top + math.log(sum(math.exp(z - top) for z in logits)) - logits[label]
    squares = sum(w * w for row in weights for w in row) + sum(b * b for b in biases)
    return nll / len(labels) + 0.5 * l2_penalty * squares


def reference_train_classifier(features, labels, num_labels, learning_rate, epochs, l2_penalty,
                               batch_size, seed):
    """Mini-batch softmax regression written out plainly: each batch is gathered by its
    indices, and every step allocates its results. Returns (weights, biases)."""

    def softmax(logits):
        z = logits - np.max(logits, axis=1, keepdims=True)
        e = np.exp(z)
        return np.maximum(e / np.sum(e, axis=1, keepdims=True), np.finfo(np.float64).tiny)

    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    weights = np.zeros((num_labels, features.shape[1]))
    biases = np.zeros(num_labels)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            x, y = features[idx], labels[idx]
            delta = softmax(x @ weights.T + biases)
            delta[np.arange(len(y)), y] -= 1.0
            grad_w = delta.T @ x / len(y) + l2_penalty * weights
            grad_b = delta.sum(axis=0) / len(y) + l2_penalty * biases
            weights -= learning_rate * grad_w
            biases -= learning_rate * grad_b
    return weights, biases


def line_by_line_brace_check(lines):
    """Whether each line's first byte is "{" and the line holds one "{", checked one
    line at a time."""
    return all(line[:1] == b"{" and line.count(b"{") == 1 for line in lines)


def reference_generate_corpus(spec):
    """The synthetic corpus drawn one array per video and per image with ``rng.normal``.

    Returns ``{"images": [(id, label, feature, relevant)], "train" / "validation" /
    "test": [(id, label, frames, (start, end))]}``.
    """

    def directions(rng, count):
        vecs = rng.standard_normal((count, spec.feature_dim))
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True) * spec.mode_separation

    num_labels = spec.num_activities * spec.actions_per_activity
    rng = np.random.default_rng((spec.seed, 0))
    action, context, noise = (directions(rng, count) for count in
                              (num_labels, spec.num_activities, spec.num_activities))
    rng = np.random.default_rng((spec.seed, 1))
    corpus = {}
    for split, count in (("train", spec.train_videos_per_action),
                         ("validation", spec.validation_videos_per_action),
                         ("test", spec.test_videos_per_action)):
        corpus[split] = []
        for label in range(num_labels):
            for i in range(count):
                steps = int(rng.integers(spec.frames_per_video[0], spec.frames_per_video[1] + 1))
                seg_len = max(1, math.floor(spec.action_segment_fraction * steps))
                start = int(rng.integers(0, steps - seg_len + 1))
                activity = label // spec.actions_per_activity
                frames = rng.normal(context[activity], spec.mode_stddev,
                                    (steps, spec.feature_dim))
                frames[start:start + seg_len] = rng.normal(action[label], spec.mode_stddev,
                                                           (seg_len, spec.feature_dim))
                corpus[split].append((f"{split}-{label:03d}-{i:03d}", label, frames,
                                      (start, start + seg_len)))
    corpus["images"] = []
    for label in range(num_labels):
        activity = label // spec.actions_per_activity
        for j in range(spec.images_per_action):
            relevant = bool(rng.random() >= spec.image_noise_fraction)
            center = action[label] if relevant else noise[activity]
            feature = rng.normal(center, spec.mode_stddev, spec.feature_dim)
            corpus["images"].append((f"img-{label:03d}-{j:04d}", label, feature, relevant))
    return corpus
