"""Independent reference implementations the real code is checked against.

Everything here is written with plain loops over indices, sacrificing speed
for obviousness, and must stay independent of the package internals it
verifies.
"""

import math

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
