"""Independent brute-force reference implementations used by several tests.

Everything here is deliberately written with plain loops and no shared code
with the package, so agreement is evidence rather than tautology. The
exceptions pin bits rather than check a method: `sigmoid_oracle`, the
package's earlier masked logistic function, `adam_oracle`, the
straightforward out-of-place form of the package's in-place Adam update,
`finite_diff_oracle`, the package's earlier central-difference loop over
one point at a time, `packed_forward_oracle` and `backward_oracle`, the
training step's window-matrix forward and backward, which share the
package's chunk rule and loss part, and `evaluate_oracle`, which fills the
package's report record from `ap_oracle`.

`closed_form_attention_factors` is not a check of the package but the
paper's printed closed forms of the background attention gradient, which
acceptance criterion 2 holds against one another.

`video_losses_oracle` is the independent statement of the training losses:
one video's terms, one at a time, on the per-video `model.forward` outputs.
The packed `losses.compute_losses` that training and the gradient
certificate evaluate is held to it.
"""

import math
from types import SimpleNamespace

import numpy as np


def iou_oracle(a, b):
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def nms_oracle(proposals, iou_threshold):
    """Exhaustive greedy simulation over (cls, q, start, end) tuples: per
    class, repeatedly extract the best remaining proposal and drop everything
    it overlaps too much. Returns the kept tuples, best first."""
    def rank(p):
        cls, q, start, end = p
        return (-q, start, cls, end)

    kept = []
    for cls in {p[0] for p in proposals}:
        pool = [p for p in proposals if p[0] == cls]
        while pool:
            best = min(pool, key=rank)
            kept.append(best)
            pool.remove(best)
            pool = [p for p in pool if iou_oracle(p[2:], best[2:]) <= iou_threshold]
    return sorted(kept, key=rank)


def find_runs_oracle(mask):
    """Maximal runs of True as half-open (start, end) pairs."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(s), int(e)) for s, e in zip(edges[::2], edges[1::2])]


def threshold_oracle(s_l, thresholds):
    """Distinct candidate (start, end) spans, one threshold at a time."""
    seen = {}
    for theta in thresholds:
        for span in find_runs_oracle(np.asarray(s_l) >= theta):
            seen.setdefault(span)
    return list(seen)


def score_oracle(s_l, start, end):
    """Inner mean minus the mean over margins of a quarter span on each side,
    clipped to the sequence; the inner mean alone when both are empty."""
    s_l = np.asarray(s_l, dtype=np.float64)
    inner = float(np.mean(s_l[start:end]))
    margin = max(1, math.ceil((end - start) / 4))
    outer = np.concatenate([s_l[max(0, start - margin):start],
                            s_l[end:min(s_l.shape[0], end + margin)]])
    if outer.size == 0:
        return inner
    return inner - float(np.mean(outer))


def proposals_oracle(y, a, p_fg, thresholds, rho_cls, epsilon, iou_threshold):
    """The scalar proposal loop: per predicted class, fuse the softmaxed CAS
    column with the attention, collect runs threshold by threshold, score
    each with its own means, then suppress with `nms_oracle`. Returns
    (cls, q, start, end) tuples, best first."""
    y = np.asarray(y, dtype=np.float64)
    e = np.exp(y - np.max(y, axis=1, keepdims=True))
    y_bar = e / np.sum(e, axis=1, keepdims=True)
    action = np.asarray(p_fg, dtype=np.float64)[:-1]
    classes = [c for c in range(action.size) if action[c] >= rho_cls]
    if not classes:
        classes = [int(np.argmax(action))]
    candidates = []
    for cls in classes:
        s_l = epsilon * y_bar[:, cls] + (1.0 - epsilon) * np.asarray(a, dtype=np.float64)
        for start, end in threshold_oracle(s_l, thresholds):
            candidates.append((cls, score_oracle(s_l, start, end), start, end))
    return nms_oracle(candidates, iou_threshold)


def ap_oracle(proposals, ground_truths, iou_threshold):
    """Greedy score-order matching with per-video one-shot ground truths.

    proposals: (video_id, q, start, end); ground_truths: (video_id, start, end).
    Precision is accumulated at each true positive, normalized by GT count.
    """
    if not ground_truths:
        raise ValueError("no ground truths")
    order = sorted(proposals, key=lambda p: (-p[1], p[2], p[0], p[3]))
    matched = [False] * len(ground_truths)
    tp = 0
    ap_sum = 0.0
    for rank, (vid, _, start, end) in enumerate(order, start=1):
        best_iou, best_idx = 0.0, -1
        for gi, (gvid, gs, ge) in enumerate(ground_truths):
            if gvid != vid or matched[gi]:
                continue
            iou = iou_oracle((start, end), (gs, ge))
            if iou > best_iou:
                best_iou, best_idx = iou, gi
        if best_idx >= 0 and best_iou >= iou_threshold:
            matched[best_idx] = True
            tp += 1
            ap_sum += tp / rank
    return ap_sum / len(ground_truths)


def evaluate_oracle(per_video_proposals, records, iou_thresholds, num_classes):
    """`evaluate` as the scalar code ran it, with `ap_oracle` for every
    (threshold, class) AP and without the input checks: proposals become
    per-class (video_id, q, start, end) tuples, ground truths per-class
    (video_id, start, end) tuples in record order."""
    from wtalkit.evaluate import AVERAGE_RANGES, EvalReport

    gt_by_class = {c: [] for c in range(num_classes)}
    for rec in records:
        for cls, start, end in rec.ground_truth:
            gt_by_class[cls].append((rec.video_id, start, end))
    props_by_class = {c: [] for c in range(num_classes)}
    for vid, props in per_video_proposals.items():
        for c, v, b, e in zip(*(col.tolist() for col in props)):
            props_by_class[c].append((vid, v, b, e))

    scored = [c for c in range(num_classes) if gt_by_class[c]]
    skipped = tuple(c for c in range(num_classes) if not gt_by_class[c])
    thresholds = tuple(round(float(t), 4) for t in iou_thresholds)
    ap_table, map_by_threshold = {}, {}
    for thr in thresholds:
        aps = []
        for cls in scored:
            ap = ap_oracle(props_by_class[cls], gt_by_class[cls], thr)
            ap_table[(thr, cls)] = ap
            aps.append(ap)
        map_by_threshold[thr] = float(np.mean(aps)) if aps else 0.0
    averages = {}
    for label, needed in AVERAGE_RANGES.items():
        if set(needed) <= set(map_by_threshold):
            averages[label] = float(np.mean([map_by_threshold[t] for t in needed]))
    return EvalReport(iou_thresholds=thresholds, map_by_threshold=map_by_threshold,
                      ap_table=ap_table, skipped_classes=skipped, averages=averages)


def label_bytes_oracle(label):
    """The dataset label bitmask set one bit at a time: bit i % 8 of byte
    i // 8 is set when class i is present."""
    mask = bytearray((len(label) + 7) // 8)
    for i, value in enumerate(label):
        if value != 0:
            mask[i // 8] |= 1 << (i % 8)
    return bytes(mask)


def plan_oracle(num_snippets, k, rng):
    """Sampling plan drawn one segment at a time: a scalar draw from
    [start, min(start + k, T)) per segment, in segment order, repeated over
    the segment; returns the source snippet of every position."""
    source = []
    start = 0
    while start < num_snippets:
        end = min(start + k, num_snippets)
        source += [int(rng.integers(start, end))] * (end - start)
        start = end
    return source


def sigmoid_oracle(x):
    """The logistic function as the package first computed it, one boolean
    mask per sign: `numerics.sigmoid` must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def adam_oracle(params, grads, state, learning_rate, weight_decay):
    """Out-of-place bias-corrected Adam with decoupled weight decay.

    Rebinds fresh moment arrays on `state` and returns new parameters, doing
    the same float64 operations in the same order as `numerics.adam_step`.
    Beta1 = 0.9, beta2 = 0.999 and eps = 1e-8 are written out here, so the
    oracle states the rule independently of the package's constants.
    """
    state.step += 1
    t = state.step
    state.first_moment = 0.9 * state.first_moment + (1.0 - 0.9) * grads
    state.second_moment = 0.999 * state.second_moment + (1.0 - 0.999) * grads**2
    m_hat = state.first_moment / (1.0 - 0.9**t)
    v_hat = state.second_moment / (1.0 - 0.999**t)
    out = params * (1.0 - learning_rate * weight_decay)
    return out - learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def finite_diff_oracle(loss_fn, params, epsilon=1e-5):
    """Central differences one coordinate at a time: each point is its own
    one-point `loss_fn` call, (1, P) to one loss, as the package once looped."""
    from wtalkit.errors import NumericError

    params = np.array(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + epsilon
        up = loss_fn(params[None])[0]
        params[i] = orig - epsilon
        down = loss_fn(params[None])[0]
        params[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"finite_diff_grad: non-finite loss at coordinate {i}")
        grad[i] = (up - down) / (2.0 * epsilon)
    return grad


def smooth_oracle(seq):
    """Each entry's weighted mean over offsets -2..2, with weights
    exp(-d^2 / 2) summing to 1, reflecting at both ends without repeating
    the edge; a one-entry sequence is its own mean."""
    seq = np.asarray(seq, dtype=np.float64)
    t = seq.size
    weights = [math.exp(-d * d / 2.0) for d in range(-2, 3)]
    out = np.zeros(t)
    for i in range(t):
        for d, w in zip(range(-2, 3), weights):
            j = i + d
            while t > 1 and not 0 <= j < t:
                j = -j if j < 0 else 2 * (t - 1) - j
            out[i] += w / sum(weights) * seq[0 if t == 1 else j]
    return out


def video_losses_oracle(bb, tcb, video_label, hp, uses_bvl, targets=None):
    """One video's training losses, term by term, from its `model.forward`
    output `bb` and, when the continuity branch runs, the refilled pair's
    `tcb` (else None). Returns LossBreakdown(fg, bg, att, kl, bvl, total).

    fg is the cross-entropy of the pooled foreground probabilities against
    the label with its background bit set, normalized to sum to 1; bg is
    -log of the pooled background class; bvl (when `uses_bvl`) is -log of
    the background probability of the snippet-mean CAS. att is the snippet
    mean of |a - G(a_other)| over both branches, G the five-tap smoothing,
    and kl the snippet mean of KL(other || own) over both branches' softened
    CAS rows. The other branch's values come from `targets`, a (bb, tcb)
    pair from another parameter point, when given. Probabilities are
    floored at 1e-12 inside each log."""
    from wtalkit.losses import LossBreakdown

    def softmax_rows(v):
        e = np.exp(v - np.max(v, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    def log(p):
        return np.log(np.maximum(p, 1e-12))

    label = np.append(np.asarray(video_label, dtype=np.float64), 1.0)
    fg = -float(np.sum(label / label.sum() * log(bb.p_fg)))
    bg = -float(log(bb.p_bg[-1]))
    att = kl = 0.0
    if tcb is not None:
        held_bb, held_tcb = (bb, tcb) if targets is None else targets
        t = len(bb.a)
        att = sum(abs(bb.a[i] - smooth_oracle(held_tcb.a)[i])
                  + abs(tcb.a[i] - smooth_oracle(held_bb.a)[i]) for i in range(t)) / t
        p, q = softmax_rows(bb.y), softmax_rows(tcb.y)
        p_held, q_held = softmax_rows(held_bb.y), softmax_rows(held_tcb.y)
        for i in range(t):
            for c in range(p.shape[1]):
                kl += q_held[i, c] * (log(q_held[i, c]) - log(p[i, c]))
                kl += p_held[i, c] * (log(p_held[i, c]) - log(q[i, c]))
        kl = float(kl) / t
    bvl = -float(log(softmax_rows(np.mean(bb.y, axis=0))[-1])) if uses_bvl else 0.0
    total = fg + hp.lam * bg + hp.beta * (kl + att) + hp.lam * bvl
    return LossBreakdown(fg=fg, bg=bg, att=float(att), kl=kl, bvl=bvl, total=total)


def attention_factor_oracle(out, modality):
    """The honest background attention-gradient factor of one forward `out`,
    one snippet and class at a time: at each snippet, the derivative of the
    background loss -log p_bg[C] in `modality`'s attention logit, unweighted
    by lam. d z_bg[c] / d a_t is (z_bg[c] - y[t, c]) / N_b, or under BGES
    (-z_bg[c] - y[t, c]) / N_f; the fused attention is half the modality's
    sigmoid."""
    denom = out.n_f if out.bges else out.n_b
    num_classes = len(out.p_bg)
    a_m = out.a_rgb if modality == "rgb" else out.a_flow
    factors = np.zeros(len(out.a))
    for t in range(len(out.a)):
        d_a = 0.0
        for c in range(num_classes):
            g = out.p_bg[c] - (1.0 if c == num_classes - 1 else 0.0)
            d_z = ((-out.z_bg[c] if out.bges else out.z_bg[c]) - out.y[t, c]) / denom
            d_a += g * d_z
        factors[t] = d_a * 0.5 * a_m[t] * (1.0 - a_m[t])
    return factors


def closed_form_attention_factors(out, modality):
    """The paper's printed per-snippet closed forms of the background
    attention gradient, which acceptance criterion 2 checks.

    Evaluates, on one STANDARD per-video forward `out`, the per-snippet
    factor (1 - P_bg)/(-2) * (y_bg - y_i)/N_b * a_i(1 - a_i) of the plain
    gradient, the same expression with (y_bg - y_i) -> (-y_bg - y_i) and
    1/N_b -> 1/N_f (the realized normalizer swap), and the reversed-difference
    variant. Shared state across the three isolates the effect of the
    difference term.

    Returns a dict with keys std, bges, grl, increment, val, y_video_bg where
    increment = bges - (N_b/N_f) * std = val * y_video_bg exactly.
    """
    if out.bges:
        raise ValueError("closed-form factors are defined on a STANDARD forward")
    y_m = (out.y_rgb if modality == "rgb" else out.y_flow)[:, -1]
    a_m = out.a_rgb if modality == "rgb" else out.a_flow
    p_last = float(out.p_bg[-1])
    y_video_bg = float((1.0 - a_m) @ y_m) / out.n_b
    sig = a_m * (1.0 - a_m)
    f_std = (1.0 - p_last) / (-2.0) * (y_video_bg - y_m) / out.n_b * sig
    f_bges = (1.0 - p_last) / (-2.0) * (-y_video_bg - y_m) / out.n_f * sig
    f_grl = (1.0 - p_last) / (-2.0) * (y_m - y_video_bg) / out.n_b * sig
    val = (1.0 - p_last) * sig / out.n_f
    return {
        "std": f_std,
        "bges": f_bges,
        "grl": f_grl,
        "increment": f_bges - (out.n_b / out.n_f) * f_std,
        "val": val,
        "y_video_bg": y_video_bg,
    }

def packed_forward_oracle(videos, plan, params, bges):
    """The packed forward with window matrices for both branches, as it ran
    before the refilled copy was embedded from its per-segment sources: each
    refilled row gathers its own (K·D) window of refilled snippets and
    multiplies it like a base row. Returns the fields the loss part reads."""
    from wtalkit.model import MODALITIES, NORMALIZER_FLOOR
    from wtalkit.numerics import packed_windows, sigmoid, softmax

    lengths = np.array([v.x_rgb.shape[0] for v in videos])
    n = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(len(videos)), lengths)
    k = params.header[-1]
    width = max(k, 5)  # wide enough for the five smoothing taps
    wide = packed_windows(lengths, width)
    rows = wide[:, (width - k) // 2:(width + k) // 2]
    if plan is not None:
        src = plan + starts[seg]
        rows = np.concatenate([rows, src[rows]])
    cache = {}
    for name in MODALITIES:
        mod = params.modality(name)
        x = np.concatenate([getattr(v, f"x_{name}") for v in videos])
        win = np.take(x, rows, axis=0).reshape(rows.shape[0], -1)
        xe = win @ mod.w_embed.transpose(2, 1, 0).reshape(win.shape[1], -1)
        xe += mod.b_embed
        np.maximum(xe, 0.0, out=xe)
        head = np.column_stack([mod.w_cls, mod.w_att])
        h = head.T @ xe.T + np.append(mod.b_cls, mod.b_att)[:, None]
        cache[name] = (win, xe, head, h[:-1], sigmoid(h[-1]))
    y = 0.5 * (cache["rgb"][3] + cache["flow"][3])
    a = 0.5 * (cache["rgb"][4] + cache["flow"][4])
    yb, ab = y[:, :n], a[:n]
    n_f = np.maximum(np.add.reduceat(ab, starts), NORMALIZER_FLOOR)
    n_b = np.maximum(np.add.reduceat(1.0 - ab, starts), NORMALIZER_FLOOR)
    denom = n_f if bges else n_b
    z_fg = np.add.reduceat(yb * ab, starts, axis=1) / n_f
    z_bg = np.add.reduceat(yb * (1.0 - ab), starts, axis=1) / denom
    return SimpleNamespace(lengths=lengths, starts=starts, wide=wide, modal=cache,
                           y=y, a=a, n_f=n_f, denom=denom, z_fg=z_fg, z_bg=z_bg,
                           p_fg=softmax(z_fg, axis=0), p_bg=softmax(z_bg, axis=0),
                           probs=None if plan is None else softmax(y, axis=0))


def backward_oracle(videos, plan, params, hp, mode):
    """`losses.backward` through `packed_forward_oracle`: the same chunks and
    loss part, then each chunk's head and window-matrix embedding gradient
    added into the flat gradient, op for op as the training step ran them
    before the refilled copy was embedded from its sources."""
    from wtalkit.losses import LossBreakdown, _chunks, _output_grads
    from wtalkit.model import MODALITIES

    offsets = np.append(0, np.cumsum([v.x_rgb.shape[0] for v in videos]))
    grad = np.zeros(params.size)
    grads = params.from_vector(grad)
    losses = []
    for lo, hi in _chunks(videos, params.header[-1]):
        chunk_plan = None if plan is None else plan[offsets[lo]:offsets[hi]]
        fwd = packed_forward_oracle(videos[lo:hi], chunk_plan, params, mode.bges)
        parts, d_y, d_a = _output_grads(fwd, videos[lo:hi], hp, mode)
        losses.append(parts)
        d_h = np.empty((d_y.shape[0] + 1, d_y.shape[1]))
        d_h[:-1] = 0.5 * d_y
        for name in MODALITIES:
            win, xe, head, _, a_m = fwd.modal[name]
            d_h[-1] = 0.5 * d_a * a_m * (1.0 - a_m)
            d_z = d_h.T @ head.T
            d_z *= xe > 0
            d_head = d_h @ xe
            d_b_head = d_h.sum(axis=1)
            g = grads.modality(name)
            g.w_embed += (win.T @ d_z).reshape(g.w_embed.shape[::-1]).transpose(2, 1, 0)
            g.b_embed += d_z.sum(axis=0)
            g.w_cls += d_head[:-1].T
            g.b_cls += d_b_head[:-1]
            g.w_att += d_head[-1]
            g.b_att += d_b_head[-1]
    grad /= len(videos)
    means = np.concatenate(losses).mean(axis=0)
    return grad, LossBreakdown(*(float(m) for m in means))
