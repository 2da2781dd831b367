"""Independent brute-force reference implementations used by several tests.

Everything here is deliberately written with plain loops and no shared code
with the package, so agreement is evidence rather than tautology. The one
exception is `adam_oracle`, the straightforward out-of-place form of the
package's in-place Adam update, kept to pin its bits.
"""

import numpy as np


def iou_oracle(a, b):
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def nms_oracle(proposals, iou_threshold):
    """Exhaustive greedy simulation: per class, repeatedly extract the best
    remaining proposal and drop everything it overlaps too much."""
    def rank(p):
        return (-p.q, p.start, p.cls, p.end)

    kept = []
    for cls in {p.cls for p in proposals}:
        pool = [p for p in proposals if p.cls == cls]
        while pool:
            best = min(pool, key=rank)
            kept.append(best)
            pool = [p for p in pool
                    if p is not best
                    and iou_oracle((p.start, p.end), (best.start, best.end))
                    <= iou_threshold]
    return sorted(kept, key=rank)


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


def adam_oracle(params, grads, state):
    """Out-of-place bias-corrected Adam with decoupled weight decay.

    Rebinds fresh moment arrays on `state` and returns new parameters, doing
    the same float64 operations in the same order as `numerics.adam_step`.
    """
    state.step += 1
    t = state.step
    state.first_moment = state.beta1 * state.first_moment + (1.0 - state.beta1) * grads
    state.second_moment = state.beta2 * state.second_moment + (1.0 - state.beta2) * grads**2
    m_hat = state.first_moment / (1.0 - state.beta1**t)
    v_hat = state.second_moment / (1.0 - state.beta2**t)
    out = params * (1.0 - state.learning_rate * state.weight_decay)
    return out - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
