"""Temporal continuity branch: equal-interval random sampling with refill.

One snippet is drawn from each length-k segment and repeated across its
segment, producing an affinity sequence of the original length. One plan is
drawn per training step for the whole batch and applied to both modalities,
so each pair stays temporally aligned.
"""

from __future__ import annotations

import numpy as np

from .model import ForwardOutputs, ModelParams, forward


def make_plan(lengths, k: int, rng: np.random.Generator) -> np.ndarray:
    """Source snippet of every refilled row, for videos of the given lengths.

    Returns an int64 array of length sum(lengths): entry i is the snippet
    index, local to its own video, that row i of the refilled copy reads.
    Segment s of a video covers snippets [s*k, min((s+1)*k, T)); a final
    partial segment is kept when k does not divide T. All segments are drawn
    in one call that consumes `rng` exactly as one scalar draw per segment,
    in video and segment order, would.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0 or lengths.min() < 1:
        raise ValueError("make_plan: every video needs at least one snippet")
    if k < 1:
        raise ValueError("make_plan: k must be >= 1")
    segments = -(-lengths // k)
    video = np.repeat(np.arange(lengths.size), segments)
    lo = k * (np.arange(segments.sum()) - (np.cumsum(segments) - segments)[video])
    hi = np.minimum(lo + k, lengths[video])
    return np.repeat(rng.integers(lo, hi), hi - lo)


def refill(x: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Expand the sampled snippets back to the original length: row t reads
    snippet src[t] (a one-video `make_plan`)."""
    x = np.asarray(x, dtype=np.float64)
    if np.shape(src) != (x.shape[0],):
        raise ValueError(f"refill: plan has shape {np.shape(src)}, features have T={x.shape[0]}")
    return x[src]


def tcb_forward_full(x_rgb: np.ndarray, x_flow: np.ndarray, params: ModelParams,
                     src: np.ndarray) -> ForwardOutputs:
    """Run the shared model on the refilled pair (the per-video continuity
    branch) at one parameter point."""
    return forward(refill(x_rgb, src), refill(x_flow, src), params, bges=False)
