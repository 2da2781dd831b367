"""Temporal continuity branch: equal-interval random sampling with refill.

One snippet is drawn from each length-k segment and repeated across its
segment, producing an affinity sequence of the original length. A single plan
is drawn per video per step and applied to both modalities so the pair stays
temporally aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ForwardOutputs, ModelParams, NormMode, forward


@dataclass(frozen=True)
class SamplePlan:
    """Chosen snippet index for each equal-interval segment of a video.

    Segment s covers snippets [s*k, min((s+1)*k, T)); a final partial segment
    is kept when k does not divide T.
    """

    num_snippets: int
    k: int
    chosen: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("SamplePlan: k must be >= 1")
        lo = np.arange(0, self.num_snippets, self.k)
        hi = np.minimum(lo + self.k, self.num_snippets)
        chosen = np.asarray(self.chosen)
        if chosen.shape != lo.shape:
            raise ValueError(f"SamplePlan: {chosen.size} choices for {lo.size} segments")
        bad = np.flatnonzero((chosen < lo) | (chosen >= hi))
        if bad.size:
            s = bad[0]
            raise ValueError(f"SamplePlan: chosen index {chosen[s]} outside segment "
                             f"[{lo[s]}, {hi[s]})")

    def snippet_source(self) -> np.ndarray:
        """Length-T array: source snippet index for every output position."""
        return np.repeat(np.asarray(self.chosen, dtype=np.int64), self.k)[: self.num_snippets]


def make_plan(num_snippets: int, k: int, rng: np.random.Generator) -> SamplePlan:
    """Draw one random snippet per segment, in one vectorised draw that
    consumes `rng` exactly as one scalar draw per segment, in order, would."""
    if num_snippets < 1:
        raise ValueError("make_plan: need at least one snippet")
    if k < 1:
        raise ValueError("make_plan: k must be >= 1")
    starts = np.arange(0, num_snippets, k)
    chosen = rng.integers(starts, np.minimum(starts + k, num_snippets))
    return SamplePlan(num_snippets=num_snippets, k=k, chosen=tuple(chosen.tolist()))


def refill(x: np.ndarray, plan: SamplePlan) -> np.ndarray:
    """Expand the sampled snippets back to the original length."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != plan.num_snippets:
        raise ValueError(f"refill: plan is for T={plan.num_snippets}, features have T={x.shape[0]}")
    return x[plan.snippet_source()]


def tcb_forward(x_rgb: np.ndarray, x_flow: np.ndarray, params: ModelParams,
                plan: SamplePlan) -> tuple:
    """Run the shared model on the refilled pair; returns fused (a_R, y_R)."""
    out = tcb_forward_full(x_rgb, x_flow, params, plan)
    return out.a, out.y


def tcb_forward_full(x_rgb: np.ndarray, x_flow: np.ndarray, params: ModelParams,
                     plan: SamplePlan) -> ForwardOutputs:
    """Same as `tcb_forward` but keeps the cached intermediates for backward."""
    return forward(refill(x_rgb, plan), refill(x_flow, plan), params, NormMode.STANDARD)
