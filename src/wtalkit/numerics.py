"""Small dense numeric kernels: activations, temporal smoothing, Adam, and a
central-difference gradient oracle.

Everything here is float64 and pure, except the optimizer, which updates the
parameter vector and the state it is handed in place. These are the
primitives the analytic backward pass is certified against, so they stay
deliberately simple. The oracle hands its loss every difference point of a
side as one (n, P) stack, which `losses.packed_forward` and
`losses.compute_losses` evaluate in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis` (max-subtraction)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax: empty input")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(x):
    """Elementwise logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # exp(-|x|), keeping a NaN's sign bit
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def reflect_index(i, n):
    """Map indices onto [0, n) by reflection without edge repeat.

    Reflection is iterated (any offset is valid); n == 1 maps everything to 0.
    Accepts a scalar or an integer array; `n` may be an array broadcasting with `i`.
    """
    # iterated reflection is periodic with period 2(n-1); a period of 1 for
    # n == 1 sends every index of a length-1 sequence to 0
    period = 2 * n - 2 + (n == 1)
    j = np.abs(np.asarray(i)) % period
    j = np.where(j >= n, period - j, j)
    return j if np.ndim(j) else int(j)


def packed_windows(lengths, width: int) -> np.ndarray:
    """(sum(lengths), width) row indices of centred, reflect-padded windows.

    Rows are sequences of the given lengths packed back to back; every window
    reflects at its own sequence's ends, so none crosses into a neighbour.
    """
    offsets = np.arange(width) - width // 2
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)[:, None]
    local = np.arange(starts.shape[0])[:, None] - starts
    n = np.repeat(lengths, lengths)[:, None]
    return starts + reflect_index(local + offsets, n)


# the continuity smoothing: normalized exp(-d^2 / 2 sigma^2) taps for |d| <= 2, sigma = 1
GAUSS_TAPS = np.exp(-(np.arange(-2, 3, dtype=np.float64) ** 2) / 2.0)
GAUSS_TAPS /= GAUSS_TAPS.sum()
GAUSS_TAPS.flags.writeable = False


def gaussian_smooth(seq: np.ndarray) -> np.ndarray:
    """Smooth a length-T sequence with the GAUSS_TAPS kernel, reflect padding."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 1 or seq.size == 0:
        raise ValueError("gaussian_smooth: expected a non-empty 1-D sequence")
    return seq[packed_windows([seq.size], GAUSS_TAPS.size)] @ GAUSS_TAPS


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's state: the two moment vectors, zero before the first step, and
    the number of steps taken. The step size and the weight decay are
    arguments of each `adam_step`."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              learning_rate: float, weight_decay: float) -> None:
    """One bias-corrected Adam update of `params` and the moments, in place.
    Weight decay is decoupled: it shrinks the parameters directly and is
    never folded into the gradient."""
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError(
            f"adam_step: shape mismatch params {params.shape}, grads {grads.shape}, "
            f"state {state.first_moment.shape}"
        )
    state.step += 1
    t = state.step
    m, v = state.first_moment, state.second_moment
    np.add(ADAM_BETA1 * m, (1.0 - ADAM_BETA1) * grads, out=m)
    np.add(ADAM_BETA2 * v, (1.0 - ADAM_BETA2) * grads**2, out=v)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    params *= 1.0 - learning_rate * weight_decay
    params -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.all(np.isfinite(params)):
        raise NumericError("adam_step produced non-finite parameters")


def finite_diff_grad(loss_fn, params: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss at the flat vector `params`.

    The oracle every hand-derived gradient in this package is checked against.
    Coordinate i keeps its own two points, `params` with epsilon added to or
    subtracted from entry i alone. `loss_fn` maps an (n, P) stack of points
    to their n losses, and all the up points, then all the down points, go
    in one call each. The two stacks hold 2P^2 values, so the oracle is
    meant for tiny instances.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ValueError(f"finite_diff_grad: expected a flat vector, got shape {params.shape}")
    diag = np.arange(params.size)
    points_up = np.tile(params, (params.size, 1))
    points_down = points_up.copy()
    points_up[diag, diag] += epsilon
    points_down[diag, diag] -= epsilon
    up = np.asarray(loss_fn(points_up), dtype=np.float64)
    down = np.asarray(loss_fn(points_down), dtype=np.float64)
    if up.shape != params.shape or down.shape != params.shape:
        raise ValueError(f"finite_diff_grad: loss_fn gave {up.shape} and {down.shape} "
                         f"losses for {params.size} points")
    bad = np.flatnonzero(~(np.isfinite(up) & np.isfinite(down)))
    if bad.size:
        raise NumericError(f"finite_diff_grad: non-finite loss at coordinate {bad[0]}")
    return (up - down) / (2.0 * epsilon)
