"""Small dense numeric kernels: activations, temporal smoothing, Adam, and a
central-difference gradient oracle.

Everything here is float64 and pure, except the optimizer, which updates the
parameter vector and the state it is handed in place. These are the
primitives the analytic backward pass is certified against, so they stay
deliberately simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
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
    if len(lengths) == 1:  # a scalar length, no starts: ~10^5 calls per gradcheck
        return reflect_index(np.arange(lengths[0])[:, None] + offsets, int(lengths[0]))
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)[:, None]
    local = np.arange(starts.shape[0])[:, None] - starts
    n = np.repeat(lengths, lengths)[:, None]
    return starts + reflect_index(local + offsets, n)


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """Normalized exp(-d^2 / 2 sigma^2) taps for |d| <= radius."""
    if sigma <= 0:
        raise ValueError(f"gaussian kernel: sigma must be > 0, got {sigma}")
    if radius < 0:
        raise ValueError(f"gaussian kernel: radius must be >= 0, got {radius}")
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(d**2) / (2.0 * sigma**2))
    return k / k.sum()


def gaussian_smooth(seq: np.ndarray, sigma: float = 1.0, radius: int = 2) -> np.ndarray:
    """Smooth a length-T sequence with a normalized Gaussian, reflect padding."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 1 or seq.size == 0:
        raise ValueError("gaussian_smooth: expected a non-empty 1-D sequence")
    k = gaussian_kernel(sigma, radius)
    return seq[packed_windows([seq.size], k.size)] @ k


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moments plus the step size and weight decay, which `RunConfig`
    checks. The trainer lowers `learning_rate` once, halfway through a run.
    Weight decay is decoupled (applied to the parameter directly, never
    folded into the gradient).
    """

    shape: tuple
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    step: int = 0
    first_moment: np.ndarray = field(init=False)
    second_moment: np.ndarray = field(init=False)

    def __post_init__(self):
        self.first_moment = np.zeros(self.shape)
        self.second_moment = np.zeros(self.shape)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of `params` and the moments, in place."""
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
    params *= 1.0 - state.learning_rate * state.weight_decay
    params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.all(np.isfinite(params)):
        raise NumericError("adam_step produced non-finite parameters")


def finite_diff_grad(loss_fn, params: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss, one coordinate at a time.

    The oracle every hand-derived gradient in this package is checked against.
    """
    params = np.array(params, dtype=np.float64)
    grad = np.zeros_like(params)
    flat = params.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        up = loss_fn(params)
        flat[i] = orig - epsilon
        down = loss_fn(params)
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"finite_diff_grad: non-finite loss at coordinate {i}")
        gflat[i] = (up - down) / (2.0 * epsilon)
    return grad
