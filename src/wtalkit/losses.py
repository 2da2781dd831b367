"""Training losses and the hand-derived analytic gradient of their sum.

Gradient modes
--------------
STANDARD        honest gradient of the written losses.
BGES            the background pooling divides by N_f instead of N_b in the
                forward pass; the gradient is the honest gradient of that
                modified forward. Per snippet this turns the attention-path
                difference (y_bg - y_i) into (-y_bg - y_i), pushing every
                snippet toward background by the same margin.
GRL             gradient-reversal comparison: the STANDARD attention-path
                difference is negated per snippet; classifier-path gradients
                are untouched. Not the gradient of any loss.
BVL             adds an auxiliary cross-entropy that treats the video's mean
                CAS as background, weighted like the background loss by lam.
BVL_PLUS_BGES   both of the above.

The continuity losses tie the branches by mutual learning (Zhang et al.,
CVPR 2018): each branch's smoothed attention and softened CAS are a constant
target for the other.

`compute_losses` states the losses once, on a chunk's `packed_forward`, the
forward that training and batched inference share. `packed_chunks` is its
one driver over a batch: it cuts the chunks, slices the plan and names the
first video whose forward is non-finite. `backward` is the losses'
hand-derived gradient. The certificate differentiates the same function by
central differences: the packed loss of the instance's one-video chunk, with
the continuity targets held at the base point. `packed_forward` broadcasts
over a leading parameter-point axis, so the oracle evaluates its 2P points
in two calls, each point rounding as it would alone. The per-video `forward`
serves the kink filter `instance_margin`, which reads pre-activations.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import (
    NORMALIZER_FLOOR,
    Hyperparams,
    ModelParams,
    PackedWeights,
    forward,
    packed_views,
)
from .numerics import (
    GAUSS_TAPS,
    finite_diff_grad,
    gaussian_smooth,
    packed_windows,
    sigmoid,
    softmax,
)
from .ten import make_plan, tcb_forward_full

LOG_FLOOR = 1e-12
# continuity L1 residuals at most this far from 0 count as ties
L1_TIE = 1e-12
# Budget of one chunk, in float64 cells (2 MiB): the sum of T * K * D over its
# videos, one modality's window matrix. Only the base rows form one; the
# refilled copy adds its per-segment source rows and tap products, about K/k of
# the counted cells per modality. A whole golden batch fits; each long video
# runs alone.
CHUNK_CELLS = 1 << 18
# Per-modality embedding multiply-adds (rows·K·D·E) from which a chunk runs its
# two modality halves on two threads: about 0.8 ms of one-thread GEMM at 40
# GFLOP/s, against a hand-off of about 45 µs. A golden chunk holds at most
# CHUNK_CELLS·E = 8.4 M; a long video holds 59 M or more.
PAIR_WORK = 1 << 24


class GradMode(enum.Enum):
    STANDARD = "standard"
    BGES = "bges"
    GRL = "grl"
    BVL = "bvl"
    BVL_PLUS_BGES = "bvl+bges"

    @property
    def bges(self) -> bool:
        """The background pooling divides by N_f instead of N_b."""
        return self in (GradMode.BGES, GradMode.BVL_PLUS_BGES)

    @property
    def uses_bvl(self) -> bool:
        return self in (GradMode.BVL, GradMode.BVL_PLUS_BGES)

    @property
    def is_gradient(self) -> bool:
        """The update is the gradient of a loss: every mode but GRL."""
        return self is not GradMode.GRL


@dataclass
class LossBreakdown:
    """Raw (unweighted) loss components plus the weighted total, in the
    column order of `compute_losses`."""

    fg: float
    bg: float
    att: float
    kl: float
    bvl: float
    total: float


def _chunks(videos: list, kernel_size: int):
    """(start, stop) of each maximal run of consecutive videos whose packed
    window matrix fits in CHUNK_CELLS float64 cells; a video larger than
    that runs alone. No videos make no chunks."""
    start, used = 0, 0
    for i, v in enumerate(videos):
        cells = v.x_rgb.shape[0] * kernel_size * v.x_rgb.shape[1]
        if i > start and used + cells > CHUNK_CELLS:
            yield start, i
            start, used = i, 0
        used += cells
    if videos:
        yield start, len(videos)


@functools.cache
def _blas_thread_getter():
    """The loaded OpenBLAS's thread-count function, or None. Found as
    threadpoolctl finds it: in a mapped library whose file name holds
    "openblas", under one of the symbol names OpenBLAS builds export."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except (OSError, IndexError):
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = (), ctypes.c_int
                return getter
    return None


def _may_pair() -> bool:
    """Whether a second thread would run on an otherwise idle CPU: the
    process may use two CPUs, and the BLAS runs each call on one thread.
    A BLAS that already splits its calls is left alone, and so is one whose
    thread count cannot be read."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    getter = _blas_thread_getter()
    return getter is not None and getter() == 1


@functools.cache
def _worker(pid: int):
    """The one worker thread of process `pid`, started on first use; a
    forked child, whose pid differs, starts its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="wtalkit-modality")


def _by_modality(half, work: int) -> None:
    """Run `half` over the modality axis of a chunk's arrays.

    `half(m)` computes the modalities of the slice `m` and writes only their
    rows of arrays indexed (modality, ...). Below PAIR_WORK multiply-adds per
    modality, or when `_may_pair` says no, it runs as half(slice(0, 2)) on
    this thread. Otherwise the worker runs half(slice(1, 2)) while this
    thread runs half(slice(0, 1)). The bits are the same either way: each
    modality's products are the same stacked `np.matmul` calls, one BLAS call
    per modality, in the same order, and the two halves write disjoint
    arrays. An exception in either half reaches the caller, after both are
    done.
    """
    if work < PAIR_WORK or not _may_pair():
        half(slice(0, 2))
        return
    flow = _worker(os.getpid()).submit(half, slice(1, 2))
    try:
        half(slice(0, 1))
    finally:
        flow.exception()  # wait: the worker writes into the caller's arrays
    flow.result()


@dataclass
class RefillTables:
    """Index tables of a chunk's refilled copy, shared by both modalities and
    by the forward and backward.

    A segment is a run of equal plan entries within a video. All its rows
    read one source snippet, so the refilled copy is embedded from the S
    source rows alone. Their (K·S, E) tap products are numbered tap·S +
    segment, and tap j of refilled row r reads product `taps[j, r]`. The
    backward sums d_z back into each product's cell: level l of `sums`
    holds, for every cell, the row that reads it unreflected from the l-th
    row of its segment, or the zero pad row; the few reflected taps at video
    ends are `edge_rows`, added into `edge_cells`. Rows count from the
    refilled copy's first row, n; the pad row is 2n.
    """

    sources: np.ndarray     # (S,) chunk row that each segment reads
    taps: np.ndarray        # (K, n)
    sums: np.ndarray        # (longest segment, K·S)
    edge_rows: np.ndarray
    edge_cells: np.ndarray


def _refill_tables(rows: np.ndarray, src: np.ndarray) -> RefillTables:
    """Tables for the base rows' (n, K) window table `rows` and the chunk row
    `src` that each refilled row reads."""
    n, k = rows.shape
    rows = rows.T.copy()  # tap-major
    reflected = rows != np.arange(n) + np.arange(-(k // 2), k // 2 + 1)[:, None]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(src[1:], src[:-1], out=new[1:])  # src is chunk-global: runs never span videos
    first = new.nonzero()[0]
    seg = new.cumsum(dtype=np.intp)
    seg -= 1
    taps = seg[rows]
    taps += first.size * np.arange(k)[:, None]
    # the row whose tap j reads row t unreflected is the one t's mirrored tap reads
    readers = rows[::-1] + n
    readers[reflected[::-1]] = 2 * n
    pos = np.arange(n) - first[seg]
    levels = pos.max() + 1
    sums = np.full((levels, k, first.size), 2 * n)
    sums[pos, :, seg] = readers.T
    edge_j, edge_r = reflected.nonzero()
    return RefillTables(sources=src[first], taps=taps, sums=sums.reshape(levels, -1),
                        edge_rows=n + edge_r, edge_cells=taps[edge_j, edge_r])


@dataclass
class PackedForward:
    """One chunk's packed forward pass, as training and inference read it.

    `wide` is the base rows' reflect-padded index table, wide enough for the
    conv windows and the smoothing taps; `refill` holds the refilled copy's
    tables (None without a plan). Per
    modality, stacked (rgb, flow): `win` the base rows' window matrix, `xs`
    the refilled copy's per-segment source rows, `xe` the ReLU embedding of
    all rows and `a_modal` the attention. The refilled copy is embedded from
    its source rows and forms no window matrix. `y` (C+1, rows) and `a` are
    the fused CAS logits and attention; the pooled fields are per video, over
    its base rows. With a plan, `probs` is the softened CAS of every row,
    which the continuity KL reads. At a stack of parameter points every
    field that depends on them has a leading point axis.
    """

    lengths: np.ndarray
    starts: np.ndarray
    wide: np.ndarray
    refill: RefillTables | None
    win: np.ndarray
    xs: np.ndarray | None
    xe: np.ndarray
    a_modal: np.ndarray
    y: np.ndarray
    a: np.ndarray
    n_f: np.ndarray
    denom: np.ndarray
    z_fg: np.ndarray
    z_bg: np.ndarray
    p_fg: np.ndarray
    p_bg: np.ndarray
    probs: np.ndarray | None


def packed_forward(videos: list, plan: np.ndarray | None, params: ModelParams,
                   bges: bool = False) -> PackedForward:
    """Forward of one chunk as packed rows: the chunk's videos back to back,
    then (with a plan) their refilled copies in the same order, so both
    branches share the head GEMM. Each GEMM multiplies the arrays of
    `params.packed` as they are stored. A modality's half (window gather,
    embedding, the refilled copy's tap products and sums, bias and ReLU,
    head) writes its rows of arrays allocated once for both modalities, and
    `_by_modality` runs the two halves. Per-row head outputs are held
    class-major, (C+2, rows): the C+1 CAS logits, then the attention logit.
    The background pooling divides by N_f when `bges` is set, else by N_b.

    `params` may be a stack of points (`from_vector` of an (n, P) array).
    Every output then has a leading point axis, and each point rounds as a
    one-point call does: each product is the BLAS call one point makes, and
    every reduction stays on its own axis.
    """
    lengths = np.array([v.x_rgb.shape[0] for v in videos])
    n = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    weights, points = params.packed, params.points
    d, e, _, k = params.header
    # one table serves the conv windows and the smoothing taps: column
    # width // 2 of every row is the row itself
    width = max(k, GAUSS_TAPS.size)
    wide = packed_windows(lengths, width)
    rows = wide[:, (width - k) // 2 : (width + k) // 2]
    refill = None if plan is None else _refill_tables(rows, plan + starts.repeat(lengths))

    x = np.concatenate([v.x_rgb for v in videos] + [v.x_flow for v in videos]).reshape(2, n, -1)
    win = np.empty((2, n, k * d))
    xs = None if refill is None else np.empty((2, refill.sources.size, d))
    xe = np.empty(points + (2, n if refill is None else 2 * n, e))
    h = np.empty(points + (2, weights.head.shape[-1], xe.shape[-2]))

    def modality_half(m: slice) -> None:
        # rows is in range by construction; "clip" writes `out` unbuffered
        x[m].take(rows, axis=1, out=win[m].reshape(-1, n, k, d), mode="clip")
        xe_m, w_rows = xe[..., m, :, :], weights.rows[..., m, :, :]
        np.matmul(win[m], w_rows, out=xe_m[..., :n, :])
        if refill is not None:
            # x_R[reflect(t+j)] = x[source of its segment]: K products per segment
            xs[m] = x[m, refill.sources]
            prods = np.matmul(xs[m, None], w_rows.reshape(w_rows.shape[:-2] + (k, d, e)))
            prods = prods.reshape(prods.shape[:-3] + (k * refill.sources.size, e))
            xe_m[..., n:, :] = prods.take(refill.taps[0], axis=-2)
            for cells in refill.taps[1:]:
                xe_m[..., n:, :] += prods.take(cells, axis=-2)
        xe_m += weights.bias[..., m, None, :]
        np.maximum(xe_m, 0.0, out=xe_m)  # ReLU in place; xe > 0 is the z > 0 mask
        np.matmul(weights.head[..., m, :, :].swapaxes(-1, -2), xe_m.swapaxes(-1, -2),
                  out=h[..., m, :, :])
        h[..., m, :, :] += weights.head_bias[..., m, :, None]

    _by_modality(modality_half, n * k * d * e)
    a_modal = sigmoid(h[..., -1, :])
    y = 0.5 * (h[..., 0, :-1, :] + h[..., 1, :-1, :])
    a = 0.5 * (a_modal[..., 0, :] + a_modal[..., 1, :])

    # base-branch pooling, one segment per video
    yb, ab = y[..., :n], a[..., :n]
    n_f = np.maximum(np.add.reduceat(ab, starts, axis=-1), NORMALIZER_FLOOR)
    denom = (n_f if bges else
             np.maximum(np.add.reduceat(1.0 - ab, starts, axis=-1), NORMALIZER_FLOOR))
    z_fg = np.add.reduceat(yb * ab[..., None, :], starts, axis=-1) / n_f[..., None, :]
    z_bg = np.add.reduceat(yb * (1.0 - ab)[..., None, :], starts, axis=-1) / denom[..., None, :]
    p_fg, p_bg = softmax(z_fg, axis=-2), softmax(z_bg, axis=-2)
    return PackedForward(lengths=lengths, starts=starts, wide=wide, refill=refill, win=win,
                         xs=xs, xe=xe, a_modal=a_modal, y=y, a=a, n_f=n_f, denom=denom,
                         z_fg=z_fg, z_bg=z_bg, p_fg=p_fg, p_bg=p_bg,
                         probs=None if refill is None else softmax(y, axis=-2))


def packed_chunks(videos: list, plan: np.ndarray | None, params: ModelParams,
                  bges: bool = False):
    """(lo, hi, packed_forward) of each `_chunks` chunk videos[lo:hi], with its
    rows of `plan`. Raises NumericError naming, by batch position and id, the
    first video whose rows or pooled outputs are non-finite. A caller drops
    each forward before the next, so one chunk's arrays are alive at a time."""
    offsets = np.cumsum([0] + [v.x_rgb.shape[0] for v in videos])
    for lo, hi in _chunks(videos, params.header[-1]):
        fwd = packed_forward(videos[lo:hi], None if plan is None
                             else plan[offsets[lo]:offsets[hi]], params, bges)
        if not all(np.all(np.isfinite(arr)) for arr in (fwd.y, fwd.a, fwd.p_fg, fwd.p_bg)):
            ok_rows = np.isfinite(fwd.y).all(axis=0) & np.isfinite(fwd.a)
            ok_rows = ok_rows.reshape(-1, fwd.lengths.sum()).all(axis=0)  # n + r refills r
            ok = (np.logical_and.reduceat(ok_rows, fwd.starts)
                  & np.isfinite(fwd.p_fg + fwd.p_bg).all(axis=0))
            bad = lo + int(np.flatnonzero(~ok)[0])
            raise NumericError(f"forward produced non-finite outputs at batch position "
                               f"{bad} ({videos[bad].video_id})")
        yield lo, hi, fwd
        del fwd


def continuity_targets(fwd) -> tuple:
    """The continuity losses' targets of a one-point packed forward with a
    plan: (smooth, probs). Row r of `smooth` is the attention of the other
    branch's row for r's snippet, smoothed by GAUSS_TAPS within its video;
    `probs` is the softened CAS of every row."""
    n = int(fwd.lengths.sum())
    width, size = fwd.wide.shape[1], GAUSS_TAPS.size
    taps = fwd.wide[:, (width - size) // 2 : (width + size) // 2]
    return fwd.a[np.concatenate([taps + n, taps])] @ GAUSS_TAPS, fwd.probs


def label_targets(videos: list, classes: int) -> np.ndarray:
    """(C+1, videos) foreground targets: each video's multi-hot label with the
    background bit set (every untrimmed video holds background), summing to 1."""
    label = np.ones((classes, len(videos)))
    label[:-1] = np.array([v.video_label for v in videos]).T
    return label / label.sum(axis=0)


def _mean_cas_probs(fwd) -> np.ndarray:
    """Softmax of each video's snippet-mean CAS, (..., C+1, videos)."""
    mean = np.add.reduceat(fwd.y[..., :int(fwd.lengths.sum())], fwd.starts, axis=-1)
    return softmax(mean / fwd.lengths, axis=-2)


def compute_losses(fwd, y_hat: np.ndarray, targets: tuple | None, hp: Hyperparams,
                   mode: GradMode) -> np.ndarray:
    """The training losses of a chunk's packed forward `fwd`: (videos, 6) in
    LossBreakdown order, with `fwd`'s leading point axes.

    fg is the cross-entropy of p_fg against `y_hat`, the chunk's
    `label_targets`, bg is
    -log p_bg[C], and bvl (BVL modes only; else 0) is -log of the background
    probability of the video's mean CAS. With a refilled copy, att is the
    snippet mean of the L1 distances between each branch's attention and
    the other branch's smoothed attention, and kl the snippet mean of the
    KL divergences of each branch's softened CAS row from the other's. The
    other branch's values are the `continuity_targets` `targets` (None
    without a refilled copy): those of `fwd` itself in training, where
    mutual learning holds them constant in the gradient, and those of the
    base point in the finite-difference loss.
    """
    lengths, y, a = fwd.lengths, fwd.y, fwd.a
    n = int(lengths.sum())
    losses = np.zeros(a.shape[:-1] + (y_hat.shape[1], 6))
    losses[..., 0] = -np.sum(y_hat * np.log(np.maximum(fwd.p_fg, LOG_FLOOR)), axis=-2)
    losses[..., 1] = -np.log(np.maximum(fwd.p_bg[..., -1, :], LOG_FLOOR))
    if y.shape[-1] > n:  # the refilled copy's rows follow the base rows
        smooth, p_t = targets
        l1 = np.abs(a - smooth)
        losses[..., 2] = np.add.reduceat(l1[..., :n] + l1[..., n:], fwd.starts,
                                         axis=-1) / lengths
        log_p = np.log(np.maximum(fwd.probs, LOG_FLOOR))
        log_t = log_p if p_t is fwd.probs else np.log(np.maximum(p_t, LOG_FLOOR))
        kl = (np.sum(p_t[..., n:] * (log_t[..., n:] - log_p[..., :n]), axis=-2)
              + np.sum(p_t[..., :n] * (log_t[..., :n] - log_p[..., n:]), axis=-2))
        losses[..., 3] = np.add.reduceat(kl, fwd.starts, axis=-1) / lengths
    if mode.uses_bvl:
        losses[..., 4] = -np.log(np.maximum(_mean_cas_probs(fwd)[..., -1, :], LOG_FLOOR))
    losses[..., 5] = (losses[..., 0] + hp.lam * losses[..., 1]
                      + hp.beta * (losses[..., 2] + losses[..., 3]) + hp.lam * losses[..., 4])
    return losses


def _output_grads(fwd, videos: list, hp: Hyperparams, mode: GradMode) -> tuple:
    """Losses of a chunk's packed forward, by `compute_losses` with live
    targets, and their gradient in its fused outputs: the (videos, 6) losses,
    d_y and d_a."""
    lengths, y, a, n_f, denom = fwd.lengths, fwd.y, fwd.a, fwd.n_f, fwd.denom
    z_fg, z_bg, p_fg, p_bg = fwd.z_fg, fwd.z_bg, fwd.p_fg, fwd.p_bg
    y_hat = label_targets(videos, y.shape[0])
    targets = None if fwd.probs is None else continuity_targets(fwd)
    losses = compute_losses(fwd, y_hat, targets, hp, mode)
    n = int(lengths.sum())
    seg = np.repeat(np.arange(len(videos)), lengths)
    yb, ab = y[:, :n], a[:n]
    d_y = np.zeros_like(y)
    d_a = np.zeros_like(a)

    # foreground cross-entropy
    g_fg = (p_fg - y_hat)[:, seg]
    d_y[:, :n] = g_fg * (ab / n_f[seg])
    d_a[:n] = np.sum((yb - z_fg[:, seg]) * g_fg, axis=0) / n_f[seg]

    # background cross-entropy; the modes live entirely on this path
    g_bg = p_bg.copy()
    g_bg[-1] -= 1.0
    g_bg = g_bg[:, seg]
    d_y[:, :n] += (hp.lam * g_bg) * ((1.0 - ab) / denom[seg])
    z_bg_sign = -1.0 if mode.bges else 1.0
    att_path = np.sum((z_bg_sign * z_bg[:, seg] - yb) * g_bg, axis=0) / denom[seg]
    d_a[:n] += hp.lam * (-att_path if mode is GradMode.GRL else att_path)

    # background video loss on the mean CAS
    if mode.uses_bvl and hp.lam != 0.0:
        p_mean = _mean_cas_probs(fwd)
        p_mean[-1] -= 1.0
        d_y[:, :n] += hp.lam * (p_mean / lengths)[:, seg]

    # continuity: each branch moves toward the other's held values
    if targets is not None and hp.beta != 0.0:
        smooth, probs = targets
        scale = np.tile(hp.beta / lengths[seg], 2)
        # a residual within rounding of zero (a one-snippet video, whose
        # refilled copy is its base row) has no sign: subgradient 0 there
        res = a - smooth
        signs = np.where(np.abs(res) > L1_TIE, np.sign(res), 0.0)
        p, q = probs[:, :n], probs[:, n:]
        d_y[:, :n] += scale[:n] * (p - q)
        d_y[:, n:] += scale[:n] * (q - p)
        d_a += scale * signs
    return losses, d_y, d_a


def _chunk_backward(fwd: PackedForward, videos: list, params: ModelParams,
                    hp: Hyperparams, mode: GradMode, acc: PackedWeights) -> np.ndarray:
    """Analytic backward of the chunk `videos` through its forward `fwd`.

    Adds the gradient of the summed per-video totals into `acc`, the packed
    arrays of a gradient vector; returns the (videos, 6) losses in
    LossBreakdown order. From the fused outputs' gradient on, each modality's
    half (d_z, and the embedding, bias and head sums into its rows of `acc`)
    runs through `_by_modality`.
    """
    losses, d_y, d_a = _output_grads(fwd, videos, hp, mode)
    n, refill, xe = int(fwd.lengths.sum()), fwd.refill, fwd.xe
    # through both modality heads (0.5 fusion)
    d_h = np.empty((2, d_y.shape[0] + 1, d_y.shape[1]))
    d_h[:, :-1] = 0.5 * d_y
    d_h[:, -1] = 0.5 * d_a * fwd.a_modal * (1.0 - fwd.a_modal)
    d_z = np.empty((2, xe.shape[1] + 1, xe.shape[2]))
    d_z[:, -1] = 0.0  # the pad row of refill.sums

    def modality_half(m: slice) -> None:
        np.matmul(d_h[m].transpose(0, 2, 1), params.packed.head[m].transpose(0, 2, 1),
                  out=d_z[m, :-1])
        d_z[m, :-1] *= xe[m] > 0
        acc.rows[m] += np.matmul(fwd.win[m].transpose(0, 2, 1), d_z[m, :n])
        if refill is not None:
            # each (segment, tap) cell's d_z sum: runs of rows, then the reflected taps
            r = d_z[m].take(refill.sums[0], axis=1)
            for level in refill.sums[1:]:
                r += d_z[m].take(level, axis=1)
            np.add.at(r, (slice(None), refill.edge_cells), d_z[m, refill.edge_rows])
            xs = fwd.xs[m].transpose(0, 2, 1)[:, None]
            r = r.reshape(len(r), -1, xs.shape[3], r.shape[2])
            acc.rows[m] += np.matmul(xs, r).reshape(acc.rows[m].shape)
        acc.bias[m] += d_z[m, :-1].sum(axis=1)
        acc.head[m] += np.matmul(d_h[m], xe[m]).transpose(0, 2, 1)
        acc.head_bias[m] += d_h[m].sum(axis=2)

    _by_modality(modality_half, n * fwd.win.shape[2] * xe.shape[2])
    return losses


def backward(videos: list, plan: np.ndarray | None, params: ModelParams,
             hp: Hyperparams, mode: GradMode) -> tuple:
    """Analytic gradient of the batch-mean joint loss, one packed pass per chunk.

    `videos` need x_rgb, x_flow and video_label; `plan` is the batch's
    `make_plan` array when the continuity branch runs, else None. Returns the
    flat gradient (ModelParams.to_vector order) and the mean LossBreakdown.
    """
    lengths = np.array([v.x_rgb.shape[0] for v in videos])
    if lengths.min() < 1:
        raise ValueError("backward: every video needs at least one snippet")
    if plan is not None:
        limits = np.repeat(lengths, lengths)
        if np.shape(plan) != limits.shape:
            raise ValueError(f"backward: plan has shape {np.shape(plan)} "
                             f"for {limits.size} snippets")
        bad = np.flatnonzero((plan < 0) | (plan >= limits))
        if bad.size:
            raise ValueError(f"backward: plan row {bad[0]} reads snippet {plan[bad[0]]} "
                             f"of a video with T={limits[bad[0]]}")
    grad = np.zeros(params.size)
    acc = packed_views(grad, params.header)
    losses = []
    for lo, hi, fwd in packed_chunks(videos, plan, params, mode.bges):
        losses.append(_chunk_backward(fwd, videos[lo:hi], params, hp, mode, acc))
        del fwd  # before the next chunk's forward
    grad /= len(videos)
    if not np.all(np.isfinite(grad)):
        raise NumericError("backward produced non-finite gradients")
    means = np.concatenate(losses).mean(axis=0)
    return grad, LossBreakdown(*(float(m) for m in means))


# tiny instance shape: snippets T, features D, embedding E, classes C, taps K, interval k
TINY_T, TINY_D, TINY_E, TINY_C, TINY_K, TINY_INTERVAL = 8, 6, 5, 3, 3, 3


@dataclass
class TinyInstance:
    """One randomly drawn model + video, small enough to finite-difference."""

    x_rgb: np.ndarray
    x_flow: np.ndarray
    params: ModelParams
    plan: np.ndarray
    video_label: np.ndarray
    seed: int

    @property
    def video_id(self) -> str:
        return f"tiny-{self.seed}"


def make_tiny_instance(seed: int) -> TinyInstance:
    rng = np.random.default_rng(seed)
    x_rgb = rng.normal(0.0, 1.0, size=(TINY_T, TINY_D))
    x_flow = rng.normal(0.0, 1.0, size=(TINY_T, TINY_D))

    params = ModelParams.zeros(TINY_D, TINY_E, TINY_C, TINY_K)
    for name, block in params.blocks():
        scale = 0.5 if ".w_" in name else 0.1
        block[...] = rng.normal(0.0, scale, size=block.shape)
    plan = make_plan([TINY_T], TINY_INTERVAL, rng)
    label = np.zeros(TINY_C)
    label[rng.integers(0, TINY_C)] = 1.0
    if rng.random() < 0.5:
        label[rng.integers(0, TINY_C)] = 1.0
    return TinyInstance(x_rgb=x_rgb, x_flow=x_flow, params=params, plan=plan,
                        video_label=label, seed=seed)


def instance_margin(inst: TinyInstance, mode: GradMode) -> float:
    """Smallest distance to any non-differentiable point or active floor of
    an instance at its base point, measured on its per-video forward pair,
    which keeps the pre-activation embeddings.

    Central differences near ReLU or absolute-value kinks measure the wrong
    one-sided slope, so certification instances are rejected when any margin
    is below the step size by a wide factor. The attention margins are
    against the other branch's track smoothed by the constant GAUSS_TAPS, as
    in the continuity loss.
    """
    bb = forward(inst.x_rgb, inst.x_flow, inst.params, mode.bges)
    tcb = tcb_forward_full(inst.x_rgb, inst.x_flow, inst.params, inst.plan)
    margins = [
        float(np.min(np.abs(bb.z_rgb))), float(np.min(np.abs(bb.z_flow))),
        float(np.min(np.abs(tcb.z_rgb))), float(np.min(np.abs(tcb.z_flow))),
    ]
    margins.append(float(np.min(np.abs(bb.a - gaussian_smooth(tcb.a)))))
    margins.append(float(np.min(np.abs(tcb.a - gaussian_smooth(bb.a)))))
    probs = [bb.p_fg.min(), bb.p_bg.min(),
             softmax(bb.y, axis=1).min(), softmax(tcb.y, axis=1).min()]
    if min(probs) < 1e-9 or bb.n_f < 0.05 or bb.n_b < 0.05:
        return 0.0
    return min(margins)


def build_fd_loss(inst: TinyInstance, hp: Hyperparams, mode: GradMode):
    """The instance's total loss as `finite_diff_grad` takes it: (n, P)
    parameter points to their n losses, by one stacked `packed_forward` of
    the instance's one-video chunk and `compute_losses`, the loss that
    `backward` differentiates. The continuity targets are held at the
    instance's base point, as `backward` holds them."""
    y_hat = label_targets([inst], inst.params.header[2] + 1)
    held = continuity_targets(packed_forward([inst], inst.plan, inst.params, mode.bges))

    def fd_loss(points: np.ndarray) -> np.ndarray:
        fwd = packed_forward([inst], inst.plan, inst.params.from_vector(points), mode.bges)
        return compute_losses(fwd, y_hat, held, hp, mode)[:, 0, -1]  # the video's total

    return fd_loss


CERTIFIED_MODES = tuple(m for m in GradMode if m.is_gradient)
# certification draws instances from this seed on, skipping margins below MIN_MARGIN
FIRST_SEED, MIN_MARGIN = 1000, 2e-3


@dataclass
class CertificationResult:
    mode: str
    seed: int
    max_rel_error: float
    passed: bool


def certify_gradients(num_instances: int = 20, tolerance: float = 1e-5,
                      modes: tuple = CERTIFIED_MODES,
                      fd_epsilon: float = 1e-5, flip_block: str | None = None) -> list:
    """Compare analytic and central-difference gradients on tiny instances.

    Returns one CertificationResult per (mode, instance), of at least one
    instance; every mode must be a gradient. `flip_block` names a parameter
    block ("rgb.w_att", ...) whose analytic gradient is negated before
    comparison; a certification that still passes with a flipped block
    would prove the harness toothless, so the hook exists for exactly that
    self-test. An unknown name is a ConfigError before any instance is drawn.
    """
    if num_instances < 1:
        raise ValueError(f"certify_gradients: num_instances must be >= 1, got {num_instances}")
    for mode in modes:
        if not mode.is_gradient:
            raise ValueError(f"certify_gradients: {mode.value} is not the gradient of a loss")
    blocks = dict(ModelParams.zeros(TINY_D, TINY_E, TINY_C, TINY_K).blocks())
    if flip_block is not None and flip_block not in blocks:
        raise ConfigError(f"flip_block: no parameter block {flip_block!r}")
    hp = Hyperparams()
    results = []
    for mode in modes:
        accepted = 0
        seed = FIRST_SEED
        while accepted < num_instances:
            inst = make_tiny_instance(seed)
            seed += 1
            if instance_margin(inst, mode) < MIN_MARGIN:
                continue
            accepted += 1
            analytic, _ = backward([inst], inst.plan, inst.params, hp, mode)
            if flip_block is not None:
                block = dict(inst.params.from_vector(analytic).blocks())[flip_block]
                np.negative(block, out=block)
            numeric = finite_diff_grad(build_fd_loss(inst, hp, mode),
                                       inst.params.to_vector(), fd_epsilon)
            # the denominator floor keeps central-difference roundoff
            # (|loss| * 1e-16 / fd_epsilon, ~2e-11 here) from dominating the
            # ratio on zero-adjacent coordinates; below the floor the check
            # still demands absolute agreement to floor * tolerance
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
            err = float(np.max(np.abs(analytic - numeric) / scale))
            results.append(CertificationResult(
                mode=mode.value, seed=inst.seed, max_rel_error=err,
                passed=err < tolerance))
    return results

