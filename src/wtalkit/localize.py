"""Inference: from snippet scores to a final list of action proposals.

Per video, from class-major (C+1, T) scores: video-level class selection,
then for all predicted classes at once a fused localization score, runs at
every threshold from one mask, outer-inner contrast scores from one
cumulative sum, and per-class greedy NMS by `evaluate.temporal_iou` over the
overlapping pairs. `trainer.localize_dataset` feeds it the packed forward's
rows as they lie; `localize_video` transposes the per-video forward's.
"""

from __future__ import annotations

import io
import math
from typing import NamedTuple

import numpy as np

from .container import atomic_write
from .errors import DataFormatError
from .evaluate import temporal_iou
from .model import Hyperparams, ModelParams, forward
from .numerics import softmax


class Proposals(NamedTuple):
    """One video's proposals, best first: class (int64), outer-inner score q
    (float64) and half-open snippet span [start, end) (int64), one entry each."""

    cls: np.ndarray
    q: np.ndarray
    start: np.ndarray
    end: np.ndarray


def threshold_proposals(scores: np.ndarray, thresholds) -> tuple:
    """Maximal runs of score >= theta, for every threshold and every row of
    the (n, T) `scores`: one mask for all of them, runs from one diff.

    Returns int arrays (row, start, end) of the distinct half-open spans,
    ordered by (row, start, end).
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size == 0:
        raise ValueError("threshold_proposals: empty threshold list")
    t = scores.shape[1]
    mask = np.zeros((scores.shape[0], thresholds.size, t + 2), dtype=np.int8)
    mask[:, :, 1:-1] = scores[:, None, :] >= thresholds[:, None]
    edges = np.diff(mask, axis=2)
    row, _, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[2]
    _, first = np.unique((row * (t + 1) + start) * (t + 1) + end, return_index=True)
    return row[first], start[first], end[first]


def score_spans(scores: np.ndarray, row: np.ndarray, start: np.ndarray,
                end: np.ndarray) -> np.ndarray:
    """Outer-inner contrast of each span [start, end) of row `row` of the
    (n, T) `scores`.

    The inner mean minus the mean over margins of a quarter span (at least one
    snippet) on each side, clipped to the sequence; with both margins empty
    the inner mean stands alone. Every mean comes from one cumulative sum.
    """
    if np.any(end <= start):
        raise ValueError("score_spans: empty span")
    t = scores.shape[1]
    c = np.zeros((scores.shape[0], t + 1))
    np.cumsum(scores, axis=1, out=c[:, 1:])
    margin = (end - start + 3) // 4
    lo, hi = np.maximum(start - margin, 0), np.minimum(end + margin, t)
    inner = (c[row, end] - c[row, start]) / (end - start)
    outer_n = (start - lo) + (hi - end)
    outer = (c[row, start] - c[row, lo] + c[row, hi] - c[row, end]) / np.maximum(outer_n, 1)
    return np.where(outer_n > 0, inner - outer, inner)


def nms(cls: np.ndarray, q: np.ndarray, start: np.ndarray, end: np.ndarray,
        iou_threshold: float) -> np.ndarray:
    """Per-class greedy suppression over candidate arrays; classes never interact.

    Candidates are visited best-q first with ties broken by earlier start,
    then smaller class, then earlier end, so the result does not depend on
    input order. Returns the indices of the survivors in that order. A
    candidate is kept iff no kept better one of its class overlaps it by more
    than `iou_threshold`. That rule settles one rank at a time, so iterating
    it from "keep all" over the overlapping same-class pairs reaches the
    greedy result.
    """
    if iou_threshold < 0:
        raise ValueError(f"nms: iou_threshold must be >= 0, got {iou_threshold}")
    ranked = np.lexsort((end, cls, start, -q))
    cls, start, end = cls[ranked], start[ranked], end[ranked]
    # sorted by (class, start), a candidate's overlapping successors are
    # those that start before it ends: positions i + 1 .. stop[i] - 1
    by = np.lexsort((start, cls))
    key = cls[by] * (int(end.max(initial=0)) + 1)
    stop = np.searchsorted(key + start[by], key + end[by])
    count = stop - np.arange(1, cls.size + 1)
    i = np.repeat(np.arange(cls.size), count)
    u, v = by[i], by[i + 1 + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)]
    over = temporal_iou((start[u], end[u]), (start[v], end[v])) > iou_threshold
    better, worse = np.minimum(u, v)[over], np.maximum(u, v)[over]
    keep = np.ones(cls.size, dtype=bool)
    while True:
        settled = np.ones(cls.size, dtype=bool)
        settled[worse[keep[better]]] = False
        if np.array_equal(settled, keep):
            return ranked[keep]
        keep = settled


def localize_scores(y: np.ndarray, a: np.ndarray, p_fg: np.ndarray,
                    hp: Hyperparams) -> Proposals:
    """One video's proposals, best first, from class-major (C+1, T) logits
    `y`, as `PackedForward.y` holds them, (T,) attention `a` and (C+1,)
    video-level `p_fg`.

    The predicted classes are the action classes with p_fg >= rho_cls, else
    the best one; never the background entry (last). Each one's localization
    score, epsilon parts class probability and the rest attention, is
    thresholded at every level at once, and the runs scored before `nms`.
    """
    y, a = np.asarray(y, dtype=np.float64), np.asarray(a, dtype=np.float64)
    if y.shape != (len(p_fg), len(a)):
        raise ValueError(f"localize_scores: y must be (C+1, T) = {(len(p_fg), len(a))}, "
                         f"got {y.shape}")
    action = np.asarray(p_fg, dtype=np.float64)[:-1]
    classes = np.flatnonzero(action >= hp.rho_cls)
    if not classes.size:
        classes = np.array([np.argmax(action)])
    s_l = hp.epsilon * softmax(y, axis=0)[classes] + (1.0 - hp.epsilon) * a
    row, start, end = threshold_proposals(s_l, hp.proposal_thresholds)
    cls, q = classes[row], score_spans(s_l, row, start, end)
    keep = nms(cls, q, start, end, hp.nms_iou)
    return Proposals(cls[keep], q[keep], start[keep], end[keep])


def localize_video(x_rgb: np.ndarray, x_flow: np.ndarray, params: ModelParams,
                   hp: Hyperparams) -> Proposals:
    """Full inference for one video (Standard pooling, base branch only)."""
    out = forward(x_rgb, x_flow, params)
    return localize_scores(out.y.T, out.a, out.p_fg, hp)


def write_proposals(path, per_video: dict, frames_per_snippet: int = 0,
                    fps: float = 0.0) -> None:
    """One line per proposal: id, class, q, start, end (+ seconds when timed).

    `per_video` maps video id to its `Proposals`, written in id order and
    each in the order given. Column order is stable for downstream scoring.
    """
    timed = frames_per_snippet > 0 and fps > 0.0
    scale = frames_per_snippet / fps if timed else 0.0
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("# video_id class q start end" + (" start_sec end_sec" if timed else "") + "\n")
        for vid in sorted(per_video):
            cls, q, start, end = (col.tolist() for col in per_video[vid])
            for c, v, b, e in zip(cls, q, start, end):
                line = f"{vid} {c} {v:.6f} {b} {e}"
                if timed:
                    line += f" {b * scale:.3f} {e * scale:.3f}"
                fh.write(line + "\n")


def read_proposals(path) -> dict:
    """Inverse of write_proposals (snippet columns only): video id to `Proposals`.

    A line that is not UTF-8, or not id, class >= 0, finite q,
    0 <= start < end, with the integers below 2^63, is a data error naming
    the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"line {lineno}: not UTF-8 ({exc.reason})",
                              offset=exc.start) from None
    rows: dict = {}
    # universal newlines, as a text-mode file splits its lines
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (5, 7):
            raise DataFormatError(f"line {lineno}: expected 5 or 7 columns, "
                                  f"got {len(parts)}")
        try:
            cls, q, start, end = int(parts[1]), float(parts[2]), int(parts[3]), int(parts[4])
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from exc
        if not (cls >= 0 and math.isfinite(q) and 0 <= start < end):
            raise DataFormatError(f"line {lineno}: need class >= 0, finite q and "
                                  f"0 <= start < end, got {' '.join(parts[1:5])}")
        if cls >= 1 << 63 or end >= 1 << 63:  # the int64 columns' limit
            raise DataFormatError(f"line {lineno}: class, start and end must be "
                                  f"below 2^63, got {' '.join(parts[1:5])}")
        rows.setdefault(parts[0], []).append((cls, q, start, end))
    return {vid: Proposals(*(np.array(col, dtype=dtype) for col, dtype in
                             zip(zip(*r), (np.int64, np.float64, np.int64, np.int64))))
            for vid, r in rows.items()}
