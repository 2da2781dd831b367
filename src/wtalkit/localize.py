"""Inference: from snippet scores to a final list of action proposals.

Per video: video-level class selection, then for all predicted classes at
once a fused localization score, runs at every threshold from one mask,
outer-inner contrast scores from one cumulative sum, and per-class greedy NMS
over the overlapping pairs. `trainer.localize_dataset` feeds it from the
packed forward that training uses; `localize_video` runs the per-video one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import atomic_write
from .errors import DataFormatError
# unused here, but bench/test_bench.py checks that its tracer patches this binding
from .evaluate import temporal_iou  # noqa: F401
from .model import Hyperparams, ModelParams, forward
from .numerics import softmax


@dataclass(frozen=True)
class ActionProposal:
    """One localized action instance with half-open snippet span [start, end)."""

    cls: int
    q: float
    start: int
    end: int
    source_threshold: float

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span [{self.start}, {self.end})")


def fuse_scores(y_bar_c: np.ndarray, a: np.ndarray, epsilon: float) -> np.ndarray:
    """Localization score: epsilon parts class probability, rest attention."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    y_bar_c = np.asarray(y_bar_c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if y_bar_c.shape != a.shape:
        raise ValueError(f"fuse_scores: shapes {y_bar_c.shape} vs {a.shape}")
    return epsilon * y_bar_c + (1.0 - epsilon) * a


def predict_classes(p_fg: np.ndarray, rho_cls: float) -> list:
    """Action classes with video-level probability >= rho_cls.

    The background entry (last) never qualifies. An empty selection falls back
    to the single best action class so every video stays scoreable.
    """
    action = np.asarray(p_fg, dtype=np.float64)[:-1]
    chosen = [int(c) for c in np.flatnonzero(action >= rho_cls)]
    if not chosen:
        chosen = [int(np.argmax(action))]
    return chosen


def threshold_proposals(scores: np.ndarray, thresholds) -> tuple:
    """Maximal runs of score >= theta, for every threshold and every row of
    the (n, T) `scores`: one mask for all of them, runs from one diff.

    Returns int arrays (row, start, end) of half-open spans and the float
    array of their thresholds, ordered by (row, start, end). A span that
    several thresholds find keeps the first of `thresholds` that finds it.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size == 0:
        raise ValueError("threshold_proposals: empty threshold list")
    t = scores.shape[1]
    mask = np.zeros((scores.shape[0], thresholds.size, t + 2), dtype=np.int8)
    mask[:, :, 1:-1] = scores[:, None, :] >= thresholds[:, None]
    edges = np.diff(mask, axis=2)
    row, level, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[2]
    # np.unique keeps each key's first occurrence, which is in threshold order
    _, first = np.unique((row * (t + 1) + start) * (t + 1) + end, return_index=True)
    return row[first], start[first], end[first], thresholds[level[first]]


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


def _canonical(props: list) -> list:
    return sorted(props, key=lambda p: (-p.q, p.start, p.cls, p.end))


def nms(proposals: list, iou_threshold: float) -> list:
    """Per-class greedy suppression; classes never interact.

    Candidates are visited best-q first with ties broken by earlier start then
    smaller class index, making the result independent of input order; the
    survivors come back in that order. A candidate is kept iff no kept better
    one of its class overlaps it by more than `iou_threshold`. That rule
    settles one rank at a time, so iterating it from "keep all" over the
    overlapping same-class pairs reaches the greedy result.
    """
    if iou_threshold < 0:
        raise ValueError(f"nms: iou_threshold must be >= 0, got {iou_threshold}")
    ranked = _canonical(proposals)
    cls, start, end = (np.array([getattr(p, f) for p in ranked], dtype=np.int64)
                       for f in ("cls", "start", "end"))
    # sorted by (class, start), a candidate's overlapping successors are
    # those that start before it ends: positions i + 1 .. stop[i] - 1
    by = np.lexsort((start, cls))
    key = cls[by] * (int(end.max(initial=0)) + 1)
    stop = np.searchsorted(key + start[by], key + end[by])
    count = stop - np.arange(1, cls.size + 1)
    i = np.repeat(np.arange(cls.size), count)
    u, v = by[i], by[i + 1 + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)]
    inter = np.minimum(end[u], end[v]) - np.maximum(start[u], start[v])
    over = inter / ((end[u] - start[u]) + (end[v] - start[v]) - inter) > iou_threshold
    better, worse = np.minimum(u, v)[over], np.maximum(u, v)[over]
    keep = np.ones(cls.size, dtype=bool)
    while True:
        settled = np.ones(cls.size, dtype=bool)
        settled[worse[keep[better]]] = False
        if np.array_equal(settled, keep):
            return [p for p, k in zip(ranked, keep) if k]
        keep = settled


def localize_scores(y: np.ndarray, a: np.ndarray, p_fg: np.ndarray,
                    hp: Hyperparams) -> list:
    """Proposals from precomputed per-snippet scores, best first.

    The fused scores of every predicted class are thresholded at every level
    at once, and the runs scored as arrays before `nms`.
    """
    classes = np.array(predict_classes(p_fg, hp.rho_cls))
    y_bar = softmax(np.asarray(y, dtype=np.float64), axis=1)[:, classes].T
    s_l = fuse_scores(y_bar, np.broadcast_to(a, y_bar.shape), hp.epsilon)
    row, start, end, theta = threshold_proposals(s_l, hp.proposal_thresholds)
    q = score_spans(s_l, row, start, end)
    columns = (arr.tolist() for arr in (classes[row], q, start, end, theta))
    return nms([ActionProposal(cls=c, q=v, start=b, end=e, source_threshold=th)
                for c, v, b, e, th in zip(*columns)], hp.nms_iou)


def localize_video(x_rgb: np.ndarray, x_flow: np.ndarray, params: ModelParams,
                   hp: Hyperparams) -> list:
    """Full inference for one video (Standard pooling, base branch only)."""
    out = forward(x_rgb, x_flow, params)
    return localize_scores(out.y, out.a, out.p_fg, hp)


def write_proposals(path, per_video: dict, frames_per_snippet: int = 0,
                    fps: float = 0.0) -> None:
    """One line per proposal: id, class, q, start, end (+ seconds when timed).

    `per_video` maps video id to its proposal list. Column order is stable for
    downstream scoring.
    """
    timed = frames_per_snippet > 0 and fps > 0.0
    scale = frames_per_snippet / fps if timed else 0.0
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("# video_id class q start end" + (" start_sec end_sec" if timed else "") + "\n")
        for vid in sorted(per_video):
            for p in _canonical(per_video[vid]):
                line = f"{vid} {p.cls} {p.q:.6f} {p.start} {p.end}"
                if timed:
                    line += f" {p.start * scale:.3f} {p.end * scale:.3f}"
                fh.write(line + "\n")


def read_proposals(path) -> dict:
    """Inverse of write_proposals (snippet columns only)."""
    per_video: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (5, 7):
                raise DataFormatError(f"line {lineno}: expected 5 or 7 columns, "
                                      f"got {len(parts)}")
            vid, cls, q, start, end = parts[:5]
            try:
                prop = ActionProposal(cls=int(cls), q=float(q), start=int(start),
                                      end=int(end), source_threshold=0.0)
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
            per_video.setdefault(vid, []).append(prop)
    return per_video
