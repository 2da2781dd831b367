"""Inference: from snippet scores to a final list of action proposals.

Pipeline per video: one Standard-normalized forward pass, video-level class
selection, then per predicted class a fused localization score, multi-threshold
run finding, outer-inner contrast scoring, and per-class greedy NMS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import atomic_write
from .errors import DataFormatError
from .evaluate import temporal_iou
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


def find_runs(mask: np.ndarray) -> list:
    """Maximal runs of True as half-open (start, end) pairs."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(s), int(e)) for s, e in zip(edges[::2], edges[1::2])]


def threshold_proposals(s_l: np.ndarray, thresholds) -> list:
    """Candidate spans from every threshold, first-seen duplicates collapsed.

    Returns (start, end, threshold) triples; a span found by several
    thresholds keeps the first (lowest) one.
    """
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("threshold_proposals: empty threshold list")
    s_l = np.asarray(s_l, dtype=np.float64)
    seen = {}
    for theta in thresholds:
        for span in find_runs(s_l >= theta):
            seen.setdefault(span, float(theta))
    return [(s, e, theta) for (s, e), theta in seen.items()]


def score_proposal(s_l: np.ndarray, start: int, end: int) -> float:
    """Inner mean minus the mean over margins of a quarter span on each side.

    Margins are clipped to the sequence; with both margins empty the inner
    mean stands alone.
    """
    if end <= start:
        raise ValueError(f"score_proposal: empty span [{start}, {end})")
    s_l = np.asarray(s_l, dtype=np.float64)
    t = s_l.shape[0]
    inner = float(np.mean(s_l[start:end]))
    margin = max(1, math.ceil((end - start) / 4))
    outer = np.concatenate([s_l[max(0, start - margin) : start],
                            s_l[end : min(t, end + margin)]])
    if outer.size == 0:
        return inner
    return inner - float(np.mean(outer))


def _canonical(props: list) -> list:
    return sorted(props, key=lambda p: (-p.q, p.start, p.cls, p.end))


def nms(proposals: list, iou_threshold: float) -> list:
    """Per-class greedy suppression; classes never interact.

    Candidates are visited best-q first with ties broken by earlier start then
    smaller class index, making the result independent of input order.
    """
    survivors = []
    kept_by_class: dict = {}
    for p in _canonical(proposals):
        kept = kept_by_class.setdefault(p.cls, [])
        if any(temporal_iou((p.start, p.end), (k.start, k.end)) > iou_threshold
               for k in kept):
            continue
        kept.append(p)
        survivors.append(p)
    return survivors


def localize_scores(y: np.ndarray, a: np.ndarray, p_fg: np.ndarray,
                    hp: Hyperparams) -> list:
    """Proposal generation from precomputed per-snippet scores."""
    y_bar = softmax(np.asarray(y, dtype=np.float64), axis=1)
    proposals = []
    for cls in predict_classes(p_fg, hp.rho_cls):
        s_l = fuse_scores(y_bar[:, cls], a, hp.epsilon)
        for start, end, theta in threshold_proposals(s_l, hp.proposal_thresholds):
            proposals.append(ActionProposal(
                cls=cls, q=score_proposal(s_l, start, end),
                start=start, end=end, source_threshold=theta))
    return _canonical(nms(proposals, hp.nms_iou))


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
