"""Detection metrics: temporal IoU, per-class AP, and mAP over IoU thresholds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import atomic_write
from .errors import ConfigError, DataFormatError

DEFAULT_IOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
AVERAGE_RANGES = {
    "0.1:0.5": (0.1, 0.2, 0.3, 0.4, 0.5),
    "0.3:0.7": (0.3, 0.4, 0.5, 0.6, 0.7),
    "0.1:0.7": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
}


def check_iou_thresholds(thresholds) -> tuple:
    """The IoU thresholds as reports key them: rounded to 4 decimals. Raise
    ConfigError unless there is at least one, each in (0, 1], and no key is
    0 or repeated."""
    if not len(thresholds):
        raise ConfigError("iou_thresholds: need at least one value")
    keys = []
    for value in thresholds:
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"iou_thresholds: {value} is outside (0, 1]")
        keys.append(round(float(value), 4))
        if keys[-1] == 0.0:
            raise ConfigError(f"iou_thresholds: {value} rounds to 0 at 4 decimals")
        if keys[-1] in keys[:-1]:
            raise ConfigError(f"iou_thresholds: {value} is repeated")
    return tuple(keys)


def temporal_iou(seg_a, seg_b):
    """IoU of two half-open spans (start, end), or elementwise of two spans of arrays."""
    start_a, end_a = seg_a
    start_b, end_b = seg_b
    if np.any(end_a <= start_a) or np.any(end_b <= start_b):
        raise ValueError(f"degenerate segment: {seg_a} vs {seg_b}")
    inter = np.maximum(0, np.minimum(end_a, end_b) - np.maximum(start_a, start_b))
    return inter / ((end_a - start_a) + (end_b - start_b) - inter)


def _ap_table(video: np.ndarray, props, gt: np.ndarray, thresholds,
              num_classes: int) -> np.ndarray:
    """(thresholds, classes) AP of greedy single-use matching, all at once.

    `video` holds each proposal's video code and `props` its (cls, q, start,
    end) columns; `gt` is an (n, 4) int array of (video code, class, start,
    end) rows in ground-truth order. Codes follow video-id order. Classes
    without ground truth get AP 0.
    """
    cls, q, start, end = props
    if np.any(end <= start) or np.any(gt[:, 3] <= gt[:, 2]):
        raise ValueError("degenerate segment: need start < end")
    thr = np.asarray(thresholds, dtype=np.float64)
    # rank order: class, best q first, then start, video id and end
    order = np.lexsort((end, video, start, -q, cls))
    cls, start, end = cls[order], start[order], end[order]
    # ground truths sorted by (class, video), in ground-truth order within
    stride = max(video.max(initial=0), gt[:, 0].max(initial=0)) + 1
    gt_key = gt[:, 1] * stride + gt[:, 0]
    by_key = np.argsort(gt_key, kind="stable")
    gt_key, gt_start, gt_end = gt_key[by_key], gt[by_key, 2], gt[by_key, 3]
    key = cls * stride + video[order]
    lo = np.searchsorted(gt_key, key)
    counts = np.searchsorted(gt_key, key, side="right") - lo
    # every same-class, same-video (proposal, ground truth) pair; a group is
    # named by its first ground truth
    pair_p = np.repeat(np.arange(cls.size), counts)
    group = lo[pair_p]
    pair_g = group + np.arange(pair_p.size) - np.repeat(np.cumsum(counts) - counts, counts)
    iou = temporal_iou((start[pair_p], end[pair_p]), (gt_start[pair_g], gt_end[pair_g]))
    # a zero-IoU ground truth is never the best one; within a group, order the
    # pairs by proposal rank, then highest IoU, then ground-truth order
    live = np.flatnonzero(iou > 0)
    live = live[np.lexsort((pair_g[live], -iou[live], pair_p[live], group[live]))]
    pair_p, pair_g, group, iou = pair_p[live], pair_g[live], group[live], iou[live]
    # (threshold, pair) candidates. The greedy state changes only at a true
    # positive, so each round takes, per (threshold, group), the first
    # candidate after the group's last true positive: its next true positive.
    # Candidates that the new state rules out never come back, and go.
    cand_t, cand = np.nonzero(iou >= thr[:, None])
    tp = np.zeros((thr.size, cls.size), dtype=bool)
    matched = np.zeros((thr.size, gt_key.size), dtype=bool)
    last = np.full((thr.size, gt_key.size), -1)
    while cand.size:
        slot = cand_t * gt_key.size + group[cand]
        first = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
        t, c = cand_t[first], cand[first]
        tp[t, pair_p[c]] = True
        matched[t, pair_g[c]] = True
        last[t, group[c]] = pair_p[c]
        keep = ~matched[cand_t, pair_g[cand]] & (pair_p[cand] > last[cand_t, group[cand]])
        cand_t, cand = cand_t[keep], cand[keep]
    # precision at each true positive, added one at a time in rank order
    t, p = np.nonzero(tp)
    slot = t * num_classes + cls[p]
    hits = np.arange(slot.size) - np.searchsorted(slot, slot) + 1
    rank = p - np.searchsorted(cls, cls[p]) + 1
    sums = np.zeros(thr.size * num_classes)
    np.add.at(sums, slot, hits / rank)  # unbuffered: one term at a time
    n_gt = np.bincount(gt[:, 1], minlength=num_classes)
    return sums.reshape(thr.size, num_classes) / np.maximum(n_gt, 1)


def average_precision(proposals: list, ground_truths: list,
                      iou_threshold: float) -> float:
    """Precision-at-each-TP AP with single-use greedy matching.

    `proposals` are (video_id, q, start, end), `ground_truths` are
    (video_id, start, end), all one class. Each proposal, visited best score
    first (ties: earlier start, then video id, then end), matches the
    highest-IoU still unmatched ground truth of its own video, the first in
    ground-truth order among equals and only at IoU > 0; it is a true
    positive iff that IoU reaches the threshold. This is the one-class,
    one-threshold view of the matcher `evaluate` runs.
    """
    if not ground_truths:
        raise ValueError("average_precision: no ground truths for this class")
    ids = sorted({p[0] for p in proposals} | {g[0] for g in ground_truths})
    code = {vid: i for i, vid in enumerate(ids)}
    rows = np.array([(code[vid], 0, s, e) for vid, _, s, e in proposals],
                    dtype=np.int64).reshape(-1, 4)
    q = np.array([p[1] for p in proposals], dtype=np.float64)
    gt = np.array([(code[vid], 0, s, e) for vid, s, e in ground_truths], dtype=np.int64)
    props = (rows[:, 1], q, rows[:, 2], rows[:, 3])
    return float(_ap_table(rows[:, 0], props, gt, (iou_threshold,), 1)[0, 0])


@dataclass
class EvalReport:
    iou_thresholds: tuple
    map_by_threshold: dict       # threshold -> mAP over classes with GT
    ap_table: dict               # (threshold, class) -> AP
    skipped_classes: tuple       # classes with no ground truth anywhere
    averages: dict               # range label -> mean mAP, for covered ranges


def evaluate(per_video_proposals: dict, records: list,
             iou_thresholds=DEFAULT_IOU_THRESHOLDS,
             num_classes: int | None = None) -> EvalReport:
    """Score proposals against record annotations.

    `per_video_proposals` maps video id to its `localize.Proposals`. An id
    that names no record, a class outside [0, num_classes) or an end past the
    video's T is a `DataFormatError` naming the video. Every (threshold,
    class) AP comes from one array matcher: the `average_precision` rule for
    all thresholds and classes at once. Record ids must be unique. Classes
    that never occur in the ground truth are excluded from mAP and listed in
    `skipped_classes`. The thresholds must pass `check_iou_thresholds`.
    """
    thresholds = check_iou_thresholds(iou_thresholds)
    lengths = {r.video_id: r.x_rgb.shape[0] for r in records}
    ids = sorted(lengths)
    code = {vid: i for i, vid in enumerate(ids)}
    if num_classes is None:
        num_classes = records[0].video_label.shape[0] if records else 0
    vids = list(per_video_proposals)
    empty = (np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))
    columns = [np.concatenate(col) for col in zip(empty, *per_video_proposals.values())]
    at = np.repeat(np.arange(len(vids)),
                   [props.cls.size for props in per_video_proposals.values()])
    # an unknown id gets the sentinel code len(ids), whose T of -1 flags it
    video = np.array([code.get(vid, len(ids)) for vid in vids], dtype=np.int64)[at]
    n_snippets = np.array([lengths[vid] for vid in ids] + [-1], dtype=np.int64)
    bad = np.array([vid not in code for vid in vids], dtype=bool)
    bad[at[(columns[0] < 0) | (columns[0] >= num_classes)
           | (columns[3] > n_snippets[video])]] = True
    if bad.any():  # the first offending video in dict order
        vid = vids[np.argmax(bad)]
        if vid not in code:
            raise DataFormatError(f"proposals reference unknown video {vid!r}")
        raise DataFormatError(f"video {vid!r}: proposals need a class in [0, "
                              f"{num_classes}) and an end <= T = {lengths[vid]}")
    gt = np.array([(code[r.video_id], *inst) for r in records for inst in r.ground_truth],
                  dtype=np.int64).reshape(-1, 4)

    table = _ap_table(video, columns, gt, thresholds, num_classes)
    has_gt = np.bincount(gt[:, 1], minlength=num_classes) > 0
    scored = np.flatnonzero(has_gt).tolist()
    skipped = tuple(np.flatnonzero(~has_gt).tolist())

    ap_table = {}
    map_by_threshold = {}
    for thr, row in zip(thresholds, table.tolist()):
        aps = [row[cls] for cls in scored]
        ap_table.update(((thr, cls), row[cls]) for cls in scored)
        map_by_threshold[thr] = float(np.mean(aps)) if aps else 0.0

    averages = {}
    have = set(map_by_threshold)
    for label, needed in AVERAGE_RANGES.items():
        if set(needed) <= have:
            averages[label] = float(np.mean([map_by_threshold[t] for t in needed]))
    return EvalReport(iou_thresholds=thresholds, map_by_threshold=map_by_threshold,
                      ap_table=ap_table, skipped_classes=skipped,
                      averages=averages)


def write_report_csv(path, report: EvalReport) -> None:
    """Per-class AP rows, then a commented summary block."""
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("threshold,class,ap\n")
        for (thr, cls), ap in sorted(report.ap_table.items()):
            fh.write(f"{thr},{cls},{ap:.6f}\n")
        fh.write("# summary\n")
        for thr in report.iou_thresholds:
            fh.write(f"# mAP@{thr:.2f} {report.map_by_threshold[thr]:.6f}\n")
        for label, value in report.averages.items():
            fh.write(f"# avg[{label}] {value:.6f}\n")
        if report.skipped_classes:
            skipped = " ".join(str(c) for c in report.skipped_classes)
            fh.write(f"# skipped_classes {skipped}\n")


def format_summary(report: EvalReport) -> str:
    """Human-readable threshold/mAP table with the range averages."""
    lines = ["IoU    mAP"]
    for thr in report.iou_thresholds:
        lines.append(f"{thr:<6.2f} {report.map_by_threshold[thr]:.4f}")
    for label, value in report.averages.items():
        lines.append(f"avg[{label}] {value:.4f}")
    if report.skipped_classes:
        lines.append("skipped (no ground truth): "
                     + " ".join(str(c) for c in report.skipped_classes))
    return "\n".join(lines)
