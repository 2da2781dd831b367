"""Detection metrics: temporal IoU, per-class AP, and mAP over IoU thresholds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import atomic_write
from .errors import DataFormatError

DEFAULT_IOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
AVERAGE_RANGES = {
    "0.1:0.5": (0.1, 0.2, 0.3, 0.4, 0.5),
    "0.3:0.7": (0.3, 0.4, 0.5, 0.6, 0.7),
    "0.1:0.7": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
}


def temporal_iou(seg_a, seg_b) -> float:
    """IoU of two half-open spans (start, end)."""
    start_a, end_a = seg_a
    start_b, end_b = seg_b
    if end_a <= start_a or end_b <= start_b:
        raise ValueError(f"degenerate segment: {seg_a} vs {seg_b}")
    inter = max(0, min(end_a, end_b) - max(start_a, start_b))
    union = (end_a - start_a) + (end_b - start_b) - inter
    return inter / union


def average_precision(proposals: list, ground_truths: list,
                      iou_threshold: float) -> float:
    """Precision-at-each-TP AP with single-use greedy matching.

    `proposals` are (video_id, q, start, end), `ground_truths` are
    (video_id, start, end), all one class. Each proposal, visited best score
    first (ties: earlier start, then video id), matches the highest-IoU still
    unmatched ground truth of its own video; it is a true positive iff that
    IoU reaches the threshold.
    """
    if not ground_truths:
        raise ValueError("average_precision: no ground truths for this class")
    order = sorted(proposals, key=lambda p: (-p[1], p[2], p[0], p[3]))
    unmatched = {}
    for i, (vid, start, end) in enumerate(ground_truths):
        unmatched.setdefault(vid, []).append((i, start, end))
    tp_count = 0
    ap_sum = 0.0
    for rank, (vid, _, start, end) in enumerate(order, start=1):
        candidates = unmatched.get(vid, [])
        best = None
        best_iou = 0.0
        for entry in candidates:
            iou = temporal_iou((start, end), (entry[1], entry[2]))
            if iou > best_iou:
                best_iou = iou
                best = entry
        if best is not None and best_iou >= iou_threshold:
            candidates.remove(best)
            tp_count += 1
            ap_sum += tp_count / rank
    return ap_sum / len(ground_truths)


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
    video's T is a `DataFormatError` naming the video. Classes that never
    occur in the ground truth are excluded from mAP and listed in `skipped_classes`.
    """
    lengths = {r.video_id: r.x_rgb.shape[0] for r in records}
    if num_classes is None:
        num_classes = records[0].video_label.shape[0] if records else 0

    gt_by_class: dict = {c: [] for c in range(num_classes)}
    for rec in records:
        for cls, start, end in rec.ground_truth:
            gt_by_class[cls].append((rec.video_id, start, end))
    props_by_class: dict = {c: [] for c in range(num_classes)}
    for vid, props in per_video_proposals.items():
        if vid not in lengths:
            raise DataFormatError(f"proposals reference unknown video {vid!r}")
        cls, q, start, end = (col.tolist() for col in props)
        if cls and (min(cls) < 0 or max(cls) >= num_classes or max(end) > lengths[vid]):
            raise DataFormatError(f"video {vid!r}: proposals need a class in [0, "
                                  f"{num_classes}) and an end <= T = {lengths[vid]}")
        for c, v, b, e in zip(cls, q, start, end):
            props_by_class[c].append((vid, v, b, e))

    scored = [c for c in range(num_classes) if gt_by_class[c]]
    skipped = tuple(c for c in range(num_classes) if not gt_by_class[c])
    thresholds = tuple(round(float(t), 4) for t in iou_thresholds)

    ap_table = {}
    map_by_threshold = {}
    for thr in thresholds:
        aps = []
        for cls in scored:
            ap = average_precision(props_by_class[cls], gt_by_class[cls], thr)
            ap_table[(thr, cls)] = ap
            aps.append(ap)
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
