"""Temporal IoU, AP against a brute-force oracle, and report assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ap_oracle, evaluate_oracle, iou_oracle
from wtalkit.evaluate import (
    AVERAGE_RANGES,
    DEFAULT_IOU_THRESHOLDS,
    average_precision,
    evaluate,
    format_summary,
    temporal_iou,
    write_report_csv,
)
from wtalkit.errors import ConfigError, DataFormatError
from wtalkit.localize import Proposals
from wtalkit.synth import VideoRecord


class TestTemporalIou:
    def test_partial_overlap(self):
        assert temporal_iou((0, 2), (1, 3)) == pytest.approx(1 / 3)

    def test_identical(self):
        assert temporal_iou((4, 9), (4, 9)) == 1.0

    def test_disjoint(self):
        assert temporal_iou((0, 1), (5, 6)) == 0.0

    def test_degenerate(self):
        with pytest.raises(ValueError):
            temporal_iou((3, 3), (0, 1))
        with pytest.raises(ValueError, match="degenerate segment"):  # one pair of arrays
            temporal_iou((np.array([0, 4]), np.array([2, 4])), (np.array([1, 1]), np.array([3, 5])))

    @given(st.tuples(st.integers(0, 50), st.integers(1, 20)),
           st.tuples(st.integers(0, 50), st.integers(1, 20)))
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, a, b):
        seg_a = (a[0], a[0] + a[1])
        seg_b = (b[0], b[0] + b[1])
        iou = temporal_iou(seg_a, seg_b)
        assert iou == temporal_iou(seg_b, seg_a)
        assert 0.0 <= iou <= 1.0
        assert (iou == 1.0) == (seg_a == seg_b)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 15),
                              st.integers(0, 40), st.integers(1, 15)), min_size=1, max_size=30))
    @settings(max_examples=100, derandomize=True)
    def test_arrays_match_the_oracle_elementwise(self, spans):
        # starts up to 40 and lengths up to 15: disjoint pairs are common
        sa, na, sb, nb = (np.array(col, dtype=np.int64) for col in zip(*spans))
        got = temporal_iou((sa, sa + na), (sb, sb + nb))
        want = [iou_oracle((a, a + m), (b, b + n)) for a, m, b, n in spans]
        assert got.tolist() == want


class TestAveragePrecision:
    def test_exact_match(self):
        assert average_precision([("v", 0.9, 0, 4)], [("v", 0, 4)], 0.5) == 1.0

    def test_fp_then_tp(self):
        props = [("v", 0.9, 10, 14), ("v", 0.8, 0, 4)]
        assert average_precision(props, [("v", 0, 4)], 0.5) == pytest.approx(0.5)

    def test_no_ground_truth_raises(self):
        with pytest.raises(ValueError):
            average_precision([("v", 0.9, 0, 4)], [], 0.5)

    def test_each_gt_matched_once(self):
        # second identical proposal cannot re-match the same ground truth
        props = [("v", 0.9, 0, 4), ("v", 0.8, 0, 4)]
        assert average_precision(props, [("v", 0, 4)], 0.5) == 1.0

    def test_cross_video_isolation(self):
        props = [("a", 0.9, 0, 4)]
        gts = [("b", 0, 4)]
        assert average_precision(props, gts, 0.5) == 0.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            vids = ["u", "v"]
            props = []
            for _ in range(int(rng.integers(0, 5))):
                s = int(rng.integers(0, 12))
                props.append((vids[int(rng.integers(0, 2))],
                              float(np.round(rng.uniform(), 3)),
                              s, s + int(rng.integers(1, 7))))
            gts = []
            for _ in range(int(rng.integers(1, 4))):
                s = int(rng.integers(0, 12))
                gts.append((vids[int(rng.integers(0, 2))],
                            s, s + int(rng.integers(1, 7))))
            thr = float(rng.uniform(0.1, 0.7))
            assert average_precision(props, gts, thr) == pytest.approx(
                ap_oracle(props, gts, thr), abs=1e-12)

    def test_duplication_never_raises_ap_single_gt(self):
        # with one ground truth a duplicate can only re-match the matched
        # segment, so it is always a false positive
        rng = np.random.default_rng(5)
        for _ in range(50):
            props = []
            for _ in range(int(rng.integers(1, 5))):
                s = int(rng.integers(0, 10))
                props.append(("v", float(np.round(rng.uniform(), 3)),
                              s, s + int(rng.integers(1, 6))))
            gts = [("v", 3, 8)]
            base = average_precision(props, gts, 0.4)
            doubled = average_precision(props + props, gts, 0.4)
            assert doubled <= base + 1e-12

    def test_duplicate_may_claim_second_ground_truth(self):
        # greedy score-order matching lets a copy of the best proposal take a
        # further, still-unmatched segment; duplication is therefore not
        # AP-decreasing in general and this pins that behaviour down
        gts = [("v", 0, 4), ("v", 2, 6)]
        props = [("v", 0.9, 0, 4)]
        base = average_precision(props, gts, 0.3)
        doubled = average_precision(props + props, gts, 0.3)
        assert base == pytest.approx(0.5)
        assert doubled == pytest.approx(1.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            props = [("v", float(rng.uniform()), int(s), int(s) + 4)
                     for s in rng.integers(0, 10, size=4)]
            gts = [("v", 2, 6), ("v", 8, 12)]
            aps = [average_precision(props, gts, t)
                   for t in (0.1, 0.3, 0.5, 0.7)]
            assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))


def _record(vid, t, gts, c=3):
    label = np.zeros(c)
    for cls, _, _ in gts:
        label[cls] = 1.0
    return VideoRecord(video_id=vid, x_rgb=np.zeros((t, 2)),
                       x_flow=np.zeros((t, 2)), video_label=label,
                       ground_truth=gts)


def _props(*rows):
    """Proposals of (cls, q, start, end) rows."""
    return Proposals(*(np.array(col, dtype=dtype) for col, dtype in
                       zip(list(zip(*rows)) or [()] * 4,
                           (np.int64, np.float64, np.int64, np.int64))))


class TestEvaluate:
    def test_perfect_predictions(self):
        recs = [_record("a", 20, [(0, 2, 6), (1, 10, 15)]),
                _record("b", 20, [(0, 5, 9)])]
        props = {"a": _props((0, 0.9, 2, 6), (1, 0.8, 10, 15)),
                 "b": _props((0, 0.7, 5, 9))}
        rep = evaluate(props, recs, num_classes=3)
        for thr in DEFAULT_IOU_THRESHOLDS:
            assert rep.map_by_threshold[thr] == 1.0
        assert rep.skipped_classes == (2,)
        assert rep.averages["0.1:0.7"] == 1.0

    def test_empty_proposals(self):
        recs = [_record("a", 20, [(0, 2, 6)])]
        rep = evaluate({}, recs, num_classes=3)
        assert rep.map_by_threshold[0.5] == 0.0

    @pytest.mark.parametrize("thresholds, message", [
        ((2.0, 0.5), r"2.0 is outside \(0, 1\]"),
        ((0.5, 0.0), r"0.0 is outside \(0, 1\]"),
        ((0.5, 0.50001), "0.50001 is repeated"),
        ((), "need at least one value"),
        # reports key thresholds at 4 decimals, where this one would read 0.0
        ((0.00001, 0.5), "1e-05 rounds to 0 at 4 decimals"),
    ])
    def test_bad_thresholds_are_a_config_error(self, thresholds, message):
        # the rule [eval] iou_thresholds is held to, for library callers too
        recs = [_record("a", 20, [(0, 2, 6)])]
        with pytest.raises(ConfigError, match=f"^iou_thresholds: {message}$"):
            evaluate({"a": _props((0, 0.9, 2, 6))}, recs, iou_thresholds=thresholds)

    def test_unknown_video(self):
        recs = [_record("a", 20, [(0, 2, 6)])]
        with pytest.raises(DataFormatError, match="unknown video 'ghost'"):
            evaluate({"ghost": _props((0, 0.9, 2, 6))}, recs)

    @pytest.mark.parametrize("cls, end", [(-1, 4), (3, 4), (2, 21)])
    def test_class_or_end_outside_the_record_names_the_video(self, cls, end):
        recs = [_record("a", 20, [(0, 2, 6)])]
        evaluate({"a": _props((0, 0.9, 2, 6), (2, 0.5, 1, 20))}, recs, num_classes=3)
        with pytest.raises(DataFormatError, match=r"video 'a': proposals need a class "
                                                  r"in \[0, 3\) and an end <= T = 20"):
            evaluate({"a": _props((0, 0.9, 2, 6), (cls, 0.5, 1, end))}, recs, num_classes=3)

    @pytest.mark.parametrize("order, message", [
        (("a", "ghost", "b"), "video 'a': proposals need a class"),
        (("ghost", "a", "b"), "unknown video 'ghost'"),
        (("b", "a", "ghost"), "video 'b': proposals need a class"),
        (("empty_ghost", "b", "a"), "unknown video 'empty_ghost'"),
    ])
    def test_first_offending_video_in_dict_order_is_named(self, order, message):
        recs = [_record("a", 20, [(0, 2, 6)]), _record("b", 20, [(0, 2, 6)])]
        kinds = {"a": _props((0, 0.9, 2, 6), (3, 0.5, 1, 4)),  # class out of range
                 "b": _props((0, 0.9, 2, 21)),                  # end past T
                 "ghost": _props((0, 0.9, 2, 6)),               # unknown id
                 "empty_ghost": _props()}                       # unknown, no proposals
        with pytest.raises(DataFormatError, match=message):
            evaluate({vid: kinds[vid] for vid in order}, recs, num_classes=3)

    def test_map_is_class_mean(self):
        recs = [_record("a", 20, [(0, 2, 6), (1, 10, 14)])]
        props = {"a": _props((0, 0.9, 2, 6))}  # class 1 missed entirely
        rep = evaluate(props, recs, num_classes=2)
        assert rep.map_by_threshold[0.5] == pytest.approx(0.5)
        assert rep.ap_table[(0.5, 0)] == 1.0
        assert rep.ap_table[(0.5, 1)] == 0.0

    def test_averages_match_definition(self):
        recs = [_record("a", 30, [(0, 2, 6), (0, 10, 18), (1, 20, 28)])]
        props = {"a": _props((0, 0.9, 2, 6), (0, 0.6, 11, 18), (1, 0.8, 20, 24))}
        rep = evaluate(props, recs, num_classes=2)
        for label, needed in AVERAGE_RANGES.items():
            want = float(np.mean([rep.map_by_threshold[t] for t in needed]))
            assert rep.averages[label] == pytest.approx(want)

    def test_report_csv(self, tmp_path):
        recs = [_record("a", 20, [(0, 2, 6)])]
        rep = evaluate({"a": _props((0, 0.9, 2, 6))}, recs, num_classes=2)
        path = tmp_path / "report.csv"
        write_report_csv(path, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,class,ap"
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1 + len(DEFAULT_IOU_THRESHOLDS)  # header + class 0
        assert "0.5,0,1.000000" in lines
        assert "# summary" in lines
        assert any(ln.startswith("# skipped_classes 1") for ln in lines)

    def test_format_summary_mentions_all_thresholds(self):
        recs = [_record("a", 20, [(0, 2, 6)])]
        rep = evaluate({"a": _props((0, 0.9, 2, 6))}, recs, num_classes=1)
        text = format_summary(rep)
        for thr in DEFAULT_IOU_THRESHOLDS:
            assert f"{thr:<6.2f}" in text


def _random_world(rng):
    """Records and proposals that exercise every tie rule of the matcher:
    ids whose string order is not their number order, videos with no ground
    truth or no proposals, a class with no ground truth, ground truths of 10
    snippets with proposals at IoU exactly 0.1-0.7, tied q and duplicates."""
    num_classes = int(rng.integers(1, 6))
    gt_classes = rng.permutation(num_classes)[:max(1, num_classes - 1)]
    ids = [f"v{i}" for i in rng.choice(120, size=int(rng.integers(1, 12)), replace=False)]
    records, proposals = [], {}
    for vid in ids:
        t = int(rng.integers(12, 40))
        gts = []
        for _ in range(int(rng.integers(0, 5))):
            s = int(rng.integers(0, t - 10))
            e = s + 10 if rng.random() < 0.5 else int(rng.integers(s + 1, t + 1))
            gts.append((int(rng.choice(gt_classes)), s, e))
        records.append(_record(vid, t, gts, c=num_classes))
        rows = []
        for _ in range(int(rng.integers(0, 14))):
            q = float(rng.choice([0.2, 0.5, 0.9, round(float(rng.random()), 2)]))
            if gts and rng.random() < 0.6:
                cls, s, e = gts[int(rng.integers(len(gts)))]
                if e - s == 10 and rng.random() < 0.7:  # IoU k/10 exactly
                    e = s + int(rng.integers(1, 8))
            else:
                cls = int(rng.integers(num_classes))
                s = int(rng.integers(0, t - 1))
                e = int(rng.integers(s + 1, t + 1))
            rows.append((cls, q, s, e))
        rows += [rows[int(i)] for i in rng.integers(0, len(rows), size=len(rows) // 3)]
        if rows or rng.random() < 0.5:
            proposals[vid] = _props(*rows)
    thresholds = rng.permutation(DEFAULT_IOU_THRESHOLDS + (0.25,))
    thresholds = tuple(float(t) for t in thresholds[:int(rng.integers(1, 9))])
    # a shuffled dict: no output may depend on its order
    proposals = dict(sorted(proposals.items(), key=lambda kv: rng.random()))
    return proposals, records, thresholds, num_classes


class TestAgainstEvaluateOracle:
    def test_ap_table_and_report_bytes_are_exact(self, tmp_path):
        rng = np.random.default_rng(909)
        true_positives = 0
        for case in range(200):
            props, recs, thresholds, c = _random_world(rng)
            got = evaluate(props, recs, iou_thresholds=thresholds, num_classes=c)
            want = evaluate_oracle(props, recs, thresholds, c)
            assert got == want, f"case {case}"
            write_report_csv(tmp_path / "got.csv", got)
            write_report_csv(tmp_path / "want.csv", want)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
            assert format_summary(got) == format_summary(want)
            true_positives += sum(ap > 0 for ap in got.ap_table.values())
        assert true_positives > 500  # the cases score, not just miss
