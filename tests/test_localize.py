"""Proposal generation: class selection, score fusion, runs, contrast scoring,
NMS, file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nms_oracle, proposals_oracle, score_oracle
from wtalkit.errors import DataFormatError
from wtalkit.evaluate import evaluate, temporal_iou
from wtalkit.localize import (
    Proposals,
    localize_scores,
    localize_video,
    nms,
    read_proposals,
    score_spans,
    threshold_proposals,
    write_proposals,
)
from wtalkit.model import Hyperparams, ModelParams
from wtalkit.synth import VideoRecord

unit = st.floats(min_value=0.0, max_value=1.0)


class TestFuseScores:
    """The localization score that `localize_scores` thresholds: epsilon parts
    class probability, the rest attention."""

    # classes 0 and 1 of a (C+1, T) = (3, 6) video, then background
    Y = np.array([[3.0, 3.0, -3.0, -3.0, 3.0, -3.0],
                  [-3.0, 2.0, 2.0, -3.0, -3.0, -3.0],
                  [0.0, 0.0, 0.0, 4.0, 0.0, 4.0]])
    P_FG = np.array([0.5, 0.3, 0.2])

    def test_epsilon_one_is_class_score(self):
        hp = Hyperparams(epsilon=1.0)
        got = localize_scores(self.Y, np.full(6, 0.9), self.P_FG, hp)
        assert got.cls.size > 0
        assert _rows(localize_scores(self.Y, np.full(6, 0.1), self.P_FG, hp)) == _rows(got)

    def test_epsilon_zero_is_attention(self):
        hp = Hyperparams(epsilon=0.0)
        a = np.array([0.9, 0.9, 0.1, 0.1, 0.8, 0.1])
        got = localize_scores(self.Y, a, self.P_FG, hp)
        assert got.cls.size > 0
        assert _rows(localize_scores(-self.Y, a, self.P_FG, hp)) == _rows(got)

    def test_midpoint(self):
        # one snippet: its whole-sequence run scores its fused score alone
        y = np.log(np.array([[0.8], [0.2]]))
        got = localize_scores(y, np.array([0.6]), np.array([0.9, 0.1]), Hyperparams())
        assert got.cls.tolist() == [0]
        assert got.q[0] == pytest.approx(0.7, abs=1e-12)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            Hyperparams(epsilon=1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"y must be \(C\+1, T\) = \(3, 7\), got \(3, 6\)"):
            localize_scores(self.Y, np.zeros(7), self.P_FG, Hyperparams())

    @given(st.lists(st.tuples(st.floats(-5, 5), unit), min_size=1, max_size=8), unit)
    @settings(max_examples=50)
    def test_stays_in_unit_interval(self, pairs, eps):
        # fused scores in [0, 1] bound every outer-inner contrast by 1
        y = np.array([[p[0] for p in pairs], [0.0] * len(pairs)])
        a = np.array([p[1] for p in pairs])
        got = localize_scores(y, a, np.array([1.0, 0.0]), Hyperparams(epsilon=eps))
        assert np.all(np.abs(got.q) <= 1.0)
        assert np.all((0 <= got.start) & (got.end <= len(pairs)))


def _selected(p_fg):
    """The classes `localize_scores` predicts for video-level `p_fg`: at
    epsilon 0 with attention 1, each gives one whole-video proposal."""
    p_fg = np.array(p_fg)
    got = localize_scores(np.zeros((p_fg.size, 3)), np.ones(3), p_fg,
                          Hyperparams(epsilon=0.0, rho_cls=0.1))
    assert got.start.tolist() == [0] * got.cls.size and got.end.tolist() == [3] * got.cls.size
    return got.cls.tolist()


class TestPredictClasses:
    """Class selection in `localize_scores`: action classes with p_fg >=
    rho_cls, else the best action class; never the background entry."""

    def test_over_threshold(self):
        assert _selected([0.05, 0.7, 0.05, 0.2]) == [1]

    def test_background_never_selected(self):
        # last entry is background, dominant here; argmax fallback picks an
        # action class
        assert _selected([0.05, 0.04, 0.03, 0.88]) == [0]

    def test_fallback_to_argmax(self):
        assert _selected([0.02, 0.06, 0.04, 0.88]) == [1]

    def test_multiple(self):
        assert _selected([0.3, 0.05, 0.4, 0.25]) == [0, 2]


def _runs(s, thresholds):
    """(start, end) spans of one score row."""
    _, start, end = threshold_proposals(np.asarray(s, dtype=np.float64)[None], thresholds)
    return list(zip(start.tolist(), end.tolist()))


class TestRuns:
    def test_two_runs(self):
        s = np.array([0.9, 0.9, 0.1, 0.9])
        assert _runs(s, [0.5]) == [(0, 2), (3, 4)]

    def test_nothing_passes(self):
        assert _runs(np.array([0.1, 0.2]), [0.5, 0.7]) == []

    def test_nested_spans_both_retained(self):
        s = np.array([0.3, 0.8, 0.3])
        assert set(_runs(s, [0.2, 0.5])) == {(0, 3), (1, 2)}

    def test_duplicate_span_found_once(self):
        assert _runs(np.array([0.9, 0.9]), [0.1, 0.2, 0.3]) == [(0, 2)]

    def test_empty_thresholds(self):
        with pytest.raises(ValueError):
            threshold_proposals(np.array([[0.9]]), [])

    def test_rows_are_independent(self):
        s = np.array([[0.9, 0.1, 0.9], [0.1, 0.9, 0.9]])
        row, start, end = threshold_proposals(s, [0.5])
        assert list(zip(row.tolist(), start.tolist(), end.tolist())) == [
            (0, 0, 1), (0, 2, 3), (1, 1, 3)]

    @given(st.lists(unit, min_size=1, max_size=20), unit)
    @settings(max_examples=80)
    def test_runs_partition_mask(self, vals, theta):
        s = np.array(vals)
        runs = _runs(s, [theta])
        covered = np.zeros(len(vals), dtype=bool)
        for a, b in runs:
            assert 0 <= a < b <= len(vals)
            assert np.all(s[a:b] >= theta)
            # maximal: neighbours outside the run fail the threshold
            assert a == 0 or s[a - 1] < theta
            assert b == len(vals) or s[b] < theta
            covered[a:b] = True
        np.testing.assert_array_equal(covered, s >= theta)

    @given(st.lists(unit, min_size=1, max_size=20),
           st.tuples(unit, unit))
    @settings(max_examples=60)
    def test_raising_threshold_shrinks_runs(self, vals, thetas):
        lo, hi = min(thetas), max(thetas)
        s = np.array(vals)
        low_runs = _runs(s, [lo])
        for a, b in _runs(s, [hi]):
            assert any(la <= a and b <= lb for la, lb in low_runs)


def _score(s, start, end):
    return float(score_spans(np.asarray(s, dtype=np.float64)[None], np.array([0]),
                             np.array([start]), np.array([end]))[0])


class TestScoreProposal:
    def test_block_on_zero_floor(self):
        s = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        assert _score(s, 1, 5) == pytest.approx(1.0)

    def test_constant_scores_zero(self):
        assert _score(np.full(8, 0.4), 2, 5) == pytest.approx(0.0)

    def test_hand_case(self):
        s = np.array([0.2, 0.9, 0.9, 0.2])
        assert _score(s, 1, 3) == pytest.approx(0.7, abs=1e-12)

    def test_whole_sequence_uses_inner_only(self):
        s = np.array([0.3, 0.5, 0.7])
        assert _score(s, 0, 3) == pytest.approx(0.5)

    def test_empty_span(self):
        with pytest.raises(ValueError):
            _score(np.ones(4), 2, 2)

    @given(st.lists(unit, min_size=2, max_size=15), st.data())
    @settings(max_examples=60)
    def test_bounded(self, vals, data):
        s = np.array(vals)
        start = data.draw(st.integers(0, len(vals) - 2))
        end = data.draw(st.integers(start + 1, len(vals) - 1))
        assert -1.0 <= _score(s, start, end) <= 1.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40), st.data())
    @settings(max_examples=100, derandomize=True)
    def test_matches_the_scalar_oracle(self, vals, data):
        # one cumulative sum per row instead of a mean per span: not the
        # same rounding, so agreement is to 1e-12 of the scores' scale
        s = np.array(vals)
        start = data.draw(st.integers(0, len(vals) - 1))
        end = data.draw(st.integers(start + 1, len(vals)))
        scale = max(1.0, float(np.max(np.abs(s))))
        assert abs(_score(s, start, end) - score_oracle(s, start, end)) <= 1e-12 * scale


def _props(rows):
    """Proposals of (cls, q, start, end) rows, in the order given."""
    return Proposals(*(np.array(col, dtype=dtype) for col, dtype in zip(
        zip(*rows) if rows else [()] * 4, (np.int64, np.float64, np.int64, np.int64))))


def _rows(props):
    """(cls, q, start, end) tuples of Proposals."""
    return list(zip(*(col.tolist() for col in props)))


def _nms(rows, iou_threshold):
    """The rows `nms` keeps, in its order."""
    cand = _props(rows)
    keep = nms(*cand, iou_threshold)
    assert keep.dtype == np.intp
    return _rows(Proposals(*(col[keep] for col in cand)))


class TestNms:
    def test_duplicate_keeps_best(self):
        got = _nms([(0, 0.8, 2, 6), (0, 0.9, 2, 6)], 0.5)
        assert got == [(0, 0.9, 2, 6)]

    def test_returns_indices_best_first(self):
        keep = nms(np.array([0, 0, 1]), np.array([0.2, 0.9, 0.5]),
                   np.array([0, 5, 0]), np.array([3, 8, 3]), 0.5)
        assert keep.tolist() == [1, 2, 0]

    def test_no_candidates(self):
        empty = _props([])
        assert nms(*empty, 0.5).size == 0

    def test_disjoint_all_kept(self):
        assert len(_nms([(0, 0.9, 0, 3), (0, 0.8, 5, 8)], 0.5)) == 2

    def test_classes_never_interact(self):
        assert len(_nms([(0, 0.9, 2, 6), (1, 0.8, 2, 6)], 0.5)) == 2

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(3)
        rows = [(int(rng.integers(0, 2)), float(rng.uniform()),
                 int(s), int(s + rng.integers(1, 6)))
                for s in rng.integers(0, 20, size=10)]
        base = _nms(rows, 0.5)
        for _ in range(5):
            rng.shuffle(rows)
            assert _nms(rows, 0.5) == base

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            rows = []
            for _ in range(n):
                s = int(rng.integers(0, 15))
                rows.append((int(rng.integers(0, 3)),
                             float(np.round(rng.uniform(), 3)),
                             s, s + int(rng.integers(1, 8))))
            thr = float(rng.uniform(0.2, 0.8))
            assert _nms(rows, thr) == nms_oracle(rows, thr)

    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.1, 0.2, 0.5, 0.9]),
                              st.integers(0, 30), st.integers(1, 12)), max_size=60),
           st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]))
    @settings(max_examples=200, derandomize=True)
    def test_long_suppression_chains_match_the_oracle(self, rows, thr):
        # many overlapping spans and tied scores: chains where a suppressed
        # candidate no longer suppresses the next one
        rows = [(c, q, s, s + n) for c, q, s, n in rows]
        assert _nms(rows, thr) == nms_oracle(rows, thr)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            nms(*_props([(0, 0.9, 0, 3)]), -0.1)


def _empty(props):
    return all(col.size == 0 for col in props)


class TestLocalizeScores:
    def test_small_pipeline(self):
        # class 0 hot on the first two snippets, everything else cold
        y = np.array([[4.0, -4, -4], [4.0, -4, -4], [-4, -4, 4.0], [-4, -4, 4.0]]).T
        a = np.array([0.95, 0.95, 0.02, 0.02])
        p_fg = np.array([0.8, 0.05, 0.15])
        got = localize_scores(y, a, p_fg, Hyperparams())
        assert [col.dtype for col in got] == [np.int64, np.float64, np.int64, np.int64]
        assert got.cls.size > 0, "expected at least one proposal"
        assert np.all(got.cls == 0)
        assert (got.start[0], got.end[0]) == (0, 2)
        assert np.all(np.diff(got.q) <= 0)

    def test_all_cold_video_is_empty(self):
        y = np.zeros((3, 4))
        a = np.full(4, 0.01)
        p_fg = np.array([0.5, 0.3, 0.2])
        # fused score maxes at 0.5*(1/3) + 0.5*0.01 < 0.18; pick thresholds
        # above that
        hp = Hyperparams(proposal_thresholds=(0.3, 0.5, 0.7))
        assert _empty(localize_scores(y, a, p_fg, hp))

    def test_background_class_never_emitted(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(4, 12))
        a = rng.uniform(size=12)
        p_fg = np.array([0.3, 0.3, 0.3, 0.1])
        got = localize_scores(y, a, p_fg, Hyperparams())
        assert np.all((0 <= got.cls) & (got.cls < 3))

    def test_time_major_scores_refused(self):
        # (T, C+1) is the per-video forward's layout, not the packed one's
        y = np.zeros((5, 3))
        with pytest.raises(ValueError, match=r"y must be \(C\+1, T\) = \(3, 5\), got \(5, 3\)"):
            localize_scores(y, np.full(5, 0.5), np.array([0.5, 0.3, 0.2]), Hyperparams())


def _one_hot_cas(winners, num_classes):
    """(T, C+1) CAS logits whose softmax is exactly one-hot: the winner of
    each snippet at 0, every other class 1000 below (exp underflows to 0)."""
    y = np.full((len(winners), num_classes + 1), -1000.0)
    y[np.arange(len(winners)), winners] = 0.0
    return y


@st.composite
def exact_scores(draw):
    """(y, a, p_fg, nms_iou, epsilon, rho_cls) whose fused scores are
    multiples of 1/128: the softmaxed CAS is one-hot, attention a multiple of
    1/64 and epsilon 0, 1/2 or 1, so every sum is exact and the scalar and
    array paths round identically."""
    c = draw(st.integers(1, 3))
    t = draw(st.integers(1, 30))
    y = _one_hot_cas(draw(st.lists(st.integers(0, c), min_size=t, max_size=t)), c)
    a = np.array(draw(st.lists(st.integers(0, 64), min_size=t, max_size=t))) / 64.0
    p_fg = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.25, 0.5]),
                                  min_size=c + 1, max_size=c + 1)))
    return (y, a, p_fg, draw(st.sampled_from([0.3, 0.5, 0.7])),
            draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.sampled_from([0.0, 0.1, 0.25, 1.0])))


def _same_as_oracle(y, a, p_fg, nms_iou, epsilon=0.5, rho_cls=0.1):
    """`localize_scores` on the transpose of the (T, C+1) `y` against
    `proposals_oracle` on `y`."""
    hp = Hyperparams(nms_iou=nms_iou, epsilon=epsilon, rho_cls=rho_cls)
    got = [(cls, start, end, q) for cls, q, start, end in
           _rows(localize_scores(y.T, a, p_fg, hp))]
    want = [(cls, start, end, q) for cls, q, start, end in proposals_oracle(
        y, a, p_fg, hp.proposal_thresholds, hp.rho_cls, hp.epsilon, nms_iou)]
    assert [g[:3] for g in got] == [w[:3] for w in want]
    assert all(abs(g[3] - w[3]) <= 1e-12 for g, w in zip(got, want))
    return got


class TestAgainstScalarOracle:
    """The array proposal stage against the scalar loop it replaced."""

    @given(exact_scores())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_exact_scores(self, case):
        _same_as_oracle(*case)

    def test_single_snippet(self):
        assert _same_as_oracle(_one_hot_cas([0], 2), np.array([1.0]),
                               np.array([0.5, 0.0, 0.5]), 0.5) == [(0, 0, 1, 1.0)]

    def test_every_snippet_above_every_threshold(self):
        got = _same_as_oracle(_one_hot_cas([0] * 6, 1), np.ones(6),
                              np.array([0.9, 0.1]), 0.5)
        assert got == [(0, 0, 6, 1.0)]

    def test_nothing_above_any_threshold(self):
        # class 0 never wins and attention is 0: its fused score is 0
        assert _same_as_oracle(_one_hot_cas([1] * 5, 1), np.zeros(5),
                               np.array([0.9, 0.1]), 0.5) == []

    def test_runs_touching_both_ends(self):
        got = _same_as_oracle(_one_hot_cas([0, 0, 1, 1, 1, 0], 1),
                              np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
                              np.array([0.9, 0.1]), 0.5)
        assert {(start, end) for _, start, end, _ in got} == {(0, 2), (5, 6)}

    def test_equal_q_ties_go_to_the_earlier_start_then_smaller_class(self):
        # two mirrored bumps per class, and two classes with the same scores
        y = _one_hot_cas([2, 0, 2, 2, 0, 2], 2)
        y[:, 1] = y[:, 0]  # classes 0 and 1 tie on every snippet
        got = _same_as_oracle(y, np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
                              np.array([0.4, 0.4, 0.2]), 0.5)
        best = [(cls, start) for cls, start, _, q in got if q == got[0][3]]
        assert best == [(0, 1), (1, 1), (0, 4), (1, 4)]


def _analytic_params():
    """Two-feature world solved by hand: feature axis 0 is action evidence,
    axis 1 is background evidence."""
    params = ModelParams.zeros(2, 2, 1, 1)  # (D, E, C, K); biases but b_att stay 0
    for mod in (params.rgb, params.flow):
        mod.w_embed[...] = np.eye(2)[:, :, None]
        mod.w_cls[...] = [[1.0, -1.0], [-1.0, 1.0]]
        mod.w_att[...] = [1.0, -1.0]
        mod.b_att[...] = -2.0
    return params


class TestLocalizeVideo:
    def test_separable_video_is_recovered_exactly(self):
        t, span = 10, (3, 7)
        x_rgb = np.tile(np.array([0.0, 8.0]), (t, 1))
        x_flow = np.zeros((t, 2))
        x_rgb[span[0]:span[1]] = np.array([8.0, 0.0])
        x_flow[span[0]:span[1]] = np.array([8.0, 0.0])
        hp = Hyperparams(kernel_size=1, embed_dim=2)
        got = localize_video(x_rgb, x_flow, _analytic_params(), hp)
        assert got.cls.tolist() == [0]
        assert temporal_iou((int(got.start[0]), int(got.end[0])), span) == 1.0
        rec = VideoRecord(video_id="v", x_rgb=x_rgb, x_flow=x_flow,
                          video_label=np.array([1.0]),
                          ground_truth=[(0, span[0], span[1])])
        rep = evaluate({"v": got}, [rec], iou_thresholds=(0.5,), num_classes=1)
        assert rep.map_by_threshold[0.5] == 1.0


class TestProposalIO:
    def test_round_trip(self, tmp_path):
        per_video = {
            "vid_b": _props([(1, 0.5, 0, 4)]),
            "vid_a": _props([(2, 0.75, 1, 3), (0, 0.25, 2, 9)]),
        }
        path = tmp_path / "props.txt"
        write_proposals(path, per_video)
        got = read_proposals(path)
        assert set(got) == {"vid_a", "vid_b"}
        assert _rows(got["vid_a"]) == [(2, 0.75, 1, 3), (0, 0.25, 2, 9)]

    def test_write_read_keeps_dtypes_order_and_q_to_print_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        start = rng.integers(0, 50, size=40)
        props = Proposals(rng.integers(0, 4, size=40), np.sort(rng.normal(size=40))[::-1],
                          start, start + rng.integers(1, 9, size=40))
        empty = _props([])
        path = tmp_path / "props.txt"
        write_proposals(path, {"v": props, "none": empty})
        got = read_proposals(path)
        assert list(got) == ["v"]  # a video with no proposals writes no line
        back = got["v"]
        assert [col.dtype for col in back] == [np.int64, np.float64, np.int64, np.int64]
        for field in ("cls", "start", "end"):
            np.testing.assert_array_equal(getattr(back, field), getattr(props, field))
        assert np.max(np.abs(back.q - props.q)) <= 5e-7

    def test_written_in_the_order_given(self, tmp_path):
        path = tmp_path / "props.txt"
        write_proposals(path, {"v": _props([(0, 0.25, 2, 9), (2, 0.75, 1, 3)])})
        assert path.read_text().splitlines()[1:] == ["v 0 0.250000 2 9",
                                                     "v 2 0.750000 1 3"]

    def test_timed_columns(self, tmp_path):
        path = tmp_path / "props.txt"
        write_proposals(path, {"v": _props([(0, 0.5, 4, 8)])},
                        frames_per_snippet=16, fps=25.0)
        text = path.read_text()
        assert "start_sec" in text.splitlines()[0]
        assert " 2.560 5.120" in text.splitlines()[1]
        got = read_proposals(path)
        assert got["v"].start.tolist() == [4] and got["v"].end.tolist() == [8]

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("v 0 0.5 1\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_proposals(path)

    def test_bad_span_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("v 0 0.5 5 5\n")
        with pytest.raises(DataFormatError):
            read_proposals(path)

    @pytest.mark.parametrize("fields", ["0 nan 1 3", "0 -inf 1 3", "-1 0.5 1 3",
                                        "0 0.5 -1 3", "0 0.5 3 3"],
                             ids=["q_nan", "q_minus_inf", "class_minus_1", "start_minus_1",
                                  "empty_span"])
    def test_bad_field_names_its_line(self, tmp_path, fields):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\nv 0 0.5 1 3\nv {fields}\n")
        with pytest.raises(DataFormatError, match=f"line 3: need class >= 0, finite q "
                                                  f"and 0 <= start < end, got {fields}$"):
            read_proposals(path)

    def test_unparsable_field_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("v 0 0.5 1 x\n")
        with pytest.raises(DataFormatError, match="line 1: invalid literal"):
            read_proposals(path)

    @pytest.mark.parametrize("fields", ["99999999999999999999 0.5 1 5",
                                        "0 0.5 1 9223372036854775808",
                                        "9223372036854775808 0.5 1 5"],
                             ids=["class_past_int64", "end_2_63", "class_2_63"])
    def test_integer_past_int64_names_its_line(self, tmp_path, fields):
        path = tmp_path / "bad.txt"
        path.write_text(f"v 0 0.5 1 3\nv {fields}\n")
        with pytest.raises(DataFormatError, match=f"line 2: class, start and end must be "
                                                  f"below 2\\^63, got {fields}$"):
            read_proposals(path)

    def test_largest_int64_reads(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"v {2**63 - 1} 0.5 {2**63 - 2} {2**63 - 1}\n")
        got = read_proposals(path)["v"]
        assert got.cls.tolist() == [2**63 - 1] and got.end.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("line, column", [(b"v 0 0.5 1 3\xff", 11),
                                              (b"# \xfe comment", 2), (b"\xc3", 0)],
                             ids=["in_a_field", "in_a_comment", "truncated_sequence"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, line, column):
        head = b"# video_id class q start end\r\nv 0 0.5 1 3\r\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(head + line + b"\n")
        with pytest.raises(DataFormatError, match=r"line 3: not UTF-8 \(") as ei:
            read_proposals(path)
        assert ei.value.offset == len(head) + column

    def test_lines_split_as_a_text_file_splits_them(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_bytes(b"# header\rv 0 0.5 1 3\r\nw 1 0.25 2 4\n\nv 2 0.75 0 1")
        got = read_proposals(path)
        assert _rows(got["v"]) == [(0, 0.5, 1, 3), (2, 0.75, 0, 1)]
        assert _rows(got["w"]) == [(1, 0.25, 2, 4)]
