"""Sampling plans, refill, and the continuity branch degeneracies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plan_oracle
from wtalkit.losses import (
    GradMode,
    backward,
    compute_losses,
    continuity_targets,
    label_targets,
    make_tiny_instance,
    packed_forward,
)
from wtalkit.model import Hyperparams, forward
from wtalkit.ten import make_plan, refill, tcb_forward_full

ragged = st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=20)


class TestSamplePlan:
    def test_segments_cover_sequence(self):
        src = make_plan([10], 4, np.random.default_rng(0))
        assert src.shape == (10,) and src.dtype == np.int64
        # [0,4) [4,8) [8,10)
        np.testing.assert_array_equal(src[:4], np.full(4, src[0]))
        np.testing.assert_array_equal(src[4:8], np.full(4, src[4]))
        np.testing.assert_array_equal(src[8:], np.full(2, src[8]))

    def test_out_of_segment_choice_rejected(self):
        # entries are local to their own video: row 7 of the first video may
        # not read snippet 8, although the batch holds 16 rows
        videos = [make_tiny_instance(0), make_tiny_instance(1)]
        good = np.concatenate([v.plan for v in videos])
        for row, value in ((7, 8), (8, 8), (3, -1)):
            plan = good.copy()
            plan[row] = value
            with pytest.raises(ValueError, match=f"plan row {row} reads snippet {value} "
                                                 "of a video with T=8"):
                backward(videos, plan, videos[0].params, Hyperparams(), GradMode.STANDARD)

    def test_k_one_is_identity_plan(self):
        np.testing.assert_array_equal(make_plan([6], 1, np.random.default_rng(1)),
                                      np.arange(6))
        np.testing.assert_array_equal(make_plan([3, 2], 1, np.random.default_rng(1)),
                                      [0, 1, 2, 0, 1])

    @given(ragged, st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_choices_always_inside_segments(self, lengths, k, seed):
        src = make_plan(lengths, k, np.random.default_rng(seed))
        pos = np.concatenate([np.arange(t) for t in lengths])
        limit = np.repeat(lengths, lengths)
        assert src.shape == pos.shape
        assert np.all(src // k == pos // k)
        assert np.all((src >= 0) & (src < limit))

    @given(ragged, st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_vectorised_draw_matches_sequential_oracle(self, lengths, k, seed):
        # one draw for the whole batch gives the per-video, per-segment
        # scalar draws and leaves the generator in the same state, so the
        # batched draw changes no plan and no later draw
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [s for t in lengths for s in plan_oracle(t, k, slow)]
        assert make_plan(lengths, k, fast).tolist() == expected
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_wrong_choice_count_rejected(self):
        inst = make_tiny_instance(0)
        for plan in (inst.plan[:-1], np.append(inst.plan, 0), inst.plan[:, None]):
            with pytest.raises(ValueError, match="for 8 snippets"):
                backward([inst], plan, inst.params, Hyperparams(), GradMode.STANDARD)

    def test_bad_args(self):
        rng = np.random.default_rng(2)
        for lengths, k in (([0], 4), ([5, 0], 4), ([], 4), ([5], 0)):
            with pytest.raises(ValueError):
                make_plan(lengths, k, rng)


class TestRefill:
    def test_piecewise_constant(self):
        x = np.arange(12.0).reshape(6, 2)
        out = refill(x, np.array([1, 1, 1, 5, 5, 5]))
        np.testing.assert_array_equal(out[:3], np.tile(x[1], (3, 1)))
        np.testing.assert_array_equal(out[3:], np.tile(x[5], (3, 1)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            refill(np.zeros((5, 2)), np.array([0, 0, 0, 3, 3, 3]))


class TestDegeneracies:
    def test_k_one_trains_with_zero_continuity_losses(self, tiny_dataset):
        # k=1 sampling is the identity; the trainer skips the redundant branch
        # so both continuity losses are exactly 0 at every step
        from wtalkit.synth import training_view
        from wtalkit.trainer import RunConfig, train

        _, train_recs, _ = tiny_dataset
        result = train(training_view(train_recs),
                       RunConfig(hp=Hyperparams(embed_dim=8, k=1),
                                 use_ten=True, iterations=3))
        assert all(r.losses.att == 0.0 and r.losses.kl == 0.0
                   for r in result.log)

    def test_forced_identity_pair_keeps_smoothing_residual(self):
        # fed an identical pair directly, the attention consistency term is
        # the smoothing residual 2/T * sum |a - G(a)|, not zero; the KL term
        # vanishes, up to rounding: the packed refilled copy sums its taps
        # in another order than the base rows
        inst = make_tiny_instance(0)
        plan = make_plan([inst.x_rgb.shape[0]], 1, np.random.default_rng(3))
        fwd = packed_forward([inst], plan, inst.params)
        _, _, att, kl, _, _ = compute_losses(fwd, label_targets([inst], 4),
                                             continuity_targets(fwd), Hyperparams(k=1),
                                             GradMode.STANDARD)[0]
        from wtalkit.numerics import gaussian_smooth
        bb = forward(inst.x_rgb, inst.x_flow, inst.params)
        resid = 2.0 * np.mean(np.abs(bb.a - gaussian_smooth(bb.a)))
        assert kl == pytest.approx(0.0, abs=1e-15)
        assert att == pytest.approx(resid, abs=1e-12)

    def test_k_one_branches_identical_bitwise(self):
        inst = make_tiny_instance(1)
        plan = make_plan([inst.x_rgb.shape[0]], 1, np.random.default_rng(4))
        bb = forward(inst.x_rgb, inst.x_flow, inst.params)
        tcb = tcb_forward_full(inst.x_rgb, inst.x_flow, inst.params, plan)
        np.testing.assert_array_equal(tcb.y, bb.y)
        np.testing.assert_array_equal(tcb.a, bb.a)
        np.testing.assert_array_equal(tcb.p_fg, bb.p_fg)

    def test_constant_input_branches_identical_bitwise(self):
        # a constant video is a fixed point of sample-and-refill, whatever
        # the plan drawn
        inst = make_tiny_instance(2)
        t = 9
        x_rgb = np.tile(inst.x_rgb[0], (t, 1))
        x_flow = np.tile(inst.x_flow[0], (t, 1))
        for seed in range(5):
            plan = make_plan([t], 4, np.random.default_rng(seed))
            bb = forward(x_rgb, x_flow, inst.params)
            tcb = tcb_forward_full(x_rgb, x_flow, inst.params, plan)
            np.testing.assert_array_equal(tcb.y, bb.y)
            np.testing.assert_array_equal(tcb.a, bb.a)
            np.testing.assert_array_equal(tcb.p_fg, bb.p_fg)
            np.testing.assert_array_equal(tcb.p_bg, bb.p_bg)


class TestTcbForward:
    def test_same_plan_applied_to_both_modalities(self):
        # feed the snippet index as the feature so the source is readable
        t, k = 8, 4
        idx = np.arange(float(t))[:, None]
        x = np.tile(idx, (1, 6))
        plan = make_plan([t], k, np.random.default_rng(6))
        out_rgb = refill(x, plan)
        out_flow = refill(x + 100.0, plan)
        np.testing.assert_array_equal(out_flow - out_rgb, np.full((t, 6), 100.0))
