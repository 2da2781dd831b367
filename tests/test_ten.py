"""Sampling plans, refill, and the continuity branch degeneracies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plan_oracle
from wtalkit.losses import GradMode, compute_losses, make_tiny_instance
from wtalkit.model import Hyperparams, forward
from wtalkit.ten import SamplePlan, make_plan, refill, tcb_forward, tcb_forward_full


class TestSamplePlan:
    def test_segments_cover_sequence(self):
        plan = make_plan(10, 4, np.random.default_rng(0))
        assert len(plan.chosen) == 3  # [0,4) [4,8) [8,10)
        src = plan.snippet_source()
        assert src.shape == (10,)
        np.testing.assert_array_equal(src[:4], np.full(4, plan.chosen[0]))
        np.testing.assert_array_equal(src[4:8], np.full(4, plan.chosen[1]))
        np.testing.assert_array_equal(src[8:], np.full(2, plan.chosen[2]))

    def test_out_of_segment_choice_rejected(self):
        with pytest.raises(ValueError):
            SamplePlan(num_snippets=8, k=4, chosen=(0, 2))

    def test_k_one_is_identity_plan(self):
        plan = make_plan(6, 1, np.random.default_rng(1))
        np.testing.assert_array_equal(plan.snippet_source(), np.arange(6))

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_choices_always_inside_segments(self, t, k, seed):
        plan = make_plan(t, k, np.random.default_rng(seed))
        src = plan.snippet_source()
        for pos in range(t):
            seg = pos // k
            assert seg * k <= src[pos] < min((seg + 1) * k, t)
            assert src[pos] // k == seg

    def test_vectorised_draw_matches_sequential_oracle(self):
        # same chosen indices and the same generator state afterwards, so
        # the vectorised draw changes no plan and no later draw
        cases = np.random.default_rng(2024)
        for _ in range(200):
            t, k = int(cases.integers(1, 701)), int(cases.integers(1, 9))
            seed = int(cases.integers(0, 2**32))
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert make_plan(t, k, fast).chosen == plan_oracle(t, k, slow)
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_wrong_choice_count_rejected(self):
        with pytest.raises(ValueError, match="1 choices for 2 segments"):
            SamplePlan(num_snippets=8, k=4, chosen=(1,))

    def test_bad_args(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            make_plan(0, 4, rng)
        with pytest.raises(ValueError):
            make_plan(5, 0, rng)


class TestRefill:
    def test_piecewise_constant(self):
        x = np.arange(12.0).reshape(6, 2)
        plan = SamplePlan(num_snippets=6, k=3, chosen=(1, 5))
        out = refill(x, plan)
        np.testing.assert_array_equal(out[:3], np.tile(x[1], (3, 1)))
        np.testing.assert_array_equal(out[3:], np.tile(x[5], (3, 1)))

    def test_length_mismatch(self):
        plan = SamplePlan(num_snippets=6, k=3, chosen=(0, 3))
        with pytest.raises(ValueError):
            refill(np.zeros((5, 2)), plan)


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
        # vanishes since the row distributions match exactly
        inst = make_tiny_instance(0)
        hp = Hyperparams(k=1)
        plan = make_plan(inst.x_rgb.shape[0], 1, np.random.default_rng(3))
        bb = forward(inst.x_rgb, inst.x_flow, inst.params)
        tcb = tcb_forward_full(inst.x_rgb, inst.x_flow, inst.params, plan)
        parts = compute_losses(bb, tcb, inst.video_label, hp, GradMode.STANDARD)
        from wtalkit.numerics import gaussian_smooth
        resid = 2.0 * np.mean(np.abs(bb.a - gaussian_smooth(
            bb.a, hp.gauss_sigma, hp.gauss_radius)))
        assert parts.kl == 0.0
        assert parts.att == pytest.approx(resid, abs=1e-12)

    def test_k_one_branches_identical_bitwise(self):
        inst = make_tiny_instance(1)
        plan = make_plan(inst.x_rgb.shape[0], 1, np.random.default_rng(4))
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
            plan = make_plan(t, 4, np.random.default_rng(seed))
            bb = forward(x_rgb, x_flow, inst.params)
            tcb = tcb_forward_full(x_rgb, x_flow, inst.params, plan)
            np.testing.assert_array_equal(tcb.y, bb.y)
            np.testing.assert_array_equal(tcb.a, bb.a)
            np.testing.assert_array_equal(tcb.p_fg, bb.p_fg)
            np.testing.assert_array_equal(tcb.p_bg, bb.p_bg)


class TestTcbForward:
    def test_fused_pair_matches_full(self):
        inst = make_tiny_instance(3)
        plan = make_plan(inst.x_rgb.shape[0], 3, np.random.default_rng(5))
        a_r, y_r = tcb_forward(inst.x_rgb, inst.x_flow, inst.params, plan)
        full = tcb_forward_full(inst.x_rgb, inst.x_flow, inst.params, plan)
        np.testing.assert_array_equal(a_r, full.a)
        np.testing.assert_array_equal(y_r, full.y)

    def test_same_plan_applied_to_both_modalities(self):
        # feed the snippet index as the feature so the source is readable
        t, k = 8, 4
        idx = np.arange(float(t))[:, None]
        x = np.tile(idx, (1, 6))
        plan = make_plan(t, k, np.random.default_rng(6))
        out_rgb = refill(x, plan)
        out_flow = refill(x + 100.0, plan)
        np.testing.assert_array_equal(out_flow - out_rgb, np.full((t, 6), 100.0))
