"""Losses, hand-derived gradients, certification harness, factor identities."""

import contextlib
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wtalkit.losses as losses_mod
from oracles import (
    attention_factor_oracle,
    backward_oracle,
    closed_form_attention_factors,
    finite_diff_oracle,
    packed_forward_oracle,
    video_losses_oracle,
)
from wtalkit.errors import ConfigError, NumericError
from wtalkit.losses import (
    CHUNK_CELLS,
    CERTIFIED_MODES,
    MIN_MARGIN,
    PAIR_WORK,
    GradMode,
    LossBreakdown,
    TinyInstance,
    backward,
    build_fd_loss,
    certify_gradients,
    compute_losses,
    continuity_targets,
    instance_margin,
    label_targets,
    make_tiny_instance,
    packed_forward,
    _chunks,
)
from wtalkit.model import Hyperparams, ModelParams, embed, forward, init_params
from wtalkit.synth import SynthConfig, TrainingVideo, generate, training_view
from wtalkit.trainer import localize_dataset
from wtalkit.ten import make_plan, tcb_forward_full
from wtalkit.numerics import finite_diff_grad, gaussian_smooth, packed_windows, softmax

HP = Hyperparams()


def accepted_instance(start_seed, mode=GradMode.STANDARD, draw=make_tiny_instance):
    """First instance `draw(seed)` at or after start_seed that clears the kink filter."""
    seed = start_seed
    while True:
        inst = draw(seed)
        if instance_margin(inst, mode) >= MIN_MARGIN:
            return inst
        seed += 1


class TestGradMode:
    def test_each_mode_states_what_it_does(self):
        bits = {m.value: (m.bges, m.uses_bvl, m.is_gradient) for m in GradMode}
        assert bits == {"standard": (False, False, True), "bges": (True, False, True),
                        "grl": (False, False, False), "bvl": (False, True, True),
                        "bvl+bges": (True, True, True)}

    def test_certified_modes_are_the_gradient_modes(self):
        assert CERTIFIED_MODES == tuple(m for m in GradMode if m.is_gradient)
        assert [m for m in GradMode if not m.is_gradient] == [GradMode.GRL]


def video(label):
    return SimpleNamespace(video_label=np.asarray(label, dtype=np.float64))


def stub_forward(y, a=None, p_fg=None, p_bg=None):
    """A one-video packed forward without a refilled copy: fused CAS logits
    y (C+1, T) and attention a (T,), 0.5 everywhere by default, and pooled
    probabilities p_fg and p_bg (C+1,), uniform by default."""
    y = np.asarray(y, dtype=np.float64)
    rows = y.shape[1]
    a = np.full(rows, 0.5) if a is None else np.asarray(a, dtype=np.float64)
    uniform = np.full(y.shape[0], 1.0 / y.shape[0])
    return SimpleNamespace(lengths=np.array([rows]), starts=np.array([0]), y=y, a=a,
                           p_fg=np.asarray(uniform if p_fg is None else p_fg)[:, None],
                           p_bg=np.asarray(uniform if p_bg is None else p_bg)[:, None],
                           probs=None)


def branch_pair(y, y_r, a, a_r):
    """A one-video packed forward of base rows (y, a) and a refilled copy
    (y_r, a_r), each given snippet-major, and the continuity targets that
    `continuity_targets` derives from them."""
    fwd = stub_forward(np.concatenate([y, y_r]).T, np.concatenate([a, a_r]))
    fwd.lengths = np.array([len(a)])
    fwd.probs = softmax(fwd.y, axis=0)
    return fwd, (np.concatenate([gaussian_smooth(a_r), gaussian_smooth(a)]), fwd.probs)


def losses_of(fwd, targets=None, label=(0.0,), mode=GradMode.STANDARD):
    """`compute_losses` of a one-video forward as a LossBreakdown."""
    row = compute_losses(fwd, label_targets([video(label)], fwd.y.shape[0]), targets, HP, mode)
    assert row.shape == (1, 6)
    return LossBreakdown(*row[0].tolist())


class TestFullLabel:
    def test_background_bit_always_set(self):
        y_hat = label_targets([video([1.0, 0.0, 1.0]), video([0.0, 0.0, 0.0])], 4)
        np.testing.assert_array_equal(y_hat[:, 0], np.array([1.0, 0.0, 1.0, 1.0]) / 3.0)
        np.testing.assert_array_equal(y_hat[:, 1], [0.0, 0.0, 0.0, 1.0])


def loss_fg(p_fg, label):
    return losses_of(stub_forward(np.zeros((len(p_fg), 3)), p_fg=p_fg), label=label).fg


def loss_bg(p_bg):
    return losses_of(stub_forward(np.zeros((len(p_bg), 3)), p_bg=p_bg)).bg


def loss_bvl(y):
    """The background video loss of snippet-major CAS logits y (T, C+1)."""
    return losses_of(stub_forward(np.asarray(y).T), mode=GradMode.BVL).bvl


class TestLossFg:
    def test_one_hot_match_is_zero(self):
        # a video with no action class: its full label is the background bit
        p = np.array([0.0, 0.0, 0.0, 1.0])
        assert loss_fg(p, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_single_class(self):
        p = np.full(4, 0.25)
        assert loss_fg(p, [1.0, 0.0, 0.0]) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_two_class_label_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=4))
        label = np.array([1.0, 0.0, 1.0, 1.0])
        expected = -np.sum((label / 3.0) * np.log(p))
        assert loss_fg(p, label[:-1]) == pytest.approx(expected, abs=1e-12)


class TestLossBg:
    def test_certain_background_is_zero(self):
        assert loss_bg(np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(0.0)

    def test_uniform(self):
        assert loss_bg(np.full(4, 0.25)) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_quarter_probability(self):
        p = np.array([0.5, 0.25, 0.25])
        assert loss_bg(p) == pytest.approx(1.3862943611, abs=1e-9)

    def test_zero_probability_floored(self):
        out = loss_bg(np.array([1.0, 0.0]))
        assert np.isfinite(out)
        assert out == pytest.approx(-np.log(1e-12), abs=1e-6)


class TestLossBvl:
    def test_zero_logits(self):
        assert loss_bvl(np.zeros((5, 4))) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_background_dominant_mean(self):
        y = np.zeros((3, 4))
        y[:, -1] = 40.0
        assert loss_bvl(y) == pytest.approx(0.0, abs=1e-12)

    def test_random_matches_direct(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(5, 4))
        expected = -np.log(softmax(y.mean(axis=0))[-1])
        assert loss_bvl(y) == pytest.approx(expected, abs=1e-12)


def loss_att(a, a_r):
    """The continuity attention loss of tracks a, a_r, with equal CAS rows."""
    zeros = np.zeros((len(a), 2))
    return losses_of(*branch_pair(zeros, zeros, a, a_r)).att


def loss_kl(y, y_r):
    """The continuity KL loss of CAS logits y, y_r, with equal attention."""
    half = np.full(len(y), 0.5)
    return losses_of(*branch_pair(y, y_r, half, half)).kl


class TestLossAtt:
    def test_equal_constant_tracks(self):
        a = np.full(6, 0.4)
        assert loss_att(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_opposed_saturated_tracks(self):
        ones, zeros = np.ones(5), np.zeros(5)
        assert loss_att(ones, zeros) == pytest.approx(2.0, abs=1e-12)

    def test_random_matches_direct(self):
        rng = np.random.default_rng(2)
        a, a_r = rng.uniform(0.01, 0.99, size=(2, 6))
        expected = np.mean(np.abs(a - gaussian_smooth(a_r))
                           + np.abs(a_r - gaussian_smooth(a)))
        assert loss_att(a, a_r) == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, a_r = rng.uniform(0.01, 0.99, size=(2, 7))
        assert loss_att(a, a_r) == pytest.approx(loss_att(a_r, a), abs=1e-15)

    def test_length_mismatch(self):
        # targets held from a video of another length are refused
        zeros = np.zeros((4, 2))
        fwd, _ = branch_pair(zeros, zeros, np.ones(4), np.ones(4))
        _, held = branch_pair(np.zeros((5, 2)), np.zeros((5, 2)), np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            losses_of(fwd, held)


class TestLossKl:
    def test_identical(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(4, 3))
        assert loss_kl(y, y) == pytest.approx(0.0, abs=1e-12)

    def test_rowwise_constant_shift(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(4, 3))
        assert loss_kl(y, y + 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_random_matches_double_sum(self):
        rng = np.random.default_rng(6)
        y, y_r = rng.normal(size=(2, 4, 3))
        p, q = softmax(y, axis=1), softmax(y_r, axis=1)
        expected = 0.0
        for t in range(4):
            for c in range(3):
                expected += p[t, c] * np.log(p[t, c] / q[t, c])
                expected += q[t, c] * np.log(q[t, c] / p[t, c])
        assert loss_kl(y, y_r) == pytest.approx(expected / 4.0, abs=1e-12)

    def test_shape_mismatch(self):
        # targets held from a forward with another class count are refused
        half = np.full(4, 0.5)
        fwd, _ = branch_pair(np.zeros((4, 3)), np.zeros((4, 3)), half, half)
        _, held = branch_pair(np.zeros((4, 4)), np.zeros((4, 4)), half, half)
        with pytest.raises(ValueError):
            losses_of(fwd, held)


def one_video_losses(inst, mode, params=None, held=None):
    """`compute_losses` of the instance's one-video packed chunk at `params`
    (its own by default), with live continuity targets or the `held` ones."""
    fwd = packed_forward([inst], inst.plan, inst.params if params is None else params,
                         mode.bges)
    return losses_of(fwd, continuity_targets(fwd) if held is None else held,
                     inst.video_label, mode)


class TestBreakdown:
    def test_additivity(self):
        inst = accepted_instance(40)
        parts = one_video_losses(inst, GradMode.STANDARD)
        expected = (parts.fg + HP.lam * parts.bg
                    + HP.beta * (parts.kl + parts.att))
        assert parts.total == pytest.approx(expected, abs=1e-10)
        assert parts.bvl == 0.0

    def test_additivity_with_bvl(self):
        inst = accepted_instance(50, GradMode.BVL)
        parts = one_video_losses(inst, GradMode.BVL)
        assert parts.bvl > 0.0
        expected = (parts.fg + HP.lam * parts.bg
                    + HP.beta * (parts.kl + parts.att)
                    + HP.lam * parts.bvl)
        assert parts.total == pytest.approx(expected, abs=1e-10)

    def test_frozen_targets_match_at_capture_point(self):
        # targets held from a second forward at the same point give the
        # live losses bit for bit
        inst = accepted_instance(60)
        held = continuity_targets(packed_forward([inst], inst.plan, inst.params))
        live = one_video_losses(inst, GradMode.STANDARD)
        assert one_video_losses(inst, GradMode.STANDARD, held=held) == live

    @pytest.mark.parametrize("mode", list(GradMode), ids=lambda m: m.value)
    def test_matches_the_per_video_oracle(self, mode):
        # live targets, then targets held at another parameter point
        inst = accepted_instance(70, mode)
        moved = inst.params.from_vector(
            inst.params.to_vector() + np.random.default_rng(1).normal(0.0, 0.05, inst.params.size))
        pair = (forward(inst.x_rgb, inst.x_flow, inst.params, mode.bges),
                tcb_forward_full(inst.x_rgb, inst.x_flow, inst.params, inst.plan))
        held = continuity_targets(packed_forward([inst], inst.plan, inst.params, mode.bges))
        moved_pair = (forward(inst.x_rgb, inst.x_flow, moved, mode.bges),
                      tcb_forward_full(inst.x_rgb, inst.x_flow, moved, inst.plan))
        for got, want in (
                (one_video_losses(inst, mode),
                 video_losses_oracle(*pair, inst.video_label, HP, mode.uses_bvl)),
                (one_video_losses(inst, mode, moved, held),
                 video_losses_oracle(*moved_pair, inst.video_label, HP, mode.uses_bvl, pair))):
            for field in ("fg", "bg", "att", "kl", "bvl", "total"):
                assert getattr(got, field) == pytest.approx(getattr(want, field),
                                                            rel=1e-12, abs=1e-15)


def backward_one(inst, hp, mode, plan=True):
    """Packed gradient of one tiny instance, as a ModelParams of gradients."""
    grad, _ = backward([inst], inst.plan if plan else None, inst.params, hp, mode)
    return inst.params.from_vector(grad)


class TestBackward:
    def test_fg_only_matches_finite_differences(self):
        inst = accepted_instance(70)
        hp = Hyperparams(lam=0.0, beta=0.0)
        analytic = backward_one(inst, hp, GradMode.STANDARD).to_vector()
        numeric = finite_diff_grad(build_fd_loss(inst, hp, GradMode.STANDARD),
                                   inst.params.to_vector())
        scale = np.maximum(np.abs(numeric), 1e-5)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5

    def test_continuity_gradients_shared_across_modes(self):
        # modes touch only the background path; with lam = 0 (and the
        # background-video weight following it) every mode reports the
        # same gradient bitwise
        inst = accepted_instance(80)
        hp = Hyperparams(lam=0.0)
        vecs = [backward_one(inst, hp, mode).to_vector() for mode in GradMode]
        for vec in vecs[1:]:
            np.testing.assert_array_equal(vec, vecs[0])

    def test_att_factors_are_weighted_honest_factors(self):
        # the background path adds lam * (honest factor) to every snippet's
        # attention-logit gradient, and GRL adds exactly its negation; the
        # attention weights see it through the embedding X_e
        inst = accepted_instance(90)
        bb = forward(inst.x_rgb, inst.x_flow, inst.params)
        off = backward_one(inst, Hyperparams(lam=0.0), GradMode.STANDARD)
        for mode, sign in ((GradMode.STANDARD, 1.0), (GradMode.GRL, -1.0)):
            on = backward_one(inst, HP, mode)
            for name, x in (("rgb", inst.x_rgb), ("flow", inst.x_flow)):
                mod = inst.params.modality(name)
                xe = embed(x, mod, packed_windows([len(x)], mod.w_embed.shape[2]))[2]
                factors = sign * HP.lam * attention_factor_oracle(bb, name)
                d_on, d_off = on.modality(name), off.modality(name)
                np.testing.assert_allclose(d_on.w_att - d_off.w_att,
                                           xe.T @ factors, rtol=1e-9, atol=1e-15)
                assert d_on.b_att - d_off.b_att == pytest.approx(
                    factors.sum(), rel=1e-9, abs=1e-15)

    def test_frozen_targets_certify_every_gradient_mode(self):
        # the default certificate is every mode but GRL, BVL+BGES included
        results = certify_gradients(num_instances=3)
        assert [r.mode for r in results] == [
            name for name in ("standard", "bges", "bvl", "bvl+bges") for _ in range(3)]
        assert all(r.passed for r in results)


def ragged_batch(lengths, k, kernel_size, feature_dim, seed):
    """Tiny-instance-shaped videos of the given lengths, plus their plan."""
    rng = np.random.default_rng(seed)
    params = init_params(rng, feature_dim, 5, 3, kernel_size)
    videos = []
    for i, t in enumerate(lengths):
        label = np.zeros(3)
        label[rng.integers(0, 3, size=1 + i % 2)] = 1.0
        videos.append(TrainingVideo(f"v{i}", rng.normal(size=(t, feature_dim)),
                                    rng.normal(size=(t, feature_dim)), label))
    return videos, make_plan(lengths, k, rng), params


def per_video(plan, videos):
    """The batch plan split into each video's own rows."""
    return np.split(plan, np.cumsum([v.x_rgb.shape[0] for v in videos])[:-1])


def assert_close_rel(actual, expected, rel=1e-12):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(np.asarray(actual) - expected))) <= rel * scale


class TestPackedBatch:
    @given(lengths=st.lists(st.sampled_from([1, 2, 3, 5, 7, 10, 13]),
                            min_size=1, max_size=5),
           k=st.integers(1, 14), kernel_size=st.sampled_from([1, 3, 5]),
           mode=st.sampled_from(list(GradMode)),
           ten=st.booleans(), budget=st.sampled_from([1, 200, 600, CHUNK_CELLS]),
           seed=st.integers(0, 2**16))
    # T = 1 with the continuity branch on: each refilled copy is its base
    # row, so the L1 residuals are rounding noise at the kink
    @example(lengths=[1, 1], k=1, kernel_size=5, mode=GradMode.STANDARD, ten=True,
             budget=CHUNK_CELLS, seed=2)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_batch_is_mean_of_one_video_runs(self, lengths, k, kernel_size, mode,
                                             ten, budget, seed):
        # ragged lengths cover T = 1, T < K, T not divisible by k and k >= T;
        # small budgets split the batch into several chunks
        videos, plan, params = ragged_batch(lengths, k, kernel_size, 6, seed)
        plan = plan if ten else None
        plans = per_video(plan, videos) if ten else [None] * len(videos)
        with patch.object(losses_mod, "CHUNK_CELLS", budget):
            grad, parts = backward(videos, plan, params, HP, mode)
        singles = [backward([v], p, params, HP, mode) for v, p in zip(videos, plans)]
        assert_close_rel(grad, np.mean([g for g, _ in singles], axis=0))
        for field in ("fg", "bg", "att", "kl", "bvl", "total"):
            expected = np.mean([getattr(b, field) for _, b in singles])
            assert getattr(parts, field) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        # each one-video run's losses are those of the per-video oracle
        for v, p, (_, got) in zip(videos, plans, singles):
            bb = forward(v.x_rgb, v.x_flow, params, mode.bges)
            tcb = None if p is None else tcb_forward_full(v.x_rgb, v.x_flow, params, p)
            ref = video_losses_oracle(bb, tcb, v.video_label, HP, mode.uses_bvl)
            for field in ("fg", "bg", "att", "kl", "bvl", "total"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field),
                                                            rel=1e-12, abs=1e-15)

    def test_batch_crossing_the_real_budget(self):
        # two 700-snippet videos at D = 64, K = 3 hold 268,800 cells > 2^18
        videos, plan, params = ragged_batch([700, 700, 4], 4, 3, 64, 5)
        assert list(_chunks(videos, 3)) == [(0, 1), (1, 3)]
        for mode in (GradMode.STANDARD, GradMode.BVL_PLUS_BGES):
            grad, _ = backward(videos, plan, params, HP, mode)
            singles = [backward([v], p, params, HP, mode)[0]
                       for v, p in zip(videos, per_video(plan, videos))]
            assert_close_rel(grad, np.mean(singles, axis=0))

    def test_chunks_follow_the_world_shapes(self):
        # a whole stock batch (T <= 120, D = 32) is one chunk; videos of the
        # external-feature shape (T >= 300, D = 256) each run alone
        golden, _, _ = ragged_batch([120] * 16, 4, 3, 32, 0)
        long, _, _ = ragged_batch([300] * 3, 4, 3, 256, 0)
        assert list(_chunks(golden, 3)) == [(0, 16)]
        assert list(_chunks(long, 3)) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_forward_raises(self):
        videos, plan, params = ragged_batch([6, 6], 2, 3, 6, 1)
        videos[1].x_flow[2, 0] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            backward(videos, plan, params, HP, GradMode.STANDARD)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("budget", [1, CHUNK_CELLS])
    @pytest.mark.parametrize("ten", [False, True])
    def test_non_finite_forward_names_the_first_poisoned_video(self, budget, ten):
        # one chunk per video at budget 1: the position is the batch's, not the chunk's
        videos, plan, params = ragged_batch([5, 3, 7, 4, 6], 2, 3, 6, 3)
        for bad in (3, 1):
            videos[bad].x_rgb[bad, 0] = np.nan
            with patch.object(losses_mod, "CHUNK_CELLS", budget), \
                    pytest.raises(NumericError) as caught:
                backward(videos, plan if ten else None, params, HP, GradMode.STANDARD)
            assert type(caught.value) is NumericError
            assert str(caught.value) == ("forward produced non-finite outputs "
                                         f"at batch position {bad} (v{bad})")

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("budget", [1, CHUNK_CELLS])
    def test_training_and_inference_name_a_poisoned_video_alike(self, budget):
        videos, plan, params = ragged_batch([5, 3, 7, 4, 6], 2, 3, 6, 5)
        videos[2].x_flow[6, 1] = np.inf
        texts = []
        with patch.object(losses_mod, "CHUNK_CELLS", budget):
            for run in (lambda: backward(videos, None, params, HP, GradMode.BGES),
                        lambda: backward(videos, plan, params, HP, GradMode.STANDARD),
                        lambda: localize_dataset(videos, params, HP)):
                with pytest.raises(NumericError) as caught:
                    run()
                texts.append(str(caught.value))
        assert texts == ["forward produced non-finite outputs at batch position 2 (v2)"] * 3


def drawn_plan(lengths, k, kind, rng):
    """A batch plan: make_plan's, one in-range source per row, or runs of
    random length that each read one random snippet of their video."""
    if kind == "make_plan":
        return make_plan(lengths, k, rng)
    plans = []
    for t in lengths:
        if kind == "rows":
            plans.append(rng.integers(0, t, size=t))
        else:
            cuts = np.flatnonzero(rng.random(t) < 0.4)
            plans.append(np.repeat(rng.integers(0, t, size=cuts.size + 1),
                                   np.diff(np.concatenate([[0], cuts, [t]]))))
    return np.concatenate(plans)


class TestWindowMatrixOracle:
    @pytest.mark.parametrize("mode, ten", [(GradMode.STANDARD, False), (GradMode.BGES, True)],
                             ids=["bl", "ten_bges"])
    def test_stock_batch_matches_the_window_matrix_path(self, mode, ten):
        # a stock-world batch: the training step's real shapes, one chunk.
        # Without a plan the rows are the parent's, so the bits are too.
        videos = training_view(generate(SynthConfig(num_test=0))[0][:16])
        lengths = [v.x_rgb.shape[0] for v in videos]
        params = init_params(np.random.default_rng(0), 32, 32, 5, 3)
        plan = make_plan(lengths, HP.k, np.random.default_rng(1)) if ten else None
        grad, parts = backward(videos, plan, params, HP, mode)
        want_grad, want_parts = backward_oracle(videos, plan, params, HP, mode)
        if not ten:
            assert grad.tobytes() == want_grad.tobytes()
            assert parts == want_parts
            return
        assert_close_rel(grad, want_grad)
        for field in ("fg", "bg", "att", "kl", "bvl", "total"):
            assert getattr(parts, field) == pytest.approx(getattr(want_parts, field),
                                                          rel=1e-12, abs=1e-15)
        # the refilled copy multiplies one source row per segment, no window
        fwd = packed_forward(videos, plan, params, mode.bges)
        assert fwd.refill.sources.size == sum(-(-t // HP.k) for t in lengths)
        assert fwd.win.shape == (2, sum(lengths), 3 * 32)

    @given(lengths=st.lists(st.integers(1, 13), min_size=1, max_size=5),
           k=st.integers(1, 8), kernel_size=st.sampled_from([1, 3, 5, 7]),
           plan_kind=st.sampled_from(["make_plan", "rows", "runs"]),
           mode=st.sampled_from(list(GradMode)),
           budget=st.sampled_from([1, 150, 400, CHUNK_CELLS]), seed=st.integers(0, 2**16))
    # T mod k = 1 (a one-row last segment whose reflected tap reads the
    # previous segment), T < K, T = 1, k >= T and K // 2 >= k
    @example(lengths=[7, 1, 4], k=3, kernel_size=5, plan_kind="make_plan",
             mode=GradMode.BGES, budget=CHUNK_CELLS, seed=0)
    @example(lengths=[9, 2, 5], k=2, kernel_size=7, plan_kind="make_plan",
             mode=GradMode.STANDARD, budget=150, seed=1)
    @example(lengths=[3, 13], k=1, kernel_size=5, plan_kind="make_plan",
             mode=GradMode.BVL_PLUS_BGES, budget=CHUNK_CELLS, seed=2)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_the_window_matrix_path(self, lengths, k, kernel_size, plan_kind,
                                            mode, budget, seed):
        videos, _, params = ragged_batch(lengths, k, kernel_size, 6, seed)
        plan = drawn_plan(lengths, k, plan_kind, np.random.default_rng(seed))
        with patch.object(losses_mod, "CHUNK_CELLS", budget):
            chunks = list(_chunks(videos, kernel_size))
            grad, parts = backward(videos, plan, params, HP, mode)
            want_grad, want_parts = backward_oracle(videos, plan, params, HP, mode)
        assert_close_rel(grad, want_grad)
        for field in ("fg", "bg", "att", "kl", "bvl", "total"):
            assert getattr(parts, field) == pytest.approx(getattr(want_parts, field),
                                                          rel=1e-12, abs=1e-15)
        offsets = np.cumsum([0] + lengths)
        for lo, hi in chunks:
            chunk_plan = plan[offsets[lo]:offsets[hi]]
            got = packed_forward(videos[lo:hi], chunk_plan, params, mode.bges)
            want = packed_forward_oracle(videos[lo:hi], chunk_plan, params, mode.bges)
            for field in ("y", "a", "n_f", "denom", "z_fg", "z_bg", "p_fg", "p_bg"):
                assert_close_rel(getattr(got, field), getattr(want, field))


@contextlib.contextmanager
def modality_schedule(paired):
    """Every chunk's two modality halves on two threads, or none of them,
    whatever the BLAS and the CPUs. Yields a spy on the worker's `submit`.
    The interpreter switches threads every microsecond meanwhile, so the
    halves interleave at many more points than they would."""
    pool = losses_mod._worker(os.getpid())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with patch.object(losses_mod, "PAIR_WORK", 0 if paired else np.inf), \
                patch.object(losses_mod, "_may_pair", lambda: True), \
                patch.object(pool, "submit", wraps=pool.submit) as submit:
            yield submit
    finally:
        sys.setswitchinterval(interval)


def same_bits(a, b):
    """Whether two packed-forward values hold the same bits, field by field."""
    if is_dataclass(a):
        return all(same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestModalitySchedule:
    """A chunk's two modality halves give the same bits whether they run
    stacked on one thread or paired on two."""

    @given(lengths=st.lists(st.integers(1, 13), min_size=1, max_size=5),
           k=st.integers(1, 8), kernel_size=st.sampled_from([1, 3, 5, 7]),
           plan_kind=st.sampled_from([None, "make_plan", "rows", "runs"]),
           mode=st.sampled_from(list(GradMode)),
           budget=st.sampled_from([1, 150, CHUNK_CELLS]), seed=st.integers(0, 2**16))
    # one-snippet videos, and taps that reflect at both ends of short videos
    @example(lengths=[1, 7, 1], k=3, kernel_size=7, plan_kind="make_plan",
             mode=GradMode.BVL_PLUS_BGES, budget=CHUNK_CELLS, seed=0)
    @example(lengths=[2, 13], k=1, kernel_size=5, plan_kind=None,
             mode=GradMode.GRL, budget=150, seed=1)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_paired_and_stacked_give_the_same_bits(self, lengths, k, kernel_size, plan_kind,
                                                   mode, budget, seed):
        videos, _, params = ragged_batch(lengths, k, kernel_size, 6, seed)
        plan = (None if plan_kind is None
                else drawn_plan(lengths, k, plan_kind, np.random.default_rng(seed)))
        offsets = np.cumsum([0] + lengths)
        runs = []
        for paired in (False, True):
            with patch.object(losses_mod, "CHUNK_CELLS", budget), \
                    modality_schedule(paired) as submit:
                chunks = list(_chunks(videos, kernel_size))
                grad, parts = backward(videos, plan, params, HP, mode)
                fwds = [packed_forward(videos[lo:hi],
                                       None if plan is None else plan[offsets[lo]:offsets[hi]],
                                       params, mode.bges)
                        for lo, hi in chunks]
            # backward's forward and backward halves, then each packed_forward's
            assert submit.call_count == (3 * len(chunks) if paired else 0)
            runs.append((grad, parts, fwds))
        (grad, parts, fwds), (grad2, parts2, fwds2) = runs
        assert grad.tobytes() == grad2.tobytes()
        assert parts == parts2
        assert all(same_bits(a, b) for a, b in zip(fwds, fwds2))

    def test_a_failing_worker_half_reaches_the_caller(self):
        videos, plan, params = ragged_batch([7, 5, 9], 3, 3, 6, 4)
        want_grad, want_parts = backward(videos, plan, params, HP, GradMode.BGES)
        pool = losses_mod._worker(os.getpid())
        submit = pool.submit

        def failing_submit(half, m):
            def fail(m):
                half(m)
                raise RuntimeError("the flow half failed")
            return submit(fail, m)

        with modality_schedule(True):
            with patch.object(pool, "submit", failing_submit), \
                    pytest.raises(RuntimeError, match="the flow half failed"):
                backward(videos, plan, params, HP, GradMode.BGES)
            grad, parts = backward(videos, plan, params, HP, GradMode.BGES)
        assert grad.tobytes() == want_grad.tobytes()
        assert parts == want_parts


SRC = Path(__file__).resolve().parent.parent / "src"
CAN_PAIR = (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])


def child_run(blas_threads, lengths, feature_dim, one_cpu=False):
    """Import the package in a fresh interpreter at the given BLAS thread
    count, on one CPU if asked, and run one BGES backward with a plan on
    videos of `lengths` at D = E = feature_dim. Returns the modules of
    `concurrent` that the import loaded, the worker threads after the run,
    and whether the run's gradient has the bits of a stacked run."""
    program = textwrap.dedent(f"""\
        import json, os, sys, threading
        if {one_cpu}:
            os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
        import wtalkit.cli
        pools = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
        import numpy as np
        import wtalkit.losses as losses
        from wtalkit.model import Hyperparams, init_params
        from wtalkit.synth import TrainingVideo
        from wtalkit.ten import make_plan
        rng = np.random.default_rng(0)
        lengths, d = {lengths!r}, {feature_dim}
        videos = [TrainingVideo(f"v{{i}}", *rng.normal(size=(2, t, d)), np.eye(5)[i % 5])
                  for i, t in enumerate(lengths)]
        params = init_params(rng, d, d, 5, 3)
        run = lambda: losses.backward(videos, make_plan(lengths, 4, np.random.default_rng(1)),
                                      params, Hyperparams(), losses.GradMode.BGES)[0]
        grad = run()
        workers = sum(t.name.startswith("wtalkit-modality") for t in threading.enumerate())
        losses.PAIR_WORK = float("inf")
        print(json.dumps({{"pools": pools, "workers": workers,
                           "same_bits": grad.tobytes() == run().tobytes()}}))
        """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(SRC)] + sys.path))
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


class TestPairingGuard:
    """A chunk is paired only when the work pays for the hand-off and a
    second CPU would otherwise idle: each case runs in a fresh interpreter,
    since the BLAS reads its thread count when numpy loads."""

    @pytest.mark.skipif(not CAN_PAIR, reason="needs 2 CPUs and numpy on OpenBLAS")
    def test_a_long_chunk_is_paired_at_one_blas_thread(self):
        got = child_run(1, [300], 256)
        assert got == {"pools": [], "workers": 1, "same_bits": True}

    @pytest.mark.parametrize("blas_threads, one_cpu", [(2, False), (1, True)],
                             ids=["two_blas_threads", "one_cpu"])
    def test_no_worker_when_a_second_cpu_is_busy(self, blas_threads, one_cpu):
        if one_cpu and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        got = child_run(blas_threads, [300], 256, one_cpu)
        assert got == {"pools": [], "workers": 0, "same_bits": True}

    def test_no_worker_for_a_golden_chunk(self):
        # a whole golden batch, 16 videos at T = 120 and D = E = 32, is 5.9 M
        # multiply-adds per modality, under PAIR_WORK
        assert 16 * 120 * 3 * 32 * 32 < PAIR_WORK
        got = child_run(1, [120] * 16, 32)
        assert got == {"pools": [], "workers": 0, "same_bits": True}


def one_row_tail_instance(seed):
    """A tiny-instance draw at T = 7, k = 3 and K = 5: the plan's last
    segment is one row, and its reflected +1 and +2 taps read segment 1."""
    rng = np.random.default_rng(seed)
    params = ModelParams.zeros(6, 5, 3, 5)
    for name, block in params.blocks():
        block[...] = rng.normal(0.0, 0.5 if ".w_" in name else 0.1, size=block.shape)
    x_rgb, x_flow = rng.normal(size=(2, 7, 6))
    label = np.zeros(3)
    label[rng.integers(0, 3)] = 1.0
    return TinyInstance(x_rgb=x_rgb, x_flow=x_flow, params=params,
                        plan=make_plan([7], 3, rng), video_label=label, seed=seed)


class TestRefillFiniteDifferences:
    @pytest.mark.parametrize("mode", CERTIFIED_MODES, ids=lambda m: m.value)
    def test_one_row_last_segment(self, mode):
        # the certificate's instances (T = 8, k = 3) never end in a one-row segment
        inst = accepted_instance(0, mode, one_row_tail_instance)
        analytic = backward_one(inst, HP, mode).to_vector()
        numeric = finite_diff_grad(build_fd_loss(inst, HP, mode), inst.params.to_vector())
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


class TestStackedPoints:
    """The packed loss at a stack of parameter points is, bit for bit, the
    one-point loss at each point, so batching changes no certificate."""

    @pytest.mark.parametrize("mode", list(GradMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("draw", [make_tiny_instance, one_row_tail_instance],
                             ids=["tiny", "one_row_tail"])
    def test_finite_differences_match_the_one_point_loop(self, mode, draw):
        for start in (0, 40):
            inst = accepted_instance(start, mode, draw)
            loss = build_fd_loss(inst, HP, mode)
            vec = inst.params.to_vector()
            got = finite_diff_grad(loss, vec)
            want = finite_diff_oracle(loss, vec)
            assert got.tobytes() == want.tobytes()

    @given(t=st.integers(1, 16), kernel_size=st.sampled_from([1, 3, 5]),
           points=st.integers(1, 5), mode=st.sampled_from(list(GradMode)),
           classes=st.integers(1, 5), k=st.integers(1, 5), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_stack_equals_one_point_calls(self, t, kernel_size, points, mode, classes,
                                          k, seed):
        rng = np.random.default_rng(seed)
        base = ModelParams.zeros(4, 3, classes, kernel_size)
        stack = rng.normal(0.0, 0.5, size=(points, base.size))
        x_rgb, x_flow = rng.normal(size=(2, t, 4))
        label = (rng.random(classes) < 0.5).astype(float)
        label[rng.integers(classes)] = 1.0
        inst = TinyInstance(x_rgb=x_rgb, x_flow=x_flow, params=base,
                            plan=make_plan([t], k, rng), video_label=label, seed=seed)
        held = continuity_targets(
            packed_forward([inst], inst.plan, base.from_vector(stack[0]), mode.bges))
        many = packed_forward([inst], inst.plan, base.from_vector(stack), mode.bges)
        y_hat = label_targets([inst], classes + 1)
        losses = compute_losses(many, y_hat, held, HP, mode)
        assert losses.shape == (points, 1, 6)
        for i in range(points):
            one = packed_forward([inst], inst.plan, base.from_vector(stack[i]), mode.bges)
            for field in fields(one):
                got, want = getattr(many, field.name), getattr(one, field.name)
                if field.name in ("lengths", "starts", "wide", "refill", "win", "xs"):
                    continue  # the stack's shared inputs
                assert np.shape(got[i]) == np.shape(want)
                assert got[i].tobytes() == want.tobytes(), field.name
            want = compute_losses(one, y_hat, held, HP, mode)
            assert losses[i].tobytes() == want.tobytes()


class TestCertification:
    def test_small_run_all_modes_pass(self):
        results = certify_gradients(num_instances=3)
        assert len(results) == 3 * len(CERTIFIED_MODES)
        assert all(r.passed for r in results)
        assert max(r.max_rel_error for r in results) < 1e-5

    def test_each_candidate_runs_its_base_point_pair_once(self):
        # the kink filter runs the per-video pair once per candidate; an
        # accepted instance adds four packed forwards of its chunk: the
        # analytic gradient's, the held targets' and the two stacks of
        # finite-difference points
        draws, calls = [], []

        def counted(real, name):
            def run(videos_or_x, second, params, *args, **kwargs):
                calls.append((name, params.points))
                return real(videos_or_x, second, params, *args, **kwargs)
            return run

        def draw(seed):
            draws.append(seed)
            return make_tiny_instance(seed)

        with patch.object(losses_mod, "forward", counted(forward, "bb")), \
                patch.object(losses_mod, "tcb_forward_full", counted(tcb_forward_full, "tcb")), \
                patch.object(losses_mod, "packed_forward", counted(packed_forward, "packed")), \
                patch.object(losses_mod, "make_tiny_instance", draw):
            results = certify_gradients(num_instances=3, modes=(GradMode.BGES,))
        assert len(results) == 3
        for name in ("bb", "tcb"):
            assert calls.count((name, ())) == len(draws)
            assert sum(c[0] == name for c in calls) == len(draws)
        size = make_tiny_instance(0).params.size
        assert calls.count(("packed", ())) == 2 * len(results)
        assert calls.count(("packed", (size,))) == 2 * len(results)
        assert sum(c[0] == "packed" for c in calls) == 4 * len(results)

    @pytest.mark.parametrize("mode", CERTIFIED_MODES, ids=lambda m: m.value)
    def test_fd_loss_at_the_base_point_is_the_logged_total(self, mode):
        # the certificate's loss is the function that training minimizes
        for seed in range(5):
            inst = make_tiny_instance(seed)
            vec = inst.params.to_vector()
            _, parts = backward([inst], inst.plan, inst.params, HP, mode)
            got = build_fd_loss(inst, HP, mode)(vec[None])
            assert got.shape == (1,)
            assert got[0].tobytes() == np.float64(parts.total).tobytes()

    def test_injected_bug_is_caught(self):
        # negating one block's analytic gradient must break certification;
        # a harness that still passes would be vacuous
        results = certify_gradients(num_instances=3,
                                    modes=(GradMode.STANDARD,),
                                    flip_block="rgb.w_att")
        assert any(not r.passed for r in results)

    def test_injected_bug_other_block(self):
        results = certify_gradients(num_instances=3, modes=(GradMode.BGES,),
                                    flip_block="flow.b_cls")
        assert any(not r.passed for r in results)

    def test_injected_bug_in_scalar_block_is_caught(self):
        results = certify_gradients(num_instances=2, modes=(GradMode.STANDARD,),
                                    flip_block="flow.b_att")
        assert all(not r.passed for r in results)

    @pytest.fixture()
    def no_instance(self, monkeypatch):
        def never(seed):
            raise AssertionError("an instance was drawn before the arguments were refused")
        monkeypatch.setattr(losses_mod, "make_tiny_instance", never)

    def test_a_mode_that_is_no_gradient_is_refused(self, no_instance):
        with pytest.raises(ConfigError, match="grl is not the gradient of a loss"):
            certify_gradients(num_instances=1, modes=(GradMode.STANDARD, GradMode.GRL))

    def test_unknown_block_rejected(self, no_instance):
        with pytest.raises(ConfigError, match="no parameter block 'rgb.w_nope'"):
            certify_gradients(num_instances=1, flip_block="rgb.w_nope")

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_instances_is_refused(self, count, no_instance):
        # an empty result list would make every all(r.passed ...) vacuously true
        with pytest.raises(ConfigError, match=f"num_instances must be >= 1, got {count}"):
            certify_gradients(num_instances=count)

    @pytest.mark.parametrize("kwargs, message", [
        ({"fd_epsilon": 0.0}, "fd_epsilon must be finite and > 0, got 0.0"),
        ({"fd_epsilon": -1e-5}, "fd_epsilon must be finite and > 0, got -1e-05"),
        ({"fd_epsilon": float("nan")}, "fd_epsilon must be finite and > 0, got nan"),
        ({"fd_epsilon": float("inf")}, "fd_epsilon must be finite and > 0, got inf"),
        ({"tolerance": -1.0}, "tolerance must be finite and >= 0, got -1.0"),
        ({"tolerance": float("nan")}, "tolerance must be finite and >= 0, got nan"),
        # an infinite tolerance would pass a negated gradient block
        ({"tolerance": float("inf"), "flip_block": "rgb.w_att"},
         "tolerance must be finite and >= 0, got inf"),
        # no mode would return no result, which every all(r.passed ...) passes
        ({"modes": ()}, "modes: no mode is named"),
        ({"modes": (GradMode.BGES, GradMode.STANDARD, GradMode.BGES)},
         "modes: bges is named twice"),
    ], ids=["eps-0", "eps-negative", "eps-nan", "eps-inf", "tolerance-negative",
            "tolerance-nan", "tolerance-inf", "no-mode", "repeated-mode"])
    def test_bad_argument_is_refused_before_any_instance(self, kwargs, message,
                                                         no_instance):
        with pytest.raises(ConfigError) as caught:
            certify_gradients(num_instances=1, **kwargs)
        assert str(caught.value) == message


class TestTinyInstance:
    def test_draws_in_the_recorded_order(self):
        # features, then per modality normal(0, 0.5) weights and normal(0,
        # 0.1) biases in field order, then the plan and the label
        inst = make_tiny_instance(1234)
        rng = np.random.default_rng(1234)
        x_rgb, x_flow = rng.normal(size=(8, 6)), rng.normal(size=(8, 6))
        expected = []
        for _ in ("rgb", "flow"):
            expected += [rng.normal(0.0, 0.5, size=(5, 6, 3)),
                         rng.normal(0.0, 0.1, size=5),
                         rng.normal(0.0, 0.5, size=(5, 4)),
                         rng.normal(0.0, 0.1, size=4),
                         rng.normal(0.0, 0.5, size=5),
                         rng.normal(0.0, 0.1)]
        np.testing.assert_array_equal(inst.x_rgb, x_rgb)
        np.testing.assert_array_equal(inst.x_flow, x_flow)
        blocks = inst.params.blocks()
        assert len(blocks) == len(expected)
        for (name, block), want in zip(blocks, expected):
            np.testing.assert_array_equal(block, want, err_msg=name)
        np.testing.assert_array_equal(inst.plan, make_plan([8], 3, rng))


class TestFactorIdentities:
    @staticmethod
    def positive_bg_instance(seed):
        """Tiny instance shifted so every per-modality background logit > 0."""
        inst = make_tiny_instance(seed)
        for _ in range(50):
            bb = forward(inst.x_rgb, inst.x_flow, inst.params)
            worst = min(bb.y_rgb[:, -1].min(), bb.y_flow[:, -1].min())
            if worst > 0.05:
                return inst, bb
            inst.params.rgb.b_cls[-1] += max(0.1, -worst + 0.1)
            inst.params.flow.b_cls[-1] += max(0.1, -worst + 0.1)
        raise AssertionError("could not construct positive background logits")

    def test_increment_identity(self):
        # the normalizer swap adds val * y_bg to every per-snippet factor
        # (relative to the N_b/N_f-rescaled plain factor), val > 0
        for seed in range(20):
            inst, bb = self.positive_bg_instance(seed)
            for modality in ("rgb", "flow"):
                fac = closed_form_attention_factors(bb, modality)
                expected = fac["val"] * fac["y_video_bg"]
                np.testing.assert_allclose(fac["increment"], expected,
                                           atol=1e-10)
                assert np.all(fac["val"] > 0)
                assert fac["y_video_bg"] > 0
                rescaled = (bb.n_b / bb.n_f) * fac["std"]
                assert np.all(fac["bges"] > rescaled)

    def test_grl_is_negated_standard(self):
        inst = make_tiny_instance(5)
        bb = forward(inst.x_rgb, inst.x_flow, inst.params)
        fac = closed_form_attention_factors(bb, "rgb")
        np.testing.assert_array_equal(fac["grl"], -fac["std"])

    def test_discrepancy_reported_not_hidden(self):
        # the printed closed form drops the non-background softmax terms and
        # the fusion halving, so it differs from the honest factor that
        # `backward` accumulates (test_att_factors_are_weighted_honest_factors)
        inst = make_tiny_instance(6)
        bb = forward(inst.x_rgb, inst.x_flow, inst.params)
        honest = attention_factor_oracle(bb, "rgb")
        closed = closed_form_attention_factors(bb, "rgb")["std"]
        assert honest.shape == closed.shape
        assert np.max(np.abs(honest - closed)) > 0

    def test_closed_form_requires_standard_forward(self):
        inst = make_tiny_instance(7)
        bb = forward(inst.x_rgb, inst.x_flow, inst.params,
                     GradMode.BGES.bges)
        with pytest.raises(ValueError):
            closed_form_attention_factors(bb, "rgb")
