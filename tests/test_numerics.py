"""Numeric kernels: softmax, sigmoid, smoothing, Adam, finite differences."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adam_oracle, sigmoid_oracle
from wtalkit.errors import NumericError
from wtalkit.numerics import (
    GAUSS_TAPS,
    AdamState,
    adam_step,
    finite_diff_grad,
    gaussian_smooth,
    packed_windows,
    reflect_index,
    sigmoid,
    softmax,
)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.ones(4)), np.full(4, 0.25))

    def test_large_magnitude_no_overflow(self):
        # the shifted-input evaluation is exact here: e^0/(e^0+e^-1000)
        out = softmax(np.array([1000.0, 0.0]))
        expected = np.array([1.0 / (1.0 + np.exp(-1000.0)),
                             np.exp(-1000.0) / (1.0 + np.exp(-1000.0))])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, expected, atol=1e-300)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=12))
    def test_sums_to_one_and_order_preserving(self, vals):
        v = np.array(vals)
        out = softmax(v)
        assert abs(out.sum() - 1.0) <= 1e-12
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-15)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        # 1/(1+e^-1) evaluated independently at high precision
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    @given(st.floats(-500, 500))
    def test_complement_symmetry(self, x):
        assert abs(sigmoid(-x) - (1.0 - sigmoid(x))) <= 1e-12

    def test_extreme_negative_stays_finite(self):
        assert 0.0 <= sigmoid(-1e4) < 1e-300 or sigmoid(-1e4) == 0.0

    def test_bits_match_the_masked_form(self):
        special = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324,
                            np.inf, -np.inf, np.nan, -np.nan])
        rng = np.random.default_rng(31)
        for x in (special, rng.normal(size=(2, 2880)), rng.normal(0.0, 40.0, size=5000)):
            assert sigmoid(x).tobytes() == sigmoid_oracle(x).tobytes()
        for v in special:
            assert np.float64(sigmoid(v)).tobytes() == np.float64(sigmoid_oracle(v)).tobytes()


class TestReflectIndex:
    @staticmethod
    def _oracle(i, n):
        # bounce between the walls one step at a time
        if n == 1:
            return 0
        while not 0 <= i < n:
            if i < 0:
                i = -i
            else:
                i = 2 * (n - 1) - i
        return i

    @given(st.integers(min_value=-60, max_value=60),
           st.integers(min_value=1, max_value=9))
    def test_matches_bounce_oracle(self, i, n):
        assert reflect_index(i, n) == self._oracle(i, n)

    def test_vectorized(self):
        idx = np.arange(-6, 12)
        out = reflect_index(idx, 5)
        expected = np.array([self._oracle(int(i), 5) for i in idx])
        np.testing.assert_array_equal(out, expected)


def sigma_one_taps():
    """exp(-d^2 / 2) for |d| <= 2, normalized: the smoothing's kernel."""
    k = np.exp(-np.arange(-2.0, 3.0) ** 2 / 2.0)
    return k / k.sum()


class TestGaussianSmooth:
    def test_kernel_normalized_symmetric(self):
        assert GAUSS_TAPS.shape == (5,)
        assert GAUSS_TAPS.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(GAUSS_TAPS, GAUSS_TAPS[::-1])
        np.testing.assert_allclose(GAUSS_TAPS, sigma_one_taps(), rtol=1e-15)
        assert not GAUSS_TAPS.flags.writeable

    def test_constant_fixed_point(self):
        seq = np.full(4, 0.3)
        np.testing.assert_allclose(gaussian_smooth(seq), seq, atol=1e-12)

    def test_impulse_symmetric_bump(self):
        # reflect padding keeps constants fixed but duplicates boundary mass,
        # so only shape claims hold: symmetric bump, peak at the impulse
        out = gaussian_smooth(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, out[::-1])
        assert np.argmax(out) == 2
        assert out[2] > out[1] > out[0] > 0.0

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        seq = rng.normal(size=7)
        k = sigma_one_taps()
        expected = np.empty(7)
        for t in range(7):
            acc = 0.0
            for offset in range(-2, 3):
                acc += k[offset + 2] * seq[reflect_index(t + offset, 7)]
            expected[t] = acc
        np.testing.assert_allclose(gaussian_smooth(seq), expected, atol=1e-12)

    @pytest.mark.parametrize("seq", [np.zeros(0), np.ones((2, 3))], ids=["empty", "2-D"])
    def test_only_a_non_empty_sequence_is_smoothed(self, seq):
        with pytest.raises(ValueError, match="non-empty 1-D sequence"):
            gaussian_smooth(seq)

    def test_range_bounded(self):
        rng = np.random.default_rng(5)
        seq = rng.uniform(-2, 3, size=11)
        out = gaussian_smooth(seq)
        assert out.min() >= seq.min() - 1e-12
        assert out.max() <= seq.max() + 1e-12

    @given(st.integers(min_value=1, max_value=10),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40)
    def test_linearity(self, t, alpha, beta):
        rng = np.random.default_rng(t)
        x, y = rng.normal(size=(2, t))
        lhs = gaussian_smooth(alpha * x + beta * y)
        rhs = alpha * gaussian_smooth(x) + beta * gaussian_smooth(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def _adam_state(n):
    return AdamState(np.zeros(n), np.zeros(n))


class TestAdam:
    def test_zero_grad_zero_decay_is_identity(self):
        state = _adam_state(3)
        params = np.array([1.0, -2.0, 0.5])
        before = params.copy()
        adam_step(params, np.zeros(3), state, 0.1, 0.0)
        np.testing.assert_array_equal(params, before)
        assert state.step == 1

    def test_first_step_delta(self):
        # bias-corrected first step: m_hat=g, v_hat=g^2, delta=-eta*g/(|g|+eps)
        params = np.array([0.0])
        adam_step(params, np.array([1.0]), _adam_state(1), 0.1, 0.0)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert params[0] == pytest.approx(expected, abs=1e-9)

    def test_quadratic_convergence(self):
        state = _adam_state(1)
        w = np.array([1.0])
        for _ in range(100):
            adam_step(w, 2.0 * w, state, 0.1, 0.0)
        assert abs(w[0]) < 0.05

    def test_decoupled_weight_decay(self):
        # with zero gradient the update is exactly the decay shrink
        params = np.array([2.0])
        adam_step(params, np.array([0.0]), _adam_state(1), 0.1, 1e-3)
        assert params[0] == pytest.approx(2.0 * (1.0 - 0.1 * 1e-3), abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(3), _adam_state(2), 0.1, 0.0)

    def test_state_holds_only_the_moments_and_the_step(self):
        assert [f.name for f in fields(AdamState)] == ["first_moment", "second_moment",
                                                       "step"]

    def test_updates_the_callers_arrays(self):
        state = _adam_state(4)
        params = np.ones(4)
        m, v = state.first_moment, state.second_moment
        assert adam_step(params, np.full(4, 0.5), state, 0.1, 0.0) is None
        assert state.first_moment is m and state.second_moment is v
        assert np.all(params < 1.0) and np.all(m > 0.0) and np.all(v > 0.0)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=60),
           st.sampled_from([0.0, 1e-3, 0.05]), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_in_place_update_matches_out_of_place_oracle(self, n, steps, decay, seed):
        # the trainer's schedule: the step size drops tenfold halfway through
        rng = np.random.default_rng(seed)
        params = rng.normal(size=n)
        expected = params.copy()
        state, ref = _adam_state(n), _adam_state(n)
        for step in range(steps):
            grads = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=n)
            rate = 1e-4 if step >= steps // 2 else 1e-3
            adam_step(params, grads, state, rate, decay)
            expected = adam_oracle(expected, grads, ref, rate, decay)
            np.testing.assert_array_equal(params, expected)
            np.testing.assert_array_equal(state.first_moment, ref.first_moment)
            np.testing.assert_array_equal(state.second_moment, ref.second_moment)


class TestFiniteDiff:
    # loss functions take an (n, P) stack of points and return n losses
    def test_constant_loss(self):
        grad = finite_diff_grad(lambda w: np.full(len(w), 7.0), np.ones(4))
        np.testing.assert_allclose(grad, np.zeros(4), atol=1e-6)

    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda w: np.sum(w * w, axis=-1),
                                np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20)
    def test_quadratic_exact_to_roundoff(self, n):
        # central differences are exact on degree-2 polynomials up to roundoff
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        w = rng.normal(size=n)

        def loss(v):
            return np.sum((v @ a) * v, axis=-1) + v @ b

        grad = finite_diff_grad(loss, w)
        expected = (a + a.T) @ w + b
        np.testing.assert_allclose(grad, expected, atol=1e-6)

    def test_points_are_the_loops_points(self):
        # row i of each stack moves coordinate i alone, by +eps then -eps
        w, eps = np.array([0.5, -2.0, 3.0]), 1e-3
        seen = []
        finite_diff_grad(lambda v: seen.append(v.copy()) or np.zeros(len(v)), w, eps)
        up, down = seen
        for i in range(w.size):
            assert up[i].tolist() == [x + eps if j == i else x for j, x in enumerate(w)]
            assert down[i].tolist() == [x - eps if j == i else x for j, x in enumerate(w)]

    @pytest.mark.parametrize("side", ["up", "down"])
    @pytest.mark.parametrize("first", [0, 2, 4])
    def test_non_finite_loss_names_the_first_bad_coordinate(self, side, first):
        # coordinate `first` is NaN at its `side` point only; coordinate 5 is
        # inf at both, so the first bad coordinate must be the one named
        def loss(v):
            out = np.zeros(len(v))
            out[5] = np.inf
            if (v[0, 0] > 0) == (side == "up"):  # the up stack moves row 0 up from 0
                out[first] = np.nan
            return out

        with pytest.raises(NumericError,
                           match=rf"^finite_diff_grad: non-finite loss at coordinate {first}$"):
            finite_diff_grad(loss, np.zeros(6))

    def test_loss_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"loss_fn gave \(\) and \(\) losses for 2 points"):
            finite_diff_grad(lambda v: 0.0, np.zeros(2))


class TestPackedWindows:
    @pytest.mark.parametrize("width", [1, 3, 5, 7, 9])
    def test_one_sequence_reflects_at_its_own_ends(self, width):
        # the reflected arange a one-length call used to take as its own branch
        for t in range(1, 21):
            offsets = np.arange(width) - width // 2
            want = reflect_index(np.arange(t)[:, None] + offsets, t)
            np.testing.assert_array_equal(packed_windows([t], width), want)
