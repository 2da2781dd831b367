"""Forward pass: embedding, CAS, attention, fusion, pooling, checkpoints."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtalkit.model import (
    Hyperparams,
    ModalityParams,
    ModelParams,
    NormMode,
    attention,
    cas,
    embed,
    forward,
    init_params,
    load_checkpoint,
    pool,
    save_checkpoint,
    temporal_windows,
)
from wtalkit.numerics import packed_windows, sigmoid, softmax


def make_params(rng, d=6, e=5, c=3, k=3):
    return init_params(rng, feature_dim=d, embed_dim=e, num_classes=c,
                       kernel_size=k)


def block_starts(params):
    """Index of each block's first value in a checkpoint's parameter payload,
    which lists the blocks in `blocks()` order."""
    sizes = [np.size(block) for _, block in params.blocks()]
    return dict(zip([name for name, _ in params.blocks()], np.cumsum([0] + sizes)))


def flat_buffer(params):
    """The one flat vector that every block of `params` views."""
    buffer = params.rgb.w_embed.base
    assert all(block.base is buffer for _, block in params.blocks())
    return buffer


def random_inputs(rng, t=8, d=6):
    return rng.normal(size=(t, d)), rng.normal(size=(t, d))


class TestWindows:
    def test_kernel_one_is_identity(self):
        x = np.arange(12.0).reshape(4, 3)
        win = temporal_windows(x, 1)
        np.testing.assert_array_equal(win[:, 0, :], x)

    def test_reflect_padding(self):
        x = np.arange(4.0)[:, None]
        win = temporal_windows(x, 3)
        # neighbors of snippet 0 reflect: [1, 0, 1]; of snippet 3: [2, 3, 2]
        np.testing.assert_array_equal(win[0, :, 0], [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(win[3, :, 0], [2.0, 3.0, 2.0])

    def test_interior_windows(self):
        x = np.arange(5.0)[:, None]
        win = temporal_windows(x, 3)
        np.testing.assert_array_equal(win[2, :, 0], [1.0, 2.0, 3.0])


class TestHeads:
    def test_cas_zero_input_gives_bias(self):
        rng = np.random.default_rng(0)
        params = make_params(rng)
        mod = params.rgb
        mod.b_cls[:] = rng.normal(size=4)
        y = cas(np.zeros((6, 5)), mod)
        np.testing.assert_allclose(y, np.tile(mod.b_cls, (6, 1)))

    def test_cas_identity_weights(self):
        rng = np.random.default_rng(1)
        xe = rng.normal(size=(5, 4))
        mod = ModalityParams(
            w_embed=np.zeros((4, 6, 1)), b_embed=np.zeros(4),
            w_cls=np.eye(4), b_cls=np.zeros(4),
            w_att=np.zeros(4), b_att=0.0,
        )
        np.testing.assert_allclose(cas(xe, mod), xe)

    def test_cas_matches_matmul_oracle(self):
        rng = np.random.default_rng(2)
        params = make_params(rng)
        xe = rng.normal(size=(7, 5))
        expected = xe @ params.rgb.w_cls + params.rgb.b_cls
        np.testing.assert_allclose(cas(xe, params.rgb), expected, atol=1e-12)

    def test_attention_zero_input(self):
        rng = np.random.default_rng(3)
        params = make_params(rng)
        a = attention(np.zeros((4, 5)), params.rgb)
        np.testing.assert_allclose(a, np.full(4, 0.5))

    def test_attention_saturates(self):
        rng = np.random.default_rng(4)
        params = make_params(rng)
        params.rgb.b_att = 50.0
        a = attention(np.zeros((3, 5)), params.rgb)
        np.testing.assert_allclose(a, np.ones(3), atol=1e-12)

    def test_attention_matches_dot_sigmoid_oracle(self):
        rng = np.random.default_rng(5)
        params = make_params(rng)
        xe = rng.normal(size=(6, 5))
        expected = np.array([sigmoid(float(row @ params.rgb.w_att)
                                     + params.rgb.b_att) for row in xe])
        np.testing.assert_allclose(attention(xe, params.rgb), expected,
                                   atol=1e-12)

    def test_embed_matches_window_contraction_oracle(self):
        rng = np.random.default_rng(6)
        params = make_params(rng)
        x = rng.normal(size=(7, 6))
        win = temporal_windows(x, 3)
        z_expected = np.zeros((7, 5))
        for t in range(7):
            for e_i in range(5):
                z_expected[t, e_i] = np.sum(
                    win[t].T * params.rgb.w_embed[e_i]
                ) + params.rgb.b_embed[e_i]
        _, z, xe = embed(x, params.rgb, packed_windows([7], 3))
        np.testing.assert_allclose(z, z_expected, atol=1e-12)
        np.testing.assert_allclose(xe, np.maximum(z_expected, 0.0), atol=1e-12)


class TestPool:
    def test_single_snippet_attention_cancels(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(1, 4))
        for a_val in (0.2, 0.5, 0.9):
            p_fg, p_bg, _, _, n_f, n_b = pool(y, np.array([a_val]))
            np.testing.assert_allclose(p_fg, softmax(y[0]), atol=1e-12)
            np.testing.assert_allclose(p_bg, softmax(y[0]), atol=1e-12)

    def test_uniform_attention_identical_rows(self):
        v = np.array([0.3, -1.0, 2.0, 0.1])
        y = np.tile(v, (6, 1))
        a = np.full(6, 0.5)
        p_fg, p_bg, _, _, _, _ = pool(y, a)
        np.testing.assert_allclose(p_fg, softmax(v), atol=1e-12)
        np.testing.assert_allclose(p_bg, softmax(v), atol=1e-12)
        p_fg2, p_bg2, _, _, _, _ = pool(y, a, NormMode.BGES)
        np.testing.assert_allclose(p_bg2, softmax(v), atol=1e-12)

    def test_bges_rescales_background_aggregate(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(6, 4))
        a = rng.uniform(0.1, 0.9, size=6)
        n_f, n_b = a.sum(), (1.0 - a).sum()
        agg_std = (1.0 - a) @ y / n_b
        _, p_bg_std, _, _, _, _ = pool(y, a, NormMode.STANDARD)
        _, p_bg_bges, _, _, _, _ = pool(y, a, NormMode.BGES)
        np.testing.assert_allclose(p_bg_std, softmax(agg_std), atol=1e-12)
        np.testing.assert_allclose(p_bg_bges, softmax(agg_std * n_b / n_f),
                                   atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool(np.zeros((0, 4)), np.zeros(0))

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=30)
    def test_pooling_weights_sum(self, t):
        rng = np.random.default_rng(t)
        a = rng.uniform(0.05, 0.95, size=t)
        n_f, n_b = a.sum(), (1.0 - a).sum()
        assert (a / n_f).sum() == pytest.approx(1.0, abs=1e-10)
        assert ((1.0 - a) / n_b).sum() == pytest.approx(1.0, abs=1e-10)
        assert ((1.0 - a) / n_f).sum() == pytest.approx(n_b / n_f, abs=1e-10)


class TestForward:
    def test_identical_modalities_fuse_to_themselves(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 6))
        params = make_params(rng)
        params.flow = params.rgb
        out = forward(x, x, params)
        np.testing.assert_array_equal(out.y_rgb, out.y_flow)
        np.testing.assert_array_equal(out.y, out.y_rgb)
        np.testing.assert_array_equal(out.a, out.a_rgb)

    def test_fusion_is_half_sum(self):
        rng = np.random.default_rng(10)
        x_rgb, x_flow = random_inputs(rng)
        params = make_params(rng)
        out = forward(x_rgb, x_flow, params)
        np.testing.assert_array_equal(out.y, 0.5 * (out.y_rgb + out.y_flow))
        np.testing.assert_array_equal(out.a, 0.5 * (out.a_rgb + out.a_flow))

    def test_invariants(self):
        rng = np.random.default_rng(11)
        x_rgb, x_flow = random_inputs(rng)
        out = forward(x_rgb, x_flow, make_params(rng))
        assert np.all(out.a > 0) and np.all(out.a < 1)
        assert out.p_fg.sum() == pytest.approx(1.0, abs=1e-10)
        assert out.p_bg.sum() == pytest.approx(1.0, abs=1e-10)
        assert out.n_f + out.n_b == pytest.approx(8.0, abs=1e-9)

    def test_p_fg_invariant_under_bges(self):
        rng = np.random.default_rng(12)
        x_rgb, x_flow = random_inputs(rng)
        params = make_params(rng)
        std = forward(x_rgb, x_flow, params, NormMode.STANDARD)
        bges = forward(x_rgb, x_flow, params, NormMode.BGES)
        np.testing.assert_array_equal(std.p_fg, bges.p_fg)
        assert not np.array_equal(std.p_bg, bges.p_bg)

    def test_seed0_regression_lock(self):
        # golden forward output, validated against the head oracles above
        rng = np.random.default_rng(0)
        params = make_params(rng)
        x_rgb, x_flow = random_inputs(np.random.default_rng(100))
        out = forward(x_rgb, x_flow, params)
        np.testing.assert_allclose(
            out.p_fg,
            [0.2615669319717532, 0.2838831835463413, 0.17104921456016173,
             0.2835006699217437],
            atol=1e-15)

    def test_permuting_snippets_with_kernel_one(self):
        rng = np.random.default_rng(13)
        params = make_params(rng, k=1)
        x_rgb, x_flow = random_inputs(rng)
        out = forward(x_rgb, x_flow, params)
        perm = np.random.default_rng(14).permutation(8)
        out_p = forward(x_rgb[perm], x_flow[perm], params)
        np.testing.assert_allclose(out_p.y, out.y[perm], atol=1e-12)
        np.testing.assert_allclose(out_p.a, out.a[perm], atol=1e-12)
        np.testing.assert_allclose(out_p.p_fg, out.p_fg, atol=1e-12)
        np.testing.assert_allclose(out_p.p_bg, out.p_bg, atol=1e-12)

    def test_bad_shapes_rejected(self):
        rng = np.random.default_rng(15)
        params = make_params(rng)
        with pytest.raises(ValueError):
            forward(np.zeros((4, 7)), np.zeros((4, 6)), params)
        with pytest.raises(ValueError):
            forward(np.zeros((0, 6)), np.zeros((0, 6)), params)


class TestParamsVector:
    def test_round_trip(self):
        rng = np.random.default_rng(16)
        params = make_params(rng)
        vec = params.to_vector()
        rebuilt = params.from_vector(vec)
        np.testing.assert_array_equal(rebuilt.to_vector(), vec)
        np.testing.assert_array_equal(rebuilt.rgb.w_embed, params.rgb.w_embed)
        assert rebuilt.flow.b_att == params.flow.b_att

    def test_vector_edit_lands_in_right_block(self):
        rng = np.random.default_rng(17)
        params = make_params(rng)
        vec = params.to_vector()
        vec[0] += 1.0
        rebuilt = params.from_vector(vec)
        assert rebuilt.rgb.w_embed.ravel()[0] == params.rgb.w_embed.ravel()[0] + 1.0

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(18)
        params = make_params(rng)
        with pytest.raises(ValueError):
            params.from_vector(np.zeros(3))

    def test_from_vector_blocks_alias_the_vector(self):
        params = make_params(np.random.default_rng(21))
        vec = params.to_vector()
        views = params.from_vector(vec)
        blocks = views.blocks()
        for i, (_, block) in enumerate(blocks):
            block[...] = i
        # the twelve blocks cover the vector, each value exactly once
        assert np.bincount(vec.astype(int)).tolist() == [np.size(b) for _, b in blocks]
        assert views.flow.b_att.shape == () and views.flow.b_att == len(blocks) - 1
        vec[:] = 0.0
        views.rgb.b_att += 0.5
        views.flow.w_cls[0, 0] = -1.0
        assert sorted(vec[vec != 0.0]) == [-1.0, 0.5]
        again = params.from_vector(vec)
        assert again.rgb.b_att == 0.5 and again.flow.w_cls[0, 0] == -1.0
        with pytest.raises(ValueError):
            params.from_vector(np.zeros(vec.size + 1))

    def test_stack_of_points_views_each_row(self):
        rng = np.random.default_rng(22)
        params = make_params(rng)
        stack = rng.normal(size=(3, params.size))
        many = params.from_vector(stack)
        assert many.points == (3,) and params.points == ()
        assert many.header == params.header
        for i in range(3):
            one_point = params.from_vector(stack[i]).blocks()
            for (name, block), (_, one) in zip(many.blocks(), one_point):
                assert block.shape == (3,) + one.shape, name
                np.testing.assert_array_equal(block[i], one)
        many.flow.b_att[1] = 7.0  # a write lands in its own row of the stack
        assert params.from_vector(stack[1]).flow.b_att == 7.0
        assert params.from_vector(stack[0]).flow.b_att != 7.0
        for bad in (np.zeros((2, 2, params.size)), np.zeros((2, params.size + 1))):
            with pytest.raises(ValueError, match="values per point"):
                params.from_vector(bad)

    def test_packed_arrays_and_named_blocks_are_one_memory(self):
        d, e, c, k = 4, 3, 2, 5
        params = ModelParams.zeros(d, e, c, k)
        rows, bias, head, head_bias = params.packed
        assert [a.shape for a in params.packed] == [(2, k * d, e), (2, e), (2, e, c + 2),
                                                    (2, c + 2)]
        # written through the packed arrays, read through the named blocks
        for i, array in enumerate(params.packed):
            array[...] = np.arange(array.size).reshape(array.shape) + 1000 * i
        for m, mod in enumerate((params.rgb, params.flow)):
            for o, i, j in np.ndindex(e, d, k):
                assert mod.w_embed[o, i, j] == rows[m, j * d + i, o]
            np.testing.assert_array_equal(mod.b_embed, bias[m])
            np.testing.assert_array_equal(mod.w_cls, head[m, :, :c + 1])
            np.testing.assert_array_equal(mod.w_att, head[m, :, c + 1])
            np.testing.assert_array_equal(mod.b_cls, head_bias[m, :c + 1])
            assert mod.b_att.shape == () and mod.b_att == head_bias[m, c + 1]
        # written through the named blocks, read through the packed arrays
        for i, (_, block) in enumerate(params.blocks()):
            block[...] = i + 1
        for m in (0, 1):
            first = 6 * m + 1
            assert np.all(rows[m] == first) and np.all(bias[m] == first + 1)
            assert np.all(head[m, :, :c + 1] == first + 2)
            assert np.all(head_bias[m, :c + 1] == first + 3)
            assert np.all(head[m, :, c + 1] == first + 4)
            assert head_bias[m, c + 1] == first + 5
        vec = params.to_vector()
        rebuilt = params.from_vector(vec)
        np.testing.assert_array_equal(rebuilt.to_vector(), vec)
        for (name, want), (_, got) in zip(params.blocks(), rebuilt.blocks()):
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_blocks_follow_the_vector_layout(self):
        params = make_params(np.random.default_rng(22), d=6, e=5, c=3, k=3)
        names = [name for name, _ in params.blocks()]
        fields = ["w_embed", "b_embed", "w_cls", "b_cls", "w_att", "b_att"]
        assert names == [f"{m}.{f}" for m in ("rgb", "flow") for f in fields]
        assert params.header == (6, 5, 3, 3)
        assert params.size == 2 * (5 * 6 * 3 + 5 + 5 * 4 + 4 + 5 + 1)
        zeros = ModelParams.zeros(*params.header)
        assert [b.shape for _, b in zeros.blocks()] == [b.shape for _, b in params.blocks()]
        assert not zeros.to_vector().any()
        assert flat_buffer(zeros).size == params.size
        assert flat_buffer(params).size == params.size

    def test_init_params_draws_in_the_recorded_order(self):
        # per modality: uniform fan-in w_embed, then w_cls, then w_att; biases
        # zero and drawn from nothing
        d, e, c, k = 6, 5, 3, 3
        params = make_params(np.random.default_rng(23), d, e, c, k)
        rng = np.random.default_rng(23)
        expected = []
        for _ in ("rgb", "flow"):
            lim_e, lim_c = 1.0 / np.sqrt(d * k), 1.0 / np.sqrt(e)
            w_embed = rng.uniform(-lim_e, lim_e, size=(e, d, k))
            w_cls = rng.uniform(-lim_c, lim_c, size=(e, c + 1))
            w_att = rng.uniform(-lim_c, lim_c, size=e)
            expected += [w_embed, np.zeros(e), w_cls, np.zeros(c + 1), w_att, 0.0]
        blocks = params.blocks()
        assert len(blocks) == len(expected)
        for (name, block), want in zip(blocks, expected):
            np.testing.assert_array_equal(block, want, err_msg=name)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(19)
        params = make_params(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.to_vector(), params.to_vector())

    def test_v1_bytes(self, tmp_path):
        # the payload lists the blocks in blocks() order, whatever the
        # vector's in-memory order
        params = ModelParams.zeros(2, 1, 1, 1)
        values = np.arange(params.size, dtype=np.float64)
        start = 0
        for _, block in params.blocks():
            block[...] = values[start:start + block.size].reshape(block.shape)
            start += block.size
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        payload = struct.pack("<5I", 1, 2, 1, 1, 1) + values.astype("<f8").tobytes()
        assert path.read_bytes() == (b"WTALCP01" + payload
                                     + struct.pack("<I", zlib.crc32(payload)))

    @pytest.mark.parametrize("block, index, value", [
        ("rgb.w_embed", 0, float("nan")),
        ("rgb.w_cls", 7, float("inf")),
        ("flow.b_att", 0, float("-inf")),
    ])
    def test_non_finite_value_rejected_naming_block_and_offset(
            self, tmp_path, block, index, value):
        from wtalkit.errors import DataFormatError
        params = make_params(np.random.default_rng(24))
        position = block_starts(params)[block]
        dict(params.blocks())[block].flat[index] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(DataFormatError, match=rf"block {block} \(at byte "
                                                  rf"offset {28 + 8 * (position + index)}\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\x00" * 3, b"\x00" * 8])
    def test_payload_size_must_match_header(self, tmp_path, extra):
        from wtalkit.errors import DataFormatError
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_params(np.random.default_rng(26)))
        payload = path.read_bytes()[8:-4] + extra
        path.write_bytes(b"WTALCP01" + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(DataFormatError, match=r"shapes imply \d+ \(at byte offset 28\)"):
            load_checkpoint(path)

    def test_even_kernel_in_header_rejected(self, tmp_path):
        # also any dimension below 1; the payload is sized for (2, 1, 1, 2):
        # 2 * (4 + 1 + 2 + 2 + 1 + 1) values
        from wtalkit.errors import DataFormatError
        cases = [((2, 1, 1, 2), "kernel_size must be odd"),
                 ((2, 1, 1, 0), "kernel_size must be odd"),
                 ((0, 1, 1, 1), r"D, E and C must each be >= 1, got \(0, 1, 1\)"),
                 ((2, 0, 1, 1), r"D, E and C must each be >= 1, got \(2, 0, 1\)"),
                 ((2, 1, 0, 1), r"D, E and C must each be >= 1, got \(2, 1, 0\)")]
        path = tmp_path / "model.ckpt"
        for header, message in cases:
            payload = struct.pack("<5I", 1, *header) + bytes(8 * 22)
            path.write_bytes(b"WTALCP01" + payload + struct.pack("<I", zlib.crc32(payload)))
            with pytest.raises(DataFormatError,
                               match=rf"checkpoint header: {message}.*offset 8\)"):
                load_checkpoint(path)

    def test_loaded_params_are_writable_views_of_one_buffer(self, tmp_path):
        params = make_params(np.random.default_rng(25))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        buffer = flat_buffer(loaded)
        loaded.rgb.w_att += 1.0
        np.testing.assert_array_equal(buffer, loaded.to_vector())

    def test_corrupt_rejected(self, tmp_path):
        from wtalkit.errors import DataFormatError
        rng = np.random.default_rng(20)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, make_params(rng))
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams()
        assert hp.lam == 0.1 and hp.beta == 0.1 and hp.k == 4
        assert hp.epsilon == 0.5 and hp.rho_cls == 0.1 and hp.nms_iou == 0.5
        assert len(hp.proposal_thresholds) == 13
        assert hp.proposal_thresholds[0] == pytest.approx(0.10)
        assert hp.proposal_thresholds[-1] == pytest.approx(0.70)
