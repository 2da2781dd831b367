"""Two-modality base branch: temporal-conv embedding, snippet classifier,
temporal attention, fusion, and attention-weighted video-level pooling.

The background pooling divides the background aggregate by N_b = sum(1 - a),
or, with the `bges` bit set, by N_f = sum(a): the training-time
gradient-enhancement device. Foreground pooling divides by N_f either way.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .container import read_container, write_container
from .errors import DataFormatError, NumericError, at_least, check_settings, within
from .numerics import packed_windows, sigmoid, softmax

MODALITIES = ("rgb", "flow")
NORMALIZER_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"WTALCP01"
CHECKPOINT_VERSION = 1


@dataclass
class ModalityParams:
    """Parameters of one modality branch, views of `ModelParams.packed`.

    w_embed (E, D, K) is the temporal conv kernel (K odd), w_cls (E, C+1) the
    snippet classifier whose column C is the background class, w_att (E,)
    the attention weights and b_att its 0-d bias.
    """

    w_embed: np.ndarray
    b_embed: np.ndarray
    w_cls: np.ndarray
    b_cls: np.ndarray
    w_att: np.ndarray
    b_att: np.ndarray


class PackedWeights(NamedTuple):
    """The arrays that the flat parameter vector holds, in its order, with
    the modalities stacked (rgb, flow) on the leading axis. They are the
    operands of the packed step's GEMMs."""

    rows: np.ndarray       # (2, K·D, E) embedding kernel: tap j is rows j·D to (j+1)·D
    bias: np.ndarray       # (2, E) embedding bias
    head: np.ndarray       # (2, E, C+2): the classifier columns, then attention
    head_bias: np.ndarray  # (2, C+2)


@functools.lru_cache(maxsize=64)
def _layout(d: int, e: int, c: int, k: int) -> tuple:
    """(shape, start, stop) of each PackedWeights array in flat-vector order,
    from the shape header (D, E, C, K): the one statement of the parameter
    layout. Every dimension is at least 1 and K is odd."""
    if k < 1 or k % 2 == 0:
        raise ValueError("kernel_size must be odd and >= 1")
    if min(d, e, c) < 1:
        raise ValueError(f"D, E and C must each be >= 1, got {(d, e, c)}")
    shapes = ((2, k * d, e), (2, e), (2, e, c + 2), (2, c + 2))
    stops = list(itertools.accumulate(map(math.prod, shapes)))
    return tuple(zip(shapes, [0] + stops[:-1], stops))


def packed_views(vec: np.ndarray, header: tuple) -> PackedWeights:
    """PackedWeights of shape header (D, E, C, K) that view the flat `vec`.
    An (n, P) `vec` is a stack of n parameter points, and gives every array
    a leading point axis."""
    layout = _layout(*header)
    size = layout[-1][-1]
    if vec.ndim not in (1, 2) or vec.shape[-1] != size:
        raise ValueError(f"from_vector: expected {size} values per point, got shape {vec.shape}")
    points = vec.shape[:-1]
    return PackedWeights(*(vec[..., start:stop].reshape(points + shape)
                           for shape, start, stop in layout))


def _views(vec: np.ndarray | None, header: tuple) -> "ModelParams":
    """ModelParams whose `vector` is `vec` (a new zero vector if None) and
    whose arrays view it: `packed_views(vec, header)` and the named blocks."""
    vec = np.zeros(_layout(*header)[-1][-1]) if vec is None else vec
    packed = packed_views(vec, header)
    points = vec.shape[:-1]
    d, e, _, k = header
    rows, bias, head, head_bias = packed
    rgb, flow = (ModalityParams(
        w_embed=rows[..., m, :, :].reshape(points + (k, d, e)).swapaxes(-1, -3),
        b_embed=bias[..., m, :], w_cls=head[..., m, :, :-1], b_cls=head_bias[..., m, :-1],
        w_att=head[..., m, :, -1], b_att=head_bias[..., m, -1]) for m in (0, 1))
    return ModelParams(rgb=rgb, flow=flow, packed=packed, vector=vec)


@dataclass
class ModelParams:
    """Both modality branches, as views of the flat float64 `vector` that
    holds the `packed` arrays; `zeros`, `from_vector` and `load_checkpoint`
    build them. Writes to `vector` show in every array, and the reverse."""

    rgb: ModalityParams
    flow: ModalityParams
    packed: PackedWeights
    vector: np.ndarray

    @staticmethod
    def zeros(d: int, e: int, c: int, k: int) -> "ModelParams":
        """Zero-filled params of shape header (D, E, C, K)."""
        return _views(None, (d, e, c, k))

    @property
    def header(self) -> tuple:
        """(D, E, C, K), from which every block's shape follows."""
        e, d, k = self.rgb.w_embed.shape[-3:]
        return d, e, self.rgb.w_cls.shape[-1] - 1, k

    @property
    def points(self) -> tuple:
        """The leading point axis, (n,) for a stack of n points; () for one."""
        return self.packed.bias.shape[:-2]

    @property
    def size(self) -> int:
        """Length of the flat vector."""
        return _layout(*self.header)[-1][-1]

    def modality(self, name: str) -> ModalityParams:
        return self.rgb if name == "rgb" else self.flow

    def blocks(self) -> list:
        """(name, array) of the twelve named blocks in checkpoint order: rgb,
        then flow, each `ModalityParams` field in turn, e.g. ("rgb.w_cls", ...)."""
        return [(f"{name}.{field.name}", getattr(self.modality(name), field.name))
                for name in MODALITIES for field in fields(ModalityParams)]

    def to_vector(self) -> np.ndarray:
        """A copy of `vector`, in its in-memory (`_layout`) order."""
        return self.vector.copy()

    def from_vector(self, vec: np.ndarray) -> "ModelParams":
        """Params with this instance's shapes as views of `vec`, with no copy
        when `vec` is float64: writes through either show in both. A 1-D
        `vec` (in `to_vector` order) is one point. An (n, P) `vec` is a stack
        of n points, one per row: every block, and every output of
        `losses.packed_forward`, then has a leading axis of n."""
        return _views(np.asarray(vec, dtype=np.float64), self.header)


@dataclass(frozen=True)
class Hyperparams:
    """Loss weights, sampling interval, and inference thresholds.

    Defaults follow the reference training setup: fusion weight 0.5,
    continuity-loss weight 0.1, sampling interval 4, background-loss weight
    0.1, class threshold 0.1, NMS IoU 0.5. Frozen: construction (and so
    `dataclasses.replace`) checks every value and raises ConfigError.
    """

    lam: float = 0.1
    beta: float = 0.1
    k: int = 4
    epsilon: float = 0.5
    rho_cls: float = 0.1
    nms_iou: float = 0.5
    proposal_thresholds: tuple = tuple(np.round(np.arange(0.10, 0.7001, 0.05), 2))
    embed_dim: int = 0  # 0 means "match the feature dim"
    kernel_size: int = 3

    def __post_init__(self):
        check_settings(
            self, lam=at_least(0), beta=at_least(0), k=at_least(1),
            epsilon=within(0, 1), rho_cls=within(0, 1), nms_iou=at_least(0),
            embed_dim=at_least(0),
            kernel_size=(lambda v: v >= 1 and v % 2 == 1, "must be odd and >= 1"),
            proposal_thresholds=[(len, "must not be empty"),  # fused scores lie in [0, 1]
                                 (lambda v: all(0 < t < 1 for t in v), "must each lie in (0, 1)")])


@dataclass
class ForwardOutputs:
    """One video's forward pass at one parameter point, as the tests'
    reference model and the certificate's kink filter read it."""

    z_rgb: np.ndarray  # (T, E) pre-ReLU embedding
    z_flow: np.ndarray
    y_rgb: np.ndarray  # (T, C+1)
    y_flow: np.ndarray
    y: np.ndarray
    a_rgb: np.ndarray  # (T,)
    a_flow: np.ndarray
    a: np.ndarray
    z_fg: np.ndarray  # (C+1,) pre-softmax pooled logits
    z_bg: np.ndarray
    p_fg: np.ndarray
    p_bg: np.ndarray
    n_f: float
    n_b: float
    bges: bool  # the background pooling divided by N_f


def init_params(rng: np.random.Generator, feature_dim: int, embed_dim: int,
                num_classes: int, kernel_size: int = 3) -> ModelParams:
    """Fan-in uniform init, zero biases."""
    params = ModelParams.zeros(feature_dim, embed_dim, num_classes, kernel_size)
    lim_e = 1.0 / np.sqrt(feature_dim * kernel_size)
    lim_c = 1.0 / np.sqrt(embed_dim)
    for name in MODALITIES:
        mod = params.modality(name)
        for block, lim in ((mod.w_embed, lim_e), (mod.w_cls, lim_c), (mod.w_att, lim_c)):
            block[...] = rng.uniform(-lim, lim, size=block.shape)
    return params


def _check_features(x: np.ndarray, feature_dim: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != feature_dim:
        raise ValueError(f"{name}: expected (T, {feature_dim}) features, got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError(f"{name}: need at least one snippet")
    return x


def temporal_windows(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """(T, K, D) sliding windows with reflect padding, same output length."""
    return x[packed_windows([x.shape[0]], kernel_size)]


def embed(x: np.ndarray, mod: ModalityParams, windows: np.ndarray):
    """Temporal conv + ReLU at one parameter point, an (E, D, K) kernel.
    Returns (windows, pre-activation, activation).

    `windows` is the (T, K) index table `numerics.packed_windows([T], K)`,
    built once by the caller and shared by both modalities.
    """
    e, d, k = mod.w_embed.shape
    x = _check_features(x, d, "embed")
    win = x[windows]
    # contraction over (k, d) as one flattened matmul
    w2d = mod.w_embed.transpose(2, 1, 0).reshape(k * d, e)
    z = win.reshape(win.shape[0], k * d) @ w2d + mod.b_embed
    return win, z, np.maximum(z, 0.0)


def cas(xe: np.ndarray, mod: ModalityParams) -> np.ndarray:
    """Snippet-level class activation scores (raw logits, background last)."""
    if xe.shape[-1] != mod.w_cls.shape[-2]:
        raise ValueError(f"cas: embedding dim {xe.shape[-1]} != {mod.w_cls.shape[-2]}")
    return xe @ mod.w_cls + mod.b_cls


def attention(xe: np.ndarray, mod: ModalityParams) -> np.ndarray:
    """Class-agnostic per-snippet foreground probability in (0, 1)."""
    if xe.shape[-1] != mod.w_att.shape[-1]:
        raise ValueError(f"attention: embedding dim {xe.shape[-1]} != {mod.w_att.shape[-1]}")
    return sigmoid(xe @ mod.w_att + mod.b_att)


def pool(y: np.ndarray, a: np.ndarray, bges: bool = False):
    """Video-level pooling of (T, C+1) snippet scores, weighted by (T,)
    attention.

    The foreground aggregate is divided by N_f; the background aggregate by
    N_b, or by N_f when `bges` is set. Returns (p_fg, p_bg, z_fg, z_bg, n_f,
    n_b).
    """
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if y.ndim != 2 or y.shape[:1] != a.shape:
        raise ValueError(f"pool: incompatible shapes y {y.shape}, a {a.shape}")
    if y.shape[0] == 0:
        raise ValueError("pool: empty sequence")
    n_f = np.maximum(a.sum(), NORMALIZER_FLOOR)
    n_b = np.maximum((1.0 - a).sum(), NORMALIZER_FLOOR)
    z_fg = a @ y / n_f
    z_bg = (1.0 - a) @ y / (n_f if bges else n_b)
    return softmax(z_fg), softmax(z_bg), z_fg, z_bg, n_f, n_b


def forward(x_rgb: np.ndarray, x_flow: np.ndarray, params: ModelParams,
            bges: bool = False) -> ForwardOutputs:
    """Full base-branch forward pass over one video at one parameter point:
    the per-video statement of the model that `losses.packed_forward` packs."""
    t = len(x_rgb)
    if len(x_flow) != t:
        raise ValueError("forward: modalities disagree on snippet count")
    # one window index table serves both modalities
    windows = packed_windows([t], params.header[-1])
    _, z_r, xe_r = embed(x_rgb, params.rgb, windows)
    _, z_o, xe_o = embed(x_flow, params.flow, windows)
    y_r = cas(xe_r, params.rgb)
    y_o = cas(xe_o, params.flow)
    a_r = attention(xe_r, params.rgb)
    a_o = attention(xe_o, params.flow)
    y = 0.5 * (y_r + y_o)
    a = 0.5 * (a_r + a_o)
    p_fg, p_bg, z_fg, z_bg, n_f, n_b = pool(y, a, bges)
    out = ForwardOutputs(
        z_rgb=z_r, z_flow=z_o,
        y_rgb=y_r, y_flow=y_o, y=y,
        a_rgb=a_r, a_flow=a_o, a=a,
        z_fg=z_fg, z_bg=z_bg, p_fg=p_fg, p_bg=p_bg,
        n_f=n_f, n_b=n_b, bges=bges,
    )
    for arr in (out.y, out.a, out.p_fg, out.p_bg):
        if not np.all(np.isfinite(arr)):
            raise NumericError("forward produced non-finite outputs")
    return out


def save_checkpoint(path, params: ModelParams) -> None:
    """Write params as a container whose payload is {version u32, D u32,
    E u32, C u32, K u32} then each named block as little-endian float64, in
    `blocks()` order (each block in C order of its own shape)."""
    blocks = (np.ascontiguousarray(block, dtype="<f8") for _, block in params.blocks())
    write_container(path, CHECKPOINT_MAGIC, itertools.chain(
        [struct.pack("<5I", CHECKPOINT_VERSION, *params.header)], blocks))


def load_checkpoint(path) -> ModelParams:
    with read_container(path, CHECKPOINT_MAGIC, "checkpoint") as payload:
        version, *header = payload.unpack("<5I", "checkpoint header")
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"unsupported checkpoint version {version}", offset=8)
        try:
            size = _layout(*header)[-1][-1]
        except ValueError as exc:
            raise DataFormatError(f"checkpoint header: {exc}", offset=8) from None
        if payload.end - payload.pos != 8 * size:
            raise DataFormatError(f"checkpoint holds {payload.end - payload.pos} parameter "
                                  f"bytes, shapes imply {8 * size}", offset=payload.pos)
        params = ModelParams.zeros(*header)
        for name, block in params.blocks():
            block[...] = payload.floats(block.shape, f"checkpoint block {name}", lambda i: "")
    return params
