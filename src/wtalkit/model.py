"""Two-modality base branch: temporal-conv embedding, snippet classifier,
temporal attention, fusion, and attention-weighted video-level pooling.

The background pooling normalizer is selectable: STANDARD divides the
background aggregate by N_b = sum(1 - a); BGES divides it by N_f = sum(a),
which is the training-time gradient-enhancement device. Foreground pooling is
identical in both modes.
"""

from __future__ import annotations

import enum
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container
from .errors import DataFormatError, NumericError, at_least, check_settings, within
from .numerics import packed_windows, sigmoid, softmax

MODALITIES = ("rgb", "flow")
NORMALIZER_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"WTALCP01"
CHECKPOINT_VERSION = 1


class NormMode(enum.Enum):
    STANDARD = "standard"
    BGES = "bges"


@dataclass
class ModalityParams:
    """Parameters of one modality branch, shaped as `_layout` states."""

    w_embed: np.ndarray
    b_embed: np.ndarray
    w_cls: np.ndarray
    b_cls: np.ndarray
    w_att: np.ndarray
    b_att: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(d: int, e: int, c: int, k: int) -> tuple:
    """(modality, field, shape, start, stop) of every block in flat-vector
    order, from the shape header (D, E, C, K): the one statement of the
    parameter layout.

    w_embed is the temporal conv kernel (K odd), w_cls the snippet classifier
    whose column C is the background class, w_att the attention weights and
    b_att its scalar bias.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("kernel_size must be odd and >= 1")
    fields = (("w_embed", (e, d, k)), ("b_embed", (e,)), ("w_cls", (e, c + 1)),
              ("b_cls", (c + 1,)), ("w_att", (e,)), ("b_att", ()))
    blocks, size = [], 0
    for name in MODALITIES:
        for field, shape in fields:
            blocks.append((name, field, shape, size, size + math.prod(shape)))
            size = blocks[-1][-1]
    return tuple(blocks)


def _views(vec: np.ndarray | None, layout: tuple) -> "ModelParams":
    """ModelParams whose blocks view the flat `vec` (a new zero one if None)."""
    size = layout[-1][-1]
    vec = np.zeros(size) if vec is None else vec
    if vec.shape != (size,):
        raise ValueError(f"from_vector: expected {size} values, got {vec.size}")
    mods = {name: {} for name in MODALITIES}
    for name, field, shape, start, stop in layout:
        mods[name][field] = vec[start:stop].reshape(shape)
    return ModelParams(**{name: ModalityParams(**f) for name, f in mods.items()})


@dataclass
class ModelParams:
    """Both modality branches; `zeros` and `from_vector` build views of one vector."""

    rgb: ModalityParams
    flow: ModalityParams

    @staticmethod
    def zeros(d: int, e: int, c: int, k: int) -> "ModelParams":
        """Zero-filled params of shape header (D, E, C, K), views of one buffer."""
        return _views(None, _layout(d, e, c, k))

    @property
    def header(self) -> tuple:
        """(D, E, C, K), from which every block's shape follows."""
        e, d, k = self.rgb.w_embed.shape
        return d, e, self.rgb.w_cls.shape[1] - 1, k

    @property
    def size(self) -> int:
        """Length of the flat vector."""
        return _layout(*self.header)[-1][-1]

    def modality(self, name: str) -> ModalityParams:
        return self.rgb if name == "rgb" else self.flow

    def blocks(self) -> list:
        """(name, array) of every block in vector order, e.g. ("rgb.w_cls", ...)."""
        return [(f"{name}.{field}", getattr(self.modality(name), field))
                for name, field, *_ in _layout(*self.header)]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([np.ravel(block) for _, block in self.blocks()])

    def from_vector(self, vec: np.ndarray) -> "ModelParams":
        """Params with this instance's shapes as views of the 1-D `vec`, with
        no copy when `vec` is float64: writes through either show in both."""
        return _views(np.asarray(vec, dtype=np.float64), _layout(*self.header))


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
    gauss_sigma: float = 1.0
    gauss_radius: int = 2
    stop_gradient_targets: bool = True
    bvl_weight: float | None = None  # None means "use lam"

    def __post_init__(self):
        check_settings(
            self, lam=at_least(0), beta=at_least(0), k=at_least(1),
            epsilon=within(0, 1), rho_cls=within(0, 1), nms_iou=at_least(0),
            embed_dim=at_least(0), gauss_radius=at_least(0),
            kernel_size=(lambda v: v >= 1 and v % 2 == 1, "must be odd and >= 1"),
            gauss_sigma=(lambda v: v > 0, "must be > 0"),
            proposal_thresholds=[(len, "must not be empty"),  # fused scores lie in [0, 1]
                                 (lambda v: all(0 < t < 1 for t in v), "must each lie in (0, 1)")],
            bvl_weight=(lambda v: v is None or v >= 0, "must be >= 0 or none"))

    def resolved_bvl_weight(self) -> float:
        return self.lam if self.bvl_weight is None else self.bvl_weight


@dataclass
class ForwardOutputs:
    """One video's forward pass, as inference and the loss oracle read it."""

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
    norm_mode: NormMode


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
    """Temporal conv + ReLU. Returns (windows, pre-activation, activation).

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
    if xe.shape[1] != mod.w_cls.shape[0]:
        raise ValueError(f"cas: embedding dim {xe.shape[1]} != {mod.w_cls.shape[0]}")
    return xe @ mod.w_cls + mod.b_cls


def attention(xe: np.ndarray, mod: ModalityParams) -> np.ndarray:
    """Class-agnostic per-snippet foreground probability in (0, 1)."""
    if xe.shape[1] != mod.w_att.shape[0]:
        raise ValueError(f"attention: embedding dim {xe.shape[1]} != {mod.w_att.shape[0]}")
    return sigmoid(xe @ mod.w_att + mod.b_att)


def pool(y: np.ndarray, a: np.ndarray, norm_mode: NormMode = NormMode.STANDARD):
    """Attention-weighted video-level pooling.

    Foreground aggregate is divided by N_f; the background aggregate by N_b in
    STANDARD mode and by N_f in BGES mode. Returns (p_fg, p_bg, z_fg, z_bg,
    n_f, n_b).
    """
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if y.ndim != 2 or a.ndim != 1 or y.shape[0] != a.shape[0]:
        raise ValueError(f"pool: incompatible shapes y {y.shape}, a {a.shape}")
    if y.shape[0] == 0:
        raise ValueError("pool: empty sequence")
    n_f = max(float(a.sum()), NORMALIZER_FLOOR)
    n_b = max(float((1.0 - a).sum()), NORMALIZER_FLOOR)
    z_fg = (a @ y) / n_f
    denom = n_f if norm_mode is NormMode.BGES else n_b
    z_bg = ((1.0 - a) @ y) / denom
    return softmax(z_fg), softmax(z_bg), z_fg, z_bg, n_f, n_b


def forward(x_rgb: np.ndarray, x_flow: np.ndarray, params: ModelParams,
            norm_mode: NormMode = NormMode.STANDARD) -> ForwardOutputs:
    """Full base-branch forward pass over one video."""
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
    p_fg, p_bg, z_fg, z_bg, n_f, n_b = pool(y, a, norm_mode)
    out = ForwardOutputs(
        z_rgb=z_r, z_flow=z_o,
        y_rgb=y_r, y_flow=y_o, y=y,
        a_rgb=a_r, a_flow=a_o, a=a,
        z_fg=z_fg, z_bg=z_bg, p_fg=p_fg, p_bg=p_bg,
        n_f=n_f, n_b=n_b, norm_mode=norm_mode,
    )
    for arr in (out.y, out.a, out.p_fg, out.p_bg):
        if not np.all(np.isfinite(arr)):
            raise NumericError("forward produced non-finite outputs")
    return out


def save_checkpoint(path, params: ModelParams) -> None:
    """Write params as a container whose payload is {version u32, D u32,
    E u32, C u32, K u32} then the float64 flat vector (`_layout` order)."""
    write_container(path, CHECKPOINT_MAGIC, [struct.pack("<5I", CHECKPOINT_VERSION, *params.header),
                                             params.to_vector().astype("<f8")])


def load_checkpoint(path) -> ModelParams:
    with read_container(path, CHECKPOINT_MAGIC, "checkpoint") as payload:
        version, d, e, c, k = payload.unpack("<5I", "checkpoint header")
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"unsupported checkpoint version {version}", offset=8)
        try:
            layout = _layout(d, e, c, k)
        except ValueError as exc:
            raise DataFormatError(f"checkpoint header: {exc}", offset=8) from None
        size = layout[-1][-1]
        if payload.end - payload.pos != 8 * size:
            raise DataFormatError(f"checkpoint holds {payload.end - payload.pos} parameter "
                                  f"bytes, shapes imply {8 * size}", offset=payload.pos)
        vec = payload.floats((size,), "checkpoint block", lambda i: next(
            f" {m}.{f}" for m, f, _, start, stop in layout if start <= i < stop))
    return _views(vec.astype(np.float64, copy=False), layout)
