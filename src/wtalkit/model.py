"""Two-modality base branch: temporal-conv embedding, snippet classifier,
temporal attention, fusion, and attention-weighted video-level pooling.

The background pooling normalizer is selectable: STANDARD divides the
background aggregate by N_b = sum(1 - a); BGES divides it by N_f = sum(a),
which is the training-time gradient-enhancement device. Foreground pooling is
identical in both modes.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericError
from .numerics import reflect_index, sigmoid, softmax

MODALITIES = ("rgb", "flow")
NORMALIZER_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"WTALCP01"
CHECKPOINT_VERSION = 1


class NormMode(enum.Enum):
    STANDARD = "standard"
    BGES = "bges"


@dataclass
class ModalityParams:
    """Parameters of one modality branch.

    w_embed: (E, D, K) temporal conv kernel, K odd.
    w_cls:   (E, C+1) snippet classifier, column C is the background class.
    w_att:   (E,) attention weights, b_att a scalar.
    """

    w_embed: np.ndarray
    b_embed: np.ndarray
    w_cls: np.ndarray
    b_cls: np.ndarray
    w_att: np.ndarray
    b_att: float

    def arrays(self):
        return [
            self.w_embed,
            self.b_embed,
            self.w_cls,
            self.b_cls,
            self.w_att,
            np.array([self.b_att]),
        ]


@dataclass
class ModelParams:
    """Both modality branches plus the shape header they were built for."""

    rgb: ModalityParams
    flow: ModalityParams

    @property
    def feature_dim(self) -> int:
        return self.rgb.w_embed.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.rgb.w_embed.shape[0]

    @property
    def num_classes(self) -> int:
        return self.rgb.w_cls.shape[1] - 1

    @property
    def kernel_size(self) -> int:
        return self.rgb.w_embed.shape[2]

    def modality(self, name: str) -> ModalityParams:
        return self.rgb if name == "rgb" else self.flow

    def to_vector(self) -> np.ndarray:
        chunks = []
        for name in MODALITIES:
            chunks.extend(a.ravel() for a in self.modality(name).arrays())
        return np.concatenate(chunks)

    def from_vector(self, vec: np.ndarray) -> "ModelParams":
        """Rebuild params with this instance's shapes from a flat vector."""
        vec = np.asarray(vec, dtype=np.float64)
        out = {}
        pos = 0
        for name in MODALITIES:
            arrs = []
            for a in self.modality(name).arrays():
                n = a.size
                arrs.append(vec[pos : pos + n].reshape(a.shape).copy())
                pos += n
            out[name] = ModalityParams(
                w_embed=arrs[0],
                b_embed=arrs[1],
                w_cls=arrs[2],
                b_cls=arrs[3],
                w_att=arrs[4],
                b_att=float(arrs[5][0]),
            )
        if pos != vec.size:
            raise ValueError(f"from_vector: expected {pos} values, got {vec.size}")
        return ModelParams(rgb=out["rgb"], flow=out["flow"])


@dataclass
class Hyperparams:
    """Loss weights, sampling interval, and inference thresholds.

    Defaults follow the reference training setup: fusion weight 0.5,
    continuity-loss weight 0.1, sampling interval 4, background-loss weight
    0.1, class threshold 0.1, NMS IoU 0.5.
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
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError("kernel_size must be odd and >= 1")

    def one(_):
        lim_e = 1.0 / np.sqrt(feature_dim * kernel_size)
        lim_c = 1.0 / np.sqrt(embed_dim)
        return ModalityParams(
            w_embed=rng.uniform(-lim_e, lim_e, size=(embed_dim, feature_dim, kernel_size)),
            b_embed=np.zeros(embed_dim),
            w_cls=rng.uniform(-lim_c, lim_c, size=(embed_dim, num_classes + 1)),
            b_cls=np.zeros(num_classes + 1),
            w_att=rng.uniform(-lim_c, lim_c, size=embed_dim),
            b_att=0.0,
        )

    return ModelParams(rgb=one("rgb"), flow=one("flow"))


def _check_features(x: np.ndarray, feature_dim: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != feature_dim:
        raise ValueError(f"{name}: expected (T, {feature_dim}) features, got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError(f"{name}: need at least one snippet")
    return x


def temporal_windows(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """(T, K, D) sliding windows with reflect padding, same output length."""
    t, _ = x.shape
    pad = kernel_size // 2
    idx = reflect_index(np.arange(t)[:, None] + np.arange(kernel_size) - pad, t)
    return x[idx]


def embed(x: np.ndarray, mod: ModalityParams):
    """Temporal conv + ReLU. Returns (windows, pre-activation, activation)."""
    e, d, k = mod.w_embed.shape
    x = _check_features(x, d, "embed")
    win = temporal_windows(x, k)
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
    _, z_r, xe_r = embed(x_rgb, params.rgb)
    _, z_o, xe_o = embed(x_flow, params.flow)
    if xe_r.shape[0] != xe_o.shape[0]:
        raise ValueError("forward: modalities disagree on snippet count")
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
    """Write params to a little-endian binary container with a CRC trailer.

    Layout: magic, then a payload of {version u32, D u32, E u32, C u32,
    K u32} followed by float64 parameters per modality (rgb then flow) in the
    order w_embed, b_embed, w_cls, b_cls, w_att, b_att, then CRC32(payload).
    """
    header = struct.pack(
        "<5I", CHECKPOINT_VERSION, params.feature_dim, params.embed_dim,
        params.num_classes, params.kernel_size,
    )
    body = params.to_vector().astype("<f8").tobytes()
    payload = header + body
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise DataFormatError("not a checkpoint file (bad magic)", offset=0)
    if len(blob) < 8 + 20 + 4:
        raise DataFormatError("checkpoint truncated", offset=len(blob))
    payload, (crc,) = blob[8:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise DataFormatError("checkpoint CRC mismatch", offset=len(blob) - 4)
    version, d, e, c, k = struct.unpack("<5I", payload[:20])
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}", offset=8)
    vec = np.frombuffer(payload[20:], dtype="<f8")
    rng = np.random.default_rng(0)
    template = init_params(rng, d, e, c, k)
    expected = template.to_vector().size
    if vec.size != expected:
        raise DataFormatError(
            f"checkpoint holds {vec.size} parameters, shapes imply {expected}",
            offset=8 + 20,
        )
    return template.from_vector(vec)
