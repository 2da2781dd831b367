"""Synthetic untrimmed-video feature data and the dataset container format.

The generated world is built so that localization quality hinges on telling
class-specific background apart from action: background snippets of a video
share the static (RGB) component of one of its action classes with strength
`confound_strength`, while their motion (flow) component is pure noise. Action
snippets carry both a static and a motion prototype. `SynthConfig` sets the
world: each of its fields is the [synth] config key of the same name, and
each range is a `<name>_min`, `<name>_max` pair of ints.

File container: magic "WTALDS01", little-endian payload, CRC32 trailer.
The same container with zero instances per video carries externally extracted
features, so real-data runs need none of the generation code here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container
from .errors import ConfigError, DataFormatError, at_least, check_settings, within

DATASET_MAGIC = b"WTALDS01"
DATASET_VERSION = 1


def check_video_id(vid: str) -> None:
    """Refuse an id that a proposal file's first column cannot carry
    (`#` starts a comment there)."""
    if vid.split() != [vid] or vid.startswith("#"):
        raise ValueError(f"video id {vid!r} must be non-empty, hold no whitespace "
                         "and not start with '#'")


@dataclass
class VideoRecord:
    """One untrimmed video as feature matrices plus annotations.

    `ground_truth` is a list of (class, start, end) with half-open snippet
    spans; it exists for evaluation only and the training view never sees it.
    """

    video_id: str
    x_rgb: np.ndarray
    x_flow: np.ndarray
    video_label: np.ndarray
    ground_truth: list

    @property
    def num_snippets(self) -> int:
        return self.x_rgb.shape[0]

    def validate(self) -> None:
        check_video_id(self.video_id)
        if self.x_rgb.shape != self.x_flow.shape or self.x_rgb.ndim != 2:
            raise ValueError(f"{self.video_id}: modality shapes differ or not 2-D: "
                             f"{self.x_rgb.shape} vs {self.x_flow.shape}")
        t = self.num_snippets
        if t < 1:
            raise ValueError(f"{self.video_id}: no snippets (T=0)")
        c = self.video_label.shape[0]
        for cls, start, end in self.ground_truth:
            if not 0 <= cls < c:
                raise ValueError(f"{self.video_id}: instance class {cls} out of range")
            if not (0 <= start < end <= t):
                raise ValueError(f"{self.video_id}: bad span [{start}, {end}) for T={t}")


@dataclass
class TrainingVideo:
    """What the trainer is allowed to see: features and the video label only."""

    video_id: str
    x_rgb: np.ndarray
    x_flow: np.ndarray
    video_label: np.ndarray


def training_view(records: list) -> list:
    return [TrainingVideo(r.video_id, r.x_rgb, r.x_flow, r.video_label)
            for r in records]


@dataclass(frozen=True)
class SynthConfig:
    """The synthetic world. Frozen: construction (and so
    `dataclasses.replace`) checks every value and raises ConfigError."""

    num_classes: int = 5
    feature_dim: int = 32
    t_min: int = 60  # snippets per video
    t_max: int = 120
    instances_min: int = 1  # action instances per video
    instances_max: int = 3
    instance_len_min: int = 8  # snippets per instance
    instance_len_max: int = 20
    confound_strength: float = 0.8
    noise_sigma: float = 0.7
    num_train: int = 200
    num_test: int = 60
    seed: int = 7

    def __post_init__(self):
        check_settings(
            self, num_classes=at_least(1), feature_dim=at_least(1),
            t_min=at_least(1), t_max=at_least(self.t_min),
            instances_min=at_least(1), instances_max=at_least(self.instances_min),
            instance_len_min=at_least(1), instance_len_max=at_least(self.instance_len_min),
            confound_strength=within(0, 1), noise_sigma=at_least(0),
            num_train=at_least(1), num_test=at_least(0), seed=at_least(0))
        # minimal draw must fit: i_lo instances of l_lo snippets plus a
        # background snippet before, between, and after each
        i_lo, l_lo = self.instances_min, self.instance_len_min
        if i_lo * l_lo + (i_lo + 1) > self.t_min:
            raise ConfigError(f"instances cannot fit: {i_lo} x {l_lo} snippets plus "
                              f"{i_lo + 1} background gaps exceed min T={self.t_min}")


@dataclass
class Prototypes:
    static: np.ndarray   # (C, D) per-class static component
    motion: np.ndarray   # (C, D) per-class motion component
    static_bg: np.ndarray  # (D,) class-agnostic background static component


def draw_prototypes(cfg: SynthConfig, rng: np.random.Generator) -> Prototypes:
    return Prototypes(
        static=rng.normal(size=(cfg.num_classes, cfg.feature_dim)),
        motion=rng.normal(size=(cfg.num_classes, cfg.feature_dim)),
        static_bg=rng.normal(size=cfg.feature_dim),
    )


def _layout(cfg: SynthConfig, t: int, rng: np.random.Generator):
    """Instance classes and spans for one video, background in every gap."""
    n = int(rng.integers(cfg.instances_min, cfg.instances_max + 1))
    n = min(n, (t - 1) // (cfg.instance_len_min + 1))  # instances_min always fits
    lens = rng.integers(cfg.instance_len_min, cfg.instance_len_max + 1, size=n)
    while lens.sum() + n + 1 > t:
        lens[int(np.argmax(lens))] -= 1
    extra_bg = t - int(lens.sum()) - (n + 1)
    gaps = 1 + rng.multinomial(extra_bg, np.full(n + 1, 1.0 / (n + 1)))
    classes = rng.integers(0, cfg.num_classes, size=n)
    spans = []
    pos = 0
    for i in range(n):
        pos += int(gaps[i])
        spans.append((int(classes[i]), pos, pos + int(lens[i])))
        pos += int(lens[i])
    return spans


def _render(cfg: SynthConfig, proto: Prototypes, video_id: str, t: int,
            spans: list, rng: np.random.Generator) -> VideoRecord:
    d = cfg.feature_dim
    confound_class = spans[0][0]
    bg_static = (cfg.confound_strength * proto.static[confound_class]
                 + (1.0 - cfg.confound_strength) * proto.static_bg)
    x_rgb = np.tile(bg_static, (t, 1))
    x_flow = np.zeros((t, d))
    for cls, start, end in spans:
        x_rgb[start:end] = proto.static[cls]
        x_flow[start:end] = proto.motion[cls]
    if cfg.noise_sigma > 0:
        x_rgb += rng.normal(0.0, cfg.noise_sigma, size=(t, d))
        x_flow += rng.normal(0.0, cfg.noise_sigma, size=(t, d))
    label = np.zeros(cfg.num_classes)
    for cls, _, _ in spans:
        label[cls] = 1.0
    rec = VideoRecord(video_id=video_id, x_rgb=x_rgb, x_flow=x_flow,
                      video_label=label, ground_truth=spans)
    rec.validate()
    return rec


def generate(cfg: SynthConfig) -> tuple:
    """Draw (train, test) record lists, deterministic under cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    proto = draw_prototypes(cfg, rng)

    def make(prefix: str, count: int) -> list:
        out = []
        for i in range(count):
            t = int(rng.integers(cfg.t_min, cfg.t_max + 1))
            spans = _layout(cfg, t, rng)
            out.append(_render(cfg, proto, f"{prefix}_{i:04d}", t, spans, rng))
        return out

    return make("train", cfg.num_train), make("test", cfg.num_test)


def _label_bytes(label: np.ndarray) -> bytes:
    return np.packbits(label != 0, bitorder="little").tobytes()


def _label_from_bytes(mask: bytes, c: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(mask, dtype=np.uint8), count=c, bitorder="little")
    return bits.astype(np.float64)


def write_dataset(path, records: list, num_classes: int | None = None,
                  frames_per_snippet: int = 0, fps: float = 0.0) -> None:
    """Serialize records; 0 / 0.0 mark snippet timing as unknown.
    `frames_per_snippet` must be an int in [0, 2^32) and `fps` finite and >= 0."""
    if num_classes is None:
        if not records:
            raise ValueError("num_classes required for an empty dataset")
        num_classes = records[0].video_label.shape[0]
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    if not (isinstance(frames_per_snippet, (int, np.integer))
            and 0 <= frames_per_snippet < 1 << 32):
        raise ValueError("frames_per_snippet must be an int in [0, 2^32), "
                         f"got {frames_per_snippet!r}")
    if not 0.0 <= fps < np.inf:
        raise ValueError(f"fps must be finite and >= 0, got {fps}")
    if records:
        feature_dim = records[0].x_rgb.shape[1]
        if feature_dim < 1:
            raise ValueError(f"{records[0].video_id}: feature dim must be >= 1, got 0")
    else:
        feature_dim = 0
    parts = [struct.pack("<IIIQ", DATASET_VERSION, num_classes, feature_dim,
                         len(records)),
             struct.pack("<Id", frames_per_snippet, fps)]
    seen = set()
    for rec in records:
        rec.validate()
        if rec.video_id in seen:
            raise ValueError(f"duplicate video id {rec.video_id!r}")
        seen.add(rec.video_id)
        if rec.video_label.shape[0] != num_classes:
            raise ValueError(f"{rec.video_id}: label length != {num_classes}")
        if rec.x_rgb.shape[1] != feature_dim:
            raise ValueError(f"{rec.video_id}: feature dim != {feature_dim}")
        vid = rec.video_id.encode("utf-8")
        parts.append(struct.pack("<I", len(vid)))
        parts.append(vid)
        parts.append(struct.pack("<I", rec.num_snippets))
        parts.append(_label_bytes(rec.video_label))
        parts.append(struct.pack("<I", len(rec.ground_truth)))
        for cls, start, end in rec.ground_truth:
            parts.append(struct.pack("<III", cls, start, end))
        parts.append(np.ascontiguousarray(rec.x_rgb, dtype="<f8"))
        parts.append(np.ascontiguousarray(rec.x_flow, dtype="<f8"))
    write_container(path, DATASET_MAGIC, parts)


@dataclass
class Dataset:
    records: list
    num_classes: int
    feature_dim: int
    frames_per_snippet: int = 0
    fps: float = 0.0


def read_dataset(path) -> Dataset:
    with read_container(path, DATASET_MAGIC, "dataset") as cur:
        (version,) = cur.unpack("<I", "version")
        if version != DATASET_VERSION:
            raise DataFormatError(f"unsupported version {version}", offset=cur.pos - 4)
        header_at = cur.pos
        num_classes, feature_dim, count, frames_per_snippet, fps = cur.unpack("<IIQId", "header")
        if num_classes == 0:
            raise DataFormatError("header field num_classes (C) is 0, must be >= 1",
                                  offset=header_at)
        if feature_dim == 0 and count:
            raise DataFormatError(f"header field feature_dim (D) is 0 for {count} videos, "
                                  "must be >= 1", offset=header_at + 4)
        if not 0.0 <= fps < np.inf:
            raise DataFormatError(f"header field fps is {fps}, must be finite and >= 0",
                                  offset=header_at + 20)
        mask_len = (num_classes + 7) // 8

        def snippet(i):
            return f" at snippet {i // feature_dim}"

        records, seen = [], set()
        for _ in range(count):
            (id_len,) = cur.unpack("<I", "id length")
            id_pos = cur.pos
            raw_id = cur.take(id_len, "video id")
            try:
                vid = str(raw_id, "utf-8")
                check_video_id(vid)
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"video id is not UTF-8 ({exc.reason} at its byte "
                                      f"{exc.start})", offset=id_pos) from None
            except ValueError as exc:
                raise DataFormatError(str(exc), offset=id_pos) from exc
            if vid in seen:
                raise DataFormatError(f"duplicate video id {vid!r}", offset=id_pos)
            seen.add(vid)
            (t,) = cur.unpack("<I", "snippet count")
            label = _label_from_bytes(cur.take(mask_len, "label bitmask"), num_classes)
            (n_inst,) = cur.unpack("<I", "instance count")
            gts = [cur.unpack("<III", "instance") for _ in range(n_inst)]
            x_rgb = cur.floats((t, feature_dim), f"{vid} rgb features", snippet)
            x_flow = cur.floats((t, feature_dim), f"{vid} flow features", snippet)
            rec = VideoRecord(video_id=vid, x_rgb=x_rgb, x_flow=x_flow,
                              video_label=label, ground_truth=gts)
            try:
                rec.validate()
            except ValueError as exc:
                raise DataFormatError(str(exc), offset=cur.pos) from exc
            records.append(rec)
        if cur.pos != cur.end:
            raise DataFormatError(f"{cur.end - cur.pos} trailing bytes after "
                                  "last video", offset=cur.pos)
    return Dataset(records=records, num_classes=num_classes,
                   feature_dim=feature_dim,
                   frames_per_snippet=frames_per_snippet, fps=fps)
