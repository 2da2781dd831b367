"""Weakly supervised temporal action localization toolkit.

Trains a two-stream snippet classifier with class-agnostic attention from
video-level labels only, supports several background-gradient training
strategies, and evaluates localization quality with mAP over IoU thresholds.
Everything runs on plain numpy; gradients are hand-derived and certified
against finite differences.
"""

from .errors import ConfigError, DataFormatError, NumericError
from .evaluate import (
    DEFAULT_IOU_THRESHOLDS,
    EvalReport,
    average_precision,
    evaluate,
    temporal_iou,
)
from .localize import Proposals, localize_scores, localize_video
from .losses import (
    CERTIFIED_MODES,
    CertificationResult,
    GradMode,
    LossBreakdown,
    backward,
    certify_gradients,
    closed_form_attention_factors,
)
from .model import Hyperparams, ModelParams, forward, init_params
from .synth import SynthConfig, VideoRecord, generate, read_dataset, write_dataset
from .ten import make_plan
from .trainer import RunConfig, TrainResult, ablate, train

__all__ = [
    "CERTIFIED_MODES",
    "CertificationResult",
    "ConfigError",
    "DEFAULT_IOU_THRESHOLDS",
    "DataFormatError",
    "EvalReport",
    "GradMode",
    "Hyperparams",
    "LossBreakdown",
    "ModelParams",
    "NumericError",
    "Proposals",
    "RunConfig",
    "SynthConfig",
    "TrainResult",
    "VideoRecord",
    "ablate",
    "average_precision",
    "backward",
    "certify_gradients",
    "closed_form_attention_factors",
    "evaluate",
    "forward",
    "generate",
    "init_params",
    "localize_scores",
    "localize_video",
    "make_plan",
    "read_dataset",
    "temporal_iou",
    "train",
    "write_dataset",
]
