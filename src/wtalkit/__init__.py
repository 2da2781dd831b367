"""Weakly supervised temporal action localization toolkit.

Trains a two-stream snippet classifier with class-agnostic attention from
video-level labels only, supports several background-gradient training
strategies, and evaluates localization quality with mAP over IoU thresholds.
Everything runs on plain numpy; gradients are hand-derived and certified
against finite differences.

The package root binds one name, `read_dataset`, because callers outside
the package read datasets through it. Everything else is imported from its
defining module (`wtalkit.losses.certify_gradients`, `wtalkit.evaluate`,
...), so each function has one binding and each submodule name is the module.
"""

from .synth import read_dataset

__all__ = ["read_dataset"]
