"""Shared fixtures and the acceptance-criteria summary block."""

import re

import numpy as np
import pytest

from wtalkit.model import Hyperparams, init_params
from wtalkit.synth import SynthConfig, generate

_CRITERION = re.compile(r"test_criterion_(\d+)")
_criterion_lines = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Stash one acceptance-criterion outcome for the terminal summary."""
    word = "PASS" if passed else "FAIL"
    _criterion_lines[number] = f"criterion {number}: {word}  {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_lines):
        terminalreporter.write_line(_criterion_lines[number])


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small fast synthetic world shared by trainer/localize tests."""
    cfg = SynthConfig(num_classes=3, feature_dim=8, t_min=24, t_max=40,
                      instances_min=1, instances_max=2,
                      instance_len_min=5, instance_len_max=9,
                      noise_sigma=0.1, confound_strength=0.5,
                      num_train=12, num_test=6, seed=11)
    train, test = generate(cfg)
    return cfg, train, test


@pytest.fixture
def small_params():
    rng = np.random.default_rng(0)
    return init_params(rng, feature_dim=8, embed_dim=8, num_classes=3)


@pytest.fixture
def small_hp():
    return Hyperparams(embed_dim=8)
