"""Exception types shared across the toolkit, and the settings check."""

import math


class ConfigError(ValueError):
    """Bad configuration file or unknown/invalid option."""


class DataFormatError(ValueError):
    """Corrupt or incompatible on-disk data.

    `offset` is the byte offset at which the problem was detected, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(ArithmeticError):
    """Non-finite values or a failed numeric check."""


def at_least(low):
    """A `check_settings` rule: the value is >= low (NaN is not)."""
    return (lambda v: v >= low), f"must be >= {low}"


def within(low, high):
    """A `check_settings` rule: the value lies in [low, high]."""
    return (lambda v: low <= v <= high), f"must lie in [{low}, {high}]"


def check_settings(settings, **rules) -> None:
    """Raise ConfigError naming the first field of the dataclass `settings`
    that holds a non-finite float (alone or in a tuple), then the first that
    fails its (test, phrase) rule or list of them, e.g. "k must be >= 1, got 0"."""
    for name, value in vars(settings).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
    for name, rule in rules.items():
        value = getattr(settings, name)
        for test, phrase in rule if isinstance(rule, list) else [rule]:
            if not test(value):
                raise ConfigError(f"{name} {phrase}, got {value}")
