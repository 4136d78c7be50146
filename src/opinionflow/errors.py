"""Exception types shared across the package, and the check of config scalars."""

import math


class ConfigurationError(ValueError):
    """A config value or combination of values is unusable."""


class HypothesisError(ConfigurationError):
    """A verification run was asked to check a theorem whose hypothesis the
    config violates. ``inequality`` names the failed precondition."""

    def __init__(self, inequality: str, message: str = ""):
        self.inequality = inequality
        super().__init__(message or f"hypothesis violated: {inequality}")


class NotAFixedPointError(ValueError):
    """A state handed to fixed-point-only analysis is not one at tolerance."""


class EigenSolveError(RuntimeError):
    """The dense eigensolver failed to converge; carries diagnostics."""


def coerce(key: str, kind: type, value):
    """``value`` of config key ``key`` as ``kind`` (int or float); numeric text
    passes. Anything else, a bool, a NaN or an infinity, or a non-integral
    number for an int key raises a ConfigurationError that names ``key``."""
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            pass
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {noun}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{key} must be finite, got {value!r}")
    return kind(value)
