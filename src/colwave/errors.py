"""Exception types shared across the package."""

import numbers


class ColwaveError(Exception):
    """Base class for all colwave errors."""


class ValidationError(ColwaveError, ValueError):
    """A constructor argument or config field is out of range.

    ``parameter`` names the offending field (dotted path for config fields).
    """

    def __init__(self, parameter: str, message: str):
        super().__init__(f"{parameter}: {message}")
        self.parameter = parameter


def check_count(parameter: str, value, minimum: int) -> None:
    """Raise ValidationError unless ``value`` is an integer (numpy too, not bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(parameter, f"must be an integer >= {minimum}, got {value!r}")


class UnsupportedOrderError(ColwaveError):
    """Derivative order beyond what the sampled calculus supports."""


class InsufficientDataError(ColwaveError):
    """Too few usable ladder points for a decay-rate fit."""


class DivergenceError(ColwaveError):
    """Fixed-point iteration produced non-finite values.

    Carries the failing iterate index and, when available, the last finite
    iterate and the increment history recorded up to the failure.
    """

    def __init__(self, iterate: int, message: str = "", field=None, increments=None):
        super().__init__(message or f"iteration diverged at iterate {iterate}")
        self.iterate = iterate
        self.field = field
        self.increments = list(increments) if increments is not None else []


class LifespanExceededError(ColwaveError):
    """Requested time at or past the blow-up time of the ODE oracle."""


class ConfigError(ColwaveError):
    """A config document failed validation; ``field`` is the dotted path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
