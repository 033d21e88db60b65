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
    """A finite input produced non-finite values.

    ``solve_linear`` raises it when the Duhamel term of a finite source
    overflows, and ``apply_fixed_point_map`` when a single application of
    the fixed-point map produces non-finite values.  A diverging Picard
    solve is a reported outcome (``converged=False``, infinite final
    increment), not an error.
    """


class LifespanExceededError(ColwaveError):
    """Requested time at or past the blow-up time of the ODE oracle."""


class ConfigError(ColwaveError):
    """A config document failed validation; ``field`` is the dotted path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
