"""Epsilon ladders and closed-form problem data.

A net is a family indexed by a geometric ladder of regularization
parameters ``eps_j = eps0 * ratio**j``.  Initial data and nonlinearities
are specified in closed form, the data with exact gradients, which
keeps every downstream quadrature and finite-difference check
honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, check_count

DATUM_KINDS = ("plateau_bump", "gaussian_bump", "zero")
NONLINEARITY_KINDS = ("polynomial", "sine", "exp_minus_one", "zero")

# Transition arguments this close to the flat ends are rounded onto them;
# the true values there differ from 0/1 by less than exp(-1e6).
_FLAT_CLIP = 1e-6


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric grid of regularization parameters, largest first."""

    eps0: float = 0.5
    ratio: float = 0.5
    count: int = 8

    def __post_init__(self):
        if not (0.0 < self.eps0 <= 1.0) or not math.isfinite(self.eps0):
            raise ValidationError("eps0", f"must lie in (0, 1], got {self.eps0}")
        if not (0.0 < self.ratio < 1.0) or not math.isfinite(self.ratio):
            raise ValidationError("ratio", f"must lie in (0, 1), got {self.ratio}")
        check_count("count", self.count, 3)  # a rate fit needs 3 ladder points
        if not self.values[-1] > 0.0:
            raise ValidationError(
                "ratio", f"last entry eps0 * ratio**{self.count - 1} underflows to 0"
            )

    @cached_property
    def values(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.count, dtype=float)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.values.tolist())

    def __getitem__(self, j: int) -> float:
        return float(self.values[j])


def make_ladder(eps0: float, ratio: float, count: int) -> EpsilonLadder:
    """Build the geometric ladder ``eps_j = eps0 * ratio**j``."""
    return EpsilonLadder(eps0=eps0, ratio=ratio, count=count)


def _transition(s: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """Smooth step that is exactly 1 for s <= 0 and 0 for s >= 1.

    Built as phi(1-s) / (phi(1-s) + phi(s)) with phi(t) = exp(-1/t); all
    derivatives vanish at both ends, so gluing to the flat pieces stays
    smooth.  Returns (h, h')[: order + 1].
    """
    s = np.asarray(s, dtype=float)
    out = (np.where(s <= _FLAT_CLIP, 1.0, 0.0),) + tuple(np.zeros_like(s) for _ in range(order))
    mid = (s > _FLAT_CLIP) & (s < 1.0 - _FLAT_CLIP)
    if np.any(mid):
        sm = s[mid]
        t = 1.0 - sm
        a = np.exp(-1.0 / t)
        b = np.exp(-1.0 / sm)
        d = a + b
        out[0][mid] = a / d
        if order >= 1:
            da = -a / t**2
            db = b / sm**2
            n1 = da * b - a * db
            out[1][mid] = n1 / d**2
    return out


def _bump(u: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """g(u) = exp(1 - 1/u) for u > 0, 0 otherwise, with dg/du.

    Evaluated in u = 1 - |x|^2/r^2 this is the standard compactly
    supported bell profile.  Returns (g, g')[: order + 1].
    """
    u = np.asarray(u, dtype=float)
    out = tuple(np.zeros_like(u) for _ in range(order + 1))
    pos = u > _FLAT_CLIP
    if np.any(pos):
        up = u[pos]
        gp = np.exp(1.0 - 1.0 / up)
        out[0][pos] = gp
        if order >= 1:
            out[1][pos] = gp / up**2
    return out


@dataclass(frozen=True)
class InitialDatum:
    """Radial, compactly supported smooth initial datum.

    ``plateau_bump`` equals ``amplitude`` exactly on the closed inner ball
    and drops smoothly to zero at ``outer_radius``; ``gaussian_bump`` is
    the bell profile ``amplitude * exp(1 - 1/(1 - (|x|/r)^2))``; ``zero``
    vanishes identically.  Values at points of any space dimension, and the
    profile's radial derivative, are closed form.
    """

    kind: str
    outer_radius: float = 0.0
    inner_radius: float | None = None
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in DATUM_KINDS:
            raise ValidationError("kind", f"unknown datum kind {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise ValidationError("amplitude", "must be finite")
        if self.kind == "zero":
            return
        if not (self.outer_radius > 0.0) or not math.isfinite(self.outer_radius):
            raise ValidationError("outer_radius", "must be positive and finite")
        if self.kind == "plateau_bump":
            if self.inner_radius is None:
                raise ValidationError("inner_radius", "required for plateau_bump")
            if not (0.0 < self.inner_radius < self.outer_radius):
                raise ValidationError(
                    "inner_radius",
                    f"must lie in (0, outer_radius), got {self.inner_radius}",
                )

    # -- radial profile -------------------------------------------------
    def _radial(self, rho: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """Profile F(rho) and dF/drho, up to derivative ``order`` <= 1.

        Returns ``order + 1`` arrays; each is the same bit for bit whatever
        the order, so callers ask only for the derivatives they read.
        """
        rho = np.asarray(rho, dtype=float)
        if self.kind == "zero":
            return tuple(np.zeros_like(rho) for _ in range(order + 1))
        if self.kind == "plateau_bump":
            width = self.outer_radius - self.inner_radius
            s = (rho - self.inner_radius) / width
            h = _transition(s, order)
            out = (self.amplitude * h[0],)
            if order >= 1:
                out += (self.amplitude * h[1] / width,)
            return out
        # gaussian_bump: function of w = rho^2 through u = 1 - w/r^2
        r2 = self.outer_radius**2
        u = 1.0 - rho**2 / r2
        g = _bump(u, order)
        out = (self.amplitude * g[0],)
        if order >= 1:
            # chain rule in w: dg/dw = -g1/r^2, F'(rho) = 2 rho dg/dw
            dgdw = -g[1] / r2
            out += (self.amplitude * 2.0 * rho * dgdw,)
        return out

    # -- pointwise evaluation -------------------------------------------
    def value(self, points: np.ndarray) -> np.ndarray:
        """Datum value at ``points`` of shape (..., d)."""
        pts = np.asarray(points, dtype=float)
        rho = np.sqrt(np.sum(pts * pts, axis=-1))
        return self._radial(rho, 0)[0]


@dataclass(frozen=True)
class NonlinearitySpec:
    """Smooth nonlinearity with f(0) = 0, evaluable in closed form.

    For ``polynomial`` the coefficient list starts at the linear term:
    ``coefficients[k]`` multiplies ``u**(k+1)``, so no constant term can
    sneak in through the list.  ``constant_term`` exists only so that an
    attempt to supply one is rejected explicitly.
    """

    kind: str
    coefficients: tuple[float, ...] = ()
    constant_term: float = 0.0

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValidationError("kind", f"unknown nonlinearity kind {self.kind!r}")
        if self.constant_term != 0.0:
            raise ValidationError(
                "constant_term", "a constant term violates the requirement f(0) = 0"
            )
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.kind == "polynomial":
            if not self.coefficients:
                raise ValidationError("coefficients", "polynomial needs coefficients")
            if not all(math.isfinite(c) for c in self.coefficients):
                raise ValidationError("coefficients", "must be finite")
        elif self.coefficients:
            raise ValidationError(
                "coefficients", f"{self.kind} takes no coefficient list"
            )

    def value(self, u):
        u = np.asarray(u, dtype=float)
        # overflow to inf is the divergence signal callers test for
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "polynomial":
                out = np.zeros_like(u)
                for c in reversed(self.coefficients):
                    out = (out + c) * u  # Horner with zero constant term
                return out
            if self.kind == "sine":
                return np.sin(u)
            if self.kind == "exp_minus_one":
                return np.expm1(u)
            return np.zeros_like(u)


ZERO_DATUM = InitialDatum("zero")


@dataclass(frozen=True)
class Problem:
    """Semilinear wave problem on [0, horizon] x R^dim.

    The nonlinearity enters multiplied by the small factor
    ``eps**small_exponent``; data are supported in the ball of radius
    ``support_radius``, so solutions live in the cone |x| <= t + r.
    """

    dim: int
    horizon: float
    support_radius: float
    u0: InitialDatum
    u1: InitialDatum
    f: NonlinearitySpec
    small_exponent: float = 1.0

    def __post_init__(self):
        check_count("dim", self.dim, 1)
        if self.dim not in (1, 2, 3):
            raise ValidationError("dim", f"space dimension must be 1, 2 or 3, got {self.dim}")
        if not (self.horizon > 0.0) or not math.isfinite(self.horizon):
            raise ValidationError("horizon", "must be positive and finite")
        if self.support_radius < 0.0 or not math.isfinite(self.support_radius):
            raise ValidationError("support_radius", "must be nonnegative and finite")
        if not (self.small_exponent > 0.0) or not math.isfinite(self.small_exponent):
            raise ValidationError("small_exponent", "must be positive (small-factor decay)")
        for name, datum in (("u0", self.u0), ("u1", self.u1)):
            if datum.kind != "zero" and datum.outer_radius > self.support_radius + 1e-12:
                raise ValidationError(
                    name, "datum support exceeds the problem support radius"
                )

    def small_factor(self, eps: float) -> float:
        """The factor eps**b multiplying f in the right-hand side; eps must lie in (0, 1]."""
        if not (0.0 < eps <= 1.0):
            raise ValidationError("eps", f"must lie in (0, 1], got {eps}")
        return float(eps**self.small_exponent)
