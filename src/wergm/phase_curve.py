"""The two-maximizer region and the first-order transition curve.

For the uniform(0, 1) law everything here is solved on the tilt side, in
closed forms of ``B = log_mgf_d1`` and ``log M``, by bisection alone.  The
objective ``beta1*u + beta2*u**p - rate(u)/2`` at ``u = B(theta)`` is

    L(theta) = beta1*B + beta2*B**p - (theta*B - log M(theta)) / 2,

with derivative ``A(theta) * p*B**(p-1) * (beta2 - h(theta))``, where

    h(theta) = (theta/2 - beta1) / (p * B(theta)**(p-1))

is the ``beta2`` at which ``B(theta)`` is stationary.  Local maxima are
therefore where ``h`` crosses ``beta2`` upwards.  ``h`` rises where
``g(theta) > -beta1`` (``critical.g_of_theta``) and falls between the two
roots ``theta_a < theta0 < theta_b`` of ``g = -beta1``, which exist for
``beta1`` below the critical value.  At those turning points ``h = 1/n =
m(B)``, so with ``a = B(theta_a)`` and ``b = B(theta_b)`` (the tangency
roots of ``f(u) = -beta1``, since ``f`` composed with B is ``g``) there are
two local maxima exactly when ``m(b) < beta2 < m(a)``: the V-shaped region
bounded by the parametric curve ``u -> (-f(u), m(u))``.  The lower maximum
is the root of ``h = beta2`` on ``(-THETA_WINDOW, theta_a)``, the upper one
on ``(theta_b, THETA_WINDOW)``.

Inside the region the value gap between the upper and lower maximum
increases in ``beta2`` (its derivative is ``u2**p - u1**p``) and changes
sign once; the zero is the first-order transition curve
``beta2 = r(beta1)``, where both maximizers are global and of equal height.
``r_of_beta1`` bisects the gap in ``beta2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cramer, critical, variational
from .errors import InputValidationError, NoTwoPhaseRegionError, ThetaCapError

_MODULE = "phase_curve"

#: Absolute theta-tolerance of the turning-point and maximum bisections.
ROOT_TOL = 1e-11

#: Absolute beta2 tolerance for the transition-curve bisection.
CURVE_TOL = 1e-10

#: Tracing stops this far below the critical beta1: at the corner the two
#: maximizers merge and the tie becomes a degenerate double root.
CORNER_MARGIN = 1e-3

#: Every tilt searched for lies in [-THETA_WINDOW, THETA_WINDOW], inside
#: the evaluation cap ``cramer.THETA_MAX``.
THETA_WINDOW = 680.0


@dataclass(frozen=True)
class BoundingPoint:
    """Bounding data of the two-maximizer region at one ``beta1``.

    ``a`` and ``b`` are the tangency roots of ``f(u) = -beta1`` below and
    above ``u0``; ``m_a = m(a)`` is the upper bounding ``beta2`` and
    ``m_b = m(b)`` the lower.
    """

    beta1: float
    a: float
    b: float
    m_a: float
    m_b: float


@dataclass(frozen=True)
class PhaseCurvePoint:
    """One point of the transition curve: tie location and maximizers."""

    beta1: float
    r: float
    u1_star: float
    u2_star: float
    psi: float


def _check_beta1(p: int, beta1: float, operation: str) -> tuple[float, critical.CriticalData]:
    beta1 = float(beta1)
    if not math.isfinite(beta1):
        raise InputValidationError(
            f"beta1 must be finite, got {beta1!r}",
            module=_MODULE,
            operation=operation,
            offending_parameter="beta1",
        )
    data = critical.find_theta0(p)
    if beta1 >= data.beta1_c:
        raise NoTwoPhaseRegionError(
            f"beta1 = {beta1:g} is not below the critical value "
            f"{data.beta1_c:.6g}; no two-maximizer region exists there",
            module=_MODULE,
            operation=operation,
            offending_parameter="beta1",
        )
    return beta1, data


def _mean(theta: float) -> float:
    return cramer.log_mgf_d1(cramer.UNIFORM01, theta)


def _h(p: int, beta1: float, theta: float) -> float:
    """The ``beta2`` at which ``u = B(theta)`` is a stationary point."""
    return (0.5 * theta - beta1) / (p * _mean(theta) ** (p - 1))


def _height(p: int, beta1: float, beta2: float, theta: float) -> float:
    """Objective value at ``u = B(theta)``, where rate(u) = theta*u - log M."""
    u = _mean(theta)
    rate = theta * u - cramer.log_mgf(cramer.UNIFORM01, theta)
    return beta1 * u + beta2 * u**p - 0.5 * rate


def _turning_tilts(
    p: int, beta1: float, theta0: float, operation: str
) -> tuple[float, float]:
    """The roots ``theta_a < theta0 < theta_b`` of ``g(theta) = -beta1``."""

    def resid(theta: float) -> float:
        return critical.g_of_theta(p, theta) + beta1

    r_left = resid(-THETA_WINDOW)
    if r_left <= 0.0 or resid(THETA_WINDOW) <= 0.0:
        raise ThetaCapError(
            f"a tangency root for beta1 = {beta1:g} lies beyond the tilt "
            f"window +-{THETA_WINDOW:g}",
            module=_MODULE,
            operation=operation,
            offending_parameter="beta1",
        )
    # resid(theta0) = beta1 - beta1_c < 0: each side brackets one root.
    theta_a = cramer.bisect(resid, -THETA_WINDOW, theta0, r_left, ROOT_TOL)
    theta_b = cramer.bisect(resid, theta0, THETA_WINDOW, resid(theta0), ROOT_TOL)
    return theta_a, theta_b


def _rising_root(resid, lo: float, hi: float, operation: str) -> float:
    """Root of the increasing ``resid`` on [lo, hi], one end a window edge.

    ``ThetaCapError`` when the root lies past that edge.
    """
    r_lo = resid(lo)
    if r_lo > 0.0 or resid(hi) < 0.0:
        raise ThetaCapError(
            "a local maximum lies beyond the tilt window "
            f"+-{THETA_WINDOW:g}",
            module=_MODULE,
            operation=operation,
            offending_parameter="beta2",
        )
    return cramer.bisect(resid, lo, hi, r_lo, ROOT_TOL)


def _maxima(
    p: int, beta1: float, beta2: float, turns: tuple[float, float], operation: str
) -> tuple[float, float]:
    """Tilts of the lower and upper local maximum, for ``m_b < beta2 < m_a``."""
    theta_a, theta_b = turns

    def resid(theta: float) -> float:
        return _h(p, beta1, theta) - beta2

    return (
        _rising_root(resid, -THETA_WINDOW, theta_a, operation),
        _rising_root(resid, theta_b, THETA_WINDOW, operation),
    )


def _gap(
    p: int, beta1: float, beta2: float, turns: tuple[float, float], operation: str
) -> float:
    """``L(upper max) - L(lower max)``, or +-inf where one of them is absent."""
    theta_a, theta_b = turns
    if beta2 >= _h(p, beta1, theta_a):
        return math.inf
    if beta2 <= _h(p, beta1, theta_b):
        return -math.inf
    theta1, theta2 = _maxima(p, beta1, beta2, turns, operation)
    return _height(p, beta1, beta2, theta2) - _height(p, beta1, beta2, theta1)


def bounding_point(p: int, beta1: float) -> BoundingPoint:
    """Tangency roots of ``f(u) = -beta1`` and the bounding ``beta2`` pair.

    The roots are ``B`` of the turning tilts, the two roots of
    ``g = f o B = -beta1`` on either side of ``theta0``, each refined by
    bisection in theta to ROOT_TOL.
    """
    beta1, data = _check_beta1(p, beta1, "bounding_point")
    theta_a, theta_b = _turning_tilts(p, beta1, data.theta0, "bounding_point")
    a, b = _mean(theta_a), _mean(theta_b)
    return BoundingPoint(
        beta1=beta1, a=a, b=b, m_a=critical.m_of_u(p, a), m_b=critical.m_of_u(p, b)
    )


def maxima_gap(p: int, beta1: float, beta2: float) -> float:
    """Value gap l(upper max) - l(lower max) for the uniform law.

    Returns -inf for ``beta2 <= m_b``, where the upper local maximum does
    not exist, and +inf for ``beta2 >= m_a``, where the lower one does not
    — the sign is what the curve bisection needs, and there is no finite
    gap to report in either case.  Raises ``ThetaCapError`` when a maximum
    that exists lies beyond the tilt window.
    """
    beta1, data = _check_beta1(p, beta1, "maxima_gap")
    params = variational.ModelParams(beta1, beta2, p)
    turns = _turning_tilts(p, beta1, data.theta0, "maxima_gap")
    return _gap(p, beta1, params.beta2, turns, "maxima_gap")


def r_of_beta1(
    p: int, beta1: float, dist: cramer.EdgeDistribution = cramer.UNIFORM01
) -> PhaseCurvePoint:
    """Transition ``beta2`` at the given ``beta1``, with both maximizers.

    Bisection of the maxima gap to CURVE_TOL over ``(m_b, m_a)``, where it
    rises from -inf to +inf.  The upper end is lowered to ``h`` at the tilt
    window's edge when that is smaller; if the gap is still not positive
    there, the tie needs an upper maximum beyond the window and
    ``ThetaCapError`` is raised.
    """
    if dist != cramer.UNIFORM01:
        raise InputValidationError(
            "the transition-curve analysis is specific to the uniform(0,1) law",
            module=_MODULE,
            operation="r_of_beta1",
            offending_parameter="dist",
        )
    beta1, data = _check_beta1(p, beta1, "r_of_beta1")
    turns = _turning_tilts(p, beta1, data.theta0, "r_of_beta1")

    def gap(beta2: float) -> float:
        return _gap(p, beta1, beta2, turns, "r_of_beta1")

    theta_a, theta_b = turns
    lo = _h(p, beta1, theta_b)
    hi = min(_h(p, beta1, theta_a), _h(p, beta1, THETA_WINDOW))
    if gap(hi) <= 0.0:
        raise ThetaCapError(
            f"the tie at beta1 = {beta1:g} needs an upper maximum beyond "
            f"the tilt window +-{THETA_WINDOW:g}",
            module=_MODULE,
            operation="r_of_beta1",
            offending_parameter="beta1",
        )
    r = cramer.bisect(gap, lo, hi, gap(lo), CURVE_TOL)
    theta1, theta2 = _maxima(p, beta1, r, turns, "r_of_beta1")
    return PhaseCurvePoint(
        beta1=beta1,
        r=r,
        u1_star=_mean(theta1),
        u2_star=_mean(theta2),
        psi=max(_height(p, beta1, r, theta1), _height(p, beta1, r, theta2)),
    )


def trace_curve(
    p: int, beta1_lo: float, beta1_hi: float, steps: int
) -> list[PhaseCurvePoint]:
    """Transition-curve points on a uniform ``beta1`` grid.

    The effective upper end is clamped to ``beta1_c - CORNER_MARGIN``:
    at the corner itself the tie becomes a degenerate double root, and
    the corner's coordinates are known exactly from ``find_theta0``.
    """
    if not float(steps).is_integer() or int(steps) < 2:
        raise InputValidationError(
            f"steps must be an integer >= 2, got {steps!r}",
            module=_MODULE,
            operation="trace_curve",
            offending_parameter="steps",
        )
    steps = int(steps)
    data = critical.find_theta0(p)
    if beta1_hi > data.beta1_c:
        raise InputValidationError(
            f"beta1_hi = {beta1_hi:g} exceeds the critical value "
            f"{data.beta1_c:.6g}",
            module=_MODULE,
            operation="trace_curve",
            offending_parameter="beta1_hi",
        )
    hi_eff = min(float(beta1_hi), data.beta1_c - CORNER_MARGIN)
    if not beta1_lo < hi_eff:
        raise InputValidationError(
            f"empty tracing range: [{beta1_lo:g}, {hi_eff:g}]",
            module=_MODULE,
            operation="trace_curve",
            offending_parameter="beta1_lo",
        )
    step = (hi_eff - beta1_lo) / (steps - 1)
    grid = [beta1_lo + i * step for i in range(steps - 1)] + [hi_eff]
    return [r_of_beta1(p, b) for b in grid]


def jump_profile(p: int, beta1: float) -> tuple[float, float]:
    """Jumps of the envelope gradient across the curve at ``beta1``.

    Returns ``(u2* - u1*, u2***p - u1***p)`` — the discontinuities of the
    two partial derivatives of psi when the transition curve is crossed.
    """
    point = r_of_beta1(p, beta1)
    return (
        point.u2_star - point.u1_star,
        point.u2_star**p - point.u1_star**p,
    )
