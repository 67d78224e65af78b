"""The two-maximizer region and the first-order transition curve.

For the uniform(0, 1) law everything here is solved on the tilt side, in
closed forms of ``B = log_mgf_d1`` and ``log M``.  Every root is found by
``cramer.newton``: safeguarded Newton steps with closed-form derivatives,
inside a bracket that falls back to bisection.  The objective
``beta1*u + beta2*u**p - rate(u)/2`` at ``u = B(theta)`` is

    L(theta) = beta1*B + beta2*B**p - (theta*B - log M(theta)) / 2,

with derivative ``A(theta) * D(theta)``, ``D`` being ``variational``'s

    D(theta) = beta1 + p*beta2*B**(p-1) - theta/2 = p*B**(p-1) * (beta2 - h),
    h(theta) = (theta/2 - beta1) / (p * B(theta)**(p-1)),

the ``beta2`` at which ``B(theta)`` is stationary.  Local maxima are the
falls of ``D`` through zero, where ``h`` crosses ``beta2`` upwards.  ``h``
rises where ``g(theta) > -beta1`` (``critical.g_of_theta``) and falls
between the two roots ``theta_a < theta0 < theta_b`` of ``g = -beta1``,
which exist for ``beta1`` below the critical value.  At those turning
points ``h = 1/n = m(B)``, so with ``a = B(theta_a)`` and ``b =
B(theta_b)`` (the tangency roots of ``f(u) = -beta1``, since ``f`` composed
with B is ``g``) there are two local maxima exactly when ``m(b) < beta2 <
m(a)``: the V-shaped region bounded by the parametric curve ``u -> (-f(u),
m(u))``.  The lower maximum is the fall of ``D`` below ``theta_a``, the
upper one above ``theta_b``.  The turning tilts step with ``g'`` from
``critical.g_d1`` in brackets that ``cramer.widen`` grows from
``+-THETA_WINDOW``; each maximum steps with ``D'`` from
``variational.stationarity`` between its turning tilt and an end of
``variational._root_interval``, outside which ``D`` has no root.

Inside the region the value gap between the upper and lower maximum
increases in ``beta2`` (its derivative is ``u2**p - u1**p``) and changes
sign once; the zero is the first-order transition curve
``beta2 = r(beta1)``, where both maximizers are global and of equal height.
``r_of_beta1`` finds it by Newton steps in ``beta2`` with that slope.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import cramer, critical, variational
from .errors import (
    InputValidationError,
    NoTwoPhaseRegionError,
    ThetaCapError,
    check_integer,
    check_real,
)
from .variational import THETA_WINDOW

_MODULE = "phase_curve"

#: Tracing stops this far below the critical beta1: at the corner the two
#: maximizers merge and the tie becomes a degenerate double root.
CORNER_MARGIN = 1e-3


class BoundingPoint(NamedTuple):
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


class PhaseCurvePoint(NamedTuple):
    """One point of the transition curve: tie location and maximizers."""

    beta1: float
    r: float
    u1_star: float
    u2_star: float
    psi: float


def _mean(theta: float) -> float:
    return cramer.UNIFORM01.mean(theta)


def _h(p: int, beta1: float, theta: float) -> float:
    """The ``beta2`` at which ``u = B(theta)`` is a stationary point."""
    rise = 0.5 * theta - beta1
    denom = p * _mean(theta) ** (p - 1)
    if denom == 0.0:
        # B**(p-1) underflows far left for large p; h tends to +-inf there.
        return math.copysign(math.inf, rise)
    return rise / denom


def _turns(p: int, beta1: float, operation: str) -> tuple[float, float, float, float, float]:
    """Checked ``beta1``, turning tilts ``theta_a, theta_b`` and ``h`` there, ``m_a, m_b``.

    The turning tilts are the roots ``theta_a < theta0 < theta_b`` of ``g =
    -beta1``, for ``beta1`` below the critical value.  Errors name
    ``operation``; where a bracket cannot reach a root, ``ThetaCapError``:
    from |beta1| of about 1e81 on, ``A**2`` underflows in ``g'`` first.
    """
    beta1 = check_real(beta1, name="beta1", module=_MODULE, operation=operation)
    data = critical.find_theta0(p)
    if beta1 >= data.beta1_c:
        raise NoTwoPhaseRegionError(
            f"beta1 = {beta1:g} is not below the critical value "
            f"{data.beta1_c:.6g}; no two-maximizer region exists there",
            module=_MODULE,
            operation=operation,
            offending_parameter="beta1",
        )
    theta0 = data.theta0

    def resid_d1(theta: float) -> tuple[float, float]:
        g, slope = critical.g_d1(p, theta)
        return g + beta1, slope

    def resid(theta: float) -> float:
        return resid_d1(theta)[0]

    # resid(theta0) = beta1 - beta1_c < 0: each side brackets one root.
    r0 = resid(theta0)
    try:
        left, r_left = cramer.widen(resid, theta0, r0, -THETA_WINDOW)
        right, _ = cramer.widen(resid, theta0, r0, THETA_WINDOW)
    except ZeroDivisionError:
        raise ThetaCapError(
            f"the turning tilts for p = {p} at beta1 = {beta1:g} cannot be "
            "bracketed in floating point",
            module=_MODULE,
            operation=operation,
            offending_parameter="beta1",
        ) from None
    theta_a = cramer.newton(resid_d1, left, theta0, r_left)
    theta_b = cramer.newton(resid_d1, theta0, right, r0)
    return beta1, theta_a, theta_b, _h(p, beta1, theta_a), _h(p, beta1, theta_b)


def _maxima(
    params: variational.ModelParams,
    turns: tuple[float, float, float, float, float],
    operation: str,
    start: tuple[float | None, float | None] = (None, None),
) -> tuple[float, float]:
    """Tilts of the lower and upper local maximum, for ``m_b < beta2 < m_a``.

    ``turns`` is ``_turns``.  Each maximum is where ``variational``'s ``D``
    falls through zero, below ``theta_a`` and above ``theta_b``.  ``D =
    p*B**(p-1) * (beta2 - h)`` has the sign of ``beta2 - m_a < 0`` at
    ``theta_a`` and of ``beta2 - m_b > 0`` at ``theta_b``; by the bound of
    ``variational._root_interval`` it is positive at that interval's lower
    end and negative at its upper end, which close the two brackets
    unevaluated.  The Newton iterations start at ``start`` when given.
    Where that bound leaves the float range, raises ``ThetaCapError``
    naming ``operation`` and ``beta2``.
    """
    _, theta_a, theta_b, _, m_b = turns
    slope_d1 = variational.stationarity(params)[1]
    try:
        lo, hi = variational._root_interval(params)
    except ThetaCapError as err:
        raise ThetaCapError(
            str(err), module=_MODULE, operation=operation, offending_parameter="beta2"
        ) from None
    return (
        cramer.newton(slope_d1, lo, theta_a, math.inf, start[0]),
        cramer.newton(slope_d1, theta_b, hi, params.beta2 - m_b, start[1]),
    )


def _gap(
    params: variational.ModelParams,
    turns: tuple[float, float, float, float, float],
    operation: str,
    start: tuple[float | None, float | None] = (None, None),
) -> tuple[float, float, tuple[float | None, float | None]]:
    """``L(upper max) - L(lower max)``, its ``beta2``-derivative and the tilts.

    The derivative is ``u2**p - u1**p`` (envelope theorem).  Where one
    maximum is absent the gap is +-inf, the derivative nan and the tilts
    are ``start``.
    """
    m_a, m_b = turns[3:]
    if params.beta2 >= m_a:
        return math.inf, math.nan, start
    if params.beta2 <= m_b:
        return -math.inf, math.nan, start
    tilts = _maxima(params, turns, operation, start)
    low, high = (variational.at_tilt(params, theta) for theta in tilts)
    return high.value - low.value, high.u**params.p - low.u**params.p, tilts


def bounding_point(p: int, beta1: float) -> BoundingPoint:
    """Tangency roots of ``f(u) = -beta1`` and the bounding ``beta2`` pair.

    The roots are ``B`` of the turning tilts, the two roots of
    ``g = f o B = -beta1`` on either side of ``theta0``, and the bounds are
    ``h = 1/n`` at those tilts, so no dual solve is needed.  Where
    ``a**(p-1)`` underflows, ``m_a`` exceeds the float range and is
    returned as inf.
    """
    return _bound(_turns(p, beta1, "bounding_point"))


def _bound(turns: tuple[float, float, float, float, float]) -> BoundingPoint:
    beta1, theta_a, theta_b, m_a, m_b = turns
    return BoundingPoint(beta1, _mean(theta_a), _mean(theta_b), m_a, m_b)


def _bound_and_tie(p: int, beta1: float) -> tuple[BoundingPoint, PhaseCurvePoint]:
    """``bounding_point`` and ``r_of_beta1`` from one ``_turns``, failing as they do."""
    turns = _turns(p, beta1, "bounding_point")
    return _bound(turns), _tie(p, turns)


def maxima_gap(p: int, beta1: float, beta2: float) -> float:
    """Value gap l(upper max) - l(lower max) for the uniform law.

    Returns -inf for ``beta2 <= m_b``, where the upper local maximum does
    not exist, and +inf for ``beta2 >= m_a``, where the lower one does not
    — the sign is what the curve search needs, and there is no finite
    gap to report in either case.
    """
    turns = _turns(p, beta1, "maxima_gap")
    params = variational.ModelParams(turns[0], beta2, p)
    return _gap(params, turns, "maxima_gap")[0]


def r_of_beta1(
    p: int, beta1: float, dist: cramer.EdgeDistribution = cramer.UNIFORM01
) -> PhaseCurvePoint:
    """Transition ``beta2`` at the given ``beta1``, with both maximizers.

    The root of the maxima gap over ``(m_b, m_a)``, where it rises from -inf
    to +inf, found by ``cramer.newton`` in ``beta2`` with the envelope slope
    ``u2**p - u1**p`` down to adjacent floats.  The upper end is first
    lowered to ``min(m_a, h(edge))``, with ``edge`` grown by
    ``cramer.widen`` from ``THETA_WINDOW`` until the gap is positive there.
    Each gap evaluation starts the Newton searches for the two maxima at
    the previous one's tilts.
    """
    if dist != cramer.UNIFORM01:
        raise InputValidationError(
            "the transition-curve analysis is specific to the uniform(0,1) law",
            module=_MODULE,
            operation="r_of_beta1",
            offending_parameter="dist",
        )
    return _tie(p, _turns(p, beta1, "r_of_beta1"))


def _tie(p: int, turns: tuple[float, float, float, float, float]) -> PhaseCurvePoint:
    """``r_of_beta1``, given its ``_turns``."""
    beta1, _, theta_b, m_a, m_b = turns
    tilts = (None, None)

    def gap(beta2: float) -> tuple[float, float]:
        nonlocal tilts
        params = variational.ModelParams(beta1, beta2, p)
        value, slope, tilts = _gap(params, turns, "r_of_beta1", tilts)
        return value, slope

    def upper(edge: float) -> float:
        return min(m_a, _h(p, beta1, edge))

    # The gap is -inf at m_b = h(theta_b).
    edge, _ = cramer.widen(lambda t: gap(upper(t))[0], theta_b, -math.inf, THETA_WINDOW)
    r = cramer.newton(gap, m_b, upper(edge), -math.inf)
    params = variational.ModelParams(beta1, r, p)
    theta1, theta2 = _maxima(params, turns, "r_of_beta1", tilts)
    low, high = variational.at_tilt(params, theta1), variational.at_tilt(params, theta2)
    return PhaseCurvePoint(
        beta1=beta1, r=r, u1_star=low.u, u2_star=high.u, psi=max(low.value, high.value)
    )


def trace_curve(
    p: int, beta1_lo: float, beta1_hi: float, steps: int
) -> list[PhaseCurvePoint]:
    """Transition-curve points on a uniform ``beta1`` grid.

    The effective upper end is clamped to ``beta1_c - CORNER_MARGIN``:
    at the corner itself the tie becomes a degenerate double root, and
    the corner's coordinates are known exactly from ``find_theta0``.
    """
    steps = check_integer(
        steps, 2, name="steps", module=_MODULE, operation="trace_curve"
    )
    beta1_lo = check_real(beta1_lo, name="beta1_lo", module=_MODULE, operation="trace_curve")
    beta1_hi = check_real(beta1_hi, name="beta1_hi", module=_MODULE, operation="trace_curve")
    data = critical.find_theta0(p)
    if beta1_hi > data.beta1_c:
        raise InputValidationError(
            f"beta1_hi = {beta1_hi:g} exceeds the critical value "
            f"{data.beta1_c:.6g}",
            module=_MODULE,
            operation="trace_curve",
            offending_parameter="beta1_hi",
        )
    hi_eff = min(beta1_hi, data.beta1_c - CORNER_MARGIN)
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
