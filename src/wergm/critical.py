"""Critical-point location for the scalar variational problem.

The coexistence region of the model is governed by four scalar profiles
built from the tilted mean ``B = log_mgf_d1``, the tilted variance
``A = log_mgf_d2``, and the rate derivatives:

    n_of_theta(p, theta) = 2 p (p-1) A(theta) B(theta)**(p-2)
    m_of_u(p, u)         = rate_d2(u) / (2 p (p-1) u**(p-2))
    f_of_u(p, u)         = u * rate_d2(u) / (2 (p-1)) - rate_d1(u) / 2
    g_of_theta(p, theta) = B(theta) / (2 (p-1) A(theta)) - theta / 2

``m`` and ``n`` are reciprocal along the duality u = B(theta), and ``f``
composed with B equals ``g``.  The critical corner of the phase diagram
sits at the tilt ``theta0`` maximizing ``n`` over theta >= 0 (equivalently
minimizing ``g``).  With ``kappa3`` the third derivative of ``log M``,

    n'(theta) = 2 p (p-1) B**(p-3) * phi(theta)
    g'(theta) = -phi(theta) / (2 (p-1) A**2)
    phi       = kappa3 * B + (p-2) * A**2

so ``theta0`` is one root of ``g'``, where it rises through zero.  ``g``
and ``g'`` have one evaluator, ``g_d1``, which the transition curve's
turning tilts use too.  The corner is read off the tilt side, with no dual
solve, and equals ``(-f(u0), m(u0))`` with u0 = B(theta0):

    beta2_c = 1 / n(theta0),   beta1_c = -g(theta0).

The tilt-side profiles ``n`` and ``g`` are specific to the uniform(0, 1)
law, whose closed forms they were derived from, and take no distribution
argument; the mean-side profiles ``m`` and ``f`` evaluate for any law
(uniform by default).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import cramer
from .errors import (
    GradientUndefinedError,
    InputValidationError,
    ThetaCapError,
    check_integer,
    check_real,
    power_guard,
)

_MODULE = "critical"


def n_of_theta(p: int, theta: float) -> float:
    """Tilt-side curvature profile ``2 p (p-1) A(theta) B(theta)**(p-2)``.

    Uniform(0, 1) law only.
    """
    p = check_integer(p, 2, name="p", module=_MODULE, operation="n_of_theta")
    theta = check_real(theta, name="theta", module=_MODULE, operation="n_of_theta")
    a, b = cramer.UNIFORM01.var(theta), cramer.UNIFORM01.mean(theta)
    return 2.0 * p * (p - 1) * a * b ** (p - 2)


def m_of_u(
    p: int, u: float, dist: cramer.EdgeDistribution = cramer.UNIFORM01
) -> float:
    """Mean-side curvature profile, reciprocal to ``n_of_theta`` under duality."""
    p = check_integer(p, 2, name="p", module=_MODULE, operation="m_of_u")
    u = check_real(u, name="u", module=_MODULE, operation="m_of_u")
    denom = power_guard(lambda: 2.0 * p * (p - 1) * u ** (p - 2), u, module=_MODULE,
                        operation="m_of_u")
    if denom == 0.0:
        raise GradientUndefinedError(
            f"m is undefined at u = {u!r} for p = {p}",
            module=_MODULE,
            operation="m_of_u",
            offending_parameter="u",
        )
    return cramer.rate_d2(dist, u) / denom


def f_of_u(
    p: int, u: float, dist: cramer.EdgeDistribution = cramer.UNIFORM01
) -> float:
    """Mean-side location profile; ``-f(u0)`` is the critical edge parameter."""
    p = check_integer(p, 2, name="p", module=_MODULE, operation="f_of_u")
    pair = cramer.dual_theta(dist, u)
    return u * cramer.rate_d2_at(dist, pair) / (2.0 * (p - 1)) - 0.5 * pair.theta


def g_of_theta(p: int, theta: float) -> float:
    """Tilt-side location profile, equal to ``f_of_u`` along u = B(theta).

    Uniform(0, 1) law only.
    """
    p = check_integer(p, 2, name="p", module=_MODULE, operation="g_of_theta")
    theta = check_real(theta, name="theta", module=_MODULE, operation="g_of_theta")
    return g_d1(p, theta)[0]


def g_d1(p: int, theta: float) -> tuple[float, float]:
    """``g`` and ``g' = -(kappa3 * B + (p-2) * A**2) / (2 (p-1) A**2)``.

    Both come from one evaluation of B, A and kappa3.  Uniform(0, 1) law
    only.  Neither argument is checked: this is the evaluator for tilts the
    library computed itself; ``g_of_theta`` is the checked entry.
    """
    b, a = cramer.UNIFORM01.mean(theta), cramer.UNIFORM01.var(theta)
    phi = cramer.UNIFORM01.skew(theta) * b + (p - 2) * a * a
    return b / (2.0 * (p - 1) * a) - 0.5 * theta, -phi / (2.0 * (p - 1) * a * a)


class CriticalData(NamedTuple):
    """Critical corner of the phase diagram and its defining scalars."""

    p: int
    theta0: float
    u0: float
    n_theta0: float
    m_u0: float
    g_theta0: float
    f_u0: float
    beta1_c: float
    beta2_c: float


def find_theta0(p: int) -> CriticalData:
    """Critical tilt and corner coordinates for the uniform(0, 1) law.

    theta0 is the one root of ``g'`` at theta >= 0: where it rises from
    <= 0 to > 0, ``g`` bottoms out and ``n`` peaks.  ``g'(0) = -(p-2) /
    (2 (p-1))``, so at p = 2 the root is theta = 0.  Otherwise
    ``cramer.widen`` doubles the bracket's right end from 1 until ``g' >=
    0`` there, and ``cramer.newton`` refines the root by bisection (it is
    given no slope) to adjacent floats.  The root is near p/2 for large p;
    ``widen`` raises this function's ``ThetaCapError`` when ``g'`` is still
    < 0 at THETA_MAX (from p of about 1390 on).  The corner is ``(-g, 1/n)``
    at theta0, so ``m_u0 == beta2_c`` and ``f_u0 == -beta1_c``.  ``p`` is
    checked before the cache (``cache_info``, ``cache_clear``) sees it.
    """
    return _corner(check_integer(p, 2, name="p", module=_MODULE, operation="find_theta0"))


@lru_cache(maxsize=64)
def _corner(p: int) -> CriticalData:
    theta0, slope0 = 0.0, g_d1(p, 0.0)[1]
    if slope0 < 0.0:
        edge, _ = cramer.widen(
            lambda t: g_d1(p, t)[1], 0.0, slope0, 1.0, limit=cramer.THETA_MAX,
            error=lambda: ThetaCapError(
                f"the critical tilt for p = {p} lies beyond the searched tilts "
                f"[0, {cramer.THETA_MAX:g}]",
                module=_MODULE, operation="find_theta0", offending_parameter="p",
            ),
        )
        theta0 = cramer.newton(lambda t: (g_d1(p, t)[1], math.nan), 0.0, edge, slope0)
    n0 = n_of_theta(p, theta0)
    g0 = g_d1(p, theta0)[0]
    return CriticalData(
        p=p,
        theta0=theta0,
        u0=cramer.UNIFORM01.mean(theta0),
        n_theta0=n0,
        m_u0=1.0 / n0,
        g_theta0=g0,
        f_u0=g0,
        beta1_c=-g0,
        beta2_c=1.0 / n0,
    )


find_theta0.cache_info, find_theta0.cache_clear = _corner.cache_info, _corner.cache_clear


def critical_table(p_list) -> list[CriticalData]:
    """One ``CriticalData`` row per p, in input order (CSV-export shape).

    A ``str`` or ``bytes`` is refused, not read as a sequence of digits.
    """
    try:
        if isinstance(p_list, (str, bytes)):
            raise TypeError
        orders = iter(p_list)
    except TypeError:
        raise InputValidationError(
            f"p_list must be an iterable of orders p, got {p_list!r}",
            module=_MODULE,
            operation="critical_table",
            offending_parameter="p_list",
        ) from None
    return [find_theta0(p) for p in orders]
