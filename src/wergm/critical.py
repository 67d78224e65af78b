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
minimizing ``g``); its coordinates are

    beta2_c = m(u0) = 1 / n(theta0),   beta1_c = -f(u0) = -g(theta0)

with u0 = B(theta0).  The tilt-side profiles ``n`` and ``g`` are specific
to the uniform(0, 1) law, whose closed forms they were derived from, and
take no distribution argument; the mean-side profiles ``m`` and ``f``
evaluate for any law (uniform by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import cramer
from .errors import GradientUndefinedError, NonUnimodalError, check_integer

_MODULE = "critical"

#: Scan interval and resolution used to bracket the n-profile maximum.
SCAN_UPPER = 60.0
SCAN_POINTS = 512

#: Absolute theta tolerance of the golden-section refinement.
REFINE_TOL = 1e-10

#: Maximum allowed disagreement between the n-max and g-min locations.
CROSS_CHECK_TOL = 1e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def n_of_theta(p: int, theta: float) -> float:
    """Tilt-side curvature profile ``2 p (p-1) A(theta) B(theta)**(p-2)``.

    Uniform(0, 1) law only.
    """
    p = check_integer(p, 2, name="p", module=_MODULE, operation="n_of_theta")
    a = cramer.log_mgf_d2(cramer.UNIFORM01, theta)
    b = cramer.log_mgf_d1(cramer.UNIFORM01, theta)
    return 2.0 * p * (p - 1) * a * b ** (p - 2)


def m_of_u(
    p: int, u: float, dist: cramer.EdgeDistribution = cramer.UNIFORM01
) -> float:
    """Mean-side curvature profile, reciprocal to ``n_of_theta`` under duality."""
    p = check_integer(p, 2, name="p", module=_MODULE, operation="m_of_u")
    denom = 2.0 * p * (p - 1) * u ** (p - 2)
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
    return u * cramer.rate_d2(dist, u) / (2.0 * (p - 1)) - 0.5 * cramer.rate_d1(
        dist, u
    )


def g_of_theta(p: int, theta: float) -> float:
    """Tilt-side location profile, equal to ``f_of_u`` along u = B(theta).

    Uniform(0, 1) law only.
    """
    p = check_integer(p, 2, name="p", module=_MODULE, operation="g_of_theta")
    a = cramer.log_mgf_d2(cramer.UNIFORM01, theta)
    b = cramer.log_mgf_d1(cramer.UNIFORM01, theta)
    return b / (2.0 * (p - 1) * a) - 0.5 * theta


def _golden_section_max(fn, lo: float, hi: float, tol: float) -> float:
    """Location of the maximum of a unimodal ``fn`` on [lo, hi].

    Comparison-based search cannot localize a flat peak better than about
    sqrt(eps) in relative terms, so when the bracket starts at lo = 0 and
    the boundary value ties the refined interior value to within float
    noise, the boundary wins: profiles that are even in the tilt peak at
    exactly zero, and the tie is that symmetry seen through float64.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    best = 0.5 * (a + b)
    if lo == 0.0:
        f_best = fn(best)
        if fn(0.0) >= f_best - 1e-13 * max(1.0, abs(f_best)):
            return 0.0
    return best


def _scan_peak(values: list[float], operation: str, label: str) -> int:
    """Index of the peak of a scan that must be unimodal (up, then down)."""
    k = max(range(len(values)), key=values.__getitem__)
    noise = 1e-12
    for i in range(1, len(values)):
        tol = noise * max(1.0, abs(values[i - 1]))
        rising = values[i] >= values[i - 1] - tol
        falling = values[i] <= values[i - 1] + tol
        if i <= k and not rising:
            break
        if i > k and not falling:
            break
    else:
        return k
    raise NonUnimodalError(
        f"{label} scan is not unimodal near index {i}; "
        "cannot bracket a unique critical tilt",
        module=_MODULE,
        operation=operation,
        offending_parameter="p",
    )


def _refine_peak(fn, label: str) -> float:
    """Scan-validate unimodality of ``fn`` on [0, SCAN_UPPER], then refine."""
    step = SCAN_UPPER / (SCAN_POINTS - 1)
    thetas = [i * step for i in range(SCAN_POINTS)]
    values = [fn(t) for t in thetas]
    k = _scan_peak(values, "find_theta0", label)
    lo = thetas[k - 1] if k > 0 else thetas[0]
    hi = thetas[k + 1] if k + 1 < SCAN_POINTS else thetas[-1]
    return _golden_section_max(fn, lo, hi, REFINE_TOL)


@dataclass(frozen=True)
class CriticalData:
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


@lru_cache(maxsize=64)
def find_theta0(p: int) -> CriticalData:
    """Critical tilt and corner coordinates for the uniform(0, 1) law.

    theta0 maximizes ``n_of_theta`` over [0, SCAN_UPPER]: a 512-point scan
    establishes unimodality and a bracket, golden-section search refines
    the peak, and the minimum of ``g_of_theta`` (located the same way)
    must agree within CROSS_CHECK_TOL — the two characterize the same
    critical tilt through dual formulas, so disagreement signals a
    numerically untrustworthy profile.
    """
    p = check_integer(p, 2, name="p", module=_MODULE, operation="find_theta0")
    theta_n = _refine_peak(lambda t: n_of_theta(p, t), "n profile")
    theta_g = _refine_peak(lambda t: -g_of_theta(p, t), "g profile")
    if abs(theta_n - theta_g) > CROSS_CHECK_TOL:
        raise NonUnimodalError(
            f"dual locations of the critical tilt disagree: "
            f"n-max at {theta_n:.3e}, g-min at {theta_g:.3e}",
            module=_MODULE,
            operation="find_theta0",
            offending_parameter="p",
        )
    theta0 = theta_n
    u0 = cramer.log_mgf_d1(cramer.UNIFORM01, theta0)
    f0 = f_of_u(p, u0)
    m0 = m_of_u(p, u0)
    return CriticalData(
        p=p,
        theta0=theta0,
        u0=u0,
        n_theta0=n_of_theta(p, theta0),
        m_u0=m0,
        g_theta0=g_of_theta(p, theta0),
        f_u0=f0,
        beta1_c=-f0,
        beta2_c=m0,
    )


def critical_table(p_list) -> list[CriticalData]:
    """One ``CriticalData`` row per p, in input order (CSV-export shape)."""
    return [find_theta0(p) for p in p_list]
