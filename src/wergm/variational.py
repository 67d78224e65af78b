"""Scalar variational problem for the limiting free energy density.

For edge parameter ``beta1``, homomorphism parameter ``beta2 >= 0``, and
an integer shape exponent ``p >= 2``, the limiting normalized log
partition function of the model is the value of the scalar maximization

    psi = sup_u  beta1 * u + beta2 * u**p - rate(u) / 2

over the support hull of the edge-weight law.  ``solve_psi`` locates every
global maximizer, which is where all phase structure lives: a unique
maximizer means a single phase, two tied maximizers mean coexistence, and
the envelope gradient of psi in (beta1, beta2) is ``(u*, u***p)`` wherever
the maximizer is unique.

The problem is solved on the tilt side.  Every mean in the open support
interior is ``u = B(theta)`` with ``B = log_mgf_d1``, where ``rate(u) =
theta*u - log M(theta)``, so the objective at ``u = B(theta)`` is

    L(theta) = beta1*B + beta2*B**p - (theta*B - log M(theta)) / 2

with derivative ``A(theta) * D(theta)``, ``A = log_mgf_d2 > 0`` and

    D(theta) = beta1 + p*beta2*B**(p-1) - theta/2.

The interior local maxima are the ``+ -> -`` crossings of ``D``, found in
closed forms of ``B`` and ``log M`` and refined by ``cramer.newton`` in
theta with the slope ``D' = p*(p-1)*beta2*B**(p-2)*A - 1/2``; no dual
solve is needed.  ``stationarity`` is the one home of ``D`` and ``D'``:
``phase_curve`` finds the two maxima of the transition curve with it too.

Negative ``beta2`` (the repulsive region) changes the variational form
and is rejected with ``AttractiveRegionError``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import cramer
from .errors import (
    AttractiveRegionError,
    GradientUndefinedError,
    InputValidationError,
    check_integer,
)

_MODULE = "variational"

#: Number of points in the stationary-point scan grid.
GRID_POINTS = 2048

#: Half-width of the first tilt bracket of every search, which grows past it
#: only where a root lies outside.
THETA_WINDOW = 680.0

#: Two candidate values within 1e-9 * max(1, |psi|) count as tied.
TIE_RTOL = 1e-9

#: Tied maximizers closer than this fraction of the scanned u-span are
#: treated as one flat optimum, not genuine coexistence.
MERGE_SPAN_FRACTION = 1e-3


class PhaseClass(Enum):
    """How many distinct global maximizers the variational problem has."""

    UNIQUE = "unique"
    TWO_GLOBAL = "two-global"


class _ModelFields(NamedTuple):
    beta1: float
    beta2: float
    p: int
    dist: cramer.EdgeDistribution


class ModelParams(_ModelFields):
    """Parameters of the two-term model.

    ``beta1`` weighs the mean edge weight, ``beta2 >= 0`` weighs the
    ``p``-th moment term coming from a ``p``-edge subgraph, and ``dist``
    is the edge-weight law.  Construction validates the attractive-region
    hypothesis ``beta2 >= 0`` under which the variational formula holds.
    """

    __slots__ = ()

    def __new__(cls, beta1, beta2, p, dist=cramer.UNIFORM01):
        if not isinstance(dist, cramer.EdgeDistribution):
            raise InputValidationError(
                f"dist must be an EdgeDistribution, got {type(dist).__name__}",
                module=_MODULE,
                operation="ModelParams",
                offending_parameter="dist",
            )
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InputValidationError(
                    f"{name} must be a finite real, got {value!r}",
                    module=_MODULE,
                    operation="ModelParams",
                    offending_parameter=name,
                )
        beta1, beta2 = float(beta1), float(beta2)
        if beta2 < 0.0:
            raise AttractiveRegionError(
                f"beta2 = {beta2:g} is repulsive; the variational formula "
                "requires beta2 >= 0",
                module=_MODULE,
                operation="ModelParams",
                offending_parameter="beta2",
            )
        p = check_integer(p, 2, name="p", module=_MODULE, operation="ModelParams")
        return super().__new__(cls, beta1, beta2, p, dist)


class Maximizer(NamedTuple):
    """One local maximizer: location, objective value, endpoint flag."""

    u: float
    value: float
    is_endpoint: bool = False


class MaximizerSet(NamedTuple):
    """Result of ``solve_psi``.

    ``psi`` is the optimum value, ``maximizers`` the distinct global
    maximizer locations in ascending order (length 1 or 2),
    ``classification`` the phase count, and ``includes_endpoint`` is True
    when some maximizer sits on a support endpoint — possible only for
    laws whose endpoints carry atoms.
    """

    psi: float
    maximizers: tuple[float, ...]
    classification: PhaseClass
    includes_endpoint: bool


def objective(params: ModelParams, u: float) -> float:
    """The variational integrand ``beta1*u + beta2*u**p - rate(u)/2``."""
    return objective_at(params, cramer.dual_theta(params.dist, u))


def objective_d1(params: ModelParams, u: float) -> float:
    """First u-derivative of the variational integrand."""
    return objective_d1_at(params, cramer.dual_theta(params.dist, u))


def objective_at(params: ModelParams, pair: cramer.DualPair) -> float:
    """``objective`` at ``pair.u``, given ``pair = dual_theta(dist, u)``."""
    u = pair.u
    return (
        params.beta1 * u
        + params.beta2 * u**params.p
        - 0.5 * cramer.rate_at(params.dist, pair)
    )


def objective_d1_at(params: ModelParams, pair: cramer.DualPair) -> float:
    """``objective_d1`` at ``pair.u``, given ``pair = dual_theta(dist, u)``."""
    return (
        params.beta1 + params.p * params.beta2 * pair.u ** (params.p - 1)
        - 0.5 * pair.theta
    )


def objective_d2(params: ModelParams, u: float) -> float:
    """Second u-derivative of the variational integrand."""
    p = params.p
    curvature = cramer.rate_d2(params.dist, u)
    return p * (p - 1) * params.beta2 * u ** (p - 2) - 0.5 * curvature


def at_tilt(params: ModelParams, theta: float) -> Maximizer:
    """Location ``u = B(theta)`` and objective value ``L(theta)`` there.

    ``theta`` is the dual tilt of ``u``, so no dual solve is needed.
    """
    u = cramer.log_mgf_d1(params.dist, theta)
    return Maximizer(u, objective_at(params, cramer.DualPair(theta, u)))


def stationarity(params: ModelParams):
    """The slope ``D`` of the objective in theta, and ``(D, D')``, as functions.

    ``D(theta) = beta1 + p*beta2*B**(p-1) - theta/2`` has the sign of
    ``L'(theta)``, and ``D' = p*(p-1)*beta2*B**(p-2)*A - 1/2``.  The second
    function evaluates ``B`` once for both.
    """
    beta1, beta2, p, dist = params

    def slope(theta: float) -> float:
        return beta1 + p * beta2 * cramer.log_mgf_d1(dist, theta) ** (p - 1) - 0.5 * theta

    def slope_d1(theta: float) -> tuple[float, float]:
        b, a = cramer.log_mgf_d1(dist, theta), cramer.log_mgf_d2(dist, theta)
        d_d1 = p * (p - 1) * beta2 * b ** (p - 2) * a - 0.5
        return beta1 + p * beta2 * b ** (p - 1) - 0.5 * theta, d_d1

    return slope, slope_d1


def _theta_window(params: ModelParams) -> float:
    """Half-width of the tilt interval that holds every interior maximum.

    With ``s`` the largest support magnitude, ``|p*beta2*B**(p-1)|`` is at
    most ``p*beta2*s**(p-1)``, so ``D`` is positive below ``-T`` and
    negative above ``T = 2 * (|beta1| + p*beta2*s**(p-1))``.  Twice that
    plus slack, at most THETA_WINDOW.
    """
    lo, hi = cramer.support_interval(params.dist)
    s = max(abs(lo), abs(hi))
    return min(
        4.0 * (abs(params.beta1) + params.p * params.beta2 * s ** (params.p - 1))
        + 50.0,
        THETA_WINDOW,
    )


def local_maxima(params: ModelParams) -> tuple[Maximizer, ...]:
    """All interior local maximizers of the objective, in ascending u.

    ``D`` is scanned on a uniform theta-grid of GRID_POINTS points over
    ``[-T, T]`` from ``_theta_window``, and ``cramer.newton`` refines each
    ``+ -> -`` crossing to adjacent floats.  ``D`` is positive at the left
    edge and negative at the right unless the window was clipped to
    THETA_WINDOW; for a law whose endpoints carry no atom (infinite endpoint
    rate) the window then doubles until the edge signs are right, so no
    maximum lies beyond it.  A crossing whose mean rounds onto a support endpoint is
    dropped; the endpoint candidate of ``solve_psi`` stands for it.  No
    global filtering is applied; ``solve_psi`` layers tie detection on top.
    """
    slope, slope_d1 = stationarity(params)
    window = _theta_window(params)
    e_lo, e_hi = cramer.endpoint_rate(params.dist)
    d_prev = slope(-window)
    while (d_prev <= 0.0 and math.isinf(e_lo)) or (
        slope(window) >= 0.0 and math.isinf(e_hi)
    ):
        window *= 2.0
        d_prev = slope(-window)
    step = 2.0 * window / (GRID_POINTS - 1)
    grid = [-window + i * step for i in range(1, GRID_POINTS - 1)] + [window]
    roots: list[float] = []
    theta_prev = -window
    for theta_here in grid:
        d_here = slope(theta_here)
        # A maximum is a + -> - crossing of D.
        if d_prev > 0.0 and d_here <= 0.0:
            roots.append(cramer.newton(slope_d1, theta_prev, theta_here, d_prev))
        elif d_prev == 0.0 and d_here < 0.0:
            # Grid point landed exactly on a stationary maximum.
            roots.append(theta_prev)
        theta_prev, d_prev = theta_here, d_here
    s_lo, s_hi = cramer.support_interval(params.dist)
    found = (at_tilt(params, theta) for theta in roots)
    return tuple(m for m in found if s_lo < m.u < s_hi)


def solve_psi(params: ModelParams) -> MaximizerSet:
    """Maximize the variational integrand and report all global maximizers.

    Interior candidates come from ``local_maxima``; support endpoints are
    added as candidates when they carry finite rate (laws with endpoint
    atoms), since the objective stays finite there.  Every candidate tied
    with the best within ``TIE_RTOL`` is kept, then tied maximizers
    separated by less than ``MERGE_SPAN_FRACTION`` of the scanned u-span
    ``B(T) - B(-T)`` are merged into their best representative: a
    numerically flat optimum is one phase, not two.
    """
    candidates = list(local_maxima(params))

    e_lo, e_hi = cramer.endpoint_rate(params.dist)
    s_lo, s_hi = cramer.support_interval(params.dist)
    if math.isfinite(e_lo):
        candidates.append(
            Maximizer(
                s_lo,
                params.beta1 * s_lo + params.beta2 * s_lo**params.p - 0.5 * e_lo,
                is_endpoint=True,
            )
        )
    if math.isfinite(e_hi):
        candidates.append(
            Maximizer(
                s_hi,
                params.beta1 * s_hi + params.beta2 * s_hi**params.p - 0.5 * e_hi,
                is_endpoint=True,
            )
        )

    psi = max(c.value for c in candidates)
    tie_tol = TIE_RTOL * max(1.0, abs(psi))
    tied = sorted(
        (c for c in candidates if c.value >= psi - tie_tol), key=lambda c: c.u
    )

    window = _theta_window(params)
    merge_gap = MERGE_SPAN_FRACTION * (
        cramer.log_mgf_d1(params.dist, window) - cramer.log_mgf_d1(params.dist, -window)
    )
    merged: list[Maximizer] = []
    for c in tied:
        if merged and c.u - merged[-1].u < merge_gap:
            if c.value > merged[-1].value:
                merged[-1] = c
        else:
            merged.append(c)

    classification = PhaseClass.UNIQUE if len(merged) == 1 else PhaseClass.TWO_GLOBAL
    return MaximizerSet(
        psi=psi,
        maximizers=tuple(c.u for c in merged),
        classification=classification,
        includes_endpoint=any(c.is_endpoint for c in merged),
    )


def psi_gradient(params: ModelParams) -> tuple[float, float]:
    """Envelope gradient of psi in (beta1, beta2): ``(u*, u***p)``.

    Defined only off the coexistence set; with two global maximizers the
    one-sided derivatives disagree and ``GradientUndefinedError`` is
    raised instead of picking a side.
    """
    solution = solve_psi(params)
    if solution.classification is PhaseClass.TWO_GLOBAL:
        raise GradientUndefinedError(
            "psi has a jump in its gradient here: two global maximizers "
            f"at u = {solution.maximizers[0]:.6g} and {solution.maximizers[1]:.6g}",
            module=_MODULE,
            operation="psi_gradient",
            offending_parameter="params",
        )
    u_star = solution.maximizers[0]
    return u_star, u_star**params.p
