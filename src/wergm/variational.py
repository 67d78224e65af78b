"""Scalar variational problem for the limiting free energy density.

For edge parameter ``beta1``, homomorphism parameter ``beta2 >= 0``, and
an integer shape exponent ``p >= 2``, the limiting normalized log
partition function of the model is the value of the scalar maximization

    psi = sup_u  beta1 * u + beta2 * u**p - rate(u) / 2

over the support hull of the edge-weight law.  ``solve_psi`` locates every
global maximizer, which is where all phase structure lives: a unique
maximizer means a single phase, and two maxima whose values tie mean
coexistence, however close they lie, so the objective's values alone
decide it.  The envelope gradient of psi in (beta1, beta2) is ``(u*,
u***p)`` wherever the maximizer is unique.

The problem is solved on the tilt side.  Every mean in the open support
interior is ``u = B(theta)`` with ``B = log_mgf_d1``, where ``rate(u) =
theta*u - log M(theta)``, so the objective at ``u = B(theta)`` is

    L(theta) = beta1*B + beta2*B**p - (theta*B - log M(theta)) / 2

with derivative ``A(theta) * D(theta)``, ``A = log_mgf_d2 > 0`` and

    D(theta) = beta1 + p*beta2*B**(p-1) - theta/2.

``D`` falls from +inf to -inf along the tilt line, so the objective climbs
from each support end to the nearest ``+ -> -`` crossing of ``D``: every
maximum is such a crossing, and an endpoint atom is never a rival.  The
crossings are found in closed forms of ``B`` and ``log M`` on a grid over
the tilt interval where the bound ``|B| <= max|support|`` puts every root
of ``D`` (finest inside ``|theta| <= THETA_WINDOW``), and refined by
``cramer.newton`` in theta with the slope ``D' =
p*(p-1)*beta2*B**(p-2)*A - 1/2``; no dual solve is needed.  The grid is
bisected, not walked: ``B`` is nondecreasing, so ``D`` on a block of grid
points is enclosed by its parts at the block's ends, and a block whose
enclosure clears 0 by a rounding margin holds no crossing; that one test
decides where ``D`` is evaluated.  A solve
evaluates the law a few dozen times, at the same grid points and with the
same Newton calls as a pass over the whole grid.  ``stationarity`` is the
one home of ``D`` and ``D'``: ``phase_curve`` finds the two maxima of the
transition curve with it too.

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
    ThetaCapError,
    check_integer,
    check_real,
    power_guard,
)

_MODULE = "variational"

#: Number of points in the stationary-point scan grid.
GRID_POINTS = 2048

#: Half-width of the tilt window: the maxima scan cuts its grid at its
#: edges, finest inside, and the transition curve's turning-tilt and tie
#: brackets start on them, going past only where a root lies outside.
THETA_WINDOW = 680.0

#: Two candidate values within 1e-9 * max(1, |psi|) count as tied.
TIE_RTOL = 1e-9

# A crossing whose mean lies within this many ulps of an endpoint atom, as
# one far in a tail rounds onto it, is reported as that atom.
_ENDPOINT_ULPS = 4


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
        beta1 = check_real(beta1, name="beta1", module=_MODULE, operation="ModelParams")
        beta2 = check_real(beta2, name="beta2", module=_MODULE, operation="ModelParams")
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
    """One local maximizer: location and objective value."""

    u: float
    value: float


class MaximizerSet(NamedTuple):
    """Result of ``solve_psi``.

    ``psi`` is the optimum value, ``maximizers`` the global maximizer
    locations in ascending order: every local maximum whose value ties
    ``psi`` within ``TIE_RTOL``, so values alone set their number.
    ``classification`` is the phase count, and ``includes_endpoint`` is True
    when some maximizer is an endpoint atom: exact maximizers are always
    interior, so only where a maximizer's mean rounds onto the atom.
    """

    psi: float
    maximizers: tuple[float, ...]
    classification: PhaseClass
    includes_endpoint: bool


def objective(params: ModelParams, u: float) -> float:
    """The variational integrand ``beta1*u + beta2*u**p - rate(u)/2``."""
    pair = cramer.dual_theta(params.dist, u)
    return power_guard(lambda: objective_at(params, pair), u, module=_MODULE,
                       operation="objective")


def objective_d1(params: ModelParams, u: float) -> float:
    """First u-derivative of the variational integrand."""
    pair = cramer.dual_theta(params.dist, u)
    return power_guard(lambda: objective_d1_at(params, pair), u, module=_MODULE,
                       operation="objective_d1")


def _value(params: ModelParams, u: float, rate: float) -> float:
    """``beta1*u + beta2*u**p - rate/2``, with no power of ``u`` at ``beta2 = 0``."""
    beta1, beta2, p, _ = params
    return beta1 * u + (beta2 * u**p if beta2 else 0.0) - 0.5 * rate


def objective_at(params: ModelParams, pair: cramer.DualPair) -> float:
    """``objective`` at ``pair.u``, given ``pair = dual_theta(dist, u)``."""
    return _value(params, pair.u, cramer.rate_at(params.dist, pair))


def objective_d1_at(params: ModelParams, pair: cramer.DualPair) -> float:
    """``objective_d1`` at ``pair.u``, given ``pair = dual_theta(dist, u)``."""
    beta1, beta2, p, _ = params
    return beta1 + (p * beta2 * pair.u ** (p - 1) if beta2 else 0.0) - 0.5 * pair.theta


def objective_d2(params: ModelParams, u: float) -> float:
    """Second u-derivative of the variational integrand."""
    _, beta2, p, dist = params
    curvature = cramer.rate_d2(dist, u)
    return power_guard(lambda: (
        (p * (p - 1) * beta2 * u ** (p - 2) if beta2 else 0.0) - 0.5 * curvature
    ), u, module=_MODULE, operation="objective_d2")


def at_tilt(params: ModelParams, theta: float) -> Maximizer:
    """Location ``u = B(theta)`` and objective value ``L(theta)`` there.

    ``theta`` is the dual tilt of ``u``, so no dual solve is needed.  It is
    not checked: this is for tilts the library computed itself.
    """
    u = params.dist.mean(theta)
    return Maximizer(u, objective_at(params, cramer.DualPair(theta, u)))


def stationarity(params: ModelParams):
    """The slope ``D`` of the objective in theta, as ``(D, B)`` and ``(D, D')``.

    ``D(theta) = beta1 + p*beta2*B**(p-1) - theta/2`` has the sign of
    ``L'(theta)``, and ``D' = p*(p-1)*beta2*B**(p-2)*A - 1/2``.  Each
    function evaluates ``B`` once.  At ``beta2 = 0`` the powers of ``B``
    are not evaluated, as they may overflow where their factor is 0.
    """
    beta1, beta2, p, dist = params

    def slope(theta: float) -> tuple[float, float]:
        b = dist.mean(theta)
        return beta1 + (p * beta2 * b ** (p - 1) if beta2 else 0.0) - 0.5 * theta, b

    def slope_d1(theta: float) -> tuple[float, float]:
        if not beta2:
            return beta1 - 0.5 * theta, -0.5
        b, a = dist.mean(theta), dist.var(theta)
        d_d1 = p * (p - 1) * beta2 * b ** (p - 2) * a - 0.5
        return beta1 + p * beta2 * b ** (p - 1) - 0.5 * theta, d_d1

    return slope, slope_d1


def _root_interval(params: ModelParams) -> tuple[float, float]:
    """A tilt interval outside which ``D`` has no root, for every law.

    With ``s`` the largest support magnitude, ``|p*beta2*B**(p-1)|`` is at
    most ``c = p*beta2*s**(p-1)``, so ``D`` is positive below
    ``2*(beta1 - c)`` and negative above ``2*(beta1 + c)``.  Each end is
    padded by ``1 + 1e-9*(|beta1| + c)``, far more than the rounding of
    ``D``.  Raises ``ThetaCapError`` when ``c``, an end or the objective's
    term ``beta2*s**p`` overflows.
    """
    beta1, beta2, p, dist = params
    s = max(map(abs, cramer.support_interval(dist)))
    try:
        c = p * beta2 * s ** (p - 1) if beta2 else 0.0
        pad = 1.0 + 1e-9 * (abs(beta1) + c)
        lo, hi = 2.0 * (beta1 - c) - pad, 2.0 * (beta1 + c) + pad
        if math.isfinite(hi - lo + (beta2 * s**p if beta2 else 0.0)):
            return lo, hi
    except OverflowError:
        pass
    raise ThetaCapError(
        f"the objective or its stationary tilts at beta1 = {beta1:g}, "
        f"beta2 = {beta2:g}, p = {p} reach beyond the float range",
        module=_MODULE,
        operation="local_maxima",
        offending_parameter="params",
    )


def local_maxima(params: ModelParams) -> tuple[Maximizer, ...]:
    """All interior local maximizers of the objective, in ascending u.

    ``D`` is positive at the left end of the interval from
    ``_root_interval`` and negative at its right end.  The interval is cut
    at whichever of ``+-THETA_WINDOW`` lie inside it, and a grid of
    GRID_POINTS points covers each piece.  The grid is bisected by index,
    with ``D`` evaluated only at block ends, and one enclosure alone decides
    which blocks are refined: ``B`` is nondecreasing and ``beta2 >= 0``, so
    on a block from ``theta_a`` to ``theta_b`` ``D`` lies between ``beta1 +
    p*beta2*min(P) - theta_b/2`` and ``beta1 + p*beta2*max(P) -
    theta_a/2``, where ``P`` is ``B**(p-1)`` over ``[B(theta_a),
    B(theta_b)]`` (0 at the least when that straddles 0 and ``p - 1`` is
    even).  A block whose enclosure clears 0 by ``1e-9*p*(|lo| + |hi|)``,
    far more than the rounding of ``D``, holds no crossing and is dropped.
    So every adjacent pair of grid points where ``D`` may cross is seen, with
    the values a full scan would give, and ``cramer.newton`` refines each
    ``+ -> -`` crossing (``D > 0``, then ``D <= 0``) to adjacent floats.  That
    is the one maximum test: a grid point where ``D`` is exactly 0 closes the
    pair on its left, so its maximizer is reported once, and a maximum where
    ``D`` rises above 0 and falls back within a grid step is missed.  Every
    refined crossing is returned, also one whose mean rounds onto a support
    endpoint.  No global filtering is applied; ``solve_psi`` layers the
    endpoint rounding rule and tie detection on top.
    """
    beta1, beta2, p, _ = params
    slope, slope_d1 = stationarity(params)
    lo, hi = _root_interval(params)
    cuts = [lo, *(t for t in (-THETA_WINDOW, THETA_WINDOW) if lo < t < hi), hi]
    n = GRID_POINTS - 1
    last = n * (len(cuts) - 1)

    def point(i: int) -> tuple[float, float, float]:
        """Grid point ``i`` of the pieces, with ``D`` and ``B`` there."""
        k, j = divmod(i, n)
        theta = cuts[k] + j * ((cuts[k + 1] - cuts[k]) / n) if j else cuts[k]
        return (theta, *slope(theta))

    tol = 1e-9 * p * (abs(lo) + abs(hi))

    def clear(a, b) -> bool:
        """Whether ``D`` keeps one sign, clear of 0, from point ``a`` to ``b``."""
        (theta_a, _, b_a), (theta_b, _, b_b) = a, b
        low = high = beta1
        if beta2:
            low_p, high_p = sorted((b_a ** (p - 1), b_b ** (p - 1)))
            if p % 2 and b_a * b_b < 0.0:
                low_p = 0.0
            low += p * beta2 * low_p
            high += p * beta2 * high_p
        return low - 0.5 * theta_b > tol or high - 0.5 * theta_a < -tol

    roots: list[float] = []

    def scan(i: int, a, j: int, b) -> None:
        """Find the crossings between grid points ``i < j``, given as ``a``, ``b``."""
        if j - i > 1:
            if not clear(a, b):
                k = (i + j) // 2
                mid = point(k)
                scan(i, a, k, mid)
                scan(k, mid, j, b)
            return
        (theta_prev, d_prev, _), (theta_here, d_here, _) = a, b
        # A maximum is a + -> - crossing of D.
        if d_prev > 0.0 and d_here <= 0.0:
            # Start at 0 where the pair straddles it (newton ignores it
            # elsewhere): on the uniform's p = 2 tie line D(0) is exactly 0,
            # and a bracket shrinking onto 0 would pass through the subnormals.
            roots.append(cramer.newton(slope_d1, theta_prev, theta_here, d_prev, 0.0))

    scan(0, point(0), last, point(last))
    return tuple(at_tilt(params, theta) for theta in roots)


def solve_psi(params: ModelParams) -> MaximizerSet:
    """Maximize the variational integrand and report all global maximizers.

    The candidates are the crossings of ``local_maxima`` alone: the
    objective at an endpoint atom is below the nearest crossing's.  A
    crossing within ``_ENDPOINT_ULPS`` ulps of an endpoint atom ``s`` stands
    as ``s``, with the value ``beta1*s + beta2*s**p + log(q_s)/2``.  Value
    alone decides coexistence: every candidate tied with the best within
    ``TIE_RTOL`` is a global maximizer, however close to another it lies, so
    one such crossing is ``UNIQUE`` and more than one ``TWO_GLOBAL``.  The
    crossings come in ascending u, and the endpoint rule keeps that order.
    """
    dist = params.dist
    support = cramer.support_interval(dist)
    ends = {s: e for s, e in zip(support, cramer.endpoint_rate(dist)) if math.isfinite(e)}
    candidates = []
    for m in local_maxima(params):
        s = next((s for s in ends if abs(m.u - s) <= _ENDPOINT_ULPS * math.ulp(s)), None)
        candidates.append(m if s is None else Maximizer(s, _value(params, s, ends[s])))

    psi = max(c.value for c in candidates)
    tied = [c for c in candidates if c.value >= psi - TIE_RTOL * max(1.0, abs(psi))]
    return MaximizerSet(
        psi=psi,
        maximizers=tuple(c.u for c in tied),
        classification=PhaseClass.UNIQUE if len(tied) == 1 else PhaseClass.TWO_GLOBAL,
        includes_endpoint=any(c.u in ends for c in tied),
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
    return u_star, power_guard(lambda: u_star**params.p, u_star, module=_MODULE,
                               operation="psi_gradient")
