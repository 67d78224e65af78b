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

Negative ``beta2`` (the repulsive region) changes the variational form
and is rejected with ``AttractiveRegionError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import cramer
from .errors import (
    AttractiveRegionError,
    GradientUndefinedError,
    InputValidationError,
)

_MODULE = "variational"

#: Number of points in the stationary-point scan grid.
GRID_POINTS = 2048

#: Absolute u-tolerance for bisection refinement of stationary points.
STATIONARY_TOL = 1e-12

#: Two candidate values within 1e-9 * max(1, |psi|) count as tied.
TIE_RTOL = 1e-9

#: Tied maximizers closer than this fraction of the scanned u-span are
#: treated as one flat optimum, not genuine coexistence.
MERGE_SPAN_FRACTION = 1e-3

#: Margin kept inside the global tilt cap when sizing the scan window.
_THETA_GRID_CAP = 680.0


class PhaseClass(Enum):
    """How many distinct global maximizers the variational problem has."""

    UNIQUE = "unique"
    TWO_GLOBAL = "two-global"


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the two-term model.

    ``beta1`` weighs the mean edge weight, ``beta2 >= 0`` weighs the
    ``p``-th moment term coming from a ``p``-edge subgraph, and ``dist``
    is the edge-weight law.  Construction validates the attractive-region
    hypothesis ``beta2 >= 0`` under which the variational formula holds.
    """

    beta1: float
    beta2: float
    p: int
    dist: cramer.EdgeDistribution = field(default=cramer.UNIFORM01)

    def __post_init__(self):
        if not isinstance(self.dist, cramer.EdgeDistribution):
            raise InputValidationError(
                f"dist must be an EdgeDistribution, got {type(self.dist).__name__}",
                module=_MODULE,
                operation="ModelParams",
                offending_parameter="dist",
            )
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InputValidationError(
                    f"{name} must be a finite real, got {value!r}",
                    module=_MODULE,
                    operation="ModelParams",
                    offending_parameter=name,
                )
            object.__setattr__(self, name, float(value))
        if self.beta2 < 0.0:
            raise AttractiveRegionError(
                f"beta2 = {self.beta2:g} is repulsive; the variational formula "
                "requires beta2 >= 0",
                module=_MODULE,
                operation="ModelParams",
                offending_parameter="beta2",
            )
        if not float(self.p).is_integer() or int(self.p) < 2:
            raise InputValidationError(
                f"p must be an integer >= 2, got {self.p!r}",
                module=_MODULE,
                operation="ModelParams",
                offending_parameter="p",
            )
        object.__setattr__(self, "p", int(self.p))


@dataclass(frozen=True)
class Maximizer:
    """One local maximizer: location, objective value, endpoint flag."""

    u: float
    value: float
    is_endpoint: bool = False


@dataclass(frozen=True)
class MaximizerSet:
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
    return (
        params.beta1 * u
        + params.beta2 * u**params.p
        - 0.5 * cramer.rate(params.dist, u)
    )


def objective_d1(params: ModelParams, u: float) -> float:
    """First u-derivative of the variational integrand."""
    theta = cramer.rate_d1(params.dist, u)
    return params.beta1 + params.p * params.beta2 * u ** (params.p - 1) - 0.5 * theta


def objective_d2(params: ModelParams, u: float) -> float:
    """Second u-derivative of the variational integrand."""
    p = params.p
    curvature = cramer.rate_d2(params.dist, u)
    return p * (p - 1) * params.beta2 * u ** (p - 2) - 0.5 * curvature


def _scan_window(params: ModelParams) -> tuple[float, float]:
    """u-interval that provably contains every interior stationary point.

    A stationary point satisfies theta(u) = 2 * (beta1 + p*beta2*u**(p-1)),
    so its tilt is bounded by 2 * (|beta1| + p*beta2*s**(p-1)) with ``s``
    the largest support magnitude.  Clipping the scan to the means dual to
    twice that bound (plus slack) loses nothing: beyond the clip the tilt
    term dominates the derivative, which therefore cannot vanish.
    """
    lo, hi = cramer.support_interval(params.dist)
    s = max(abs(lo), abs(hi))
    theta_grid = min(
        4.0 * (abs(params.beta1) + params.p * params.beta2 * s ** (params.p - 1))
        + 50.0,
        _THETA_GRID_CAP,
    )
    u_lo = cramer.log_mgf_d1(params.dist, -theta_grid)
    u_hi = cramer.log_mgf_d1(params.dist, theta_grid)
    # For laws whose endpoints carry atoms the tilted mean saturates so
    # fast that B(theta_grid) can round onto the closed endpoint, where
    # the dual solve is undefined.  Shrink until the window is strictly
    # interior; stationary points pushed outside sit within one float of
    # the endpoint and are represented by the endpoint candidate.
    while u_lo <= lo or u_hi >= hi:
        theta_grid *= 0.5
        if theta_grid < 1.0:
            raise InputValidationError(
                "could not build an interior scan window for this law",
                module=_MODULE,
                operation="_scan_window",
                offending_parameter="dist",
            )
        u_lo = cramer.log_mgf_d1(params.dist, -theta_grid)
        u_hi = cramer.log_mgf_d1(params.dist, theta_grid)
    return u_lo, u_hi


def local_maxima(
    params: ModelParams, *, grid_points: int = GRID_POINTS
) -> tuple[Maximizer, ...]:
    """All interior local maximizers of the objective, in ascending u.

    The derivative is scanned on a dense grid over the window from
    ``_scan_window`` — positive at the left edge and negative at the right
    by construction, so every interior maximum produces a bracketed sign
    change — and each down-crossing is refined by bisection.  No global
    filtering is applied; ``solve_psi`` layers tie detection on top.
    """
    if grid_points < 16:
        raise InputValidationError(
            f"grid_points must be at least 16, got {grid_points}",
            module=_MODULE,
            operation="local_maxima",
            offending_parameter="grid_points",
        )
    u_lo, u_hi = _scan_window(params)
    step = (u_hi - u_lo) / (grid_points - 1)
    found: list[Maximizer] = []
    u_prev = u_lo
    d_prev = objective_d1(params, u_prev)
    for i in range(1, grid_points):
        u_here = u_lo + i * step if i < grid_points - 1 else u_hi
        d_here = objective_d1(params, u_here)
        # A maximum is a + -> - crossing of the derivative.
        if d_prev > 0.0 and d_here <= 0.0:
            root = cramer.bisect(
                lambda u: objective_d1(params, u), u_prev, u_here, d_prev,
                STATIONARY_TOL,
            )
            found.append(Maximizer(root, objective(params, root)))
        elif d_prev == 0.0 and d_here < 0.0:
            # Grid point landed exactly on a stationary maximum.
            found.append(Maximizer(u_prev, objective(params, u_prev)))
        u_prev, d_prev = u_here, d_here
    return tuple(found)


def solve_psi(
    params: ModelParams, *, grid_points: int = GRID_POINTS
) -> MaximizerSet:
    """Maximize the variational integrand and report all global maximizers.

    Interior candidates come from ``local_maxima``; support endpoints are
    added as candidates when they carry finite rate (laws with endpoint
    atoms), since the objective stays finite there.  Every candidate tied
    with the best within ``TIE_RTOL`` is kept, then tied maximizers
    separated by less than ``MERGE_SPAN_FRACTION`` of the scan window are
    merged into their best representative: a numerically flat optimum is
    one phase, not two.
    """
    candidates = list(local_maxima(params, grid_points=grid_points))

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
    if not candidates:
        raise InputValidationError(
            "no maximizer candidates found; scan window degenerate",
            module=_MODULE,
            operation="solve_psi",
            offending_parameter="params",
        )

    psi = max(c.value for c in candidates)
    tie_tol = TIE_RTOL * max(1.0, abs(psi))
    tied = sorted(
        (c for c in candidates if c.value >= psi - tie_tol), key=lambda c: c.u
    )

    u_lo, u_hi = _scan_window(params)
    merge_gap = MERGE_SPAN_FRACTION * (u_hi - u_lo)
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
