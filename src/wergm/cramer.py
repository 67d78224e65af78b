"""Edge-weight distributions and their Cramér rate machinery.

The scalar theory of the package rests on three functions of a tilt
parameter ``theta``: the log moment generating function ``log M(theta)``,
its first derivative (the tilted mean), and its second derivative (the
tilted variance).  The Cramér rate function is obtained from them by
numerical Legendre duality: for a mean value ``u`` in the open interior of
the support we solve ``log_mgf_d1(theta) = u`` and use

    rate(u)    = theta * u - log_mgf(theta)
    rate_d1(u) = theta
    rate_d2(u) = 1 / log_mgf_d2(theta)

Three weight laws are supported: the standard uniform on (0, 1), the fair
coin on {0, 1}, and an arbitrary finite-support law given by atoms.  The
uniform closed forms are 0/0 at theta = 0; a wide even power series (radius
well inside the 2*pi convergence disk) is used for |theta| < 0.5 because
the closed forms lose roughly eight digits to cancellation near zero --
``1/theta**2 - 1/(4*sinh(theta/2)**2)`` is noise-dominated below |theta|
of about 1e-3.

All evaluation is capped at |theta| <= THETA_MAX; solves that would need a
larger tilt fail loudly rather than returning overflowed garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BracketError,
    InputValidationError,
    SupportError,
    ThetaCapError,
)

_MODULE = "cramer"

#: Hard cap on the tilt parameter; exp/sinh stay finite in float64 below it.
THETA_MAX = 700.0

#: Below this |theta| the uniform evaluators switch to the power series.
SERIES_RADIUS = 0.5

#: Absolute tolerance on |log_mgf_d1(theta) - u| for dual solves.
DUAL_TOL = 1e-12


class Kind(Enum):
    """Identifies one of the supported edge-weight laws."""

    UNIFORM01 = "uniform01"
    BERNOULLI_HALF = "bernoulli-half"
    FINITE_SUPPORT = "finite-support"


@dataclass(frozen=True)
class EdgeDistribution:
    """An edge-weight law.

    ``atoms`` is only meaningful for ``Kind.FINITE_SUPPORT``: a tuple of
    (value, probability) pairs, sorted by value, probabilities positive and
    summing to one.  Use the module constants ``UNIFORM01`` and
    ``BERNOULLI_HALF`` or the ``finite_support`` factory instead of
    constructing instances by hand.
    """

    kind: Kind
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind is not Kind.FINITE_SUPPORT:
            if self.atoms:
                raise InputValidationError(
                    f"atoms are only meaningful for finite-support laws, got {self.kind}",
                    module=_MODULE,
                    operation="EdgeDistribution",
                    offending_parameter="atoms",
                )
            return
        if len(self.atoms) < 2:
            raise InputValidationError(
                "a finite-support law needs at least two atoms",
                module=_MODULE,
                operation="EdgeDistribution",
                offending_parameter="atoms",
            )
        values = [v for v, _ in self.atoms]
        probs = [q for _, q in self.atoms]
        if any(not math.isfinite(v) for v in values):
            raise InputValidationError(
                "atom values must be finite",
                module=_MODULE,
                operation="EdgeDistribution",
                offending_parameter="atoms",
            )
        if sorted(values) != values or len(set(values)) != len(values):
            raise InputValidationError(
                "atom values must be strictly increasing",
                module=_MODULE,
                operation="EdgeDistribution",
                offending_parameter="atoms",
            )
        if any(q <= 0.0 for q in probs):
            raise InputValidationError(
                "atom probabilities must be positive",
                module=_MODULE,
                operation="EdgeDistribution",
                offending_parameter="atoms",
            )
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise InputValidationError(
                f"atom probabilities sum to {math.fsum(probs)!r}, expected 1",
                module=_MODULE,
                operation="EdgeDistribution",
                offending_parameter="atoms",
            )


UNIFORM01 = EdgeDistribution(Kind.UNIFORM01)
BERNOULLI_HALF = EdgeDistribution(Kind.BERNOULLI_HALF)


def finite_support(atoms) -> EdgeDistribution:
    """Build a finite-support law from (value, probability) pairs."""
    normalized = tuple(sorted((float(v), float(q)) for v, q in atoms))
    return EdgeDistribution(Kind.FINITE_SUPPORT, normalized)


@dataclass(frozen=True)
class DualPair:
    """A tilt and the mean it induces: ``log_mgf_d1(theta) == u``."""

    theta: float
    u: float


# ---------------------------------------------------------------------------
# uniform(0, 1) evaluators
# ---------------------------------------------------------------------------

# log M(theta) = log((exp(theta) - 1) / theta)
#             = theta/2 + sum_k B_{2k} / (2k * (2k)!) * theta^(2k)
# with B_{2k} the Bernoulli numbers.  Coefficients through theta^16 keep the
# truncation error below 1e-20 at |theta| = SERIES_RADIUS.
_LOGM_SERIES = (
    1.0 / 24.0,
    -1.0 / 2880.0,
    1.0 / 181440.0,
    -1.0 / 9676800.0,
    1.0 / 479001600.0,
    -691.0 / 15692092416000.0,
    1.0 / 1046139494400.0,
    -3617.0 / 170729965486080000.0,
)
# Term-by-term derivatives of the series above.
_B_SERIES = tuple(2.0 * (k + 1) * c for k, c in enumerate(_LOGM_SERIES))
_A_SERIES = tuple(
    2.0 * (k + 1) * (2.0 * (k + 1) - 1.0) * c for k, c in enumerate(_LOGM_SERIES)
)


def _horner_even(coeffs: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _u01_log_mgf(theta: float) -> float:
    if abs(theta) < SERIES_RADIUS:
        s = theta * theta
        return 0.5 * theta + s * _horner_even(_LOGM_SERIES, s)
    if theta < 0.0:
        # M(-t) = exp(-t) * M(t)
        return _u01_log_mgf(-theta) + theta
    return theta + math.log(-math.expm1(-theta)) - math.log(theta)


def _u01_mean(theta: float) -> float:
    if abs(theta) < SERIES_RADIUS:
        s = theta * theta
        return 0.5 + theta * _horner_even(_B_SERIES, s)
    if theta < 0.0:
        return 1.0 - _u01_mean(-theta)
    return 1.0 / (-math.expm1(-theta)) - 1.0 / theta


def _u01_var(theta: float) -> float:
    theta = abs(theta)
    if theta < SERIES_RADIUS:
        return _horner_even(_A_SERIES, theta * theta)
    half = 0.5 * theta
    sinh_sq = math.sinh(half) ** 2
    if not math.isfinite(sinh_sq):
        return 1.0 / (theta * theta)
    return 1.0 / (theta * theta) - 0.25 / sinh_sq


# ---------------------------------------------------------------------------
# fair-coin evaluators
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)


def _coin_log_mgf(theta: float) -> float:
    # log((1 + exp(theta)) / 2), written to avoid overflow on either side.
    if theta > 0.0:
        return theta + math.log1p(math.exp(-theta)) - _LOG2
    return math.log1p(math.exp(theta)) - _LOG2


def _coin_mean(theta: float) -> float:
    if theta >= 0.0:
        return 1.0 / (1.0 + math.exp(-theta))
    e = math.exp(theta)
    return e / (1.0 + e)


def _coin_var(theta: float) -> float:
    # sigmoid * (1 - sigmoid), but computed from exp(-|theta|) so it stays
    # positive instead of rounding to 0 once the sigmoid saturates.
    e = math.exp(-abs(theta))
    return e / (1.0 + e) ** 2


# ---------------------------------------------------------------------------
# finite-support evaluators
# ---------------------------------------------------------------------------


def _fs_weights(dist: EdgeDistribution, theta: float):
    """Tilted log-normalizer and normalized atom weights."""
    scores = [theta * v + math.log(q) for v, q in dist.atoms]
    top = max(scores)
    weights = [math.exp(s - top) for s in scores]
    total = math.fsum(weights)
    log_mgf = top + math.log(total)
    weights = [w / total for w in weights]
    return log_mgf, weights


def _fs_log_mgf(dist: EdgeDistribution, theta: float) -> float:
    return _fs_weights(dist, theta)[0]


def _fs_mean(dist: EdgeDistribution, theta: float) -> float:
    _, weights = _fs_weights(dist, theta)
    return math.fsum(w * v for w, (v, _) in zip(weights, dist.atoms))


def _fs_var(dist: EdgeDistribution, theta: float) -> float:
    _, weights = _fs_weights(dist, theta)
    mean = math.fsum(w * v for w, (v, _) in zip(weights, dist.atoms))
    return math.fsum(w * (v - mean) ** 2 for w, (v, _) in zip(weights, dist.atoms))


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def _check_theta(theta: float, operation: str) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise InputValidationError(
            f"theta must be finite, got {theta!r}",
            module=_MODULE,
            operation=operation,
            offending_parameter="theta",
        )
    if abs(theta) > THETA_MAX:
        raise ThetaCapError(
            f"|theta| = {abs(theta):g} exceeds the evaluation cap {THETA_MAX:g}",
            module=_MODULE,
            operation=operation,
            offending_parameter="theta",
        )
    return theta


def log_mgf(dist: EdgeDistribution, theta: float) -> float:
    """log of the moment generating function at tilt ``theta``."""
    theta = _check_theta(theta, "log_mgf")
    if dist.kind is Kind.UNIFORM01:
        return _u01_log_mgf(theta)
    if dist.kind is Kind.BERNOULLI_HALF:
        return _coin_log_mgf(theta)
    return _fs_log_mgf(dist, theta)


def log_mgf_d1(dist: EdgeDistribution, theta: float) -> float:
    """Tilted mean: first derivative of ``log_mgf`` in ``theta``."""
    theta = _check_theta(theta, "log_mgf_d1")
    if dist.kind is Kind.UNIFORM01:
        return _u01_mean(theta)
    if dist.kind is Kind.BERNOULLI_HALF:
        return _coin_mean(theta)
    return _fs_mean(dist, theta)


def log_mgf_d2(dist: EdgeDistribution, theta: float) -> float:
    """Tilted variance: second derivative of ``log_mgf`` in ``theta``."""
    theta = _check_theta(theta, "log_mgf_d2")
    if dist.kind is Kind.UNIFORM01:
        return _u01_var(theta)
    if dist.kind is Kind.BERNOULLI_HALF:
        return _coin_var(theta)
    return _fs_var(dist, theta)


def support_interval(dist: EdgeDistribution) -> tuple[float, float]:
    """Endpoints of the convex hull of the support."""
    if dist.kind is Kind.FINITE_SUPPORT:
        return dist.atoms[0][0], dist.atoms[-1][0]
    return 0.0, 1.0


def endpoint_rate(dist: EdgeDistribution) -> tuple[float, float]:
    """Limiting rate values at the two support endpoints.

    Finite for atom-carrying endpoints (-log of the endpoint's mass),
    +inf for the continuous uniform whose density carries no endpoint atom.
    """
    if dist.kind is Kind.UNIFORM01:
        return math.inf, math.inf
    if dist.kind is Kind.BERNOULLI_HALF:
        return _LOG2, _LOG2
    return -math.log(dist.atoms[0][1]), -math.log(dist.atoms[-1][1])


def bisect(fn, lo: float, hi: float, fn_lo: float, tol: float) -> float:
    """Root of ``fn`` on a sign-changing bracket, to absolute ``tol`` in x.

    ``fn_lo`` is ``fn(lo)``; ``fn`` is evaluated at midpoints only.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fn_mid = fn(mid)
        if fn_mid == 0.0:
            return mid
        if (fn_mid > 0.0) == (fn_lo > 0.0):
            lo, fn_lo = mid, fn_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dual_theta(dist: EdgeDistribution, u: float, *, tol: float = DUAL_TOL) -> DualPair:
    """Solve ``log_mgf_d1(theta) = u`` for the tilt dual to mean ``u``.

    Safeguarded Newton iteration: the bracket is grown geometrically from
    the origin, Newton steps that leave it fall back to bisection.  Raises
    ``SupportError`` if ``u`` is outside the open support interior and
    ``ThetaCapError`` if no tilt within |theta| <= THETA_MAX reaches ``u``.
    """
    u = float(u)
    lo_u, hi_u = support_interval(dist)
    if not math.isfinite(u) or not lo_u < u < hi_u:
        raise SupportError(
            f"u = {u!r} is outside the open support interval ({lo_u:g}, {hi_u:g})",
            module=_MODULE,
            operation="dual_theta",
            offending_parameter="u",
        )

    def residual(theta: float) -> float:
        return log_mgf_d1(dist, theta) - u

    # Establish a sign-changing bracket, growing geometrically up to the cap.
    lo, hi = 0.0, 0.0
    r0 = residual(0.0)
    if r0 == 0.0:
        return DualPair(0.0, u)
    if r0 < 0.0:
        hi = 1.0
        while residual(hi) < 0.0:
            if hi >= THETA_MAX:
                raise ThetaCapError(
                    f"mean u = {u:g} needs a tilt beyond the cap {THETA_MAX:g}",
                    module=_MODULE,
                    operation="dual_theta",
                    offending_parameter="u",
                )
            hi = min(2.0 * hi, THETA_MAX)
    else:
        lo = -1.0
        while residual(lo) > 0.0:
            if lo <= -THETA_MAX:
                raise ThetaCapError(
                    f"mean u = {u:g} needs a tilt beyond the cap {THETA_MAX:g}",
                    module=_MODULE,
                    operation="dual_theta",
                    offending_parameter="u",
                )
            lo = max(2.0 * lo, -THETA_MAX)

    theta = 0.5 * (lo + hi)
    for _ in range(200):
        r = residual(theta)
        if abs(r) <= tol:
            return DualPair(theta, u)
        if r > 0.0:
            hi = theta
        else:
            lo = theta
        var = log_mgf_d2(dist, theta)
        step_ok = var > 0.0 and math.isfinite(var)
        candidate = theta - r / var if step_ok else math.nan
        if step_ok and lo < candidate < hi:
            theta = candidate
        else:
            theta = 0.5 * (lo + hi)
    raise BracketError(
        f"dual solve for u = {u:g} did not converge",
        module=_MODULE,
        operation="dual_theta",
        offending_parameter="u",
    )


def rate(dist: EdgeDistribution, u: float) -> float:
    """Cramér rate function at mean ``u`` (Legendre dual of ``log_mgf``)."""
    pair = dual_theta(dist, u)
    return pair.theta * u - log_mgf(dist, pair.theta)


def rate_d1(dist: EdgeDistribution, u: float) -> float:
    """First derivative of the rate function: the dual tilt itself."""
    return dual_theta(dist, u).theta


def rate_d2(dist: EdgeDistribution, u: float) -> float:
    """Second derivative of the rate function: reciprocal tilted variance."""
    pair = dual_theta(dist, u)
    var = log_mgf_d2(dist, pair.theta)
    if var <= 0.0:
        raise SupportError(
            f"tilted variance underflowed at u = {u:g}; too close to a support endpoint",
            module=_MODULE,
            operation="rate_d2",
            offending_parameter="u",
        )
    return 1.0 / var
