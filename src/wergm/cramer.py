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

A weight law is an ``EdgeDistribution`` that owns its evaluators (``log_mgf``,
``mean``, ``var``), its support hull, its endpoint rates and its sampler
``draw(rng, size)``, so no caller branches on the law.  The module functions
are the checked public boundary; library code calls the law directly at the
tilts it computes, except ``rate_at``/``rate_d2_at``, which check theirs.

- ``UniformLaw`` (``UNIFORM01``): the uniform on (0, 1).  Its closed forms,
  in ``e = exp(-|theta|)``, cannot overflow and are 0/0 at theta = 0; a
  wide even power series (radius well inside the 2*pi convergence disk) is
  used for |theta| < 0.5 because the closed forms lose roughly eight digits
  to cancellation near zero -- ``1/t**2 - e/(1 - e)**2`` is noise-dominated
  below |theta| of about 1e-3.
- ``AtomLaw`` (``finite_support``): a law on finitely many atoms, which
  fix its support hull, its endpoint rates ``-log q``, its tilted sums and
  the CDF its sampler searches.
- ``FairCoin`` (``BERNOULLI_HALF``): the atom law on {0, 1} with mass 1/2
  each, with closed-form evaluators and an integer sampler.

Every law evaluates at any finite tilt.  ``widen`` grows a bracket outward
until a function changes sign across it, or raises its caller's record;
``dual_theta`` stops it at |theta| = THETA_MAX rather than searching on.
The safeguarded ``newton``, the package's one root finder, refines the
root inside a bracket until it hits an exact zero or adjacent floats.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputValidationError, SupportError, ThetaCapError, check_real

if TYPE_CHECKING:
    import numpy as np

_MODULE = "cramer"

#: Largest |theta| a dual solve searches; means that need a larger tilt
#: raise ``ThetaCapError``.  The laws evaluate past it, but near the support's
#: ends the mean rounds with absolute error, so a solve further out loses
#: digits: without the cap ``rate(UNIFORM01, 0.999999)`` (theta ~ 1e6) is
#: off by 7e-12 relative and u = 1 - 2**-40 by 2e-6.
THETA_MAX = 700.0

#: Below this |theta| the uniform evaluators switch to the power series.
SERIES_RADIUS = 0.5

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
# The derivative of the _A_SERIES sum, divided by theta.
_K3_SERIES = tuple(2.0 * k * c for k, c in enumerate(_A_SERIES) if k)

_LOG2 = math.log(2.0)


def _horner_even(coeffs: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


class EdgeDistribution(ABC):
    """An edge-weight law.

    The evaluators take a finite tilt unchecked, for library code; the
    checked module functions (``log_mgf`` and so on) are the public entry.
    ``support`` is the convex hull of the support, ``endpoint_rate`` the
    limiting rate values at its two ends, and ``atoms`` the (value,
    probability) pairs, sorted by value, of a law with finite support
    (empty otherwise).  Use ``UNIFORM01``, ``BERNOULLI_HALF`` or
    ``finite_support`` rather than the law types.

    Laws are immutable: assigning or deleting an attribute raises
    ``AttributeError``, so a law stores what it derives with
    ``object.__setattr__``.  Two laws are equal, and hash alike, when they
    have the same type and atoms.
    """

    support: tuple[float, float]
    endpoint_rate: tuple[float, float]
    atoms: tuple[tuple[float, float], ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        fields = f"atoms={self.atoms!r}" if self.atoms else ""
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @abstractmethod
    def log_mgf(self, theta: float) -> float:
        """log of the moment generating function."""

    @abstractmethod
    def mean(self, theta: float) -> float:
        """Tilted mean, the first derivative of ``log_mgf``."""

    @abstractmethod
    def var(self, theta: float) -> float:
        """Tilted variance, the second derivative of ``log_mgf``."""

    @abstractmethod
    def draw(self, rng: np.random.Generator, size: int) -> list[float]:
        """``size`` iid draws from the law, as a list of Python floats.

        An atom law draws the same values from the same stream as
        ``rng.choice(values, size, p=probs)``.
        """


class UniformLaw(EdgeDistribution):
    """The standard uniform law on (0, 1).

    Past the series radius, with ``t = |theta|``, ``e = exp(-t)`` and ``d =
    1 - e``: ``var = 1/t**2 - e/d**2`` and ``skew = +-(e*(1 + e)/d**3 -
    2/t**3)``.  ``e`` underflows to 0 far out, so no form needs a cutoff.
    """

    support = (0.0, 1.0)
    # The density carries no endpoint atom.
    endpoint_rate = (math.inf, math.inf)

    def log_mgf(self, theta: float) -> float:
        if abs(theta) < SERIES_RADIUS:
            s = theta * theta
            return 0.5 * theta + s * _horner_even(_LOGM_SERIES, s)
        if theta > 0.0:
            return theta + math.log(-math.expm1(-theta)) - math.log(theta)
        return math.log(math.expm1(theta) / theta)

    def mean(self, theta: float) -> float:
        if abs(theta) < SERIES_RADIUS:
            s = theta * theta
            return 0.5 + theta * _horner_even(_B_SERIES, s)
        if theta < 0.0:
            # exp/expm1 -> 0 without overflow; 1 - mean(-theta) would cancel.
            return -1.0 / theta + math.exp(theta) / math.expm1(theta)
        return 1.0 / (-math.expm1(-theta)) - 1.0 / theta

    def var(self, theta: float) -> float:
        t = abs(theta)
        if t < SERIES_RADIUS:
            return _horner_even(_A_SERIES, t * t)
        e, d = math.exp(-t), -math.expm1(-t)
        return 1.0 / (t * t) - e / (d * d)

    def skew(self, theta: float) -> float:
        """Third cumulant of the tilted law, the derivative of ``var``."""
        t = abs(theta)
        if t < SERIES_RADIUS:
            return theta * _horner_even(_K3_SERIES, t * t)
        e, d = math.exp(-t), -math.expm1(-t)
        kappa3 = e * (1.0 + e) / (d * d * d) - 2.0 / (t * t * t)
        return kappa3 if theta > 0.0 else -kappa3

    def draw(self, rng: np.random.Generator, size: int) -> list[float]:
        return rng.random(size).tolist()


def _require_atoms(ok: bool, message: str) -> None:
    if not ok:
        raise InputValidationError(
            message,
            module=_MODULE,
            operation="EdgeDistribution",
            offending_parameter="atoms",
        )


class AtomLaw(EdgeDistribution):
    """A law on finitely many atoms.

    ``atoms`` is a tuple of (value, probability) pairs of finite reals, as
    ``finite_support`` checks them: at least two, values strictly
    increasing, probabilities positive and summing to one.
    """

    def __init__(self, atoms: tuple[tuple[float, float], ...]):
        object.__setattr__(self, "atoms", atoms)
        _require_atoms(
            len(self.atoms) >= 2, "a finite-support law needs at least two atoms"
        )
        values = tuple(float(v) for v, _ in self.atoms)
        probs = tuple(q for _, q in self.atoms)
        _require_atoms(
            sorted(set(values)) == list(values), "atom values must be strictly increasing"
        )
        _require_atoms(all(q > 0.0 for q in probs), "atom probabilities must be positive")
        total = math.fsum(probs)
        _require_atoms(
            abs(total - 1.0) <= 1e-12, f"atom probabilities sum to {total!r}, expected 1"
        )
        # Derived once; equality and hashing see only the atoms.
        log_q = tuple(math.log(q) for q in probs)
        object.__setattr__(self, "support", (values[0], values[-1]))
        object.__setattr__(self, "endpoint_rate", (-log_q[0], -log_q[-1]))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_log_q", log_q)
        # Generator.choice's CDF: the running sum divided by its last entry.
        cdf = tuple(accumulate(probs))
        object.__setattr__(self, "_cdf", tuple(c / cdf[-1] for c in cdf))

    def _tilt(self, theta: float) -> tuple[float, list[float]]:
        """Tilted log-normalizer and normalized atom weights."""
        scores = [theta * v + lq for v, lq in zip(self._values, self._log_q)]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = math.fsum(weights)
        return top + math.log(total), [w / total for w in weights]

    def log_mgf(self, theta: float) -> float:
        return self._tilt(theta)[0]

    def mean(self, theta: float) -> float:
        weights = self._tilt(theta)[1]
        return math.fsum(w * v for w, v in zip(weights, self._values))

    def var(self, theta: float) -> float:
        weights = self._tilt(theta)[1]
        mean = math.fsum(w * v for w, v in zip(weights, self._values))
        return math.fsum(w * (v - mean) ** 2 for w, v in zip(weights, self._values))

    def draw(self, rng: np.random.Generator, size: int) -> list[float]:
        # Generator.choice's lookup, on arrays built at the first draw so
        # that constructing a law does not load numpy.
        try:
            values, cdf = self._draw_arrays
        except AttributeError:
            import numpy as np

            values, cdf = np.array(self._values), np.array(self._cdf)
            object.__setattr__(self, "_draw_arrays", (values, cdf))
        return values[cdf.searchsorted(rng.random(size), side="right")].tolist()


class FairCoin(AtomLaw):
    """The fair coin on {0, 1}: an atom law with closed-form evaluators."""

    def log_mgf(self, theta: float) -> float:
        # log((1 + exp(theta)) / 2), written in exp(-|theta|) so it cannot overflow.
        return max(theta, 0.0) + math.log1p(math.exp(-abs(theta))) - _LOG2

    def mean(self, theta: float) -> float:
        if theta >= 0.0:
            return 1.0 / (1.0 + math.exp(-theta))
        e = math.exp(theta)
        return e / (1.0 + e)

    def var(self, theta: float) -> float:
        # sigmoid * (1 - sigmoid), but computed from exp(-|theta|) so it stays
        # positive instead of rounding to 0 once the sigmoid saturates.
        e = math.exp(-abs(theta))
        return e / (1.0 + e) ** 2

    def draw(self, rng: np.random.Generator, size: int) -> list[float]:
        return rng.integers(0, 2, size).astype(float).tolist()


UNIFORM01 = UniformLaw()
BERNOULLI_HALF = FairCoin(((0.0, 0.5), (1.0, 0.5)))

#: Command-line names of the named laws.
NAMED_LAWS = {"uniform01": UNIFORM01, "bernoulli-half": BERNOULLI_HALF}


def finite_support(atoms) -> EdgeDistribution:
    """Build a finite-support law from (value, probability) pairs of finite reals."""
    def real(value) -> float:
        return check_real(value, name="atoms", module=_MODULE, operation="EdgeDistribution")
    return AtomLaw(tuple(sorted((real(v), real(q)) for v, q in atoms)))


class DualPair(NamedTuple):
    """A tilt and the mean it induces: ``log_mgf_d1(theta) == u``."""

    theta: float
    u: float


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def log_mgf(dist: EdgeDistribution, theta: float) -> float:
    """log of the moment generating function at tilt ``theta``."""
    theta = check_real(theta, name="theta", module=_MODULE, operation="log_mgf")
    return dist.log_mgf(theta)


def log_mgf_d1(dist: EdgeDistribution, theta: float) -> float:
    """Tilted mean: first derivative of ``log_mgf`` in ``theta``."""
    theta = check_real(theta, name="theta", module=_MODULE, operation="log_mgf_d1")
    return dist.mean(theta)


def log_mgf_d2(dist: EdgeDistribution, theta: float) -> float:
    """Tilted variance: second derivative of ``log_mgf`` in ``theta``."""
    theta = check_real(theta, name="theta", module=_MODULE, operation="log_mgf_d2")
    return dist.var(theta)


def support_interval(dist: EdgeDistribution) -> tuple[float, float]:
    """Endpoints of the convex hull of the support."""
    return dist.support


def endpoint_rate(dist: EdgeDistribution) -> tuple[float, float]:
    """Limiting rate values at the two support endpoints.

    Finite for atom-carrying endpoints (-log of the endpoint's mass),
    +inf for the continuous uniform whose density carries no endpoint atom.
    """
    return dist.endpoint_rate


def newton(fn, lo: float, hi: float, fn_lo: float, start: float | None = None) -> float:
    """Root of ``fn`` on a sign-changing bracket by safeguarded Newton steps.

    ``fn(x)`` returns the value and the derivative at ``x``; ``fn_lo`` is
    the value at ``lo``.  Iteration starts at ``start`` (the midpoint if it
    is None or outside the open bracket), and every evaluation moves one
    bracket end to it.  A Newton step is taken only when it lands inside the
    bracket and is at most half as long as the step two iterations before
    (rtsafe); otherwise, or when the value or derivative is not finite, the
    bracket is bisected.  A step that rounds to no move goes one float
    inward.  Stops at an exact zero or once ``lo`` and ``hi`` are adjacent
    floats, and then returns their rounded midpoint.
    """
    x = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    step = step_old = hi - lo
    while True:
        value, slope = fn(x)
        if value == 0.0:
            return x
        if (value > 0.0) == (fn_lo > 0.0):
            lo, fn_lo = x, value
        else:
            hi = x
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        target = math.nan
        if math.isfinite(value) and math.isfinite(slope) and slope != 0.0:
            target = x - value / slope
            if target == x:
                target = math.nextafter(x, hi if x == lo else lo)
        if not (lo < target < hi and abs(target - x) <= 0.5 * abs(step_old)):
            target = mid
        step_old, step = step, target - x
        x = target


def widen(fn, inner: float, fn_inner: float, edge: float, *, error, limit: float = math.inf):
    """Grow a bracket outward from ``inner`` until ``fn`` changes sign on it.

    ``fn_inner`` is ``fn(inner)``, nonzero.  The sign of ``edge`` gives the
    direction; ``edge`` doubles (its magnitude clamped to ``limit``) until it
    lies beyond ``inner`` and ``fn(edge)`` is zero or has the other sign.
    Returns ``(edge, fn(edge))``.  Raises ``error()``, the caller's record,
    when ``|edge|`` reaches ``limit``, ``fn`` raises ``OverflowError`` or
    ``ZeroDivisionError``, or ``edge`` overflows (``fn`` never sees +-inf).
    """
    while math.isfinite(edge):
        if (edge > inner) == (edge > 0.0):
            try:
                fn_edge = fn(edge)
            except (OverflowError, ZeroDivisionError):
                break
            if fn_edge == 0.0 or (fn_edge > 0.0) != (fn_inner > 0.0):
                return edge, fn_edge
        if abs(edge) >= limit:
            break
        edge = math.copysign(min(2.0 * abs(edge), limit), edge)
    raise error()


def dual_theta(dist: EdgeDistribution, u: float) -> DualPair:
    """Solve ``log_mgf_d1(theta) = u`` for the tilt dual to mean ``u``.

    ``newton`` with the slope ``log_mgf_d2``, on a bracket that ``widen``
    grows from the origin, down to adjacent floats.  Raises ``SupportError``
    if ``u`` (a finite real) is outside the open support interior and, through
    ``widen``, ``ThetaCapError`` if no |theta| <= THETA_MAX reaches ``u``:
    past the cap the uniform's mean is within 1/700 of a support end, where
    it rounds with absolute error, so the rate would lose digits (7e-12
    relative at u = 0.999999, 2e-6 at u = 1 - 2**-40).
    """
    u = check_real(u, name="u", module=_MODULE, operation="dual_theta")
    lo_u, hi_u = support_interval(dist)
    if not lo_u < u < hi_u:
        raise SupportError(
            f"u = {u!r} is outside the open support interval ({lo_u:g}, {hi_u:g})",
            module=_MODULE,
            operation="dual_theta",
            offending_parameter="u",
        )

    # Every tilt tried here is finite, so the law is called unchecked.
    def residual(theta: float) -> float:
        return dist.mean(theta) - u

    r0 = residual(0.0)
    if r0 == 0.0:
        return DualPair(0.0, u)
    edge, r_edge = widen(
        residual, 0.0, r0, 1.0 if r0 < 0.0 else -1.0, limit=THETA_MAX,
        error=lambda: ThetaCapError(
            f"mean u = {u:g} needs a tilt beyond the cap {THETA_MAX:g}",
            module=_MODULE, operation="dual_theta", offending_parameter="u",
        ),
    )
    lo, hi, r_lo = (0.0, edge, r0) if r0 < 0.0 else (edge, 0.0, r_edge)
    theta = newton(lambda t: (dist.mean(t) - u, dist.var(t)), lo, hi, r_lo)
    return DualPair(theta, u)


def rate(dist: EdgeDistribution, u: float) -> float:
    """Cramér rate function at mean ``u`` (Legendre dual of ``log_mgf``)."""
    return rate_at(dist, dual_theta(dist, u))


def rate_d1(dist: EdgeDistribution, u: float) -> float:
    """First derivative of the rate function: the dual tilt itself."""
    return dual_theta(dist, u).theta


def rate_d2(dist: EdgeDistribution, u: float) -> float:
    """Second derivative of the rate function: reciprocal tilted variance."""
    return rate_d2_at(dist, dual_theta(dist, u))


def rate_at(dist: EdgeDistribution, pair: DualPair) -> float:
    """``rate`` at an already solved pair ``pair = dual_theta(dist, u)``."""
    return pair.theta * pair.u - log_mgf(dist, pair.theta)


def rate_d2_at(dist: EdgeDistribution, pair: DualPair) -> float:
    """``rate_d2`` at an already solved pair ``pair = dual_theta(dist, u)``."""
    var = log_mgf_d2(dist, pair.theta)
    if var <= 0.0:
        raise SupportError(
            f"tilted variance underflowed at u = {pair.u:g}; "
            "too close to a support endpoint",
            module=_MODULE,
            operation="rate_d2",
            offending_parameter="u",
        )
    return 1.0 / var
