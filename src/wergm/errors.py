"""Exception types shared across the package.

Every error raised by the numerical modules names the module that owns the
violated precondition, the operation that raised, and (when meaningful) the
offending parameter, so callers -- the CLI in particular -- can serialize a
machine-readable record without parsing message strings.  ``check_real``,
``check_integer`` and ``check_seed`` check each public real, integer and
seed argument once, where it enters the package, and ``power_guard`` turns
a power of a float that leaves the float range into a typed record.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class WergmError(Exception):
    """Base class for all package-specific errors."""

    def __init__(
        self,
        message: str,
        *,
        module: str,
        operation: str,
        offending_parameter: str | None = None,
    ):
        super().__init__(message)
        self.module = module
        self.operation = operation
        self.offending_parameter = offending_parameter

    def record(self) -> dict:
        """Machine-readable form used by the CLI error path."""
        return {
            "module": self.module,
            "operation": self.operation,
            "message": str(self),
            "offending_parameter": self.offending_parameter,
        }


class InputValidationError(WergmError):
    """An argument is malformed (wrong type, wrong shape, out of admissible range)."""


class SupportError(WergmError):
    """A mean value lies outside the open interior of the weight support."""


class ThetaCapError(WergmError):
    """A tilt parameter exceeds, or a solve would require exceeding, the safe cap."""


class AttractiveRegionError(WergmError):
    """Parameters lie outside the attractive region (beta2 < 0) the theory covers."""


class GradientUndefinedError(WergmError):
    """The free energy is not differentiable here (two global maximizers)."""


class NoTwoPhaseRegionError(WergmError):
    """beta1 is not below its critical value, so no two-maximum region exists."""


class DivergenceError(WergmError):
    """Gaussian normalizing integral diverges (beta2 too close to 1/2)."""


def check_real(value, *, name: str, module: str, operation: str) -> float:
    """Return ``value`` as a float if it is a ``numbers.Real`` with a finite float.

    Anything else -- str, None, a container, complex, NaN, +-inf, an int
    beyond the float range, and also a ``Decimal``, a 0-d array or an object
    with only ``__float__`` -- raises ``InputValidationError`` naming ``name``.
    """
    try:
        # float and int first: they pass without the ABC's slower check.
        if isinstance(value, (float, int, Real)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise InputValidationError(
        f"{name} must be a finite real, got {value!r}",
        module=module,
        operation=operation,
        offending_parameter=name,
    )


def power_guard(compute, u: float, *, module: str, operation: str):
    """``compute()``, raising ``ThetaCapError`` where a power of ``u`` overflows.

    A float power past the float range raises a bare ``OverflowError``; the
    record that replaces it names ``module``, ``operation`` and ``u``.
    """
    try:
        return compute()
    except OverflowError:
        raise ThetaCapError(
            f"a power of u = {u:g} in {operation} reaches beyond the float range",
            module=module,
            operation=operation,
            offending_parameter="u",
        ) from None


def check_integer(
    value, minimum: int, *, name: str, module: str, operation: str
) -> int:
    """Return ``value`` as an int if it is an integer >= ``minimum``.

    Any value ``float`` accepts with an integral value passes (``3.0``
    does).  Anything else raises ``InputValidationError`` naming ``name``;
    the message asks for "a nonnegative integer" at minimum 0, "a positive
    integer" at 1 and "an integer >= minimum" above.
    """
    try:
        if float(value).is_integer() and int(value) >= minimum:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    wanted = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        minimum, f"an integer >= {minimum}"
    )
    raise InputValidationError(
        f"{name} must be {wanted}, got {value!r}",
        module=module,
        operation=operation,
        offending_parameter=name,
    )


def check_seed(seed, *, module: str, operation: str, name: str = "seed") -> None:
    """Reject a negative integer seed, which numpy's generators refuse.

    Raises ``InputValidationError`` naming ``seed`` before any generator is
    built; ``name`` is the seed's spelling in the message (``--seed`` on
    the command line).  Other seed types are left to numpy.
    """
    if isinstance(seed, Integral) and seed < 0:
        raise InputValidationError(
            f"{name} must be a non-negative integer, got {seed}",
            module=module,
            operation=operation,
            offending_parameter="seed",
        )
