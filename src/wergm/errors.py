"""Exception types shared across the package.

Every error raised by the numerical modules names the module that owns the
violated precondition, the operation that raised, and (when meaningful) the
offending parameter, so callers -- the CLI in particular -- can serialize a
machine-readable record without parsing message strings.  ``check_seed``
is the one seed check shared by every entry point that takes a seed, and
``check_integer`` the one check of an integer count or order.
"""

from __future__ import annotations

from numbers import Integral


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


def check_integer(
    value, minimum: int, *, name: str, module: str, operation: str
) -> int:
    """Return ``value`` as an int if it is an integer >= ``minimum``.

    Any value ``float`` accepts with an integral value passes (``3.0``
    does).  Otherwise raises ``InputValidationError`` naming ``name``; the
    message asks for "a nonnegative integer" at minimum 0, "a positive
    integer" at 1 and "an integer >= minimum" above.
    """
    if not float(value).is_integer() or int(value) < minimum:
        wanted = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}"
        )
        raise InputValidationError(
            f"{name} must be {wanted}, got {value!r}",
            module=module,
            operation=operation,
            offending_parameter=name,
        )
    return int(value)


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
