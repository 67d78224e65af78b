"""Directed model with standard Gaussian edge weights, solved in closed form.

With iid standard normal weights ``x[i, j]`` on all ordered pairs and
statistics

    e = sum(x) / n**2            (directed edge density)
    s = sum_i (row_i sum)**2 / n**3   (directed out-two-star density)

the normalization constant of ``exp(n**2 * (beta1 * e + beta2 * s))`` with
respect to the prior factorizes over rows, and each row reduces to the
single Gaussian ``Y = row sum ~ Normal(0, n)``.  For ``beta2 < 1/2``:

    psi_n   = beta1**2 / (2 * (1 - 2*beta2)) - log(1 - 2*beta2) / (2*n)
    psi_inf = beta1**2 / (2 * (1 - 2*beta2))

Both are smooth in (beta1, beta2) on the whole half-plane, so this model
has no phase transition — a useful contrast with the bounded-weight case.
At ``beta2 >= 1/2`` the defining integral diverges and every operation
refuses with ``DivergenceError``.  ``psi_n_monte_carlo`` checks the closed
form by importance sampling the same one-dimensional reduction from an
even mixture of the prior and the integrand's Laplace Gaussian, whose
weights are bounded by twice the normaliser, so the reported standard
error is finite at every admissible point.  For this Gaussian integrand
the Laplace component is the exact tilted law, so the check tests the
sampler's machinery, not the quality of an approximation.

numpy is imported inside the functions that use it, so that ``import
wergm`` does not pay for loading it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    DivergenceError,
    InputValidationError,
    check_integer,
    check_real,
    check_seed,
)

_MODULE = "gaussian_directed"

#: Largest admissible beta2; the Gaussian integral diverges at 1/2.
BETA2_MAX = 0.5 - 1e-9

_LOG_HALF = math.log(0.5)

#: Normals drawn and weighted per block by ``psi_n_monte_carlo``.
_BLOCK = 8192


class _GaussianFields(NamedTuple):
    beta1: float
    beta2: float


class GaussianModelParams(_GaussianFields):
    """Edge and out-two-star parameters of the directed Gaussian model."""

    __slots__ = ()

    def __new__(cls, beta1, beta2):
        beta1, beta2 = (
            check_real(value, name=name, module=_MODULE, operation="GaussianModelParams")
            for name, value in (("beta1", beta1), ("beta2", beta2))
        )
        if beta2 > BETA2_MAX:
            raise DivergenceError(
                f"beta2 = {beta2:g} makes the Gaussian integral diverge "
                f"(needs beta2 <= {BETA2_MAX})",
                module=_MODULE,
                operation="GaussianModelParams",
                offending_parameter="beta2",
            )
        return super().__new__(cls, beta1, beta2)


def directed_stats(weights) -> tuple[float, float]:
    """Directed edge and out-two-star densities of a square weight matrix."""
    import numpy as np

    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
        raise InputValidationError(
            f"weights must be a square matrix, got shape {w.shape}",
            module=_MODULE,
            operation="directed_stats",
            offending_parameter="weights",
        )
    n = w.shape[0]
    rows = w.sum(axis=1)
    e = float(w.sum()) / n**2
    s = float(np.dot(rows, rows)) / n**3
    return e, s


def psi_n_exact(params: GaussianModelParams, n: int) -> float:
    """Closed-form normalization constant at finite ``n``."""
    n = check_integer(n, 1, name="n", module=_MODULE, operation="psi_n_exact")
    shrink = 1.0 - 2.0 * params.beta2
    return params.beta1**2 / (2.0 * shrink) - math.log(shrink) / (2.0 * n)


def psi_inf(params: GaussianModelParams) -> float:
    """Limiting normalization constant; smooth on the whole half-plane."""
    return params.beta1**2 / (2.0 * (1.0 - 2.0 * params.beta2))


def psi_n_monte_carlo(
    params: GaussianModelParams, n: int, samples: int, seed
) -> tuple[float, float]:
    """Importance-sampling estimate of ``psi_n`` with a delta-method standard error.

    Estimates ``(1/n) * log E[exp(h(Y))]``, ``h(y) = beta1*y + beta2*y**2/n``,
    over the prior ``Y ~ Normal(0, n)``: the one-row reduction behind the
    closed form.  Each draw comes, independently with probability 1/2 each,
    from the prior or from ``Normal(m, v)``, where ``m`` is the mode and
    ``v`` the inverse curvature of the log-integrand
    ``beta1*y + beta2*y**2/n - y**2/(2n)``, and is weighted by

        w = exp(h) * prior / (prior/2 + Normal(m, v)/2)

    (the defensive mixture of Hesterberg 1995).  For this Gaussian
    integrand the Laplace component is not an approximation but the exact
    tilted law, ``Normal(m, v) = exp(h) * prior / E[exp(h(Y))]``, so ``w``
    is at most twice the normaliser for every admissible ``(beta1, beta2)``,
    including ``beta2 < 0`` and ``beta2 -> 1/2``: the weights have finite
    variance and the standard error is a real one.  Plain prior draws have
    infinite weight variance from ``beta2 >= 1/4``.  It also means that
    agreement with ``psi_n_exact`` tests the sampler's machinery (component
    draws, weights, log-mean-exp, error propagation), not how good a
    proposal is.

    The weights are averaged by a shifted log-mean-exp; the standard error
    is the sampling error of their mean propagated through the log and the
    1/n scaling.  At ``beta1 = beta2 = 0`` both components are the prior,
    every weight is exactly 1, and estimate and error are exactly 0.  The
    log-weights are computed centred on the mode, so they keep their
    precision up to ``BETA2_MAX``: written about ``y = 0`` instead, their
    terms grow like ``beta1**2 * n / (1 - 2*beta2)**2`` and cancel, and
    within about ``1e-7`` of ``beta2 = 1/2`` rounding, not sampling, would
    limit the accuracy.

    Memory is one byte (the component mask) and one float per sample, plus
    the temporaries of one block of draws: the normals are drawn and
    weighted in blocks, which continue one stream and give the same bits as
    drawing them at once.
    """
    import numpy as np

    n = check_integer(n, 1, name="n", module=_MODULE, operation="psi_n_monte_carlo")
    samples = check_integer(
        samples, 100, name="samples", module=_MODULE, operation="psi_n_monte_carlo"
    )
    check_seed(seed, module=_MODULE, operation="psi_n_monte_carlo")
    beta1, beta2 = params.beta1, params.beta2
    # The log-integrand beta1*y - (1 - 2*beta2)*y**2/(2n) is a concave
    # quadratic: its curvature is -(1 - 2*beta2)/n, its mode beta1 * v.
    v = n / (1.0 - 2.0 * beta2)
    m = beta1 * v
    rng = np.random.default_rng(seed)
    laplace = rng.random(samples) < 0.5
    # The one sample-sized float array: the log-weights, then the weights.
    # Every step in the loop acts on each element alone, so the blocks give
    # the bits of one pass over the whole array.
    log_w = np.empty(samples)
    root_n, scale = math.sqrt(n), math.sqrt(v / n)
    log_scale = 0.5 * math.log(v / n)
    for start in range(0, samples, _BLOCK):
        in_laplace = laplace[start:start + _BLOCK]
        y = rng.standard_normal(in_laplace.size)
        y *= root_n
        np.multiply(y, scale, out=y, where=in_laplace)
        np.add(y, m, out=y, where=in_laplace)
        # log_ratio = log Normal(m, v) - log prior - h, neg_h = -h.  Centred
        # on the mode, -log prior - h = y*(y - 2m)/(2v) plus constants:
        # written as y**2/(2n) - h instead, two terms of order m**2/n would
        # cancel near beta2 = 1/2 and leave only their rounding.
        log_ratio = y - m
        log_ratio *= log_ratio
        log_ratio *= -0.5 / v
        neg_h = y - 2.0 * m
        neg_h *= y
        neg_h *= 0.5 / v
        log_ratio += neg_h
        log_ratio -= log_scale
        np.multiply(y, -beta2 / n, out=neg_h)
        neg_h -= beta1
        neg_h *= y
        log_ratio += _LOG_HALF
        neg_h += _LOG_HALF
        # log w = -log(exp(-h)/2 + Normal(m, v)/(2 prior) * exp(-h)).
        np.logaddexp(neg_h, log_ratio, out=log_w[start:start + _BLOCK])
    np.negative(log_w, out=log_w)
    shift = float(log_w.max())
    log_w -= shift
    w = np.exp(log_w, out=log_w)
    mean = float(w.mean())
    estimate = (shift + math.log(mean)) / n
    # w.std(ddof=1) by numpy's own steps, in place of its sample-sized
    # temporary: the same mean, squared deviations and pairwise sum.
    w -= mean
    w *= w
    std = math.sqrt(float(np.add.reduce(w)) / (samples - 1))
    std_error = std / (mean * math.sqrt(samples)) / n
    return estimate, std_error
