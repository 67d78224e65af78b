"""Tests for the closed-form directed Gaussian model.

The normalization constant is known exactly here, which makes this module
its own oracle: the Monte Carlo estimator must agree with the closed form
at a well-behaved point, the finite-n correction is an explicit log term,
and every smoothness claim can be checked by finite differences.
"""

import math
import tracemalloc

import numpy as np
import pytest

from wergm.errors import DivergenceError, InputValidationError
from wergm.gaussian_directed import (
    _BLOCK,
    _LOG_HALF,
    BETA2_MAX,
    GaussianModelParams,
    directed_stats,
    psi_inf,
    psi_n_exact,
    psi_n_monte_carlo,
)


def _whole_array_monte_carlo(params, n, samples, seed):
    """``psi_n_monte_carlo`` as one pass over sample-sized arrays, unchecked.

    The reference for the block-wise estimator: the same draws, weights and
    reductions, with every normal drawn at once and ``w.std(ddof=1)``.
    """
    beta1, beta2 = params.beta1, params.beta2
    v = n / (1.0 - 2.0 * beta2)
    m = beta1 * v
    rng = np.random.default_rng(seed)
    laplace = rng.random(samples) < 0.5
    y = rng.standard_normal(samples)
    y *= math.sqrt(n)
    np.multiply(y, math.sqrt(v / n), out=y, where=laplace)
    np.add(y, m, out=y, where=laplace)
    log_ratio = y - m
    log_ratio *= log_ratio
    log_ratio *= -0.5 / v
    neg_h = y - 2.0 * m
    neg_h *= y
    neg_h *= 0.5 / v
    log_ratio += neg_h
    log_ratio -= 0.5 * math.log(v / n)
    np.multiply(y, -beta2 / n, out=neg_h)
    neg_h -= beta1
    neg_h *= y
    log_ratio += _LOG_HALF
    neg_h += _LOG_HALF
    log_w = -np.logaddexp(neg_h, log_ratio)
    shift = float(log_w.max())
    w = np.exp(log_w - shift)
    mean = float(w.mean())
    estimate = (shift + math.log(mean)) / n
    std_error = float(w.std(ddof=1)) / (mean * math.sqrt(samples)) / n
    return estimate, std_error


class TestDirectedStats:
    def test_hand_worked_two_by_two(self):
        e, s = directed_stats([[1.0, 2.0], [3.0, 4.0]])
        assert e == 2.5
        assert s == (3.0**2 + 7.0**2) / 8.0  # row sums 3 and 7

    def test_zero_matrix(self):
        assert directed_stats(np.zeros((4, 4))) == (0.0, 0.0)

    def test_constant_matrix(self):
        for n, c in ((3, 0.5), (6, -1.25)):
            e, s = directed_stats(np.full((n, n), c))
            np.testing.assert_allclose(e, c, rtol=1e-14)
            np.testing.assert_allclose(s, c * c, rtol=1e-14)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((5, 5))
        e, s = directed_stats(w)
        e3, s3 = directed_stats(3.0 * w)
        np.testing.assert_allclose(e3, 3.0 * e, rtol=1e-13)
        np.testing.assert_allclose(s3, 9.0 * s, rtol=1e-13)

    def test_asymmetric_allowed_but_nonsquare_rejected(self):
        directed_stats([[0.0, 1.0], [2.0, 0.0]])  # fine: directed model
        with pytest.raises(InputValidationError):
            directed_stats(np.zeros((2, 3)))


class TestClosedForm:
    def test_free_point_is_half(self):
        params = GaussianModelParams(1.0, 0.0)
        assert psi_inf(params) == 0.5
        assert psi_n_exact(params, 10) == 0.5

    def test_finite_n_correction_is_explicit_log(self):
        # The gap is -log(1-2*beta2)/(2n): positive for beta2 > 0 and
        # negative for beta2 < 0, with magnitude |log(1-2*beta2)|/(2n).
        for beta1, beta2, n in ((0.0, 0.25, 3), (0.0, -1.0, 7), (0.0, 0.4, 50)):
            params = GaussianModelParams(beta1, beta2)
            gap = psi_n_exact(params, n) - psi_inf(params)
            assert abs(gap) == abs(math.log(1.0 - 2.0 * beta2)) / (2.0 * n)
            assert (gap > 0.0) == (beta2 > 0.0)

    def test_finite_n_correction_with_edge_term(self):
        params = GaussianModelParams(2.0, 0.3)
        gap = psi_n_exact(params, 7) - psi_inf(params)
        np.testing.assert_allclose(
            gap, abs(math.log(0.4)) / 14.0, rtol=1e-13
        )

    def test_even_in_beta1(self):
        for beta1, beta2 in ((1.5, 0.2), (0.7, -3.0)):
            assert psi_inf(GaussianModelParams(beta1, beta2)) == psi_inf(
                GaussianModelParams(-beta1, beta2)
            )

    def test_increasing_in_beta2(self):
        values = [
            psi_inf(GaussianModelParams(1.0, b2)) for b2 in np.linspace(-1, 0.45, 30)
        ]
        assert np.all(np.diff(values) > 0.0)

    def test_second_derivative_bounded_below_cap(self):
        # 4*beta1^2/(1-2*beta2)^3 stays finite up to beta2 = 0.45.
        h = 1e-5
        for beta2 in (0.0, 0.2, 0.45):
            fd2 = (
                psi_inf(GaussianModelParams(1.0, beta2 + h))
                - 2.0 * psi_inf(GaussianModelParams(1.0, beta2))
                + psi_inf(GaussianModelParams(1.0, beta2 - h))
            ) / h**2
            analytic = 4.0 / (1.0 - 2.0 * beta2) ** 3
            np.testing.assert_allclose(fd2, analytic, rtol=1e-3)
            assert math.isfinite(fd2)

    def test_divergence_refused(self):
        with pytest.raises(DivergenceError):
            GaussianModelParams(1.0, 0.5)
        with pytest.raises(DivergenceError):
            GaussianModelParams(0.0, 1.0)
        GaussianModelParams(0.0, BETA2_MAX)  # boundary itself is accepted

    def test_non_finite_rejected(self):
        with pytest.raises(InputValidationError):
            GaussianModelParams(math.nan, 0.0)

    def test_params_coerce_to_float_and_are_read_only(self):
        params = GaussianModelParams(1, 0)
        assert type(params.beta1) is float and type(params.beta2) is float
        with pytest.raises(AttributeError):
            params.beta2 = 1.0


class TestMonteCarlo:
    def test_matches_closed_form_at_tame_point(self):
        params = GaussianModelParams(1.0, 0.0)
        estimate, std_error = psi_n_monte_carlo(params, 10, 100_000, seed=12345)
        assert abs(estimate - psi_n_exact(params, 10)) <= 2.0 * std_error

    def test_standard_error_calibrated_across_seeds(self):
        # At the three C11b points, z = (estimate - exact) / std_error over
        # seeds 0-199 must look standard normal: |z| > 2 has probability
        # 0.0455, and P(Bin(200, 0.0455) > 20) = 3.5e-4.  The spread bound
        # also catches a standard error that is too wide, which a count of
        # |z| > 2 alone would pass.
        for beta1, beta2, n in ((1.0, 0.0, 10), (1.0, 0.25, 10), (0.5, 0.4, 20)):
            params = GaussianModelParams(beta1, beta2)
            exact = psi_n_exact(params, n)
            z = []
            for seed in range(200):
                estimate, std_error = psi_n_monte_carlo(params, n, 10_000, seed=seed)
                z.append((estimate - exact) / std_error)
            z = np.array(z)
            point = f"(beta1={beta1:g}, beta2={beta2:g}, n={n})"
            assert np.count_nonzero(np.abs(z) > 2.0) <= 20, point
            assert 0.8 <= z.std(ddof=1) <= 1.25, point

    @pytest.mark.parametrize("beta2", [0.5 - 0.5e-8, BETA2_MAX], ids=["1e-8", "max"])
    def test_calibrated_next_to_divergence(self, beta2):
        # Here a Laplace draw sits near m = n / (1 - 2*beta2) >= 1e9, and
        # log-weights written about y = 0 cancel terms of order 1e16: at
        # 1 - 2*beta2 = 1e-8 that gave z = +15.5 at seed 12345 and |z| > 2
        # at every one of the 200 seeds below.
        params = GaussianModelParams(1.0, beta2)
        exact = psi_n_exact(params, 10)
        estimate, std_error = psi_n_monte_carlo(params, 10, 100_000, seed=12345)
        assert abs(estimate - exact) <= 2.0 * std_error
        z = []
        for seed in range(200):
            estimate, std_error = psi_n_monte_carlo(params, 10, 2_000, seed=seed)
            z.append((estimate - exact) / std_error)
        z = np.array(z)
        assert np.count_nonzero(np.abs(z) > 2.0) <= 20
        assert 0.8 <= z.std(ddof=1) <= 1.25

    @pytest.mark.parametrize(
        "samples", [100, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100_001]
    )
    @pytest.mark.parametrize(
        "beta1, beta2, n",
        [(1.0, 0.0, 10), (1.0, 0.25, 10), (0.5, 0.4, 20), (0.0, 0.0, 5),
         (1.0, BETA2_MAX, 10), (0.7, -3.0, 7)],
        ids=["c11b-1", "c11b-2", "c11b-3", "zero", "max", "negative"],
    )
    def test_blocks_match_the_whole_array_pass(self, beta1, beta2, n, samples):
        # Exact equality: the blocks continue one normal stream, each step
        # is elementwise, and the reductions run over the whole array.  A
        # numpy whose std(ddof=1) took other steps would show here.
        params = GaussianModelParams(beta1, beta2)
        for seed in range(10):
            assert psi_n_monte_carlo(params, n, samples, seed) == (
                _whole_array_monte_carlo(params, n, samples, seed)
            ), seed

    def test_peak_memory_is_one_float_per_sample(self):
        # A memory count, not a timing: the log-weights array (8 bytes per
        # sample), the component mask (1 byte) and one block of temporaries.
        # Three whole-array float temporaries read 25 bytes per sample.
        params = GaussianModelParams(1.0, 0.25)
        samples = 1_000_000
        psi_n_monte_carlo(params, 10, 1000, seed=1)
        tracemalloc.start()
        try:
            psi_n_monte_carlo(params, 10, samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / samples < 12.0

    def test_zero_parameters_exact(self):
        estimate, std_error = psi_n_monte_carlo(
            GaussianModelParams(0.0, 0.0), 5, 1000, seed=0
        )
        assert estimate == 0.0
        assert std_error == 0.0

    def test_reproducible(self):
        params = GaussianModelParams(0.5, 0.1)
        a = psi_n_monte_carlo(params, 8, 5000, seed=77)
        b = psi_n_monte_carlo(params, 8, 5000, seed=77)
        assert a == b

    def test_negative_seed_rejected(self):
        with pytest.raises(InputValidationError) as excinfo:
            psi_n_monte_carlo(GaussianModelParams(0.5, 0.1), 5, 1000, seed=-1)
        record = excinfo.value.record()
        assert record["operation"] == "psi_n_monte_carlo"
        assert record["offending_parameter"] == "seed"

    def test_sample_floor_enforced(self):
        with pytest.raises(InputValidationError):
            psi_n_monte_carlo(GaussianModelParams(0.0, 0.0), 5, 99, seed=1)

    def test_positive_n_required(self):
        with pytest.raises(InputValidationError):
            psi_n_exact(GaussianModelParams(0.0, 0.0), 0)
