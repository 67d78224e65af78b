"""Tests for the critical-corner locator.

The strongest oracle is exactness at p = 2: the curvature profile is even
in the tilt, so theta0 = 0, u0 = 1/2, and the corner is (-3, 3) in closed
form.  For general p the dual identities m(B(theta)) * n(theta) = 1 and
f(B(theta)) = g(theta) must hold pointwise, the one root of
``kappa3 * B + (p-2) * A**2`` must sit where n peaks and g bottoms out on a
grid, and the four-decimal reference values are checked at 5e-4.  The
root is checked to 1e-11 against 50-digit mpmath values, and the corner
(beta1_c, beta2_c) to 1e-13 up to p = 10 and to 1e-9 up to p = 500
(theta0 near p/2, where the bracket's right end has doubled from 1 past
it).
"""

import numpy as np
import pytest

from wergm.critical import (
    critical_table,
    f_of_u,
    find_theta0,
    g_of_theta,
    m_of_u,
    n_of_theta,
)
from wergm import cramer
from wergm.cramer import UNIFORM01, finite_support, log_mgf_d1, rate_d1, rate_d2
from wergm.errors import GradientUndefinedError, InputValidationError, ThetaCapError

ATOMS = finite_support([(0.2, 0.3), (0.5, 0.4), (0.8, 0.3)])

# Four-decimal reference values: p -> (theta0, n(theta0), u0, m(u0), g(theta0)).
REFERENCE = {
    2: (0.0, 0.3333, 0.5, 3.0, 3.0),
    3: (1.3251, 0.5575, 0.6073, 1.7937, 1.3222),
    5: (2.9869, 0.8324, 0.7183, 1.2014, 0.1059),
    10: (5.6256, 1.0894, 0.8259, 0.9180, -1.1723),
}

# 50-digit mpmath roots and corners: p -> (theta0, u0, beta1_c, beta2_c).
MPMATH_ROOTS = {
    3: (1.3251039247294337, 0.60732315407479402, -1.3222360441768347,
        1.7937139865795507),
    4: (2.2525074860628187, 0.67353764067116137, -0.57974988536187894,
        1.3958358401509737),
    5: (2.9869343576681699, 0.71832995469162378, -0.10589126752373784,
        1.2013786107254535),
    7: (4.1685955793167362, 0.77582823814537187, 0.52950033767609769,
        1.0185498372564133),
    10: (5.6256328702686598, 0.82585954100561651, 1.1722975792353615,
         0.91796370931443764),
}

# 50-digit mpmath corners at large p: p -> (theta0, beta1_c, beta2_c).
MPMATH_LARGE_P = {
    49: (24.500003310048185, 6.2526040840946031, 0.90465148307426901),
    55: (27.500000268410843, 7.0023148089895264, 0.90673503663157301),
    100: (50.000000000000001, 12.626262626262626, 0.91436459309862432),
    119: (59.5, 15.001059322033898, 0.9158484731450701),
    120: (60.0, 15.126050420168067, 0.91591351868930245),
    150: (75.0, 18.875838926174497, 0.91746069026212067),
    500: (250.0, 62.625250501002004, 0.92178351436363342),
}


class TestDualIdentities:
    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    def test_m_n_product_is_one(self, p):
        for theta in np.linspace(-8.0, 8.0, 33):
            u = log_mgf_d1(UNIFORM01, float(theta))
            assert abs(m_of_u(p, u) * n_of_theta(p, float(theta)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    def test_f_equals_g_along_dual_pairs(self, p):
        for theta in np.linspace(-8.0, 8.0, 33):
            u = log_mgf_d1(UNIFORM01, float(theta))
            assert abs(f_of_u(p, u) - g_of_theta(p, float(theta))) <= 1e-10

    @pytest.mark.parametrize("dist", [UNIFORM01, ATOMS], ids=["uniform", "atoms"])
    def test_f_solves_the_dual_once(self, monkeypatch, dist):
        # One dual_theta serves both rate derivatives, with the same bits as
        # the two separate solves.
        grid = [(p, float(u)) for p in (2, 3, 5, 10, 150)
                for u in np.linspace(0.21, 0.79, 13)]
        expected = [u * rate_d2(dist, u) / (2.0 * (p - 1)) - 0.5 * rate_d1(dist, u)
                    for p, u in grid]
        solves = []
        solve = cramer.dual_theta

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(cramer, "dual_theta", counted)
        for (p, u), old in zip(grid, expected):
            solves.clear()
            assert f_of_u(p, u, dist) == old
            assert len(solves) == 1

    def test_m_is_undefined_where_u_to_the_p_minus_2_vanishes(self):
        # On the atoms -1 and 1, u = 0 is inside the support, and u**(p-2) = 0.
        with pytest.raises(GradientUndefinedError) as excinfo:
            m_of_u(3, 0.0, finite_support([(-1.0, 0.5), (1.0, 0.5)]))
        assert excinfo.value.record() == {
            "module": "critical",
            "operation": "m_of_u",
            "message": "m is undefined at u = 0.0 for p = 3",
            "offending_parameter": "u",
        }

    def test_zero_tilt_closed_forms(self):
        # n(0) = p(p-1)/3 * (1/2)^(p-1) and g(0) = 3/(p-1).
        for p in (2, 3, 5, 10):
            np.testing.assert_allclose(
                n_of_theta(p, 0.0), p * (p - 1) / 3.0 * 0.5 ** (p - 1), rtol=1e-13
            )
            np.testing.assert_allclose(g_of_theta(p, 0.0), 3.0 / (p - 1), rtol=1e-13)

    def test_curvature_profile_vanishes_at_large_tilt(self):
        # n(p, theta) ~ 2p(p-1)/theta^2 * B^(p-2) for large tilts.
        for p in (2, 3):
            assert n_of_theta(p, 300.0) < 1e-3
            assert n_of_theta(p, -300.0) < 1e-3

    def test_tradeoff_function_grows_at_large_tilt(self):
        for p in (2, 3, 5, 10):
            floor = g_of_theta(p, find_theta0(p).theta0)
            assert g_of_theta(p, 30.0) > floor + 10.0
            assert g_of_theta(p, -30.0) > floor + 10.0


class TestFindTheta0:
    def test_p2_corner_is_exact(self):
        data = find_theta0(2)
        assert abs(data.theta0) <= 1e-8
        np.testing.assert_allclose(data.u0, 0.5, atol=1e-9)
        np.testing.assert_allclose(data.n_theta0, 1.0 / 3.0, atol=1e-9)
        np.testing.assert_allclose(data.m_u0, 3.0, atol=1e-9)
        np.testing.assert_allclose(data.beta1_c, -3.0, atol=1e-9)
        np.testing.assert_allclose(data.beta2_c, 3.0, atol=1e-9)

    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    def test_matches_reference_values(self, p):
        theta0, n0, u0, m0, g0 = REFERENCE[p]
        data = find_theta0(p)
        np.testing.assert_allclose(data.theta0, theta0, atol=5e-4)
        np.testing.assert_allclose(data.n_theta0, n0, atol=5e-4)
        np.testing.assert_allclose(data.u0, u0, atol=5e-4)
        np.testing.assert_allclose(data.m_u0, m0, atol=5e-4)
        np.testing.assert_allclose(data.g_theta0, g0, atol=5e-4)
        np.testing.assert_allclose(data.f_u0, g0, atol=5e-4)

    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    def test_corner_consistency(self, p):
        data = find_theta0(p)
        np.testing.assert_allclose(data.u0, log_mgf_d1(UNIFORM01, data.theta0),
                                   atol=1e-10)
        assert abs(data.m_u0 * data.n_theta0 - 1.0) <= 1e-9
        assert abs(data.f_u0 - data.g_theta0) <= 1e-9
        assert data.beta1_c == -data.f_u0
        assert data.beta2_c == data.m_u0

    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    def test_theta0_is_the_grid_optimum(self, p):
        data = find_theta0(p)
        grid = np.linspace(0.0, 20.0, 4001)
        n_values = [n_of_theta(p, float(t)) for t in grid]
        g_values = [g_of_theta(p, float(t)) for t in grid]
        assert abs(grid[int(np.argmax(n_values))] - data.theta0) <= 6e-3
        assert abs(grid[int(np.argmin(g_values))] - data.theta0) <= 6e-3

    @pytest.mark.parametrize("p", sorted(MPMATH_ROOTS))
    def test_root_matches_mpmath(self, p):
        theta0, u0, beta1_c, beta2_c = MPMATH_ROOTS[p]
        data = find_theta0(p)
        assert abs(data.theta0 - theta0) <= 1e-11
        assert abs(data.u0 - u0) <= 1e-11
        np.testing.assert_allclose((data.beta1_c, data.beta2_c), (beta1_c, beta2_c),
                                   rtol=1e-13)

    @pytest.mark.parametrize("p", sorted(MPMATH_LARGE_P))
    def test_large_p_corner_matches_mpmath(self, p):
        data = find_theta0(p)
        np.testing.assert_allclose(
            (data.theta0, data.beta1_c, data.beta2_c), MPMATH_LARGE_P[p], rtol=1e-9
        )

    def test_root_beyond_scan_edge_is_a_typed_error(self):
        # theta0 is about p/2, past the evaluation cap THETA_MAX = 700 here.
        with pytest.raises(ThetaCapError) as excinfo:
            find_theta0(2000)
        assert excinfo.value.record() == {
            "module": "critical",
            "operation": "find_theta0",
            "message": "the critical tilt for p = 2000 lies beyond the searched tilts "
                       "[0, 700]",
            "offending_parameter": "p",
        }

    def test_u0_increases_with_p(self):
        u0s = [find_theta0(p).u0 for p in (2, 3, 4, 5, 7, 10)]
        assert u0s[0] == 0.5
        assert np.all(np.diff(u0s) > 0.0)

    def test_rejects_bad_p(self):
        with pytest.raises(InputValidationError):
            find_theta0(1)

    def test_unhashable_p_is_checked_before_the_cache(self):
        misses = find_theta0.cache_info().misses
        with pytest.raises(InputValidationError) as excinfo:
            find_theta0([3])
        assert excinfo.value.record()["offending_parameter"] == "p"
        assert find_theta0.cache_info().misses == misses

    def test_cached_record_is_read_only(self):
        data = find_theta0(3)
        with pytest.raises(AttributeError):
            data.u0 = 0.0
        assert find_theta0(3) is data

    def test_table_order_preserved(self):
        rows = critical_table([5, 2, 10])
        assert [row.p for row in rows] == [5, 2, 10]
