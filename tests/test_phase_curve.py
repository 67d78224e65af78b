"""Tests for the first-order transition curve.

The p = 2 case carries a closed-form oracle: the maximization objective
is symmetric about u = 1/2 once beta2 = -beta1, so the curve is the
straight line r(beta1) = -beta1 and the two maximizers are mirror images.
For p >= 3 the curve has no closed form; tests pin the defining
properties instead — equal maxima at the tie, sign of the gap on either
side, bracket geometry, and monotone trends along the curve.
"""

import numpy as np
import pytest

from wergm.critical import f_of_u, find_theta0, m_of_u
from wergm.errors import InputValidationError, NoTwoPhaseRegionError
from wergm.phase_curve import (
    bounding_point,
    jump_profile,
    maxima_gap,
    r_of_beta1,
    trace_curve,
)
from wergm.variational import ModelParams, PhaseClass, objective, objective_d1, solve_psi
from wergm.cramer import BERNOULLI_HALF


class TestBoundingPoint:
    @pytest.mark.parametrize("p,beta1", [(2, -5.0), (2, -8.0), (3, -3.0), (5, -1.0)])
    def test_tangency_roots_bracket_u0(self, p, beta1):
        data = find_theta0(p)
        bound = bounding_point(p, beta1)
        assert bound.a < data.u0 < bound.b
        # Both roots solve f(u) = -beta1.
        assert abs(f_of_u(p, bound.a) + beta1) <= 1e-9
        assert abs(f_of_u(p, bound.b) + beta1) <= 1e-9
        assert bound.m_a == m_of_u(p, bound.a)
        assert bound.m_b == m_of_u(p, bound.b)
        assert bound.m_a > bound.m_b

    def test_bracket_narrows_toward_corner(self):
        wide = bounding_point(2, -8.0)
        mid = bounding_point(2, -5.0)
        tight = bounding_point(2, -3.01)
        assert wide.b - wide.a > mid.b - mid.a > tight.b - tight.a
        assert wide.m_a - wide.m_b > mid.m_a - mid.m_b > tight.m_a - tight.m_b
        assert abs(tight.a - 0.5) < 0.1 and abs(tight.b - 0.5) < 0.1

    def test_no_region_at_or_above_corner(self):
        for beta1 in (-3.0, -2.5, 0.0):
            with pytest.raises(NoTwoPhaseRegionError):
                bounding_point(2, beta1)


class TestMaximaGap:
    def test_gap_monotone_across_bracket(self):
        p, beta1 = 2, -5.0
        bound = bounding_point(p, beta1)
        width = bound.m_a - bound.m_b
        samples = np.linspace(bound.m_b + 0.01 * width, bound.m_a - 0.01 * width, 5)
        gaps = [maxima_gap(p, beta1, float(b2)) for b2 in samples]
        finite = [g for g in gaps if np.isfinite(g)]
        assert np.all(np.diff(gaps) > 0.0)
        assert gaps[0] < 0.0 < gaps[-1]
        assert len(finite) >= 3  # interior points have both maxima alive


class TestROfBeta1:
    @pytest.mark.parametrize("beta1", [-3.5, -5.0, -8.0])
    def test_p2_straight_line(self, beta1):
        point = r_of_beta1(2, beta1)
        assert abs(point.r + beta1) <= 1e-6
        # Mirror-image maximizers on the symmetric tie.
        np.testing.assert_allclose(point.u1_star + point.u2_star, 1.0, atol=1e-8)

    @pytest.mark.parametrize("beta1", [-2.0, -3.0, -4.0])
    def test_p3_curve_sits_above_straight_line(self, beta1):
        point = r_of_beta1(3, beta1)
        assert point.r + beta1 > 0.0

    @pytest.mark.parametrize(
        "p,beta1", [(2, -5.0), (3, -3.0), (5, -2.0), (3, -9.0), (5, -4.0), (10, -3.0)]
    )
    def test_tie_has_equal_stationary_maxima(self, p, beta1):
        point = r_of_beta1(p, beta1)
        params = ModelParams(beta1, point.r, p)
        assert abs(objective(params, point.u1_star) - objective(params, point.u2_star)) <= 1e-8
        assert abs(objective_d1(params, point.u1_star)) <= 1e-6
        assert abs(objective_d1(params, point.u2_star)) <= 1e-6
        assert point.u1_star < find_theta0(p).u0 < point.u2_star
        np.testing.assert_allclose(
            point.psi, objective(params, point.u2_star), atol=1e-12
        )

    @pytest.mark.parametrize("p,beta1", [(2, -5.0), (3, -3.0)])
    def test_off_curve_side_selection(self, p, beta1):
        point = r_of_beta1(p, beta1)
        u0 = find_theta0(p).u0
        below = solve_psi(ModelParams(beta1, point.r - 0.01, p))
        above = solve_psi(ModelParams(beta1, point.r + 0.01, p))
        assert below.classification is PhaseClass.UNIQUE
        assert above.classification is PhaseClass.UNIQUE
        assert below.maximizers[0] < u0 < above.maximizers[0]

    @pytest.mark.parametrize(
        "p,beta1", [(2, -5.0), (3, -3.0), (3, -9.0), (5, -4.0), (10, -3.0)]
    )
    def test_on_curve_two_global(self, p, beta1):
        point = r_of_beta1(p, beta1)
        solution = solve_psi(ModelParams(beta1, point.r, p))
        assert solution.classification is PhaseClass.TWO_GLOBAL
        np.testing.assert_allclose(
            solution.maximizers, (point.u1_star, point.u2_star), atol=1e-6
        )

    def test_r_inside_bounding_bracket(self):
        for p, beta1 in ((2, -6.0), (3, -2.5)):
            bound = bounding_point(p, beta1)
            point = r_of_beta1(p, beta1)
            assert bound.m_b < point.r < bound.m_a

    def test_rejects_non_uniform_law(self):
        with pytest.raises(InputValidationError):
            r_of_beta1(2, -5.0, BERNOULLI_HALF)


class TestTraceAndJump:
    def test_trace_monotone_quantities(self):
        points = trace_curve(2, -8.0, -3.1, 12)
        rs = [pt.r for pt in points]
        u1s = [pt.u1_star for pt in points]
        u2s = [pt.u2_star for pt in points]
        jumps = [u2 - u1 for u1, u2 in zip(u1s, u2s)]
        assert np.all(np.diff(rs) < 0.0)
        assert np.all(np.diff(u1s) > 0.0)
        assert np.all(np.diff(u2s) < 0.0)
        assert np.all(np.diff(jumps) < 0.0)
        assert all(jump > 0.0 for jump in jumps)

    def test_trace_clamps_at_corner_margin(self):
        corner = find_theta0(2).beta1_c
        points = trace_curve(2, -4.0, corner, 5)
        assert all(pt.beta1 < corner for pt in points)
        with pytest.raises(InputValidationError):
            trace_curve(2, -4.0, 0.0, 5)

    def test_jump_profile_p2_components_equal(self):
        edge_jump, sub_jump = jump_profile(2, -5.0)
        # u2^2 - u1^2 = (u2 - u1)(u2 + u1) = u2 - u1 on the symmetric tie.
        np.testing.assert_allclose(edge_jump, sub_jump, atol=1e-8)
        assert edge_jump > 0.5

    def test_jump_shrinks_toward_corner(self):
        jumps = [jump_profile(2, b1)[0] for b1 in (-5.0, -4.0, -3.5, -3.1)]
        assert np.all(np.diff(jumps) < 0.0)
        assert jumps[-1] < 0.35
