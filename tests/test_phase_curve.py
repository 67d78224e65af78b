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

from wergm import cramer, phase_curve, variational
from wergm.critical import critical_table, f_of_u, find_theta0, m_of_u
from wergm.errors import InputValidationError, NoTwoPhaseRegionError, ThetaCapError
from wergm.phase_curve import (
    bounding_point,
    jump_profile,
    maxima_gap,
    r_of_beta1,
    trace_curve,
)
from wergm.variational import (
    ModelParams,
    PhaseClass,
    objective,
    objective_d1,
    solve_psi,
)
from wergm.cramer import BERNOULLI_HALF, UniformLaw


class TestBoundingPoint:
    #: 50-digit mpmath references for (m_a, m_b): m = 1/n at the roots of
    #: g = -beta1.
    BOUNDS = {
        (2, -5.0): (6.5171151620929480811, 4.5196718561758923516),
        (2, -8.0): (16.044595637868503561, 6.4953824979094408112),
        (3, -3.0): (6.4312524781786663922, 2.8109827931687954091),
        (5, -1.0): (3.4057549186348630812, 1.6386195185789468071),
    }

    @pytest.mark.parametrize("p,beta1", list(BOUNDS))
    def test_tangency_roots_bracket_u0(self, p, beta1):
        m_a, m_b = self.BOUNDS[p, beta1]
        data = find_theta0(p)
        bound = bounding_point(p, beta1)
        assert bound.a < data.u0 < bound.b
        # Both roots solve f(u) = -beta1.
        assert abs(f_of_u(p, bound.a) + beta1) <= 1e-9
        assert abs(f_of_u(p, bound.b) + beta1) <= 1e-9
        assert bound.m_a == pytest.approx(m_a, rel=1e-12)
        assert bound.m_b == pytest.approx(m_b, rel=1e-12)
        assert bound.m_a > bound.m_b

    def test_bounds_of_a_deep_tie(self):
        # Both tangency roots need tilts past the dual solve's cap of 700;
        # 50-digit mpmath references.
        bound = bounding_point(2, -1000.0)
        assert bound.m_a == pytest.approx(250000.0, rel=1e-12)
        assert bound.m_b == pytest.approx(522.86626924634504170, rel=1e-12)
        assert bound.m_b < r_of_beta1(2, -1000.0).r < bound.m_a

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

    @pytest.mark.parametrize("p,beta1", [(156, -70.64), (173, -40.963), (181, -34.213)])
    def test_upper_bound_past_float_range_is_inf(self, p, beta1):
        # a**(p-2) underflows to 0, so m(a) is above the float range.
        bound = bounding_point(p, beta1)
        assert bound.a ** (p - 2) == 0.0
        assert bound.m_a == np.inf
        assert bound.m_b == pytest.approx(m_of_u(p, bound.b), rel=1e-9)
        assert bound.m_b < r_of_beta1(p, beta1).r

    @pytest.mark.parametrize(
        "fn", [bounding_point, r_of_beta1], ids=lambda fn: fn.__name__
    )
    @pytest.mark.parametrize("p,beta1", [(3, -1e100), (2, -1e200)])
    def test_turning_tilts_out_of_float_reach_name_the_caller(self, fn, p, beta1):
        # The left turning tilt lies near theta = -1e100 (-1e200), where
        # A**2 underflows in g' before widen reaches it.
        with pytest.raises(ThetaCapError) as excinfo:
            fn(p, beta1)
        assert excinfo.value.record() == {
            "module": "phase_curve",
            "operation": fn.__name__,
            "message": f"the turning tilts for p = {p} at beta1 = {beta1:g} cannot be "
                       "bracketed in floating point",
            "offending_parameter": "beta1",
        }

    def test_maxima_out_of_float_reach_name_the_caller(self):
        # m_a is inf here, so beta2 = 1e307 lies between the bounds, and the
        # maxima's root bound 2*(beta1 +- p*beta2) overflows.
        with pytest.raises(ThetaCapError) as excinfo:
            maxima_gap(156, -70.64, 1e307)
        record = excinfo.value.record()
        assert (record["module"], record["operation"]) == ("phase_curve", "maxima_gap")
        assert record["offending_parameter"] == "beta2"


def test_tie_out_of_float_reach_names_r_of_beta1(monkeypatch):
    # No tested point reaches it.  Here h is held at m_b, below m_a, and the
    # value at each tilt falls with the tilt, so the gap stays below 0 and
    # the tilt that sets the upper end of the bracket doubles until it
    # overflows.
    turns = phase_curve._turns(3, -3.0, "r_of_beta1")
    monkeypatch.setattr(phase_curve, "_turns", lambda p, beta1, operation: turns)
    monkeypatch.setattr(phase_curve, "_h", lambda p, beta1, theta: turns[4])
    monkeypatch.setattr(
        variational, "at_tilt", lambda params, theta: variational.Maximizer(0.5, -theta)
    )
    with pytest.raises(ThetaCapError) as excinfo:
        r_of_beta1(3, -3.0)
    assert excinfo.value.record() == {
        "module": "phase_curve",
        "operation": "r_of_beta1",
        "message": "the transition beta2 for p = 3 at beta1 = -3 cannot be bracketed "
                   "in floating point",
        "offending_parameter": "beta1",
    }


def test_corner_and_curve_make_no_dual_solve(monkeypatch):
    # The corner is read off n and g at theta0, and the curve and its bounds
    # off the turning tilts, so no mean is ever mapped back to its tilt.
    def refuse(dist, u):
        raise AssertionError(f"dual solve at u = {u!r}")

    monkeypatch.setattr(cramer, "dual_theta", refuse)
    find_theta0.cache_clear()
    try:
        critical_table([2, 3, 5, 10, 150])
        assert len(trace_curve(3, -4.0, -1.5, 4)) == 4
        bounding_point(3, -2.0)
    finally:
        find_theta0.cache_clear()


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

    def test_no_upper_maximum_at_or_below_m_b(self):
        bound = bounding_point(3, -3.0)
        assert maxima_gap(3, -3.0, bound.m_b - 0.1) == -np.inf

    def test_no_lower_maximum_at_or_above_m_a(self):
        bound = bounding_point(3, -3.0)
        assert maxima_gap(3, -3.0, bound.m_a) == maxima_gap(3, -3.0, bound.m_a + 0.1) == np.inf


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
        "p,beta1",
        [(2, -5.0), (3, -3.0), (3, -9.0), (5, -4.0), (10, -3.0), (116, 0.0)],
    )
    def test_on_curve_two_global(self, p, beta1):
        point = r_of_beta1(p, beta1)
        solution = solve_psi(ModelParams(beta1, point.r, p))
        assert solution.classification is PhaseClass.TWO_GLOBAL
        np.testing.assert_allclose(
            solution.maximizers, (point.u1_star, point.u2_star), atol=1e-6
        )

    def test_r_inside_bounding_bracket(self):
        # At p = 116, B**(p-1) underflows to 0 at the window's left edge.
        for p, beta1 in ((2, -6.0), (3, -2.5), (116, 0.0)):
            bound = bounding_point(p, beta1)
            point = r_of_beta1(p, beta1)
            assert bound.m_b < point.r < bound.m_a

    def test_rejects_non_uniform_law(self):
        with pytest.raises(InputValidationError):
            r_of_beta1(2, -5.0, BERNOULLI_HALF)

    def test_tie_past_tilt_window_matches_reference(self):
        # Deep ties whose upper maximum (or, at p = 2 and beta1 = -1000, both
        # maxima) sits at a tilt past THETA_WINDOW; the p = 150 one is at
        # theta ~ 6427.  50-digit mpmath references for r; p = 2 is exact.
        assert find_theta0(150).beta1_c > -19.5
        for p, beta1, r in (
            (150, -19.5, 22.058212058688786458),
            (10, -40.0, 41.110409719083955573),
            (100, -10.0, 12.395470899920000573),
            (2, -1000.0, 1000.0),
        ):
            assert abs(r_of_beta1(p, beta1).r - r) <= 1e-13 * r

    @pytest.mark.parametrize(
        "p,beta1,r",
        [
            # 50-digit mpmath references: the root in beta2 of the gap
            # between the two roots of h = beta2.
            (3, -1.5, 1.955706865157725613),
            (3, -2.5, 2.9025842657309200987),
            (3, -5.0, 5.3669795144272964617),
            (5, -0.5, 1.5101751870045351619),
            (5, -2.0, 2.8390032110584047254),
            (5, -6.0, 6.7412749621555447911),
        ],
    )
    def test_matches_high_precision_reference(self, p, beta1, r):
        assert abs(r_of_beta1(p, beta1).r - r) <= 1e-13 * r

    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    def test_corner_adjacent_tie_converges(self, p):
        # The last point trace_curve reaches, where the tie is close to a
        # double root.
        beta1 = find_theta0(p).beta1_c - 1e-3
        bound = bounding_point(p, beta1)
        point = r_of_beta1(p, beta1)
        assert bound.m_b < point.r < bound.m_a
        assert point.u1_star < find_theta0(p).u0 < point.u2_star
        assert abs(maxima_gap(p, beta1, point.r)) <= 1e-14
        if p == 2:
            assert abs(point.r + beta1) <= 1e-13

    def test_underflow_case_converges(self):
        # B**(p-1) underflows at the left window edge for p = 116.
        point = r_of_beta1(116, 0.0)
        assert abs(maxima_gap(116, 0.0, point.r)) <= 1e-14 * max(1.0, abs(point.psi))

    @staticmethod
    def _count_law_calls(monkeypatch) -> list:
        calls = []
        for name in ("log_mgf", "mean", "var", "skew"):
            method = getattr(UniformLaw, name)

            def counted(self, theta, _method=method):
                calls.append(theta)
                return _method(self, theta)

            monkeypatch.setattr(UniformLaw, name, counted)
        return calls

    @pytest.mark.parametrize(
        "p,beta1", [(2, -8.0), (2, -3.1), (3, -3.5), (5, -1.0), (10, -40.0), (150, -19.5)]
    )
    def test_uniform_law_evaluations_per_point(self, monkeypatch, p, beta1):
        # A call count, not a timing: safeguarded Newton needs a few hundred
        # evaluations per point, a bisection fallback thousands.
        find_theta0(p)  # cached corner, not part of the point
        calls = self._count_law_calls(monkeypatch)
        r_of_beta1(p, beta1)
        assert 0 < len(calls) <= 600

    def test_mean_law_evaluations_on_workload_points(self, monkeypatch):
        # The phase-diagram workload's curve ranges: the tie solves only the
        # lower maximum per step, about 218 evaluations per point, where a
        # search in beta2 that solves both maxima per step needs about 251.
        points = [(2, float(b)) for b in np.linspace(-8.0, -3.5, 20)]
        points += [(3, float(b)) for b in np.linspace(-4.0, -1.6, 20)]
        find_theta0(2), find_theta0(3)  # cached corners, not part of a point
        calls = self._count_law_calls(monkeypatch)
        for p, beta1 in points:
            r_of_beta1(p, beta1)
        assert len(calls) / len(points) <= 230

    @pytest.mark.parametrize(
        "p,beta1", [(2, -8.0), (2, -3.1), (3, -3.5), (5, -1.0), (10, -40.0), (150, -19.5)]
    )
    def test_no_newton_solve_for_the_upper_maximum(self, monkeypatch, p, beta1):
        # The tie's root is the upper maximizer's tilt itself, so the one
        # Newton search whose bracket starts at theta_b is the tie's own.
        theta_b = phase_curve._turns(p, beta1, "r_of_beta1")[2]
        starts = []
        newton = cramer.newton

        def counted(fn, lo, *args):
            starts.append(lo)
            return newton(fn, lo, *args)

        monkeypatch.setattr(cramer, "newton", counted)
        r_of_beta1(p, beta1)
        assert starts.count(theta_b) == 1

    @pytest.mark.parametrize("beta1,psi", [
        # 80-digit mpmath references at r = -beta1.
        (-1e6, -7.2543286192618597),
        (-1e9, -10.708206508503178),
        (-1e12, -14.162084148243997),
    ])
    def test_deep_tie_psi_is_the_lower_maximizers_value(self, beta1, psi):
        # At the upper maximizer beta1*u and beta2*u**p are both about
        # |beta1| and cancel, so its value carries an error of |beta1|*2**-52.
        assert abs(r_of_beta1(2, beta1).psi - psi) <= 1e-13 * abs(psi)

    @pytest.mark.parametrize(
        "p,beta1", [(2, -8.0), (2, -1000.0), (3, -3.5), (10, -40.0), (150, -19.5)]
    )
    def test_widen_calls_per_point(self, monkeypatch, p, beta1):
        # One bracket per turning tilt and one for the upper end of the tie's
        # search in the upper maximizer's tilt; the lower maximum is
        # bracketed by the root bound on D.
        find_theta0(p)  # cached corner, not part of the point
        calls = []
        widen = cramer.widen

        def counted(*args, **kwargs):
            calls.append(args[1])
            return widen(*args, **kwargs)

        monkeypatch.setattr(cramer, "widen", counted)
        r_of_beta1(p, beta1)
        assert len(calls) <= 3


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

    def test_records_are_read_only(self):
        point = trace_curve(2, -5.0, -4.0, 2)[0]
        for record, name in ((point, "r"), (bounding_point(2, -5.0), "m_a")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)

    def test_trace_clamps_at_corner_margin(self):
        corner = find_theta0(2).beta1_c
        points = trace_curve(2, -4.0, corner, 5)
        assert all(pt.beta1 < corner for pt in points)
        with pytest.raises(InputValidationError):
            trace_curve(2, -4.0, 0.0, 5)

    def test_empty_range_is_a_record(self):
        with pytest.raises(InputValidationError) as excinfo:
            trace_curve(3, -1.5, -2.0, 5)
        assert excinfo.value.record() == {
            "module": "phase_curve",
            "operation": "trace_curve",
            "message": "empty tracing range: [-1.5, -2]",
            "offending_parameter": "beta1_lo",
        }

    def test_jump_profile_p2_components_equal(self):
        edge_jump, sub_jump = jump_profile(2, -5.0)
        # u2^2 - u1^2 = (u2 - u1)(u2 + u1) = u2 - u1 on the symmetric tie.
        np.testing.assert_allclose(edge_jump, sub_jump, atol=1e-8)
        assert edge_jump > 0.5

    def test_jump_shrinks_toward_corner(self):
        jumps = [jump_profile(2, b1)[0] for b1 in (-5.0, -4.0, -3.5, -3.1)]
        assert np.all(np.diff(jumps) < 0.0)
        assert jumps[-1] < 0.35
