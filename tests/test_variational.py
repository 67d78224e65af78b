"""Tests for the scalar variational problem behind the normalization limit.

Key oracles:

- with beta2 = 0 and coin weights the maximizer has the closed form
  u* = sigmoid(2*beta1), checked against a brute-force grid sup as well;
- psi_gradient must match central finite differences of solve_psi;
- the two-maximizer point (-5, 5) at p = 2 reproduces the known tie with
  maximizers near 0.137 / 0.863 and value near -1.0854;
- high-precision references: the C02 maximizers are the roots of
  ``D(theta) = -5 + 10*B(theta) - theta/2`` computed to 50 digits with
  mpmath, and for the fair coin at (-12, 6, p = 10) the stationary tilt is
  ``2*beta1 = -24`` up to ``120*B**9 ~ 1e-92``, so ``u* = 1/(1 + e**24)``
  and ``psi = log M(-24) / 2`` in closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wergm import cramer
from wergm.cramer import BERNOULLI_HALF, UNIFORM01, finite_support, rate
from wergm import variational
from wergm.errors import (
    AttractiveRegionError,
    GradientUndefinedError,
    InputValidationError,
    ThetaCapError,
)
from wergm.phase_curve import bounding_point
from wergm.variational import (
    ModelParams,
    PhaseClass,
    local_maxima,
    objective,
    objective_d1,
    objective_d2,
    psi_gradient,
    solve_psi,
)


def linear_scan_maxima(params: ModelParams) -> tuple:
    """``local_maxima`` by evaluating ``D`` at every grid point.

    The full pass that the pruned scan replaced, kept as its oracle: the
    same pieces of the root interval, cut at whichever of +-THETA_WINDOW lie
    inside it, the same grid on each, the same crossing test and the
    same ``newton`` call on each crossing pair.
    """
    slope, slope_d1 = variational.stationarity(params)
    lo, hi = variational._root_interval(params)
    window, points = variational.THETA_WINDOW, variational.GRID_POINTS
    cuts = [lo, *(t for t in (-window, window) if lo < t < hi), hi]
    grid = []
    for start, end in zip(cuts, cuts[1:]):
        step = (end - start) / (points - 1)
        grid += [start + i * step for i in range(points - 1)]
    grid.append(hi)
    roots = []
    theta_prev, d_prev = grid[0], slope(grid[0])[0]
    for theta_here in grid[1:]:
        d_here = slope(theta_here)[0]
        if d_prev > 0.0 and d_here <= 0.0:
            roots.append(cramer.newton(slope_d1, theta_prev, theta_here, d_prev, 0.0))
        theta_prev, d_prev = theta_here, d_here
    # A mean within _ENDPOINT_ULPS ulps of an endpoint atom is that endpoint.
    ulps = variational._ENDPOINT_ULPS
    (s_lo, s_hi), (e_lo, e_hi) = params.dist.support, params.dist.endpoint_rate
    above = s_lo + ulps * math.ulp(s_lo) if math.isfinite(e_lo) else -math.inf
    below = s_hi - ulps * math.ulp(s_hi) if math.isfinite(e_hi) else math.inf
    found = (variational.at_tilt(params, theta) for theta in roots)
    return tuple(m for m in found if above < m.u < below)


def _atom_law(values, weights):
    total = sum(weights)
    return finite_support([(v, w / total) for v, w in zip(values, weights)])


#: The uniform, the coin and 2-5-atom laws, some with negative atoms or
#: atoms above 1.
laws = st.one_of(
    st.just(UNIFORM01),
    st.just(BERNOULLI_HALF),
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5, unique=True).flatmap(
        lambda values: st.lists(
            st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)
        ).map(lambda weights: _atom_law(values, weights))
    ),
)

#: (beta1, beta2, p) off and on the p = 2 tie line beta2 = -beta1.
model_points = st.one_of(
    st.tuples(st.floats(-15.0, 5.0), st.floats(0.0, 15.0), st.sampled_from([2, 3, 4, 5, 10])),
    st.floats(-15.0, 0.0).map(lambda beta1: (beta1, -beta1, 2)),
)

THREE_ATOMS = finite_support([(0.2, 0.3), (0.5, 0.4), (0.8, 0.3)])


def coin_psi_closed_form(beta1: float) -> tuple[float, float]:
    """Exact (psi, u*) for coin weights with beta2 = 0."""
    u = 1.0 / (1.0 + math.exp(-2.0 * beta1))
    return beta1 * u - rate(BERNOULLI_HALF, u) / 2.0, u


class TestObjective:
    def test_zero_parameters_zero_at_half(self):
        params = ModelParams(0.0, 0.0, 2)
        assert objective(params, 0.5) == 0.0
        assert abs(objective_d1(params, 0.5)) <= 1e-12
        np.testing.assert_allclose(objective_d2(params, 0.5), -6.0, rtol=1e-12)

    def test_value_assembles_parts(self):
        params = ModelParams(1.5, 0.7, 3)
        for u in (0.2, 0.5, 0.9):
            expected = 1.5 * u + 0.7 * u**3 - rate(UNIFORM01, u) / 2.0
            np.testing.assert_allclose(objective(params, u), expected, rtol=1e-13)

    def test_derivatives_match_finite_differences(self):
        params = ModelParams(-2.0, 1.3, 3)
        h = 1e-6
        for u in (0.2, 0.45, 0.8):
            fd1 = (objective(params, u + h) - objective(params, u - h)) / (2 * h)
            fd2 = (objective_d1(params, u + h) - objective_d1(params, u - h)) / (
                2 * h
            )
            np.testing.assert_allclose(objective_d1(params, u), fd1, atol=1e-7)
            np.testing.assert_allclose(objective_d2(params, u), fd2, rtol=1e-5)

    def test_no_power_of_u_at_beta2_zero(self):
        # At p = 2000 on the atoms 0 and 2, u = 1.9 (tilt log(19)/2) has
        # u**1998 and u**1999 past the float range, but their factor is 0.
        params = ModelParams(0.0, 0.0, 2000, finite_support([(0.0, 0.5), (2.0, 0.5)]))
        assert math.isclose(objective_d1(params, 1.9), -math.log(19.0) / 4.0, rel_tol=1e-12)
        assert math.isclose(objective_d2(params, 1.9), -1.0 / 0.38, rel_tol=1e-12)

    @pytest.mark.parametrize("fn", [objective, objective_d1, objective_d2])
    def test_overflowing_power_is_a_typed_error(self, fn):
        with pytest.raises(ThetaCapError) as excinfo:
            fn(ModelParams(0.0, 1.0, 2000, finite_support([(0.0, 0.5), (2.0, 0.5)])), 1.9)
        record = excinfo.value.record()
        assert record["module"] == "variational"
        assert record["operation"] == fn.__name__
        assert record["offending_parameter"] == "u"


class TestModelParamsValidation:
    def test_negative_beta2_rejected(self):
        with pytest.raises(AttractiveRegionError):
            ModelParams(0.0, -0.1, 2)

    def test_p_below_two_rejected(self):
        with pytest.raises(InputValidationError):
            ModelParams(0.0, 0.0, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(InputValidationError):
            ModelParams(math.nan, 0.0, 2)
        with pytest.raises(InputValidationError):
            ModelParams(0.0, math.inf, 2)

    def test_coerces_betas_to_float_and_p_to_int(self):
        params = ModelParams(-5, 5, 2.0)
        assert params == (-5.0, 5.0, 2, UNIFORM01)
        assert type(params.beta1) is float and type(params.beta2) is float
        assert type(params.p) is int

    @pytest.mark.parametrize(
        "args, error, parameter, message",
        [
            ((math.nan, -1.0, 1, "uniform"), InputValidationError, "dist",
             "dist must be an EdgeDistribution, got str"),
            ((math.nan, -1.0, 1), InputValidationError, "beta1",
             "beta1 must be a finite real, got nan"),
            (("x", -2, 0), InputValidationError, "beta1",
             "beta1 must be a finite real, got 'x'"),
            ((0.0, math.inf, 1.5), InputValidationError, "beta2",
             "beta2 must be a finite real, got inf"),
            ((1, -0.5, 2.5), AttractiveRegionError, "beta2",
             "beta2 = -0.5 is repulsive; the variational formula requires beta2 >= 0"),
        ],
        ids=["dist", "beta1-nan", "beta1-str", "beta2-inf", "beta2-sign"],
    )
    def test_first_bad_field_is_the_one_reported(self, args, error, parameter, message):
        # The checks run in a fixed order: dist, beta1, beta2, its sign, p.
        with pytest.raises(error) as excinfo:
            ModelParams(*args)
        assert excinfo.value.record() == {
            "module": "variational",
            "operation": "ModelParams",
            "message": message,
            "offending_parameter": parameter,
        }

    def test_records_are_read_only(self):
        params = ModelParams(-5.0, 5.0, 2)
        solution = solve_psi(params)
        maximizer = local_maxima(params)[0]
        for record, name in ((params, "beta2"), (solution, "psi"), (maximizer, "u")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)


class TestSolvePsi:
    def test_free_case_concentrates_at_half(self):
        solution = solve_psi(ModelParams(0.0, 0.0, 2))
        assert solution.classification is PhaseClass.UNIQUE
        np.testing.assert_allclose(solution.maximizers[0], 0.5, atol=1e-10)
        np.testing.assert_allclose(solution.psi, 0.0, atol=1e-12)
        assert not solution.includes_endpoint

    def test_two_global_maximizers_at_known_tie(self):
        solution = solve_psi(ModelParams(-5.0, 5.0, 2))
        assert solution.classification is PhaseClass.TWO_GLOBAL
        assert len(solution.maximizers) == 2
        np.testing.assert_allclose(solution.maximizers[0], 0.137, atol=1e-3)
        np.testing.assert_allclose(solution.maximizers[1], 0.863, atol=1e-3)
        np.testing.assert_allclose(solution.psi, -1.0854, atol=1e-3)
        # Equal heights and stationarity, to solver precision.
        params = ModelParams(-5.0, 5.0, 2)
        u1, u2 = solution.maximizers
        assert abs(objective(params, u1) - objective(params, u2)) <= 1e-9
        assert abs(objective_d1(params, u1)) <= 1e-6
        assert abs(objective_d1(params, u2)) <= 1e-6
        # The two maximizers are mirror images here: beta1*u + beta2*u^2
        # with beta2 = -beta1 is symmetric about 1/2, and so is the rate.
        np.testing.assert_allclose(u1 + u2, 1.0, atol=1e-9)

    def test_unique_low_maximizer_below_tie(self):
        solution = solve_psi(ModelParams(-5.7, 5.0, 2))
        assert solution.classification is PhaseClass.UNIQUE
        assert len(solution.maximizers) == 1
        assert solution.maximizers[0] < 0.5
        assert abs(objective_d1(ModelParams(-5.7, 5.0, 2), solution.maximizers[0])) <= 1e-8

    def test_unique_high_maximizer_above_tie(self):
        solution = solve_psi(ModelParams(-4.3, 5.0, 2))
        assert solution.classification is PhaseClass.UNIQUE
        assert len(solution.maximizers) == 1
        assert solution.maximizers[0] > 0.5
        assert abs(objective_d1(ModelParams(-4.3, 5.0, 2), solution.maximizers[0])) <= 1e-8

    def test_corner_plateau_merges_to_unique(self):
        solution = solve_psi(ModelParams(-3.0, 3.0, 2))
        assert solution.classification is PhaseClass.UNIQUE
        np.testing.assert_allclose(solution.maximizers[0], 0.5, atol=1e-3)

    @pytest.mark.parametrize("beta1, phases", [
        (-3.0, 2), (-2.0, 2), (-1.2, 2), (-0.8, 1), (-0.5, 1),
    ])
    def test_coin_p2_tie_line_ends_at_the_radin_yin_corner(self, beta1, phases):
        # Radin & Yin (2013): the coin's corner is (log(p-1)/2 - p/(2(p-1)),
        # p**(p-1)/(2(p-1)**p)), which is (-1, 1) at p = 2.  w -> 1 - w maps
        # the objective at (beta1, -beta1) onto itself, so beta2 = -beta1 is
        # the exact tie line: maxima at u and 1 - u below the corner, one
        # maximum at 1/2 above it.  Rounding bound as for the uniform's tie
        # line in test_properties.py.
        solution = solve_psi(ModelParams(beta1, -beta1, 2, BERNOULLI_HALF))
        if phases == 1:
            assert solution.classification is PhaseClass.UNIQUE
            assert solution.maximizers == (0.5,)
            return
        assert solution.classification is PhaseClass.TWO_GLOBAL
        u1, u2 = solution.maximizers
        assert abs(u1 + u2 - 1.0) <= 16.0 * math.ulp(1.0) / (u2 - u1) ** 2

    def test_coin_closed_form_and_grid_oracle(self):
        # Vectorized entropy expression, independent of the rate module.
        grid = np.linspace(1e-9, 1.0 - 1e-9, 1_000_001)
        entropy_rate = (
            math.log(2.0) + grid * np.log(grid) + (1.0 - grid) * np.log1p(-grid)
        )
        for beta1 in (-1.5, -0.3, 0.0, 0.8, 2.0):
            params = ModelParams(beta1, 0.0, 2, BERNOULLI_HALF)
            solution = solve_psi(params)
            psi_exact, u_exact = coin_psi_closed_form(beta1)
            np.testing.assert_allclose(solution.psi, psi_exact, atol=1e-10)
            np.testing.assert_allclose(solution.maximizers[0], u_exact, atol=1e-8)
            brute = float(np.max(beta1 * grid - entropy_rate / 2.0))
            assert brute <= solution.psi + 1e-12
            np.testing.assert_allclose(solution.psi, brute, atol=1e-8)

    def test_single_sign_change_in_repulsive_wedge(self):
        # Below the corner slope the derivative crosses zero exactly once.
        cases = [(-5.0, 2.9, 2), (0.0, 3.0, 2), (2.0, 1.5, 3)]
        # Stay inside the means reachable under the tilt cap.
        grid = np.linspace(0.002, 0.998, 20001)
        for beta1, beta2, p in cases:
            params = ModelParams(beta1, beta2, p)
            signs = np.sign([objective_d1(params, float(u)) for u in grid])
            flips = np.sum(np.abs(np.diff(signs)) > 0)
            assert flips == 1
            assert len(local_maxima(params)) == 1

    def test_psi_monotone_in_each_parameter(self):
        psis_b1 = [
            solve_psi(ModelParams(b1, 1.0, 2)).psi for b1 in np.linspace(-2, 2, 9)
        ]
        assert np.all(np.diff(psis_b1) > 0.0)
        psis_b2 = [
            solve_psi(ModelParams(1.0, b2, 3)).psi for b2 in np.linspace(0, 4, 9)
        ]
        assert np.all(np.diff(psis_b2) > 0.0)

    def test_larger_grid_agrees(self, monkeypatch):
        params = ModelParams(-1.2, 2.1, 4)
        a = solve_psi(params)
        monkeypatch.setattr(variational, "GRID_POINTS", 8192)
        b = solve_psi(params)
        np.testing.assert_allclose(a.psi, b.psi, atol=1e-11)
        np.testing.assert_allclose(a.maximizers, b.maximizers, atol=1e-9)

    def test_endpoint_maximizer_for_atom_endpoints(self):
        # A strong edge tilt pushes the coin maximizer to the support
        # endpoint, which carries finite rate and is admitted explicitly.
        solution = solve_psi(ModelParams(20.0, 0.0, 2, BERNOULLI_HALF))
        assert solution.includes_endpoint
        assert solution.classification is PhaseClass.UNIQUE
        np.testing.assert_allclose(solution.maximizers[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(
            solution.psi, 20.0 - math.log(2.0) / 2.0, atol=1e-9
        )

    def test_uniform_never_reports_endpoints(self):
        for beta1 in (-30.0, 0.0, 30.0):
            solution = solve_psi(ModelParams(beta1, 2.0, 2))
            assert not solution.includes_endpoint

    @pytest.mark.parametrize(
        "params,psi,maximizers,atol,rtol",
        [
            (
                ModelParams(-5.0, 5.0, 2),
                -1.0853865810374499,
                (0.13705900640440021, 0.86294099359559979),
                1e-13,
                0.0,
            ),
            (
                ModelParams(-12.0, 6.0, 10, BERNOULLI_HALF),
                0.5 * (math.log1p(math.exp(-24.0)) - math.log(2.0)),
                (1.0 / (1.0 + math.exp(24.0)),),
                0.0,
                1e-9,
            ),
        ],
        ids=["c02", "coin-near-endpoint"],
    )
    def test_high_precision_reference(self, params, psi, maximizers, atol, rtol):
        solution = solve_psi(params)
        assert abs(solution.psi - psi) <= 1e-15
        assert len(solution.maximizers) == len(maximizers)
        np.testing.assert_allclose(solution.maximizers, maximizers, rtol=rtol, atol=atol)
        assert not solution.includes_endpoint

    @pytest.mark.parametrize(
        "beta1,beta2,psi,u",
        [
            (-300.0, 400.0, 96.546523002221355, 0.99899839485942781),
            (0.0, 300.0, 296.45517008929795, 0.99916597106239791),
        ],
        ids=["-300.0-400.0", "0.0-300.0"],
    )
    def test_maximum_beyond_tilt_window_is_found(self, beta1, beta2, psi, u):
        # The global maximum sits at theta ~ 998 and ~ 1199, past
        # THETA_WINDOW.  The bound |2*beta2*B| <= 2*beta2 puts every root of
        # D in [2*(beta1 - 2*beta2), 2*(beta1 + 2*beta2)], and D > 0 at the
        # window's right edge, so the part of that interval beyond it is
        # scanned too.  50-digit mpmath references.
        solution = solve_psi(ModelParams(beta1, beta2, 2))
        assert solution.classification is PhaseClass.UNIQUE
        assert math.isclose(solution.psi, psi, rel_tol=1e-9)
        assert math.isclose(solution.maximizers[0], u, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "params,u",
        [
            (
                ModelParams(-3.240501668341455, 3.579218250263246, 3),
                0.1672598422794949915972741,
            ),
            (
                ModelParams(
                    -1.4405035314976795,
                    0.9589601238507757,
                    2,
                    finite_support([(0.2, 0.3), (0.5, 0.4), (0.8, 0.3)]),
                ),
                0.435819369837497541948007,
            ),
        ],
        ids=["uniform-p3", "three-atoms-p2"],
    )
    def test_maximizer_matches_50_digit_reference(self, params, u):
        # B at the root of D(theta), computed with mpmath at 50 digits for
        # the binary values of the parameters and atoms.  The root ends at
        # adjacent floats, so only the rounding of B and D remains.
        solution = solve_psi(params)
        assert len(solution.maximizers) == 1
        assert abs(solution.maximizers[0] - u) <= 2.0 * math.ulp(u)


class TestLocalMaxima:
    @pytest.mark.parametrize("p,beta1", [(2, -5.0), (3, -2.5), (5, -1.5)])
    @pytest.mark.parametrize("side", ["m_b", "m_a"])
    def test_both_maxima_at_the_v_region_edges(self, p, beta1, side):
        # 1e-3 of the V-region's width inside either bound, one maximum is
        # close to merging with the local minimum; the scan must still
        # bracket both crossings of D.
        bound = bounding_point(p, beta1)
        width = bound.m_a - bound.m_b
        beta2 = bound.m_b + 1e-3 * width if side == "m_b" else bound.m_a - 1e-3 * width
        assert len(local_maxima(ModelParams(beta1, beta2, p))) == 2

    @pytest.mark.parametrize("beta1,beta2", [(0.0, 1e16), (1e16, 0.0)])
    def test_uniform_maximum_rounding_onto_the_support_end(self, beta1, beta2):
        # B at the stationary tilt (~ 4e16 and 2e16) rounds to 1.0; the
        # uniform has no endpoint candidate, so the crossing itself stands.
        solution = solve_psi(ModelParams(beta1, beta2, 2))
        assert solution.maximizers == (1.0,)
        assert solution.classification is PhaseClass.UNIQUE
        assert not solution.includes_endpoint
        np.testing.assert_allclose(solution.psi, 1e16, rtol=1e-12)

    def test_wide_negative_support_finds_both_maxima(self):
        # The root interval is about +-1e5 wide, yet the global maximum
        # (theta ~ -0.011) and a second one (theta ~ 7.99) share one
        # window-sized stretch.  50-digit mpmath references.
        law = finite_support([(-10.0, 0.1), (0.0, 0.45), (1.0, 0.45)])
        params = ModelParams(-1.0, 1.0, 5, law)
        found = local_maxima(params)
        np.testing.assert_allclose(
            [m.u for m in found], [-0.66781070899551160751, 0.99966006272268116665],
            rtol=1e-12,
        )
        solution = solve_psi(params)
        assert solution.classification is PhaseClass.UNIQUE
        assert math.isclose(solution.psi, 0.53465795516462694471, rel_tol=1e-12)
        assert math.isclose(solution.maximizers[0], found[0].u, rel_tol=0.0)

    def test_interior_maximum_beside_a_far_atom(self):
        # The atom at 10 widens the root interval to about +-1e5; the
        # maximum at theta ~ -10 sits next to the atom at 0.  50-digit
        # mpmath reference.
        law = finite_support([(0.0, 0.45), (1.0, 0.45), (10.0, 0.1)])
        found = local_maxima(ModelParams(-5.0, 1.0, 5, law))
        assert len(found) == 1
        assert math.isclose(found[0].u, 4.5397868702434396433e-05, rel_tol=1e-12)
        assert math.isclose(found[0].value, -0.39923114865927736066, rel_tol=1e-12)

    def test_maximum_past_the_window_on_an_atom_law(self):
        # D changes sign beyond -THETA_WINDOW, so that piece is scanned too:
        # the global maximum sits at theta ~ -700, between the atoms at 0
        # and 1e-3, above the endpoint value log(0.5)/2.  50-digit mpmath
        # references.
        law = finite_support([(0.0, 0.5), (0.001, 0.3), (1.0, 0.2)])
        solution = solve_psi(ModelParams(-350.0, 1.0, 3, law))
        assert not solution.includes_endpoint
        assert math.isclose(solution.psi, -0.21618008645943611051, rel_tol=1e-12)
        assert math.isclose(
            solution.maximizers[0], 2.2955499899867003327e-4, rel_tol=1e-12
        )

    def test_maximum_between_two_crossings_past_the_window(self):
        # With t0 = 2*sqrt(beta2), this beta1 puts D at 0.02 at t0.  Past
        # THETA_WINDOW, D is negative, positive near theta ~ 6325 and negative
        # again, so it has one sign at both ends of that piece, which holds
        # the local maximum at theta ~ 6340.  The global one, at theta ~ -4e7,
        # is unchanged.  50-digit mpmath references.
        beta2 = 1e7
        t0 = 2.0 * math.sqrt(beta2)
        beta1 = 0.02 - 2.0 * beta2 * UNIFORM01.mean(t0) + t0 / 2
        assert beta1 == -19993675.424679663
        params = ModelParams(beta1, beta2, 2)
        found = local_maxima(params)
        assert len(found) == 2
        assert math.isclose(found[1].u, 0.99984228325267239564, rel_tol=1e-12)
        assert math.isclose(found[1].value, -9993680.0507803230327, rel_tol=1e-12)
        solution = solve_psi(params)
        assert solution.classification is PhaseClass.UNIQUE
        assert solution.maximizers == (found[0].u,)
        assert math.isclose(found[0].u, 2.5007908845550395056e-8, rel_tol=1e-12)
        assert math.isclose(solution.psi, -8.7520368603967120102, rel_tol=1e-12)

    def test_root_interval_past_the_float_range_is_a_typed_error(self):
        # p * beta2 * 2**(p-1) overflows at p = 2000.
        params = ModelParams(0.0, 1.0, 2000, finite_support([(0.0, 0.5), (2.0, 0.5)]))
        with pytest.raises(ThetaCapError) as excinfo:
            local_maxima(params)
        record = excinfo.value.record()
        assert record["module"] == "variational"
        assert record["operation"] == "local_maxima"
        assert record["offending_parameter"] == "params"

    def test_pth_power_past_the_float_range_is_a_typed_error(self):
        # c = p * beta2 * 2**(p-1) is finite at p = 1024, beta2 = 1e-6, but
        # the objective's beta2 * u**p overflows at the atom u = 2.
        params = ModelParams(0.0, 1e-6, 1024, finite_support([(0.0, 0.5), (2.0, 0.5)]))
        with pytest.raises(ThetaCapError) as excinfo:
            solve_psi(params)
        record = excinfo.value.record()
        assert record["module"] == "variational"
        assert record["operation"] == "local_maxima"
        assert record["offending_parameter"] == "params"


def law_evaluations(monkeypatch, params: ModelParams) -> tuple:
    """``solve_psi(params)`` and how many ``mean`` and ``var`` calls it made."""
    calls = []
    law_type = type(params.dist)
    for name in ("mean", "var"):
        method = getattr(law_type, name)

        def counted(law, theta, method=method):
            calls.append(theta)
            return method(law, theta)

        monkeypatch.setattr(law_type, name, counted)
    return solve_psi(params), len(calls)


class TestPrunedScan:
    """The pruned scan sees every crossing the full grid pass sees."""

    @staticmethod
    def check_against_full_pass(dist, point):
        params = ModelParams(*point, dist)
        expected = linear_scan_maxima(params)
        assert local_maxima(params) == expected
        solution = solve_psi(params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(variational, "local_maxima", lambda _: expected)
            assert solution == solve_psi(params)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(dist=laws, point=model_points)
    def test_same_maxima_as_the_full_pass(self, dist, point):
        self.check_against_full_pass(dist, point)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(dist=laws, point=model_points)
    def test_same_maxima_as_the_full_pass_on_a_finer_grid(self, dist, point):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(variational, "GRID_POINTS", 8192)
            self.check_against_full_pass(dist, point)

    @pytest.mark.parametrize("grid_points", [2049, 2047])
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize(
        "dist", [UNIFORM01, BERNOULLI_HALF, THREE_ATOMS],
        ids=["uniform", "coin", "three-atoms"],
    )
    def test_grid_point_on_the_root_gives_one_maximizer(
        self, monkeypatch, dist, p, grid_points
    ):
        # At beta1 = beta2 = 0, D(theta) = -theta/2 on the root interval
        # [-1, 1], and these grids put a point on its root theta = 0, where
        # D is exactly 0: the pair on its left reports the maximizer, and
        # the pair on its right must not report it again.
        params = ModelParams(0.0, 0.0, p, dist)
        solution = solve_psi(params)
        monkeypatch.setattr(variational, "GRID_POINTS", grid_points)
        assert variational._root_interval(params) == (-1.0, 1.0)
        assert 0.0 in [-1.0 + j * (2.0 / (grid_points - 1)) for j in range(grid_points)]
        found = local_maxima(params)
        assert [m.u for m in found] == [dist.mean(0.0)]
        assert linear_scan_maxima(params) == found
        assert solve_psi(params) == solution
        assert solution.maximizers == (dist.mean(0.0),)

    def test_maximum_where_the_mean_crosses_zero(self):
        # At p = 3, B**2 dips to 0 where B changes sign, between block ends
        # where it is large: only the straddle rule keeps the enclosure
        # below that dip, where the global maximum lies.
        law = finite_support([(-2.0, 0.5), (1.0, 0.5)])
        self.check_against_full_pass(law, (-1.0, 1.0, 3))
        found = local_maxima(ModelParams(-1.0, 1.0, 3, law))
        assert len(found) == 2 and found[0].u < 0.0
        assert solve_psi(ModelParams(-1.0, 1.0, 3, law)).maximizers == (found[0].u,)

    @pytest.mark.parametrize(
        "params",
        [ModelParams(-5.0, 5.0, 2), ModelParams(-6.0, 6.0, 2, THREE_ATOMS)],
        ids=["c02", "three-atoms-v-region"],
    )
    def test_few_law_evaluations_per_solve(self, monkeypatch, params):
        # A full pass evaluates the law at least 2048 times.
        assert len(local_maxima(params)) == 2
        assert 0 < law_evaluations(monkeypatch, params)[1] < 250

    @pytest.mark.parametrize("beta1", [-0.5, -1.228, -2.0])
    def test_maximum_at_zero_tilt_costs_few_evaluations(self, monkeypatch, beta1):
        # On the uniform's p = 2 tie line below the corner (-3, 3), D(0) =
        # beta1 + beta2 is exactly 0: newton starts there, not at a bracket
        # midpoint from which it would halve its way through the subnormals
        # (899-4069 evaluations).
        solution, evaluations = law_evaluations(monkeypatch, ModelParams(beta1, -beta1, 2))
        assert solution.maximizers == (0.5,)
        assert evaluations < 100


class TestBeta2Zero:
    @pytest.mark.parametrize("p", [2, 3, 2000])
    @pytest.mark.parametrize("beta1", [-3.0, -0.4, 0.0, 1.7])
    @pytest.mark.parametrize(
        "dist",
        [UNIFORM01, BERNOULLI_HALF, finite_support([(-1.0, 0.2), (0.5, 0.5), (2.0, 0.3)])],
        ids=["uniform", "coin", "three-atoms"],
    )
    def test_psi_is_half_log_mgf(self, dist, beta1, p):
        # Without the p-term psi = sup_u beta1*u - I(u)/2 = log M(2*beta1)/2,
        # attained at u = B(2*beta1), whatever p; s**(p-1) overflows for
        # the atom at 2 and p = 2000, but its factor is 0.
        solution = solve_psi(ModelParams(beta1, 0.0, p, dist))
        assert solution.classification is PhaseClass.UNIQUE
        assert not solution.includes_endpoint
        assert math.isclose(
            solution.psi, 0.5 * dist.log_mgf(2.0 * beta1), rel_tol=1e-12, abs_tol=1e-14
        )
        assert math.isclose(
            solution.maximizers[0], dist.mean(2.0 * beta1), rel_tol=1e-12, abs_tol=1e-15
        )

    def test_large_atom_at_large_p(self):
        params = ModelParams(0.0, 0.0, 2000, finite_support([(0.0, 0.5), (2.0, 0.5)]))
        solution = solve_psi(params)
        assert solution.psi == 0.0
        assert solution.maximizers == (1.0,)


class TestPsiGradient:
    @pytest.mark.parametrize(
        "beta1,beta2,p",
        [(1.0, 1.0, 2), (-2.0, 1.0, 3), (0.5, 0.25, 5), (-5.7, 5.0, 2)],
    )
    def test_matches_finite_differences(self, beta1, beta2, p):
        g1, g2 = psi_gradient(ModelParams(beta1, beta2, p))
        h = 1e-4
        fd1 = (
            solve_psi(ModelParams(beta1 + h, beta2, p)).psi
            - solve_psi(ModelParams(beta1 - h, beta2, p)).psi
        ) / (2 * h)
        fd2 = (
            solve_psi(ModelParams(beta1, beta2 + h, p)).psi
            - solve_psi(ModelParams(beta1, beta2 - h, p)).psi
        ) / (2 * h)
        np.testing.assert_allclose(g1, fd1, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(g2, fd2, rtol=1e-5, atol=1e-7)

    def test_gradient_is_maximizer_powers(self):
        params = ModelParams(1.0, 2.0, 3)
        solution = solve_psi(params)
        g1, g2 = psi_gradient(params)
        np.testing.assert_allclose(g1, solution.maximizers[0], atol=1e-12)
        np.testing.assert_allclose(g2, solution.maximizers[0] ** 3, atol=1e-12)

    def test_undefined_on_the_tie(self):
        with pytest.raises(GradientUndefinedError):
            psi_gradient(ModelParams(-5.0, 5.0, 2))
