"""Tests for the log-MGF / rate-function layer.

Oracles used here, in decreasing order of strength:

- closed forms (uniform(0,1) log-MGF at theta=1, fair-coin entropy rate);
- Legendre duality identities that must hold to solver precision;
- central finite differences for every derivative;
- a coarse brute-force sup over a tilt grid, which lower-bounds the rate
  function and approaches it as the grid refines.
"""

import math

import numpy as np
import pytest

from wergm import cramer
from wergm.cramer import (
    BERNOULLI_HALF,
    SERIES_RADIUS,
    THETA_MAX,
    UNIFORM01,
    dual_theta,
    endpoint_rate,
    finite_support,
    log_mgf,
    log_mgf_d1,
    log_mgf_d2,
    rate,
    rate_d1,
    rate_d2,
    support_interval,
)
from wergm.errors import (
    InputValidationError,
    SupportError,
    ThetaCapError,
    WergmError,
)

THREE_ATOMS = finite_support([(0.2, 0.25), (0.5, 0.5), (0.9, 0.25)])


def coin_rate_closed_form(u: float) -> float:
    """log 2 minus the Shannon entropy of a u-coin."""
    return math.log(2.0) + u * math.log(u) + (1.0 - u) * math.log(1.0 - u)


def brute_force_rate(dist, u: float, theta_grid) -> float:
    """sup over a finite tilt grid of theta*u - log M(theta)."""
    return max(theta * u - log_mgf(dist, theta) for theta in theta_grid)


class TestLogMgf:
    def test_zero_tilt_is_zero(self):
        for dist in (UNIFORM01, BERNOULLI_HALF, THREE_ATOMS):
            assert log_mgf(dist, 0.0) == 0.0

    def test_uniform_closed_form_at_one(self):
        np.testing.assert_allclose(
            log_mgf(UNIFORM01, 1.0), math.log(math.e - 1.0), rtol=1e-14
        )
        np.testing.assert_allclose(
            log_mgf(UNIFORM01, -1.0), math.log(1.0 - math.exp(-1.0)), rtol=1e-14
        )

    def test_uniform_reflection_identity(self):
        # M(-t) = exp(-t) M(t) for the uniform law on (0, 1).
        for theta in (0.3, 0.7, 2.0, 15.0, 300.0):
            np.testing.assert_allclose(
                log_mgf(UNIFORM01, -theta),
                log_mgf(UNIFORM01, theta) - theta,
                rtol=1e-13,
                atol=1e-13,
            )

    def test_coin_closed_form(self):
        for theta in (-3.0, -0.2, 0.0, 0.4, 5.0):
            expected = math.log((1.0 + math.exp(theta)) / 2.0)
            np.testing.assert_allclose(
                log_mgf(BERNOULLI_HALF, theta), expected, rtol=1e-14, atol=1e-14
            )

    def test_finite_support_direct_sum(self):
        rng = np.random.default_rng(20260816)
        values = np.array([v for v, _ in THREE_ATOMS.atoms])
        probs = np.array([q for _, q in THREE_ATOMS.atoms])
        for theta in rng.uniform(-30.0, 30.0, size=12):
            expected = math.log(float(np.sum(probs * np.exp(theta * values))))
            np.testing.assert_allclose(
                log_mgf(THREE_ATOMS, theta), expected, rtol=1e-12, atol=1e-12
            )

    def test_series_and_direct_branches_agree_at_switch(self):
        # The small-tilt series and the exact expressions must agree to
        # 1e-12 at the radius where evaluation switches between them.
        for theta in (SERIES_RADIUS, -SERIES_RADIUS):
            s = theta * theta
            series_logm = 0.5 * theta + s * cramer._horner_even(
                cramer._LOGM_SERIES, s
            )
            series_mean = 0.5 + theta * cramer._horner_even(cramer._B_SERIES, s)
            series_var = cramer._horner_even(cramer._A_SERIES, s)
            np.testing.assert_allclose(
                series_logm, log_mgf(UNIFORM01, theta), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                series_mean, log_mgf_d1(UNIFORM01, theta), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                series_var, log_mgf_d2(UNIFORM01, theta), rtol=1e-12, atol=1e-12
            )

    def test_derivatives_match_finite_differences(self):
        h = 1e-5
        for dist in (UNIFORM01, BERNOULLI_HALF, THREE_ATOMS):
            for theta in (-8.0, -1.1, -0.2, 0.05, 0.9, 4.0):
                fd1 = (log_mgf(dist, theta + h) - log_mgf(dist, theta - h)) / (
                    2.0 * h
                )
                fd2 = (
                    log_mgf_d1(dist, theta + h) - log_mgf_d1(dist, theta - h)
                ) / (2.0 * h)
                np.testing.assert_allclose(
                    log_mgf_d1(dist, theta), fd1, rtol=1e-8, atol=1e-8
                )
                np.testing.assert_allclose(
                    log_mgf_d2(dist, theta), fd2, rtol=1e-6, atol=1e-8
                )

    def test_mean_saturates_without_overflow(self):
        assert 0.0 < log_mgf_d1(UNIFORM01, -699.0) < 1e-2
        assert 1.0 - 1e-2 < log_mgf_d1(UNIFORM01, 699.0) < 1.0
        assert log_mgf_d2(UNIFORM01, 699.0) > 0.0

    def test_evaluates_past_the_dual_cap(self):
        # 50-digit mpmath references at tilts past THETA_MAX, where
        # exp(-|theta|) has underflowed to 0 in every closed form.  log M at
        # -theta is log(expm1(-theta) / -theta), so its error is relative
        # there too; ``log_m - theta`` below is the looser check through
        # theta's rounded reference.
        for theta, log_m, log_m_neg, mean, var, skew in (
            (800.0, 793.3153882723320727, -6.684611727667927296288, 0.99875,
             1.5625e-6, -3.90625e-9),
            (1500.0, 1492.6867796129096986, -7.313220387090301434032,
             0.99933333333333333333, 4.4444444444444444444e-7,
             -5.9259259259259259259e-10),
            (1e6, 999986.18448944203573, -13.81551055796427410411, 0.999999,
             1e-12, -2e-18),
        ):
            assert abs(log_mgf(UNIFORM01, -theta) - log_m_neg) <= 2.0 * math.ulp(log_m_neg)
            assert theta > THETA_MAX
            for t, want_log_m, want_mean in (
                (theta, log_m, mean), (-theta, log_m - theta, 1.0 - mean)
            ):
                assert abs(log_mgf(UNIFORM01, t) - want_log_m) <= 1e-15 * theta
                assert abs(log_mgf_d1(UNIFORM01, t) - want_mean) <= 3e-16
                assert math.isclose(log_mgf_d2(UNIFORM01, t), var, rel_tol=1e-15)
            assert math.isclose(UNIFORM01.skew(theta), skew, rel_tol=1e-15)
            assert UNIFORM01.skew(-theta) == -UNIFORM01.skew(theta)


    @pytest.mark.parametrize(
        "theta,mean",
        [
            # 50-digit mpmath references for B(theta) = exp/expm1 - 1/theta.
            (-0.5000001, 0.4585059092330106439),
            (-5.0, 0.1932163450936957689),
            (-800.0, 0.00125),
            (-1e4, 0.0001),
            (-1e6, 1.0e-6),
        ],
    )
    def test_mean_left_of_the_series_is_relatively_accurate(self, theta, mean):
        # 1 - mean(-theta) would cancel: 2.9e-11 relative at -1e6.
        assert math.isclose(log_mgf_d1(UNIFORM01, theta), mean, rel_tol=3e-16)


class TestNewton:
    def test_stops_at_adjacent_floats(self):
        seen = []

        def fn(x):
            seen.append(x)
            return x * x - 2.0, 2.0 * x

        root = cramer.newton(fn, 0.0, 2.0, -2.0)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(root)
        assert len(seen) <= 8

    def test_exact_zero_at_the_start(self):
        seen = []

        def fn(x):
            seen.append(x)
            return x - 1.0, 1.0

        assert cramer.newton(fn, 0.0, 4.0, -1.0, start=1.0) == 1.0
        assert seen == [1.0]

    def test_start_outside_the_bracket_is_the_midpoint(self):
        seen = []

        def fn(x):
            seen.append(x)
            return x - 1.0, 1.0

        assert cramer.newton(fn, 0.0, 4.0, -1.0, start=7.0) == 1.0
        assert seen == [2.0, 1.0]

    def test_non_finite_derivative_bisects(self):
        seen = []

        def fn(x):
            seen.append(x)
            return x - 1.0 / 3.0, math.nan

        root = cramer.newton(fn, 0.0, 1.0, -1.0 / 3.0)
        assert abs(root - 1.0 / 3.0) <= math.ulp(root)
        # Every evaluation is a midpoint of the current bracket.
        assert seen[:3] == [0.5, 0.25, 0.375]

    def test_infinite_values_bracket_the_root(self):
        # Like the maxima gap: -inf at and below 0.1, +inf at and above 0.9.
        def fn(x):
            if x <= 0.1:
                return -math.inf, math.nan
            if x >= 0.9:
                return math.inf, math.nan
            return math.expm1(x - 0.5), math.exp(x - 0.5)

        assert cramer.newton(fn, 0.0, 1.0, -math.inf) == 0.5

    def test_divergent_newton_is_safeguarded(self):
        # Plain Newton on atan diverges from |x - 0.3| > 1.39.
        seen = []

        def fn(x):
            seen.append(x)
            return math.atan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)

        root = cramer.newton(fn, -10.0, 10.0, math.atan(-10.3), start=5.0)
        assert abs(root - 0.3) <= math.ulp(0.3)
        assert all(-10.0 < x < 10.0 for x in seen)
        assert len(seen) <= 20


class TestWiden:
    def test_doubles_the_edge_until_the_sign_changes(self):
        seen = []

        def fn(x):
            seen.append(x)
            return x - 5.0

        assert cramer.widen(fn, 0.0, -5.0, 1.0) == (8.0, 3.0)
        assert seen == [1.0, 2.0, 4.0, 8.0]

    def test_edge_short_of_inner_is_doubled_first(self):
        # -680 lies above inner = -1000, so the first evaluation is at -1360.
        seen = []

        def fn(x):
            seen.append(x)
            return x + 1200.0

        assert cramer.widen(fn, -1000.0, 200.0, -680.0) == (-1360.0, -160.0)
        assert seen == [-1360.0]

    def test_limit_record(self):
        with pytest.raises(ThetaCapError) as excinfo:
            cramer.widen(lambda x: -1.0, 0.0, -1.0, 1.0, limit=700.0)
        assert excinfo.value.record() == {
            "module": "cramer",
            "operation": "widen",
            "message": "no sign change between theta = 0 and 700",
            "offending_parameter": "theta",
        }

    @pytest.mark.parametrize("fn,edge", [
        (lambda x: -math.exp(x), "1024"),  # math.exp raises OverflowError
        (lambda x: -1.0, "inf"),  # the edge itself overflows
    ], ids=["fn-overflow", "edge-overflow"])
    def test_overflow_record(self, fn, edge):
        with pytest.raises(ThetaCapError) as excinfo:
            cramer.widen(fn, 0.0, -1.0, 1.0)
        assert excinfo.value.record() == {
            "module": "cramer",
            "operation": "widen",
            "message": f"no sign change between theta = 0 and {edge}",
            "offending_parameter": "theta",
        }

    def test_stops_before_the_infinite_edge(self):
        # Library code calls the laws unchecked, so widen itself must not
        # evaluate fn at an edge that has overflowed to inf.
        seen = []

        def fn(x):
            seen.append(x)
            return -1.0 if math.isfinite(x) else 1.0

        with pytest.raises(ThetaCapError):
            cramer.widen(fn, 0.0, -1.0, 1.0)
        assert all(map(math.isfinite, seen))


class TestDualTheta:
    def test_round_trip_across_support(self):
        for dist in (UNIFORM01, BERNOULLI_HALF):
            for u in np.linspace(0.01, 0.99, 49):
                pair = dual_theta(dist, float(u))
                assert abs(pair.u - u) <= 1e-10
                assert abs(log_mgf_d1(dist, pair.theta) - u) <= 1e-10

    def test_round_trip_finite_support(self):
        lo, hi = support_interval(THREE_ATOMS)
        for u in np.linspace(lo + 0.02, hi - 0.02, 23):
            pair = dual_theta(THREE_ATOMS, float(u))
            assert abs(log_mgf_d1(THREE_ATOMS, pair.theta) - u) <= 1e-10

    def test_zero_tilt_at_prior_mean(self):
        np.testing.assert_allclose(dual_theta(UNIFORM01, 0.5).theta, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            dual_theta(BERNOULLI_HALF, 0.5).theta, 0.0, atol=1e-12
        )

    def test_table_tilts_recovered(self):
        # Tilt/mean pairs tabulated to four decimals for the uniform law.
        np.testing.assert_allclose(
            dual_theta(UNIFORM01, 0.6073).theta, 1.3251, atol=5e-4
        )
        np.testing.assert_allclose(
            dual_theta(UNIFORM01, 0.8259).theta, 5.6256, atol=5e-3
        )

    def test_bracket_doubling_sequence_is_pinned(self):
        # The bracket grows 1, 2, ..., 512 and is clamped to THETA_MAX = 700.
        # B(-513) rounds to 1/513, and the solve ends on that exact zero from
        # other brackets too (clamped to 600 or 1000, say).
        assert dual_theta(UNIFORM01, 1.0 / 513.0).theta == -513.0

    @pytest.mark.parametrize("u,theta", [
        (0.00389863547758, -256.500000000187246735695),
        (0.0352368811501, -28.37935615603523072887515),
        (0.245264248399, -3.692690653665885347462176),
    ])
    def test_tilt_matches_50_digit_reference(self, u, theta):
        # References from mpmath at 50 digits, solving B(theta) = u for the
        # binary value of u.  The solve ends at adjacent floats, so only the
        # rounding of B near u remains.
        assert abs(dual_theta(UNIFORM01, u).theta - theta) <= 2.0 * math.ulp(theta)

    def test_unreachable_mean_raises_cap_error(self):
        # The uniform means 1e-6 and 0.999999 need tilts of about -1e6 and
        # 1e6, beyond the cap.
        for u in (1e-6, 0.999999):
            with pytest.raises(ThetaCapError):
                dual_theta(UNIFORM01, u)

    def test_outside_support_raises(self):
        for bad in (-0.5, 0.0, 1.0, 1.5):
            with pytest.raises(SupportError):
                dual_theta(UNIFORM01, bad)


class TestRate:
    def test_zero_at_prior_mean(self):
        assert rate(UNIFORM01, 0.5) <= 1e-15
        assert abs(rate_d1(UNIFORM01, 0.5)) <= 1e-12
        assert rate(BERNOULLI_HALF, 0.5) <= 1e-15

    def test_uniform_symmetry(self):
        for u in np.linspace(0.02, 0.98, 25):
            assert abs(rate(UNIFORM01, float(u)) - rate(UNIFORM01, float(1 - u))) <= 1e-10

    def test_coin_entropy_closed_form(self):
        for u in np.linspace(0.05, 0.95, 19):
            np.testing.assert_allclose(
                rate(BERNOULLI_HALF, float(u)),
                coin_rate_closed_form(float(u)),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_matches_brute_force_sup(self):
        theta_grid = np.linspace(-60.0, 60.0, 240001)
        for dist in (UNIFORM01, BERNOULLI_HALF, THREE_ATOMS):
            lo, hi = support_interval(dist)
            for u in np.linspace(lo + 0.1, hi - 0.1, 7):
                exact = rate(dist, float(u))
                coarse = brute_force_rate(dist, float(u), theta_grid)
                assert coarse <= exact + 1e-12
                np.testing.assert_allclose(exact, coarse, atol=5e-6)

    def test_legendre_identity(self):
        for u in (0.1, 0.37, 0.5, 0.81, 0.97):
            pair = dual_theta(UNIFORM01, u)
            expected = pair.theta * u - log_mgf(UNIFORM01, pair.theta)
            np.testing.assert_allclose(rate(UNIFORM01, u), expected, atol=1e-12)
            np.testing.assert_allclose(rate_d1(UNIFORM01, u), pair.theta, atol=1e-9)
            np.testing.assert_allclose(
                rate_d2(UNIFORM01, u),
                1.0 / log_mgf_d2(UNIFORM01, pair.theta),
                rtol=1e-10,
            )

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        for u in (0.15, 0.4, 0.73, 0.9):
            fd1 = (rate(UNIFORM01, u + h) - rate(UNIFORM01, u - h)) / (2.0 * h)
            fd2 = (rate_d1(UNIFORM01, u + h) - rate_d1(UNIFORM01, u - h)) / (2.0 * h)
            np.testing.assert_allclose(rate_d1(UNIFORM01, u), fd1, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(rate_d2(UNIFORM01, u), fd2, rtol=1e-5)

    def test_convexity_on_grid(self):
        grid = np.linspace(0.02, 0.98, 97)
        values = [rate(UNIFORM01, float(u)) for u in grid]
        second = np.diff(values, 2)
        assert np.all(second > 0.0)

    def test_endpoint_rates(self):
        assert endpoint_rate(UNIFORM01) == (math.inf, math.inf)
        np.testing.assert_allclose(
            endpoint_rate(BERNOULLI_HALF), (math.log(2.0), math.log(2.0)), rtol=1e-15
        )
        lo_rate, hi_rate = endpoint_rate(THREE_ATOMS)
        np.testing.assert_allclose(lo_rate, -math.log(0.25), rtol=1e-15)
        np.testing.assert_allclose(hi_rate, -math.log(0.25), rtol=1e-15)


class TestFiniteSupportValidation:
    def test_single_atom_rejected(self):
        with pytest.raises(InputValidationError):
            finite_support([(0.5, 1.0)])

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(InputValidationError):
            finite_support([(0.2, 0.0), (0.8, 1.0)])

    def test_nan_probability_rejected(self):
        # NaN slips past both "q <= 0" and the sum check, so it needs its
        # own finiteness check.
        with pytest.raises(InputValidationError) as excinfo:
            finite_support([(0.2, math.nan), (0.8, 0.5)])
        record = excinfo.value.record()
        assert record["operation"] == "EdgeDistribution"
        assert record["offending_parameter"] == "atoms"

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InputValidationError):
            finite_support([(0.2, 0.6), (0.8, 0.6)])

    def test_duplicate_values_rejected(self):
        with pytest.raises(InputValidationError):
            finite_support([(0.5, 0.5), (0.5, 0.5)])

    def test_error_records_name_module_and_parameter(self):
        with pytest.raises(WergmError) as excinfo:
            dual_theta(UNIFORM01, 2.0)
        record = excinfo.value.record()
        assert record["module"] == "cramer"
        assert record["offending_parameter"] == "u"
        assert record["message"]


class TestAtomLawDraw:
    @pytest.mark.parametrize(
        "law",
        [
            THREE_ATOMS,
            finite_support([(0.0, 0.07), (0.1, 0.61), (0.7, 0.29), (1.3, 0.03)]),
        ],
        ids=["three-atoms", "uneven-four-atoms"],
    )
    def test_draws_match_generator_choice(self, law):
        # The law's own sampler must consume the generator exactly as
        # Generator.choice with p= does and return the same atoms, so the
        # sampler's streams stay those of numpy's choice.  Sizes: one
        # proposal, and one sweep's worth at n = 40; plain uniforms are
        # interleaved to check the stream position after each draw.
        values = np.array([v for v, _ in law.atoms])
        probs = np.array([q for _, q in law.atoms])
        for seed in range(20):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1, 40 * 41 // 2) * 3:
                expected = ref.choice(values, size, p=probs).tolist()
                assert list(law.draw(ours, size)) == expected
                assert ours.random() == ref.random()

    @pytest.mark.parametrize(
        "law",
        [
            cramer.UNIFORM01,
            BERNOULLI_HALF,
            THREE_ATOMS,
            cramer.AtomLaw(((0, 0.5), (1, 0.5))),
        ],
        ids=["uniform", "coin", "three-atoms", "integer-atoms"],
    )
    def test_draws_are_python_floats(self, law):
        # The Metropolis chain stores accepted draws in its Python-list
        # state, whose entries `state_key` returns; an atom law built from
        # integer values must still draw floats.
        draws = law.draw(np.random.default_rng(3), 5)
        assert type(draws) is list
        assert all(type(x) is float for x in draws)


class TestLawRecords:
    @pytest.mark.parametrize(
        "record, name",
        [
            (UNIFORM01, "support"),
            (UNIFORM01, "new_name"),
            (BERNOULLI_HALF, "atoms"),
            (THREE_ATOMS, "atoms"),
            (THREE_ATOMS, "endpoint_rate"),
            (dual_theta(UNIFORM01, 0.3), "theta"),
        ],
        ids=["uniform", "uniform-new-name", "coin", "three-atoms",
             "three-atoms-derived", "dual-pair"],
    )
    def test_fields_are_read_only(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    def test_equal_atoms_equal_laws(self):
        again = finite_support([(0.9, 0.25), (0.2, 0.25), (0.5, 0.5)])
        assert again == THREE_ATOMS
        assert hash(again) == hash(THREE_ATOMS)
        assert cramer.UniformLaw() == UNIFORM01
        assert hash(cramer.UniformLaw()) == hash(UNIFORM01)
        assert finite_support([(0.2, 0.5), (0.9, 0.5)]) != THREE_ATOMS

    def test_the_coin_is_not_an_atom_law(self):
        # Equality compares the law's type as well as its atoms.
        atoms = cramer.AtomLaw(((0.0, 0.5), (1.0, 0.5)))
        assert BERNOULLI_HALF != atoms
        assert BERNOULLI_HALF == cramer.FairCoin(((0.0, 0.5), (1.0, 0.5)))
        assert UNIFORM01 != atoms
