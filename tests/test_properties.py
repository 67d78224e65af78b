"""Property tests of the duality identities and of the transition-curve tie.

The tilt-side solve in ``phase_curve`` rests on the identities
``m(B(theta)) * n(theta) = 1``, ``f(B(theta)) = g(theta)`` and
``rate(B(theta)) = theta*B - log M(theta)``; they are checked over a range
of tilts and shapes rather than at a handful of points.  The tie is checked
over a range of ``beta1`` below each corner, and at p = 2 against the
exact line ``r = -beta1``.  ``solve_psi``, which works on
the tilt side too, is checked against the mean-side ``objective`` (through
the dual solve) for all three laws: psi is the supremum, it is attained at
every interior maximizer, and it is convex in ``beta1``.  Tilting a
finite law by ``exp(lam*v) / M(lam)`` must shift ``beta1`` by ``lam/2`` and
psi by ``-log M(lam)/2``, with the same maximizers; scaling its support by
``w`` must give the base law's psi at ``w*beta1`` and ``w**p * beta2``,
with the maximizers scaled by ``w``.  Deep ties, far below the corner and
up to p = 200, are traced too.  The fair coin's closed-form evaluators are
checked against the generic atom-law sums for the same two atoms, and the
uniform law's third cumulant ``skew`` against a centred difference of its
variance.

Tolerances follow from the dual solve, which ends at adjacent floats: the
recovered tilt is off by the rounding of ``B`` near ``u``, a few ulp of
``u`` over ``A``, which moves ``m`` and ``f`` by a relative ``|A'| / A**2``
times that, about 2e-11 at |theta| = 30 and less inside; the 1e-9 bounds
leave room for the rounding of ``m``, ``n``, ``f`` and ``g`` themselves.
``rate`` is stationary in the tilt, so only rounding remains there.
"""

import math
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wergm import cramer, critical
from wergm.phase_curve import bounding_point, maxima_gap, r_of_beta1
from wergm.variational import (
    TIE_RTOL, ModelParams, local_maxima, objective, solve_psi, stationarity,
)

thetas = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
laws = st.sampled_from(
    [
        cramer.UNIFORM01,
        cramer.BERNOULLI_HALF,
        cramer.finite_support([(0.2, 0.3), (0.5, 0.4), (0.8, 0.3)]),
    ]
)
beta1s = st.floats(min_value=-12.0, max_value=4.0, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(theta=thetas, p=st.integers(min_value=2, max_value=10))
def test_duality_identities(theta, p):
    u = cramer.log_mgf_d1(cramer.UNIFORM01, theta)
    assert math.isclose(
        critical.m_of_u(p, u) * critical.n_of_theta(p, theta), 1.0, rel_tol=1e-9
    )
    g = critical.g_of_theta(p, theta)
    assert abs(critical.f_of_u(p, u) - g) <= 1e-9 * max(1.0, abs(g))
    legendre = theta * u - cramer.log_mgf(cramer.UNIFORM01, theta)
    assert abs(cramer.rate(cramer.UNIFORM01, u) - legendre) <= 1e-12 * max(
        1.0, abs(legendre)
    )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    p=st.integers(min_value=2, max_value=6),
    depth=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
def test_tie_inside_region_with_equal_heights(p, depth):
    beta1 = critical.find_theta0(p).beta1_c - depth
    bound = bounding_point(p, beta1)
    point = r_of_beta1(p, beta1)
    assert bound.m_b < point.r < bound.m_a
    params = ModelParams(beta1, point.r, p)
    assert abs(objective(params, point.u2_star) - objective(params, point.u1_star)) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    beta1=st.floats(
        min_value=-1000.0,
        max_value=critical.find_theta0(2).beta1_c - 1e-3,
        allow_nan=False,
    )
)
def test_p2_tie_is_the_straight_line_to_rounding(beta1):
    # r = -beta1 and u1 + u2 = 1 by the u <-> 1 - u symmetry.  The gap's
    # slope at the tie is u2**2 - u1**2 = u2 - u1, so rounding in the gap
    # moves r by about eps / (u2 - u1); the maxima's curvature vanishes
    # like (u2 - u1)**2 toward the corner, which scales the error in u.
    # Far from the corner both bounds are a few ulp.
    point = r_of_beta1(2, beta1)
    jump = point.u2_star - point.u1_star
    assert abs(point.r + beta1) <= 4.0 * math.ulp(beta1) / jump
    assert abs(point.u1_star + point.u2_star - 1.0) <= 16.0 * math.ulp(1.0) / jump**2


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    p=st.integers(min_value=2, max_value=200),
    depth=st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
)
def test_deep_ties_are_traced_at_any_p(p, depth):
    # Deep ties put maxima at tilts far past THETA_WINDOW (and m_a past the
    # float range for large p); the heights are compared through the gap,
    # since the dual solve of ``objective`` stops at THETA_MAX.
    beta1 = critical.find_theta0(p).beta1_c - depth
    bound = bounding_point(p, beta1)
    point = r_of_beta1(p, beta1)
    assert bound.m_b < point.r < bound.m_a
    assert abs(maxima_gap(p, beta1, point.r)) <= 1e-9 * max(1.0, abs(point.psi))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    dist=laws,
    p=st.integers(min_value=2, max_value=6),
    beta1=beta1s,
    other_beta1=beta1s,
    beta2=st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)
def test_solve_psi_is_the_convex_supremum(dist, p, beta1, other_beta1, beta2):
    params = ModelParams(beta1, beta2, p, dist)
    solution = solve_psi(params)
    lo, hi = cramer.support_interval(dist)
    for k in range(1, 20):
        u = lo + (hi - lo) * k / 20
        assert solution.psi >= objective(params, u) - 1e-12
    scale = max(1.0, abs(solution.psi))
    for u in solution.maximizers:
        if lo < u < hi:
            assert abs(objective(params, u) - solution.psi) <= 1e-12 * scale

    def psi(b1: float) -> float:
        return solve_psi(ModelParams(b1, beta2, p, dist)).psi

    mid = psi(0.5 * (beta1 + other_beta1))
    chord = 0.5 * (solution.psi + psi(other_beta1))
    assert mid <= chord + 1e-12 * max(1.0, abs(chord))


def _best_two_tie(params: ModelParams) -> bool:
    """Whether the two best candidates lie within 100 TIE_RTOL of each other.

    The candidates are the interior maxima and the finite-rate endpoints;
    rounding may tie such a pair on one side of an identity only.
    """
    values = sorted(
        [m.value for m in local_maxima(params)]
        + [params.beta1 * u + params.beta2 * u**params.p - 0.5 * e
           for u, e in zip(cramer.support_interval(params.dist),
                           cramer.endpoint_rate(params.dist))],
        reverse=True,
    )
    return values[0] - values[1] <= 100 * TIE_RTOL * max(1.0, abs(values[0]))


#: Laws of 2-4 atoms on a grid of [0, 1] with weights 1-20, normalized.
atom_laws = st.lists(
    st.tuples(st.integers(0, 20), st.integers(1, 20)),
    min_size=2, max_size=4, unique_by=lambda atom: atom[0],
).map(lambda atoms: [(v / 20, w / sum(w for _, w in atoms)) for v, w in atoms])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    atoms=atom_laws,
    lam=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    p=st.sampled_from([2, 3, 5]),
    beta1=beta1s,
    beta2=st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)
def test_tilting_the_law_shifts_beta1(atoms, lam, p, beta1, beta2):
    # Reweighting each atom by exp(lam*v) / M(lam) gives the law mu_lam with
    # I_lam(u) = I(u) - lam*u + log M(lam), so psi_lam(beta1, beta2) =
    # psi(beta1 + lam/2, beta2) - log M(lam)/2 with the same maximizers.  The
    # same computed log M builds mu_lam and is subtracted, so its own error
    # cancels.
    #
    # Tolerances.  Each reweighted log-probability is off by at most eta =
    # 4 eps (|lam| + |log M| + max|log q| + max|log q_lam| + 1): the exponent's
    # sum, exp and the law's log each round once.  Moving every log-weight by
    # at most eta moves log M_lam(theta), and so the rate, by at most eta, so
    # psi by eta/2; each side rounds its objective by a few eps per unit of
    # its terms, bounded through the tilt bound 2|beta1| + |lam| + 2 p beta2 + 1
    # of every stationary tilt.  The tilted mean moves by at most eta (the
    # support lies in [0, 1]) plus its own rounding, which moves D by p (p - 1)
    # beta2 times that; D's own rounding adds a few eps per unit of its terms.
    # A maximizer's tilt then moves by that over |D'| (plus the ulp at which
    # newton stops), and its mean by A times the tilt's error.
    #
    # Fixed before the first run: a point whose two best candidates (interior
    # maxima and finite-rate endpoints of the base problem) lie within
    # 100 TIE_RTOL of each other is skipped, as rounding may tie them on one
    # side only.
    dist = cramer.finite_support(atoms)
    log_m = cramer.log_mgf(dist, lam)
    tilted = cramer.finite_support(
        [(v, math.exp(lam * v + math.log(q) - log_m)) for v, q in atoms]
    )
    base = ModelParams(beta1 + 0.5 * lam, beta2, p, dist)
    lo, hi = cramer.support_interval(dist)
    assume(not _best_two_tie(base))

    expected, solution = solve_psi(base), solve_psi(ModelParams(beta1, beta2, p, tilted))
    assert solution.classification is expected.classification
    assert solution.includes_endpoint == expected.includes_endpoint

    eps = math.ulp(1.0)
    log_q = max(abs(math.log(q)) for _, q in atoms + list(tilted.atoms))
    eta = 4 * eps * (abs(lam) + abs(log_m) + log_q + 1.0)
    theta_bound = 2 * abs(beta1) + abs(lam) + 2 * p * beta2 + 1.0
    terms = abs(beta1) + abs(lam) + beta2 + 2 * theta_bound + log_q
    assert abs(solution.psi - (expected.psi - 0.5 * log_m)) <= eta / 2 + 8 * eps * terms

    delta_b = eta + 4 * eps * (theta_bound + log_q)
    delta_d = p * (p - 1) * beta2 * delta_b + 4 * eps * (
        abs(beta1) + abs(lam) + p * p * beta2 + theta_bound
    )
    slope_d1 = stationarity(base)[1]
    assert len(solution.maximizers) == len(expected.maximizers)
    for u, u_expected in zip(solution.maximizers, expected.maximizers):
        if not lo < u_expected < hi:
            assert u == u_expected
            continue
        theta = cramer.dual_theta(dist, u_expected).theta
        theta_tol = delta_d / abs(slope_d1(theta)[1]) + 2 * eps * theta_bound
        assert abs(u - u_expected) <= 2 * (dist.var(theta) * theta_tol + delta_b)


def _scaled_law_cases(count: int, seed: int) -> list[tuple]:
    """Seeded (atoms, w, p, beta1, beta2): 2-4 atoms on a grid of [0, 1], w in [0.3, 3]."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        values = rng.sample(range(21), rng.randint(2, 4))
        weights = [rng.randint(1, 20) for _ in values]
        atoms = [(v / 20, q / sum(weights)) for v, q in zip(values, weights)]
        cases.append((atoms, rng.uniform(0.3, 3.0), rng.choice([2, 3, 5]),
                      rng.uniform(-12.0, 4.0), rng.uniform(0.0, 12.0)))
    return cases


def test_scaling_the_law_scales_the_parameters():
    # The law of w*X has rate I_w(u) = I(u / w), so u = w*x turns its
    # objective into the base law's at (w*beta1, w**p * beta2):
    # psi_w(beta1, beta2) = psi(w*beta1, w**p * beta2), and each maximizer
    # is w times the base law's.  Cases and the 1e-12 relative bound were
    # fixed before the first run.  The endpoint flag is compared only where
    # the base problem's two best candidates do not tie (343 of these 400
    # cases): a maximum within rounding of an atom endpoint ties with that
    # endpoint, and which of the two is reported then turns on rounding.
    for atoms, w, p, beta1, beta2 in _scaled_law_cases(400, seed=1607):
        case = (atoms, w, p, beta1, beta2)
        base = ModelParams(w * beta1, w**p * beta2, p, cramer.finite_support(atoms))
        scaled = cramer.finite_support([(w * v, q) for v, q in atoms])
        expected, solution = solve_psi(base), solve_psi(ModelParams(beta1, beta2, p, scaled))
        assert solution.classification is expected.classification, case
        if not _best_two_tie(base):
            assert solution.includes_endpoint == expected.includes_endpoint, case
        assert abs(solution.psi - expected.psi) <= 1e-12 * max(1.0, abs(expected.psi)), case
        assert len(solution.maximizers) == len(expected.maximizers), case
        for u, x in zip(solution.maximizers, expected.maximizers):
            assert abs(u - w * x) <= 1e-12 * max(1.0, abs(w * x)), case


_GENERIC_COIN = cramer.finite_support([(0.0, 0.5), (1.0, 0.5)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(theta=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_coin_closed_forms_match_generic_atom_sums(theta):
    for evaluator in (cramer.log_mgf, cramer.log_mgf_d1, cramer.log_mgf_d2):
        closed = evaluator(cramer.BERNOULLI_HALF, theta)
        generic = evaluator(_GENERIC_COIN, theta)
        assert abs(closed - generic) <= 1e-12 * max(1.0, abs(generic))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    theta=st.one_of(
        st.floats(min_value=-0.999 * cramer.THETA_MAX, max_value=0.999 * cramer.THETA_MAX),
        st.floats(min_value=-1e6, max_value=1e6),
    )
)
def test_uniform_skew_is_the_derivative_of_the_variance(theta):
    # Step relative to |theta|: truncation error is then a relative
    # 2 * (h / theta)**2 far out, rounding about 1e-13 absolute near 0.
    h = 1e-4 * max(1.0, abs(theta))
    law = cramer.UNIFORM01
    diff = (cramer.log_mgf_d2(law, theta + h) - cramer.log_mgf_d2(law, theta - h)) / (
        2.0 * h
    )
    skew = law.skew(theta)
    assert abs(skew - diff) <= 1e-7 * abs(diff) + 1e-12
    assert law.skew(-theta) == -skew


def test_uniform_skew_at_zero_and_at_the_cap():
    assert cramer.UNIFORM01.skew(0.0) == 0.0
    for theta in (cramer.THETA_MAX, -cramer.THETA_MAX):
        assert math.isfinite(cramer.UNIFORM01.skew(theta))
