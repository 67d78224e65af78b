"""Property tests of the duality identities and of the transition-curve tie.

The tilt-side solve in ``phase_curve`` rests on the identities
``m(B(theta)) * n(theta) = 1``, ``f(B(theta)) = g(theta)`` and
``rate(B(theta)) = theta*B - log M(theta)``; they are checked over a range
of tilts and shapes rather than at a handful of points.  The tie is checked
over a range of ``beta1`` below each corner.

Tolerances follow from the dual solve's stopping rule ``|B(theta') - u| <=
DUAL_TOL = 1e-12``: the recovered tilt is off by at most ``1e-12 / A``,
which moves ``m`` and ``f`` by a relative ``|A'| / A**2 * 1e-12``, at most
about 6e-11 on |theta| <= 30; ``rate`` is stationary in the tilt, so only
rounding remains there.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from wergm import cramer, critical
from wergm.phase_curve import bounding_point, r_of_beta1
from wergm.variational import ModelParams, objective

thetas = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


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
