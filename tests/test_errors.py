"""Tests for the shared argument checks and the records they raise.

Every real parameter in the package goes through ``check_real``, every
integer count or order through ``check_integer``, and the ``graphs`` input
checks through one local helper; an output path the CLI cannot write is a
typed record too.  Each call site keeps its own module, operation,
parameter and message, so the error records a caller sees are pinned here
site by site, and a sweep of the public numeric arguments checks that each
malformed number raises an ``InputValidationError`` naming the module and
parameter where it entered.  A power of a finite ``u`` past the float range
is a ``ThetaCapError`` record through ``power_guard``, pinned site by site.
"""

import math

import numpy as np
import pytest

from wergm import cramer, critical, phase_curve, variational
from wergm.cli import _write, build_parser
from wergm.cramer import BERNOULLI_HALF, UNIFORM01, finite_support
from wergm.errors import InputValidationError, ThetaCapError, check_integer, check_real
from wergm.gaussian_directed import GaussianModelParams, psi_n_exact, psi_n_monte_carlo
from wergm.graphs import (
    TRIANGLE,
    MetropolisChain,
    SubgraphSpec,
    WeightedGraph,
    concentration_report,
    enumerate_gibbs,
    run_sampler,
    sample_prior,
)
from wergm.phase_curve import trace_curve
from wergm.variational import ModelParams

FREE = ModelParams(0.0, 0.0, 2)
GAUSS = GaussianModelParams(0.5, 0.1)

INTEGER_SITES = [
    (lambda: sample_prior(UNIFORM01, 1.5, 0),
     "graphs", "sample_prior", "n", "n must be an integer >= 2, got 1.5"),
    (lambda: MetropolisChain(FREE, 1, 0),
     "graphs", "MetropolisChain", "n", "n must be an integer >= 2, got 1"),
    (lambda: enumerate_gibbs(ModelParams(0.0, 0.0, 2, BERNOULLI_HALF), 1),
     "graphs", "enumerate_gibbs", "n", "n must be an integer >= 2, got 1"),
    (lambda: run_sampler(FREE, 4, 0, 0, 1),
     "graphs", "run_sampler", "sweeps", "sweeps must be a positive integer, got 0"),
    (lambda: run_sampler(FREE, 4, 2, -1, 1),
     "graphs", "run_sampler", "burn_in",
     "burn_in must be a nonnegative integer, got -1"),
    (lambda: psi_n_exact(GAUSS, 0),
     "gaussian_directed", "psi_n_exact", "n", "n must be a positive integer, got 0"),
    (lambda: psi_n_monte_carlo(GAUSS, 2.5, 1000, 1),
     "gaussian_directed", "psi_n_monte_carlo", "n",
     "n must be a positive integer, got 2.5"),
    (lambda: psi_n_monte_carlo(GAUSS, 5, 99, 1),
     "gaussian_directed", "psi_n_monte_carlo", "samples",
     "samples must be an integer >= 100, got 99"),
    (lambda: critical.n_of_theta(1, 0.5),
     "critical", "n_of_theta", "p", "p must be an integer >= 2, got 1"),
    (lambda: critical.m_of_u(2.5, 0.5),
     "critical", "m_of_u", "p", "p must be an integer >= 2, got 2.5"),
    (lambda: critical.find_theta0(1),
     "critical", "find_theta0", "p", "p must be an integer >= 2, got 1"),
    (lambda: ModelParams(0.0, 0.0, 1.5),
     "variational", "ModelParams", "p", "p must be an integer >= 2, got 1.5"),
    (lambda: trace_curve(2, -5.0, -4.0, float("nan")),
     "phase_curve", "trace_curve", "steps", "steps must be an integer >= 2, got nan"),
    (lambda: critical.critical_table(None),
     "critical", "critical_table", "p_list",
     "p_list must be an iterable of orders p, got None"),
]

GRAPHS_SITES = [
    (lambda: SubgraphSpec(0, (), "empty"),
     "graphs", "SubgraphSpec", "k", "vertex count must be >= 1, got 0"),
    (lambda: SubgraphSpec(2, ((1, 1),), "loop"),
     "graphs", "SubgraphSpec", "edges", "self-loop (1, 1) is not allowed"),
    (lambda: SubgraphSpec(2, ((1, 3),), "outside"),
     "graphs", "SubgraphSpec", "edges", "edge (1, 3) uses vertices outside 1..2"),
    (lambda: SubgraphSpec(2, ((1, 2), (2, 1)), "twice"),
     "graphs", "SubgraphSpec", "edges", "duplicate edge (2, 1)"),
    (lambda: WeightedGraph(1, [[0.5]]),
     "graphs", "WeightedGraph", "n", "need at least 2 vertices, got n = 1"),
    (lambda: WeightedGraph(2, [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]),
     "graphs", "WeightedGraph", "weights", "weights must be 2x2, got (2, 3)"),
    (lambda: WeightedGraph(2, [[0.5, 0.1], [0.2, 0.5]]),
     "graphs", "WeightedGraph", "weights", "weights matrix must be symmetric"),
    (lambda: MetropolisChain(ModelParams(0.0, 0.0, 4), 3, 0),
     "graphs", "MetropolisChain", "subgraph",
     "no built-in 4-edge subgraph; pass one explicitly"),
    (lambda: MetropolisChain(FREE, 3, 0, TRIANGLE),
     "graphs", "MetropolisChain", "subgraph",
     "subgraph 'triangle' has 3 edges, but the model has p = 2"),
    (lambda: enumerate_gibbs(ModelParams(0.0, 0.0, 4, BERNOULLI_HALF), 2),
     "graphs", "enumerate_gibbs", "subgraph",
     "no built-in 4-edge subgraph; pass one explicitly"),
    (lambda: enumerate_gibbs(FREE, 2),
     "graphs", "enumerate_gibbs", "params",
     "exact enumeration needs a finite-support edge law"),
    (lambda: SubgraphSpec(None, (), "x"),
     "graphs", "SubgraphSpec", "k", "vertex count must be an integer, got None"),
    (lambda: SubgraphSpec(2, (("a", 2),), "x"),
     "graphs", "SubgraphSpec", "edges", "edge ('a', 2) must join two integer vertices"),
    (lambda: WeightedGraph(None, [[0.5]]),
     "graphs", "WeightedGraph", "n", "n must be an integer, got None"),
    (lambda: MetropolisChain(FREE, 6, 3).step(-1, 5, 0.9),
     "graphs", "step", "i", "i must be a nonnegative integer, got -1"),
    (lambda: MetropolisChain(FREE, 6, 3).step(0, 6),
     "graphs", "step", "j", "j must be < n = 6, got 6"),
    (lambda: MetropolisChain(FREE, 6, 3).step(0.5, 1),
     "graphs", "step", "i", "i must be a nonnegative integer, got 0.5"),
    (lambda: MetropolisChain(FREE, 6, 3).step(0, 1, math.inf),
     "graphs", "step", "proposal", "proposal must be a finite real, got inf"),
    (lambda: MetropolisChain(FREE, 6, 3).step(0, 1, 1.5),
     "graphs", "step", "proposal",
     "proposal must lie in the support hull [0.0, 1.0], got 1.5"),
    (lambda: MetropolisChain(FREE_COIN, 6, 3).step(2, 2, -0.5),
     "graphs", "step", "proposal",
     "proposal must lie in the support hull [0.0, 1.0], got -0.5"),
]



def _run_command(*argv):
    """One CLI command's handler and writer, so that its error propagates as raised.

    ``main``'s claim, which makes the output path before the work, is
    skipped: the writer's own calls must still give the record, as they
    would if the path changed during the work.
    """
    args = build_parser().parse_args(list(argv))
    _write(args, args.handler(args), [])


OUTPUT_PATH_SITES = [
    (lambda: _run_command("psi", "--p", "2", "--beta1", "-5", "--beta2", "5",
                          "--out", "/nonexistent/x"),
     "cli", "psi", "out", "cannot write to '/nonexistent/x': No such file or directory"),
    (lambda: _run_command("figures", "--p", "2", "--points=-5,3.5",
                          "--out-dir", "/dev/null/x"),
     "cli", "figures", "out_dir", "cannot write to '/dev/null/x': Not a directory"),
]


def _assert_record(call, module, operation, parameter, message):
    with pytest.raises(InputValidationError) as excinfo:
        call()
    assert excinfo.value.record() == {
        "module": module,
        "operation": operation,
        "message": message,
        "offending_parameter": parameter,
    }


#: A law whose maximum at (0, 0) lies near 1e200, where u**2 leaves the float range.
HUGE_ATOM = ModelParams(0.0, 0.0, 2, finite_support([(0.0, 1.0), (1e300, 1e-100)]))

#: Powers of a finite ``u`` past the float range, one public call each, with
#: the module, operation and ``u`` that its ``ThetaCapError`` record names.
POWER_SITES = [
    (lambda: variational.psi_gradient(HUGE_ATOM), "variational", "psi_gradient", "1e+200"),
    (lambda: concentration_report(run_sampler(HUGE_ATOM, 3, 2, 0, 1), HUGE_ATOM),
     "graphs", "concentration_report", "1e+200"),
    (lambda: critical.m_of_u(400, 50.0, finite_support([(0.0, 0.5), (100.0, 0.5)])),
     "critical", "m_of_u", "50"),
]


class TestPowerGuard:
    @pytest.mark.parametrize("call, module, operation, u", POWER_SITES,
                             ids=[site[2] for site in POWER_SITES])
    def test_overflowing_power_is_one_record(self, call, module, operation, u):
        with pytest.raises(ThetaCapError) as excinfo:
            call()
        assert excinfo.value.record() == {
            "module": module,
            "operation": operation,
            "message": f"a power of u = {u} in {operation} reaches beyond the float range",
            "offending_parameter": "u",
        }


class TestCheckInteger:
    @pytest.mark.parametrize(
        "call, module, operation, parameter, message",
        INTEGER_SITES,
        ids=[f"{site[2]}-{site[3]}" for site in INTEGER_SITES],
    )
    def test_call_sites_keep_their_records(
        self, call, module, operation, parameter, message
    ):
        _assert_record(call, module, operation, parameter, message)

    @pytest.mark.parametrize("p_list", ["23", b"23"], ids=["str", "bytes"])
    def test_critical_table_refuses_a_string_of_orders(self, p_list):
        # A string is iterable, but its characters are not orders: "23"
        # gave the rows for p = 2 and 3, since check_integer accepts "2".
        _assert_record(
            lambda: critical.critical_table(p_list),
            "critical", "critical_table", "p_list",
            f"p_list must be an iterable of orders p, got {p_list!r}",
        )

    def test_integral_values_pass_as_int(self):
        for value in (3, 3.0):
            result = check_integer(value, 2, name="p", module="m", operation="o")
            assert result == 3 and type(result) is int

    @pytest.mark.parametrize(
        "value", [None, "x", [1.0], 10**400], ids=["none", "str", "list", "int-1e400"]
    )
    def test_values_float_refuses_are_a_record(self, value):
        _assert_record(
            lambda: check_integer(value, 2, name="p", module="m", operation="o"),
            "m", "o", "p", f"p must be an integer >= 2, got {value!r}",
        )


class TestGraphsValidation:
    @pytest.mark.parametrize(
        "call, module, operation, parameter, message",
        GRAPHS_SITES,
        ids=[f"{site[2]}-{site[3]}-{i}" for i, site in enumerate(GRAPHS_SITES)],
    )
    def test_call_sites_keep_their_records(
        self, call, module, operation, parameter, message
    ):
        _assert_record(call, module, operation, parameter, message)


class TestOutputPaths:
    @pytest.mark.parametrize(
        "call, module, operation, parameter, message",
        OUTPUT_PATH_SITES,
        ids=[f"{site[2]}-{site[3]}" for site in OUTPUT_PATH_SITES],
    )
    def test_call_sites_keep_their_records(
        self, call, module, operation, parameter, message
    ):
        _assert_record(call, module, operation, parameter, message)


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [True, 3, -2.5, np.float32(0.25), np.int64(7), 10**300],
        ids=["bool", "int", "float", "float32", "int64", "int-1e300"],
    )
    def test_finite_reals_pass_as_float(self, value):
        result = check_real(value, name="beta1", module="m", operation="o")
        assert result == float(value) and type(result) is float

    @pytest.mark.parametrize(
        "value, shown",
        [(None, "None"), ("1.5", "'1.5'"), ([1.0], "[1.0]"), (1j, "1j"),
         (math.nan, "nan"), (-math.inf, "-inf"), (10**400, str(10**400))],
        ids=["none", "str", "list", "complex", "nan", "-inf", "int-1e400"],
    )
    def test_everything_else_is_a_record(self, value, shown):
        _assert_record(
            lambda: check_real(value, name="beta1", module="m", operation="o"),
            "m", "o", "beta1", f"beta1 must be a finite real, got {shown}",
        )


FREE_COIN = ModelParams(0.0, 0.0, 2, BERNOULLI_HALF)

#: One public call per numeric argument, with the argument as ``x``, and the
#: module and parameter its record names: where the bad number enters.
BOUNDARY_SITES = {
    "log_mgf": ("cramer", "theta", lambda x: cramer.log_mgf(UNIFORM01, x)),
    "log_mgf_d1": ("cramer", "theta", lambda x: cramer.log_mgf_d1(UNIFORM01, x)),
    "log_mgf_d2": ("cramer", "theta", lambda x: cramer.log_mgf_d2(UNIFORM01, x)),
    "dual_theta": ("cramer", "u", lambda x: cramer.dual_theta(UNIFORM01, x)),
    "rate": ("cramer", "u", lambda x: cramer.rate(UNIFORM01, x)),
    "rate_d1": ("cramer", "u", lambda x: cramer.rate_d1(UNIFORM01, x)),
    "rate_d2": ("cramer", "u", lambda x: cramer.rate_d2(UNIFORM01, x)),
    "finite_support-value": (
        "cramer", "atoms", lambda x: cramer.finite_support([(x, 0.5), (1.0, 0.5)])
    ),
    "finite_support-prob": (
        "cramer", "atoms", lambda x: cramer.finite_support([(0.0, x), (1.0, 0.5)])
    ),
    "ModelParams-beta1": ("variational", "beta1", lambda x: ModelParams(x, 0.0, 2)),
    "ModelParams-beta2": ("variational", "beta2", lambda x: ModelParams(0.0, x, 2)),
    "ModelParams-p": ("variational", "p", lambda x: ModelParams(0.0, 0.0, x)),
    "objective": ("cramer", "u", lambda x: variational.objective(FREE, x)),
    "objective_d1": ("cramer", "u", lambda x: variational.objective_d1(FREE, x)),
    "objective_d2": ("cramer", "u", lambda x: variational.objective_d2(FREE, x)),
    "n_of_theta-p": ("critical", "p", lambda x: critical.n_of_theta(x, 0.5)),
    "n_of_theta-theta": ("critical", "theta", lambda x: critical.n_of_theta(3, x)),
    "m_of_u-p": ("critical", "p", lambda x: critical.m_of_u(x, 0.5)),
    "m_of_u-u": ("critical", "u", lambda x: critical.m_of_u(3, x)),
    "f_of_u-p": ("critical", "p", lambda x: critical.f_of_u(x, 0.5)),
    "f_of_u-u": ("cramer", "u", lambda x: critical.f_of_u(3, x)),
    "g_of_theta-p": ("critical", "p", lambda x: critical.g_of_theta(x, 0.5)),
    "g_of_theta-theta": ("critical", "theta", lambda x: critical.g_of_theta(3, x)),
    "find_theta0-p": ("critical", "p", lambda x: critical.find_theta0(x)),
    "critical_table-p": ("critical", "p", lambda x: critical.critical_table([x])),
    "bounding_point-p": ("critical", "p", lambda x: phase_curve.bounding_point(x, -5.0)),
    "bounding_point-beta1": ("phase_curve", "beta1", lambda x: phase_curve.bounding_point(2, x)),
    "maxima_gap-p": ("critical", "p", lambda x: phase_curve.maxima_gap(x, -5.0, 5.0)),
    "maxima_gap-beta1": ("phase_curve", "beta1", lambda x: phase_curve.maxima_gap(2, x, 5.0)),
    "maxima_gap-beta2": ("variational", "beta2", lambda x: phase_curve.maxima_gap(2, -5.0, x)),
    "r_of_beta1-p": ("critical", "p", lambda x: phase_curve.r_of_beta1(x, -5.0)),
    "r_of_beta1-beta1": ("phase_curve", "beta1", lambda x: phase_curve.r_of_beta1(2, x)),
    "trace_curve-p": ("critical", "p", lambda x: phase_curve.trace_curve(x, -5.0, -4.0, 2)),
    "trace_curve-beta1_lo": (
        "phase_curve", "beta1_lo", lambda x: phase_curve.trace_curve(2, x, -4.0, 2)
    ),
    "trace_curve-beta1_hi": (
        "phase_curve", "beta1_hi", lambda x: phase_curve.trace_curve(2, -5.0, x, 2)
    ),
    "trace_curve-steps": (
        "phase_curve", "steps", lambda x: phase_curve.trace_curve(2, -5.0, -4.0, x)
    ),
    "jump_profile-p": ("critical", "p", lambda x: phase_curve.jump_profile(x, -5.0)),
    "jump_profile-beta1": ("phase_curve", "beta1", lambda x: phase_curve.jump_profile(2, x)),
    "GaussianModelParams-beta1": (
        "gaussian_directed", "beta1", lambda x: GaussianModelParams(x, 0.1)
    ),
    "GaussianModelParams-beta2": (
        "gaussian_directed", "beta2", lambda x: GaussianModelParams(0.5, x)
    ),
    "psi_n_exact-n": ("gaussian_directed", "n", lambda x: psi_n_exact(GAUSS, x)),
    "psi_n_monte_carlo-n": (
        "gaussian_directed", "n", lambda x: psi_n_monte_carlo(GAUSS, x, 100, 1)
    ),
    "psi_n_monte_carlo-samples": (
        "gaussian_directed", "samples", lambda x: psi_n_monte_carlo(GAUSS, 2, x, 1)
    ),
    "sample_prior-n": ("graphs", "n", lambda x: sample_prior(UNIFORM01, x, 1)),
    "MetropolisChain-n": ("graphs", "n", lambda x: MetropolisChain(FREE, x, 1)),
    "run_sampler-sweeps": ("graphs", "sweeps", lambda x: run_sampler(FREE, 3, x, 0, 1)),
    "run_sampler-burn_in": ("graphs", "burn_in", lambda x: run_sampler(FREE, 3, 1, x, 1)),
    "enumerate_gibbs-n": ("graphs", "n", lambda x: enumerate_gibbs(FREE_COIN, x)),
    "step-i": ("graphs", "i", lambda x: MetropolisChain(FREE, 3, 1).step(x, 0)),
    "step-j": ("graphs", "j", lambda x: MetropolisChain(FREE, 3, 1).step(0, x)),
}

BAD_NUMBERS = {
    "none": None, "str": "x", "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "int-1e400": 10**400, "list": [1.0],
}

BOUNDARY_CASES = [
    pytest.param(module, parameter, call, value, id=f"{site}-{label}")
    for site, (module, parameter, call) in BOUNDARY_SITES.items()
    for label, value in BAD_NUMBERS.items()
]


@pytest.mark.parametrize("module, parameter, call, value", BOUNDARY_CASES)
def test_public_numeric_arguments_raise_records(module, parameter, call, value):
    with pytest.raises(InputValidationError) as excinfo:
        call(value)
    record = excinfo.value.record()
    assert (record["module"], record["offending_parameter"]) == (module, parameter)
