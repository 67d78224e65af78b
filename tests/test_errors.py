"""Tests for the shared argument checks and the records they raise.

Every integer count or order in the package goes through ``check_integer``,
and the ``graphs`` input checks through one local helper; an output path
the CLI cannot write is a typed record too.  Each call site keeps its own
module, operation, parameter and message, so the error records a caller
sees are pinned here site by site.
"""

import pytest

from wergm import critical
from wergm.cli import build_parser
from wergm.cramer import BERNOULLI_HALF, UNIFORM01
from wergm.errors import InputValidationError, check_integer
from wergm.gaussian_directed import GaussianModelParams, psi_n_exact, psi_n_monte_carlo
from wergm.graphs import (
    TRIANGLE,
    MetropolisChain,
    SubgraphSpec,
    WeightedGraph,
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
]



def _run_command(*argv):
    """One CLI command's handler, so that its error propagates as raised."""
    args = build_parser().parse_args(list(argv))
    return args.handler(args)


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

    def test_integral_values_pass_as_int(self):
        for value in (3, 3.0):
            result = check_integer(value, 2, name="p", module="m", operation="o")
            assert result == 3 and type(result) is int


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
