"""Tests for finite-graph densities, the Metropolis chain, and enumeration.

Oracles: an explicit all-maps loop for homomorphism densities, constant
matrices where densities are powers of the constant, the exact enumerated
Gibbs law on tiny graphs, and the law of large numbers under the prior.
"""

import itertools
import math

import numpy as np
import pytest

from wergm.cramer import BERNOULLI_HALF, UNIFORM01, finite_support
from wergm.errors import InputValidationError
from wergm.graphs import (
    EDGE,
    TRIANGLE,
    TWO_STAR,
    MetropolisChain,
    SubgraphSpec,
    WeightedGraph,
    concentration_report,
    enumerate_gibbs,
    hom_density,
    run_sampler,
    sample_prior,
)
from wergm.variational import ModelParams, PhaseClass

THREE_ATOMS = finite_support([(0.2, 1 / 3), (0.5, 1 / 3), (0.8, 1 / 3)])


def hom_density_all_maps(subgraph: SubgraphSpec, graph: WeightedGraph) -> float:
    """Literal definition: average the edge-weight product over all maps."""
    total = 0.0
    for assignment in itertools.product(range(graph.n), repeat=subgraph.k):
        product = 1.0
        for i, j in subgraph.edges:
            product *= graph.weights[assignment[i - 1], assignment[j - 1]]
        total += product
    return total / graph.n**subgraph.k


class TestHomDensity:
    def test_constant_matrix_gives_powers(self):
        graph = WeightedGraph(4, np.full((4, 4), 0.7))
        np.testing.assert_allclose(hom_density(EDGE, graph), 0.7, rtol=1e-14)
        np.testing.assert_allclose(hom_density(TWO_STAR, graph), 0.7**2, rtol=1e-14)
        np.testing.assert_allclose(hom_density(TRIANGLE, graph), 0.7**3, rtol=1e-14)

    def test_matches_all_maps_definition(self):
        rng = np.random.default_rng(777)
        w = rng.random((3, 3))
        w = (w + w.T) / 2.0
        graph = WeightedGraph(3, w)
        for subgraph in (EDGE, TWO_STAR, TRIANGLE):
            np.testing.assert_allclose(
                hom_density(subgraph, graph),
                hom_density_all_maps(subgraph, graph),
                rtol=1e-13,
            )

    def test_edge_density_equals_matrix_mean_exactly(self):
        rng = np.random.default_rng(4)
        w = rng.random((7, 7))
        w = (w + w.T) / 2.0
        graph = WeightedGraph(7, w)
        assert hom_density(EDGE, graph) == float(w.sum()) / 49.0

    def test_large_subgraph_warns_but_computes(self):
        # A 5-vertex path has no closed-form shortcut and k > 4 contracts
        # are expensive; the computation should warn and still be exact.
        path5 = SubgraphSpec(5, ((1, 2), (2, 3), (3, 4), (4, 5)), "path5")
        graph = WeightedGraph(3, np.full((3, 3), 0.5))
        with pytest.warns(RuntimeWarning):
            value = hom_density(path5, graph)
        np.testing.assert_allclose(value, 0.5**4, rtol=1e-12)

    def test_asymmetric_matrix_rejected(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(InputValidationError):
            WeightedGraph(2, w)


class TestSamplePrior:
    def test_law_of_large_numbers(self):
        graph = sample_prior(UNIFORM01, 200, seed=2026)
        assert abs(float(graph.weights.mean()) - 0.5) <= 0.02

    def test_deterministic_given_seed(self):
        a = sample_prior(UNIFORM01, 20, seed=5)
        b = sample_prior(UNIFORM01, 20, seed=5)
        assert np.array_equal(a.weights, b.weights)

    def test_coin_values_are_binary(self):
        graph = sample_prior(BERNOULLI_HALF, 30, seed=1)
        assert set(np.unique(graph.weights)) <= {0.0, 1.0}

    def test_finite_support_values_on_atoms(self):
        graph = sample_prior(THREE_ATOMS, 25, seed=8)
        assert set(np.unique(graph.weights)) <= {0.2, 0.5, 0.8}


class TestMetropolisChain:
    def test_symmetry_preserved_and_drift_tiny(self):
        params = ModelParams(0.5, 1.0, 2)
        chain = MetropolisChain(params, 20, seed=99)
        for _ in range(150):
            chain.sweep()
        assert np.array_equal(chain.weights, chain.weights.T)
        assert chain.max_resync_drift <= 1e-9
        # Tracked densities equal recomputed ones.
        graph = WeightedGraph(20, chain.weights.copy())
        np.testing.assert_allclose(
            chain.t_edge, hom_density(EDGE, graph), atol=1e-12
        )
        np.testing.assert_allclose(
            chain.t_sub, hom_density(TWO_STAR, graph), atol=1e-12
        )

    def test_triangle_increments_match_recompute(self):
        params = ModelParams(-0.5, 0.8, 3)
        chain = MetropolisChain(params, 12, seed=31)
        for _ in range(60):
            chain.sweep()
        graph = WeightedGraph(12, chain.weights.copy())
        np.testing.assert_allclose(
            chain.t_sub, hom_density(TRIANGLE, graph), atol=1e-11
        )

    def test_generic_subgraph_increments_match_recompute(self):
        # Not a built-in subgraph: the chain recomputes the density per step.
        two_matching = SubgraphSpec(4, ((1, 2), (3, 4)), "2-matching")
        chain = MetropolisChain(ModelParams(-1.0, 2.0, 2), 8, seed=5, subgraph=two_matching)
        for _ in range(20):
            chain.sweep()
        graph = WeightedGraph(8, chain.weights.copy())
        assert abs(chain.t_sub - hom_density(two_matching, graph)) <= 1e-12
        # Disjoint edges: the 2-matching density is the edge density squared.
        assert abs(chain.t_sub - chain.t_edge**2) <= 1e-12

    def test_free_chain_acceptance_is_total(self):
        # With beta1 = beta2 = 0 every proposal is accepted.
        stats = run_sampler(ModelParams(0.0, 0.0, 2), 15, 40, 10, seed=3)
        assert stats.acceptance_rate == 1.0

    def test_reproducible_trajectories(self):
        params = ModelParams(-1.0, 2.0, 2)
        a = run_sampler(params, 12, 30, 5, seed=42)
        b = run_sampler(params, 12, 30, 5, seed=42)
        assert np.array_equal(a.t_edge_series, b.t_edge_series)
        assert np.array_equal(a.t_sub_series, b.t_sub_series)
        c = run_sampler(params, 12, 30, 5, seed=43)
        assert not np.array_equal(a.t_edge_series, c.t_edge_series)

    def test_free_chain_concentrates_at_half(self):
        stats = run_sampler(ModelParams(0.0, 0.0, 2), 40, 250, 50, seed=11)
        assert abs(stats.mean_t_edge - 0.5) <= 0.02
        assert abs(stats.mean_t_sub - 0.25) <= 0.02

    def test_subgraph_edge_count_must_match_p(self):
        with pytest.raises(InputValidationError):
            MetropolisChain(ModelParams(0.0, 0.0, 2), 10, seed=1, subgraph=TRIANGLE)

    def test_no_builtin_subgraph_for_large_p(self):
        with pytest.raises(InputValidationError):
            MetropolisChain(ModelParams(0.0, 0.0, 5), 10, seed=1)

    def test_validates_run_lengths(self):
        with pytest.raises(InputValidationError):
            run_sampler(ModelParams(0.0, 0.0, 2), 10, 0, 0, seed=1)
        with pytest.raises(InputValidationError):
            run_sampler(ModelParams(0.0, 0.0, 2), 10, 10, -1, seed=1)


class TestConcentrationReport:
    def test_unique_phase_single_target(self):
        params = ModelParams(0.0, 0.0, 2)
        stats = run_sampler(params, 25, 60, 20, seed=6)
        report = concentration_report(stats, params)
        assert report.classification is PhaseClass.UNIQUE
        assert len(report.targets) == 1
        np.testing.assert_allclose(report.targets[0], (0.5, 0.25), atol=1e-10)
        assert report.deviations[0][0] == abs(stats.mean_t_edge - 0.5)

    def test_two_phase_lists_both_targets(self):
        params = ModelParams(-5.0, 5.0, 2)
        stats = run_sampler(params, 15, 20, 5, seed=6)
        report = concentration_report(stats, params)
        assert report.classification is PhaseClass.TWO_GLOBAL
        assert len(report.targets) == 2
        assert report.targets[0][0] < report.targets[1][0]


class TestEnumerateGibbs:
    def test_probabilities_sum_to_one(self):
        params = ModelParams(0.4, 0.4, 2, THREE_ATOMS)
        law = enumerate_gibbs(params, 3)
        assert len(law) == 3**6
        np.testing.assert_allclose(sum(law.values()), 1.0, atol=1e-12)

    def test_zero_parameters_give_product_prior(self):
        params = ModelParams(0.0, 0.0, 2, THREE_ATOMS)
        law = enumerate_gibbs(params, 2)
        assert len(law) == 27
        np.testing.assert_allclose(list(law.values()), 1.0 / 27.0, rtol=1e-12)

    def test_uniform_law_rejected(self):
        with pytest.raises(InputValidationError):
            enumerate_gibbs(ModelParams(0.0, 0.0, 2), 3)

    def test_chain_matches_enumeration_small_case(self):
        # n = 2 has three free entries -> 27 states; a short chain's
        # empirical law should already sit close to the truth.
        params = ModelParams(0.4, 0.4, 2, THREE_ATOMS)
        law = enumerate_gibbs(params, 2)
        chain = MetropolisChain(params, 2, seed=123)
        entries = [(i, j) for i in range(2) for j in range(i, 2)]
        rng = np.random.default_rng(9)
        counts: dict[tuple[float, ...], int] = {}
        steps = 60_000
        for _ in range(steps):
            i, j = entries[rng.integers(len(entries))]
            chain.step(i, j)
            key = chain.state_key()
            counts[key] = counts.get(key, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(state, 0) / steps - prob) for state, prob in law.items()
        )
        off_grid = sum(
            count for state, count in counts.items() if state not in law
        )
        assert off_grid == 0
        assert tv <= 0.05


class TestSubgraphSpecValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InputValidationError):
            SubgraphSpec(3, ((1, 1),), "loop")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputValidationError):
            SubgraphSpec(3, ((1, 2), (2, 1)), "dup")

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(InputValidationError):
            SubgraphSpec(2, ((1, 3),), "oops")

    def test_edges_normalized_sorted(self):
        spec = SubgraphSpec(3, ((3, 1), (2, 1)), "rev")
        assert spec.edges == ((1, 3), (1, 2))
        assert spec.edge_count == 2
