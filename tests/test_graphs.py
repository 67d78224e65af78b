"""Tests for finite-graph densities, the Metropolis chain, and enumeration.

Oracles: an explicit all-maps loop for homomorphism densities, constant
matrices where densities are powers of the constant, the exact enumerated
Gibbs law on tiny graphs, and the law of large numbers under the prior.
"""

import hashlib
import itertools
import math
from operator import length_hint

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wergm.cramer import BERNOULLI_HALF, UNIFORM01, finite_support
from wergm.errors import InputValidationError
from wergm.graphs import (
    EDGE,
    RESYNC_INTERVAL,
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
FREE = ModelParams(0.0, 0.0, 2)
TWO_MATCHING = SubgraphSpec(4, ((1, 2), (3, 4)), "2-matching")

#: Exact outputs of seeded chains, one per update path: (params, n, sweeps,
#: burn_in, seed, subgraph) and then t_edge and t_sub at recorded sweeps 0,
#: sweeps // 2 and sweeps - 1, the acceptance rate, the largest resync
#: drift, the final w[0, n-1] and w[n-1, n-1], and the first 16 hex digits
#: of the SHA-256 of the final matrix's bytes.  The two-star run and the
#: second triangle run cross a resync at sweep 100, so their drifts pin the
#: tracked densities' rounding.  Any change to the update arithmetic or to
#: the use of the RNG stream moves these.
PINNED_CHAINS = [
    pytest.param(
        (ModelParams(-1.0, 2.0, 2), 12, 130, 5, 2024, None),
        [0.7896352842371683, 0.7463699357701726, 0.7168494516252445],
        [0.6253632641760088, 0.5614065094534701, 0.5170545703890684],
        0.5146942800788955, 4.6629367034256575e-15,
        (0.07836647149955678, 0.8123319915743413), "defbb0ff8b51e2a6",
        id="two-star-uniform",
    ),
    pytest.param(
        (ModelParams(-0.5, 0.8, 3), 10, 40, 5, 31, None),
        [0.5516246012258749, 0.5342590329217742, 0.4516901175214908],
        [0.18242376040824726, 0.16268716553608115, 0.1092641818719301],
        0.9340909090909091, 0.0,
        (0.03856519736384734, 0.24707508714375825), "2efd68d1bce03461",
        id="triangle-uniform",
    ),
    pytest.param(
        (ModelParams(-0.5, 0.8, 3), 12, 100, 5, 31, None),
        [0.524970084636695, 0.5240429868822165, 0.4768254285506599],
        [0.1555491790959876, 0.1539488975170804, 0.1298947982050498],
        0.94, 5.495603971894525e-15,
        (0.696715070888683, 0.5970878716036594), "b64bdde9223e8c5d",
        id="triangle-uniform-resync",
    ),
    pytest.param(
        (ModelParams(0.4, 0.4, 2, THREE_ATOMS), 10, 40, 5, 7, None),
        [0.56, 0.6110000000000001, 0.6110000000000001],
        [0.31666000000000005, 0.3758500000000004, 0.37909000000000054],
        0.77, 0.0, (0.5, 0.8), "39fa9dfa9a3831dc",
        id="two-star-three-atoms",
    ),
    pytest.param(
        (ModelParams(-1.0, 1.5, 2, BERNOULLI_HALF), 10, 40, 5, 8, None),
        [0.9400000000000004, 0.9300000000000004, 0.9600000000000004],
        [0.8880000000000006, 0.8730000000000006, 0.9260000000000006],
        0.5718181818181818, 0.0, (1.0, 1.0), "cf5221cab481333b",
        id="two-star-coin",
    ),
    pytest.param(
        (ModelParams(-1.0, 2.0, 2), 6, 12, 3, 5, TWO_MATCHING),
        [0.6663020236561532, 0.7421268805407597, 0.7430734886926258],
        [0.44395838672828525, 0.5507523068211604, 0.5521582095978311],
        0.5436507936507936, 0.0,
        (0.668823427535272, 0.92968430393), "2a49fbd89d83dcac",
        id="generic-2-matching",
    ),
]


def hom_density_all_maps(subgraph: SubgraphSpec, graph: WeightedGraph) -> float:
    """Literal definition: average the edge-weight product over all maps."""
    total = 0.0
    for assignment in itertools.product(range(graph.n), repeat=subgraph.k):
        product = 1.0
        for i, j in subgraph.edges:
            product *= graph.weights[assignment[i - 1], assignment[j - 1]]
        total += product
    return total / graph.n**subgraph.k


class SingleLoopChain(MetropolisChain):
    """``MetropolisChain`` driven by one update loop for all three modes.

    The loop the per-mode loops replaced, kept as their oracle: it walks a
    list of ``(i, j)`` tuples and re-tests the mode and the diagonal on
    every entry, and writes the row sums and, outside the two-star mode,
    the matrix on every accept.  ``step`` and ``sweep`` feed it exactly as
    they fed it then; construction and the resync are the chain's own.
    """

    def __init__(self, params, n, seed, subgraph=None):
        super().__init__(params, n, seed, subgraph)
        self._entries = [(i, j) for i in range(n) for j in range(i, n)]
        self._graph = WeightedGraph(n, self._w)
        self._row_views = list(self._w)
        self._col_views = [self._w[:, j] for j in range(n)]
        self._rows = self._w.sum(axis=1).tolist()

    def _update(self, pairs, proposals, uniform) -> int:
        n2, n3 = self.n**2, self.n**3
        beta1, beta2 = self.params.beta1, self.params.beta2
        log = math.log
        mode, w, wl, rows = self._mode, self._w, self._wl, self._rows
        row_views, col_views = self._row_views, self._col_views
        write_matrix = mode != "two-star"
        t_edge, t_sub = self._t_edge, self._t_sub
        accepted = 0
        for (i, j), value in zip(pairs, proposals):
            wi = wl[i]
            delta = value - wi[j]
            diag = i == j
            d_edge = (delta if diag else 2.0 * delta) / n2
            if mode == "two-star":
                if diag:
                    d_sub = delta * (2.0 * rows[i] + delta) / n3
                else:
                    d_sub = 2.0 * delta * (rows[i] + rows[j] + delta) / n3
            elif mode == "triangle":
                sq = float(row_views[i].dot(col_views[j]))
                dd = 3.0 * delta**2
                if diag:
                    d_sub = (3.0 * delta * sq + dd * wi[i] + delta**3) / n3
                else:
                    d_sub = (6.0 * delta * sq + dd * (wi[i] + wl[j][j])) / n3
            else:
                w[i, j] = w[j, i] = wi[j] + delta
                d_sub = hom_density(self.subgraph, self._graph) - t_sub
                w[i, j] = w[j, i] = wi[j]
            log_acc = n2 * (beta1 * d_edge + beta2 * d_sub)
            if log_acc >= 0.0 or log(uniform()) < log_acc:
                wi[j] = wl[j][i] = value
                if write_matrix:
                    w[i, j] = w[j, i] = value
                rows[i] += delta
                if not diag:
                    rows[j] += delta
                t_edge += d_edge
                t_sub += d_sub
                accepted += 1
        self._t_edge, self._t_sub = t_edge, t_sub
        self.proposed += len(pairs)
        self.accepted += accepted
        return accepted

    def step(self, i, j, proposal=None) -> bool:
        if proposal is None:
            proposal = self.params.dist.draw(self._rng, 1)[0]
        return self._update(((i, j),), (float(proposal),), self._rng.random) == 1

    def sweep(self) -> int:
        rng, m = self._rng, len(self._entries)
        proposals = self.params.dist.draw(rng, m)
        order = rng.permutation(m).tolist()
        saved = rng.bit_generator.state
        uniforms = iter(rng.random(m).tolist())
        accepted = self._update(
            [self._entries[k] for k in order], proposals, uniforms.__next__
        )
        used = m - length_hint(uniforms)
        rng.bit_generator.state = saved
        if used:
            rng.random(used)
        self.sweeps_done += 1
        if self.sweeps_done % RESYNC_INTERVAL == 0:
            self._resync()
        return accepted


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

    def test_edgeless_subgraph_has_density_one(self):
        # Every vertex integrates out: the sum over all maps is n**k.
        empty = SubgraphSpec(2, (), "empty")
        assert hom_density(empty, WeightedGraph(2, [[0.1, 0.2], [0.2, 0.3]])) == 1.0

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

    @pytest.mark.parametrize(
        "law, expected",
        [
            (UNIFORM01, [
                0.625095466604667, 0.8972138009695755, 0.7756856902451935,
                0.22520718999059186, 0.30016628491122543, 0.8735534453962619,
                0.005265304565574724, 0.8212284183827663, 0.7970694287520462,
                0.4679349528437208,
            ]),
            (BERNOULLI_HALF, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
            (THREE_ATOMS, [0.5, 0.8, 0.8, 0.2, 0.2, 0.8, 0.2, 0.8, 0.8, 0.5]),
        ],
        ids=["uniform", "coin", "three-atoms"],
    )
    def test_prior_draw_streams_pinned(self, law, expected):
        # Upper triangle, diagonal included, row by row: the exact draws of
        # each law's sampler at a fixed seed, so a change to a law's RNG
        # stream cannot pass unnoticed.
        graph = sample_prior(law, 4, seed=7)
        assert graph.weights[np.triu_indices(4)].tolist() == expected


class TestSeedCheck:
    @pytest.mark.parametrize(
        "operation, call",
        [
            ("sample_prior", lambda seed: sample_prior(UNIFORM01, 4, seed)),
            ("MetropolisChain", lambda seed: MetropolisChain(FREE, 4, seed)),
            ("run_sampler", lambda seed: run_sampler(FREE, 4, 2, 0, seed)),
        ],
        ids=["sample_prior", "MetropolisChain", "run_sampler"],
    )
    def test_negative_seed_rejected(self, operation, call):
        # Without the typed check numpy's ValueError surfaces here.
        with pytest.raises(InputValidationError) as excinfo:
            call(-1)
        record = excinfo.value.record()
        assert record["module"] == "graphs"
        assert record["operation"] == operation
        assert record["offending_parameter"] == "seed"


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

    @pytest.mark.parametrize(
        "run, t_edge, t_sub, acceptance, drift, corners, digest", PINNED_CHAINS
    )
    def test_pinned_chain(
        self, run, t_edge, t_sub, acceptance, drift, corners, digest
    ):
        params, n, sweeps, burn_in, seed, subgraph = run
        stats = run_sampler(params, n, sweeps, burn_in, seed, subgraph)
        picks = (0, sweeps // 2, sweeps - 1)
        assert [float(stats.t_edge_series[k]) for k in picks] == t_edge
        assert [float(stats.t_sub_series[k]) for k in picks] == t_sub
        assert stats.acceptance_rate == acceptance
        assert stats.max_resync_drift == drift
        # A chain with the same arguments retraces run_sampler's chain.
        chain = MetropolisChain(params, n, seed, subgraph)
        for _ in range(burn_in + sweeps):
            chain.sweep()
        assert chain.t_edge == stats.t_edge_series[-1]
        assert chain.t_sub == stats.t_sub_series[-1]
        w = chain.weights
        assert (w[0, n - 1], w[n - 1, n - 1]) == corners
        assert hashlib.sha256(w.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "params, subgraph",
        [
            (ModelParams(-1.0, 2.0, 2), None),
            (ModelParams(-0.5, 0.8, 3), None),
            (ModelParams(-1.0, 2.0, 2), TWO_MATCHING),
        ],
        ids=["two-star", "triangle", "generic-2-matching"],
    )
    def test_sweep_equals_hand_driven_steps(self, params, subgraph):
        # A sweep draws every proposal, then the visiting order, then runs
        # the single-entry update in that order: exactly what `step` does.
        a = MetropolisChain(params, 7, seed=17, subgraph=subgraph)
        b = MetropolisChain(params, 7, seed=17, subgraph=subgraph)
        entries = [(i, j) for i in range(7) for j in range(i, 7)]
        m = len(entries)
        for _ in range(3):
            a.sweep()
            proposals = params.dist.draw(b._rng, m)
            order = b._rng.permutation(m)
            for idx, k in enumerate(order):
                b.step(*entries[k], proposals[idx])
            assert np.array_equal(a.weights, b.weights)
            assert (a.t_edge, a.t_sub) == (b.t_edge, b.t_sub)
            assert (a.accepted, a.proposed) == (b.accepted, b.proposed)
        assert 0 < a.accepted < a.proposed

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(-1.0, 2.0, 2),
            ModelParams(-0.5, 0.8, 3),
            ModelParams(-1.0, 1.5, 2, BERNOULLI_HALF),
        ],
        ids=["two-star", "triangle", "coin"],
    )
    def test_sweep_leaves_the_stream_where_steps_do(self, params):
        # A sweep draws its acceptance uniforms as one block and rewinds to
        # the ones it used: the bit generator must end every sweep in the
        # state one scalar draw per step leaves, buffered 32-bit half
        # (which the coin's integer draws fill) included.
        a = MetropolisChain(params, 7, seed=17)
        b = MetropolisChain(params, 7, seed=17)
        entries = [(i, j) for i in range(7) for j in range(i, 7)]
        m = len(entries)
        buffered = set()
        for _ in range(4):
            a.sweep()
            proposals = params.dist.draw(b._rng, m)
            order = b._rng.permutation(m)
            for idx, k in enumerate(order):
                b.step(*entries[k], proposals[idx])
            state = a._rng.bit_generator.state
            assert state == b._rng.bit_generator.state
            buffered.add(state["has_uint32"])
        assert 0 < a.accepted < a.proposed
        if params.dist is BERNOULLI_HALF:
            assert 1 in buffered

    def test_two_star_weights_follow_list_state(self):
        # The two-star chain updates only its list state between resyncs;
        # `weights` must still show the current matrix.
        chain = MetropolisChain(ModelParams(-1.0, 2.0, 2), 9, seed=4)
        iu = np.triu_indices(9)
        for sweeps in (37, RESYNC_INTERVAL + 7):
            while chain.sweeps_done < sweeps:
                chain.sweep()
            rebuilt = np.zeros((9, 9))
            rebuilt[iu] = chain.state_key()
            rebuilt = rebuilt + np.triu(rebuilt, 1).T
            assert np.array_equal(chain.weights, rebuilt)

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


#: (p, subgraph) of each update mode, and the laws the oracle runs them on.
CHAIN_MODES = {"two-star": (2, None), "triangle": (3, None), "generic": (2, TWO_MATCHING)}
CHAIN_LAWS = {"uniform": UNIFORM01, "coin": BERNOULLI_HALF, "three-atoms": THREE_ATOMS}

chain_setups = st.tuples(
    st.sampled_from(sorted(CHAIN_MODES)),
    st.sampled_from(sorted(CHAIN_LAWS)),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestSingleLoopOracle:
    """The per-mode loops retrace the single loop bit for bit."""

    @staticmethod
    def chains(setup):
        mode, law, beta1, beta2, n, seed = setup
        p, subgraph = CHAIN_MODES[mode]
        params = ModelParams(beta1, beta2, p, CHAIN_LAWS[law])
        return (
            MetropolisChain(params, n, seed, subgraph),
            SingleLoopChain(params, n, seed, subgraph),
        )

    @staticmethod
    def assert_same(new, old):
        assert new.weights.tobytes() == old.weights.tobytes()
        assert new.state_key() == old.state_key()
        assert (new.t_edge, new.t_sub) == (old.t_edge, old.t_sub)
        assert (new.accepted, new.proposed) == (old.accepted, old.proposed)
        assert new.max_resync_drift == old.max_resync_drift
        assert new._rng.bit_generator.state == old._rng.bit_generator.state

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(setup=chain_setups)
    def test_sweeps_match(self, setup):
        new, old = self.chains(setup)
        # Two sweeps short of a resync: the second sweep runs it, and the
        # third runs on the resynced row sums and densities.
        new.sweeps_done = old.sweeps_done = RESYNC_INTERVAL - 2
        for _ in range(3):
            assert new.sweep() == old.sweep()
            self.assert_same(new, old)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(setup=chain_setups)
    def test_steps_match(self, setup):
        # Entries in either order, diagonal included; proposals drawn by the
        # chain, drawn here, and equal to the current value (delta = 0).
        new, old = self.chains(setup)
        n, law = new.n, new.params.dist
        rng = np.random.default_rng(setup[-1])
        for k in range(4 * n):
            i, j = rng.integers(n, size=2)
            proposal = (None, law.draw(rng, 1)[0], new.weights[i, j])[k % 3]
            assert new.step(i, j, proposal) == old.step(i, j, proposal)
        self.assert_same(new, old)


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
        # n = 2 has three free entries -> 27 states (8 for the coin); a
        # short chain's empirical law should already sit close to the truth.
        for dist in (THREE_ATOMS, BERNOULLI_HALF):
            params = ModelParams(0.4, 0.4, 2, dist)
            law = enumerate_gibbs(params, 2)
            assert len(law) == len(dist.atoms) ** 3
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


class TestRecords:
    def test_fields_are_read_only(self):
        stats = run_sampler(FREE, 4, 2, 0, 1)
        report = concentration_report(stats, FREE)
        for record, name in ((TWO_STAR, "k"), (stats, "seed"), (report, "targets")):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_equal_spec_takes_the_two_star_update(self):
        # The chain picks its closed-form update by looking the subgraph up
        # in a dict: a spec equal to TWO_STAR must hash like it and run the
        # default two-star chain exactly.
        spec = SubgraphSpec(3, ((2, 1), (3, 1)), "two-star")
        assert spec == TWO_STAR
        assert hash(spec) == hash(TWO_STAR)
        params = ModelParams(-1.0, 2.0, 2)
        assert MetropolisChain(params, 7, seed=17, subgraph=spec)._mode == "two-star"
        ours = run_sampler(params, 7, 30, 5, 17, spec)
        default = run_sampler(params, 7, 30, 5, 17)
        assert np.array_equal(ours.t_edge_series, default.t_edge_series)
        assert np.array_equal(ours.t_sub_series, default.t_sub_series)
        assert ours.acceptance_rate == default.acceptance_rate
