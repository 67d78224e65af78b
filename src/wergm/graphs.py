"""Finite weighted graphs: densities, prior sampling, Metropolis dynamics.

A weighted graph on ``n`` vertices is a symmetric ``n x n`` matrix of edge
weights, diagonal included — the step-function kernel it induces takes the
value ``w[i, i]`` on diagonal blocks, so the diagonal participates in every
density below (its contribution is O(1/n) and vanishes in the limit).

``hom_density`` evaluates the kernel form of a subgraph density: the
normalized sum over *all* vertex maps, injective or not, of the product of
edge weights.  ``MetropolisChain`` and ``run_sampler`` simulate the Gibbs
measure that reweights the iid prior by ``exp(n**2 * (beta1 * t_edge +
beta2 * t_sub))``; proposals redraw one entry from the prior, so the
acceptance ratio is exactly that exponential factor with no correction
term.  ``enumerate_gibbs`` computes the same measure exactly for small
graphs over finite-support laws, as an oracle for the chain.

numpy is imported inside the functions that use it, so that ``import
wergm`` and the theory commands do not pay for loading it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from numbers import Integral
from operator import length_hint
from typing import TYPE_CHECKING, NamedTuple

from . import cramer
from .errors import InputValidationError, check_integer, check_real, check_seed, power_guard
from .variational import ModelParams, PhaseClass, solve_psi

if TYPE_CHECKING:
    import numpy as np

_MODULE = "graphs"

#: Sufficient statistics are recomputed from scratch every this many
#: sweeps, bounding incremental float drift.
RESYNC_INTERVAL = 100


def _require(ok: bool, message: str, operation: str, parameter: str) -> None:
    if not ok:
        raise InputValidationError(
            message, module=_MODULE, operation=operation, offending_parameter=parameter
        )


class _SubgraphFields(NamedTuple):
    k: int
    edges: tuple[tuple[int, int], ...]
    name: str


class SubgraphSpec(_SubgraphFields):
    """A finite simple graph on vertices 1..k, given by its edge list."""

    __slots__ = ()

    def __new__(cls, k, edges, name):
        _require(
            isinstance(k, Integral), f"vertex count must be an integer, got {k!r}",
            "SubgraphSpec", "k",
        )
        _require(k >= 1, f"vertex count must be >= 1, got {k}", "SubgraphSpec", "k")
        seen = set()
        normalized = []
        for pair in edges:
            i, j = pair
            _require(
                isinstance(i, Integral) and isinstance(j, Integral),
                f"edge {pair} must join two integer vertices",
                "SubgraphSpec",
                "edges",
            )
            _require(
                i != j, f"self-loop {pair} is not allowed", "SubgraphSpec", "edges"
            )
            _require(
                1 <= i <= k and 1 <= j <= k,
                f"edge {pair} uses vertices outside 1..{k}",
                "SubgraphSpec",
                "edges",
            )
            key = (min(i, j), max(i, j))
            _require(key not in seen, f"duplicate edge {pair}", "SubgraphSpec", "edges")
            seen.add(key)
            normalized.append(key)
        return super().__new__(cls, k, tuple(normalized), name)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


EDGE = SubgraphSpec(2, ((1, 2),), "edge")
TWO_STAR = SubgraphSpec(3, ((1, 2), (1, 3)), "two-star")
TRIANGLE = SubgraphSpec(3, ((1, 2), (1, 3), (2, 3)), "triangle")


def _default_subgraph(p: int, operation: str) -> SubgraphSpec:
    """The built-in p-edge subgraph: the two-star at p = 2, the triangle at 3."""
    subgraph = {2: TWO_STAR, 3: TRIANGLE}.get(p)
    _require(
        subgraph is not None,
        f"no built-in {p}-edge subgraph; pass one explicitly",
        operation,
        "subgraph",
    )
    return subgraph


class WeightedGraph:
    """Symmetric weight matrix on ``n`` vertices, diagonal included."""

    def __init__(self, n: int, weights: np.ndarray):
        import numpy as np

        self.n = n
        self.weights = np.asarray(weights, dtype=float)
        _require(
            isinstance(n, Integral), f"n must be an integer, got {n!r}",
            "WeightedGraph", "n",
        )
        _require(
            self.n >= 2,
            f"need at least 2 vertices, got n = {self.n}",
            "WeightedGraph",
            "n",
        )
        _require(
            self.weights.shape == (self.n, self.n),
            f"weights must be {self.n}x{self.n}, got {self.weights.shape}",
            "WeightedGraph",
            "weights",
        )
        _require(
            np.array_equal(self.weights, self.weights.T),
            "weights matrix must be symmetric",
            "WeightedGraph",
            "weights",
        )


def hom_density(subgraph: SubgraphSpec, graph: WeightedGraph) -> float:
    """Kernel-form subgraph density of ``graph``.

    Equals ``n**(-k)`` times the sum over all vertex maps [k] -> [n] of the
    product of mapped edge weights.  Vertices of the subgraph that touch no
    edge integrate out exactly, so only the edge-touching vertices are
    contracted; the contraction is delegated to einsum, which may do much
    better than the n**k map enumeration but is not guaranteed to.
    """
    import numpy as np

    if subgraph.k > 4:
        warnings.warn(
            f"density of a {subgraph.k}-vertex subgraph may cost up to "
            f"O(n**{subgraph.k})",
            RuntimeWarning,
            stacklevel=2,
        )
    if not subgraph.edges:
        return 1.0
    if len(subgraph.edges) == 1:
        # Plain sum keeps this bit-identical to the matrix mean.
        return float(graph.weights.sum()) / float(graph.n) ** 2
    used = sorted({v for edge in subgraph.edges for v in edge})
    letter = {v: chr(ord("a") + i) for i, v in enumerate(used)}
    script = ",".join(letter[i] + letter[j] for i, j in subgraph.edges) + "->"
    total = float(np.einsum(script, *([graph.weights] * len(subgraph.edges))))
    return total / float(graph.n) ** len(used)


def sample_prior(dist: cramer.EdgeDistribution, n: int, seed) -> WeightedGraph:
    """Graph with iid entries from ``dist`` on the upper triangle + diagonal."""
    import numpy as np

    n = check_integer(n, 2, name="n", module=_MODULE, operation="sample_prior")
    check_seed(seed, module=_MODULE, operation="sample_prior")
    return WeightedGraph(n, _symmetric_draw(dist, np.random.default_rng(seed), n))


def _symmetric_draw(dist: cramer.EdgeDistribution, rng, n: int) -> np.ndarray:
    """Iid entries from ``dist`` on the upper triangle and diagonal, mirrored."""
    import numpy as np

    iu = np.triu_indices(n)
    weights = np.zeros((n, n))
    weights[iu] = dist.draw(rng, len(iu[0]))
    return weights + np.triu(weights, 1).T


class TrajectoryStats(NamedTuple):
    """Recorded density trajectories of one chain run."""

    sweeps: int
    t_edge_series: np.ndarray
    t_sub_series: np.ndarray
    mean_t_edge: float
    mean_t_sub: float
    se_t_edge: float
    se_t_sub: float
    acceptance_rate: float
    seed: int
    max_resync_drift: float


class MetropolisChain:
    """Single-entry Metropolis dynamics targeting the Gibbs measure.

    One step redraws one distinct matrix entry (i <= j, mirrored) from the
    prior and accepts with probability ``min(1, exp(n**2 * delta))`` where
    ``delta`` is the change in ``beta1 * t_edge + beta2 * t_sub``.  One
    sweep visits all ``n*(n+1)/2`` entries in fresh random order.  The
    change in the subgraph density is computed in closed form for the
    built-in two-star and triangle (making sweeps O(n**2) and O(n**3)
    respectively); any other subgraph falls back to recomputing the
    density, which is far slower but exact.

    Each mode has its own update loop, which ``step`` and ``sweep`` share:
    ``_two_star_loop``, ``_triangle_loop`` or ``_generic_loop``, bound at
    construction.  A loop takes the entries as a list of rows and a list of
    columns and reads the state from Python lists, since indexing a list
    costs a fraction of indexing a numpy array: ``_wl`` mirrors the weight
    matrix row by row.  The two-star loop keeps the list state and the row
    sums ``_rows`` only; ``weights`` and the resync copy it into the matrix
    first.  The triangle and generic loops also write the numpy matrix on
    every accept, because their increments read it: the triangle through
    the rows' ``dot`` methods and strided column views bound at
    construction, whose BLAS dot fixes the result's last bits, the generic
    through ``hom_density``.

    A sweep draws its acceptance uniforms as one block, yet consumes the
    stream as one ``rng.random()`` per step with negative ``log_acc``
    would: it saves the bit generator's state before the block, then
    restores it and redraws the uniforms the loop used.  PCG64's
    ``random(k)`` yields the same doubles as ``k`` scalar calls; an
    ``advance`` rewind would not do, as it drops the buffered 32-bit half
    that ``permutation`` and the coin's ``integers`` leave behind.
    """

    def __init__(
        self,
        params: ModelParams,
        n: int,
        seed,
        subgraph: SubgraphSpec | None = None,
    ):
        import numpy as np

        n = check_integer(n, 2, name="n", module=_MODULE, operation="MetropolisChain")
        check_seed(seed, module=_MODULE, operation="MetropolisChain")
        if subgraph is None:
            subgraph = _default_subgraph(params.p, "MetropolisChain")
        _require(
            subgraph.edge_count == params.p,
            f"subgraph {subgraph.name!r} has {subgraph.edge_count} edges, "
            f"but the model has p = {params.p}",
            "MetropolisChain",
            "subgraph",
        )

        self.params = params
        self.n = n
        self.subgraph = subgraph
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._triu = np.triu_indices(n)

        self._w = _symmetric_draw(params.dist, self._rng, n)
        self._wl = self._w.tolist()

        self._mode = {TWO_STAR: "two-star", TRIANGLE: "triangle"}.get(
            subgraph, "generic"
        )
        if self._mode == "two-star":
            self._loop = self._two_star_loop
        elif self._mode == "triangle":
            self._loop = self._triangle_loop
            # The columns stay strided: the contiguous row w[j] (equal by
            # symmetry) would take another BLAS kernel, whose last bits may
            # differ.
            self._row_dots = [row.dot for row in self._w]
            self._col_views = [self._w[:, j] for j in range(n)]
        else:
            self._loop = self._generic_loop
            self._graph = WeightedGraph(n, self._w)  # shares the matrix
        self._t_edge, self._t_sub = self._recount()

        self.accepted = 0
        self.proposed = 0
        self.sweeps_done = 0
        self.max_resync_drift = 0.0

    # -- densities ---------------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        """Current weight matrix (do not mutate).

        The triangle and generic modes return the chain's live matrix.  The
        two-star mode updates only its list state, so this refreshes the
        matrix from it first: an array read earlier goes stale.
        """
        self._sync_matrix()
        return self._w

    def _sync_matrix(self) -> None:
        if self._mode == "two-star":
            self._w[...] = self._wl

    @property
    def t_edge(self) -> float:
        """Current edge density: mean of all n**2 entries."""
        return self._t_edge

    @property
    def t_sub(self) -> float:
        """Current density of the model's p-edge subgraph."""
        return self._t_sub

    def _recount(self) -> tuple[float, float]:
        """Both densities from the matrix; the two-star also redoes ``_rows``."""
        import numpy as np

        n, w = self.n, self._w
        t_edge = float(w.sum()) / n**2
        if self._mode == "two-star":
            self._rows = w.sum(axis=1).tolist()
            return t_edge, float(np.dot(self._rows, self._rows)) / n**3
        if self._mode == "triangle":
            return t_edge, float(np.einsum("ij,jk,ki->", w, w, w)) / n**3
        return t_edge, hom_density(self.subgraph, self._graph)

    def state_key(self) -> tuple[float, ...]:
        """Current state as the upper-triangle entries in row-major order."""
        return tuple(v for i, row in enumerate(self._wl) for v in row[i:])

    # -- dynamics ----------------------------------------------------------

    # Each loop Metropolis-updates entry (ii[k], jj[k]) (mirrored) with
    # proposal proposals[k] in turn, calls ``uniform()`` once per step whose
    # ``log_acc`` is negative and returns the number of accepted steps.  On
    # an accept each assigns the proposal itself: value + delta arithmetic
    # would land one ulp off the proposal and (for discrete priors) off the
    # atom grid.  The two-star's row sums and the densities still move by
    # delta, resynced periodically.

    def _two_star_loop(self, ii, jj, proposals, uniform) -> int:
        n2, n3 = float(self.n**2), float(self.n**3)
        beta1, beta2 = self.params.beta1, self.params.beta2
        log, wl, rows = math.log, self._wl, self._rows
        t_edge, t_sub = self._t_edge, self._t_sub
        accepted = 0
        for i, j, value in zip(ii, jj, proposals):
            wi = wl[i]
            delta = value - wi[j]
            if i == j:
                d_edge = delta / n2
                d_sub = delta * (2.0 * rows[i] + delta) / n3
            else:
                d_edge = 2.0 * delta / n2
                d_sub = 2.0 * delta * (rows[i] + rows[j] + delta) / n3
            log_acc = n2 * (beta1 * d_edge + beta2 * d_sub)
            if log_acc >= 0.0 or log(uniform()) < log_acc:
                wi[j] = wl[j][i] = value
                rows[i] += delta
                if i != j:
                    rows[j] += delta
                t_edge += d_edge
                t_sub += d_sub
                accepted += 1
        self._t_edge, self._t_sub = t_edge, t_sub
        return accepted

    def _triangle_loop(self, ii, jj, proposals, uniform) -> int:
        n2, n3 = float(self.n**2), float(self.n**3)
        beta1, beta2 = self.params.beta1, self.params.beta2
        log, w, wl = math.log, self._w, self._wl
        row_dots, col_views = self._row_dots, self._col_views
        t_edge, t_sub = self._t_edge, self._t_sub
        accepted = 0
        for i, j, value in zip(ii, jj, proposals):
            wi = wl[i]
            delta = value - wi[j]
            sq = float(row_dots[i](col_views[j]))
            dd = 3.0 * delta**2
            if i == j:
                d_edge = delta / n2
                d_sub = (3.0 * delta * sq + dd * wi[i] + delta**3) / n3
            else:
                d_edge = 2.0 * delta / n2
                d_sub = (6.0 * delta * sq + dd * (wi[i] + wl[j][j])) / n3
            log_acc = n2 * (beta1 * d_edge + beta2 * d_sub)
            if log_acc >= 0.0 or log(uniform()) < log_acc:
                wi[j] = wl[j][i] = w[i, j] = w[j, i] = value
                t_edge += d_edge
                t_sub += d_sub
                accepted += 1
        self._t_edge, self._t_sub = t_edge, t_sub
        return accepted

    def _generic_loop(self, ii, jj, proposals, uniform) -> int:
        n2 = float(self.n**2)
        beta1, beta2 = self.params.beta1, self.params.beta2
        log, w, wl = math.log, self._w, self._wl
        subgraph, graph = self.subgraph, self._graph
        t_edge, t_sub = self._t_edge, self._t_sub
        accepted = 0
        for i, j, value in zip(ii, jj, proposals):
            wi = wl[i]
            delta = value - wi[j]
            d_edge = (delta if i == j else 2.0 * delta) / n2
            w[i, j] = w[j, i] = wi[j] + delta
            d_sub = hom_density(subgraph, graph) - t_sub
            w[i, j] = w[j, i] = wi[j]
            log_acc = n2 * (beta1 * d_edge + beta2 * d_sub)
            if log_acc >= 0.0 or log(uniform()) < log_acc:
                wi[j] = wl[j][i] = w[i, j] = w[j, i] = value
                t_edge += d_edge
                t_sub += d_sub
                accepted += 1
        self._t_edge, self._t_sub = t_edge, t_sub
        return accepted

    def _update(self, ii, jj, proposals, uniform) -> int:
        accepted = self._loop(ii, jj, proposals, uniform)
        self.proposed += len(ii)
        self.accepted += accepted
        return accepted

    def step(self, i: int, j: int, proposal: float | None = None) -> bool:
        """One Metropolis update of entry (i, j); returns acceptance.

        ``i`` and ``j`` are integers in ``0..n-1``; ``proposal`` is a real in
        the law's support hull, drawn from the prior when omitted.
        """
        entry = []
        for name, index in (("i", i), ("j", j)):
            index = check_integer(index, 0, name=name, module=_MODULE, operation="step")
            _require(
                index < self.n, f"{name} must be < n = {self.n}, got {index}",
                "step", name,
            )
            entry.append(index)
        if proposal is None:
            proposal = self.params.dist.draw(self._rng, 1)[0]
        else:
            proposal = check_real(
                proposal, name="proposal", module=_MODULE, operation="step"
            )
            lo, hi = self.params.dist.support
            _require(
                lo <= proposal <= hi,
                f"proposal must lie in the support hull [{lo}, {hi}], got {proposal}",
                "step", "proposal",
            )
        i, j = entry
        return self._update([i], [j], [proposal], self._rng.random) == 1

    def sweep(self) -> int:
        """One full sweep over all distinct entries in random order."""
        rng, (rows, cols) = self._rng, self._triu
        m = len(rows)
        proposals = self.params.dist.draw(rng, m)
        order = rng.permutation(m)
        saved = rng.bit_generator.state
        uniforms = iter(rng.random(m).tolist())
        accepted = self._update(
            rows[order].tolist(), cols[order].tolist(), proposals, uniforms.__next__
        )
        # Rewind the block to the uniforms the loop took (see the class doc).
        used = m - length_hint(uniforms)
        rng.bit_generator.state = saved
        if used:
            rng.random(used)
        self.sweeps_done += 1
        if self.sweeps_done % RESYNC_INTERVAL == 0:
            self._resync()
        return accepted

    def _resync(self):
        self._sync_matrix()
        t_edge, t_sub = self._recount()
        drift = max(abs(t_edge - self._t_edge), abs(t_sub - self._t_sub))
        self.max_resync_drift = max(self.max_resync_drift, drift)
        self._t_edge = t_edge
        self._t_sub = t_sub


def run_sampler(
    params: ModelParams,
    n: int,
    sweeps: int,
    burn_in: int,
    seed,
    subgraph: SubgraphSpec | None = None,
) -> TrajectoryStats:
    """Run a chain and record per-sweep densities after burn-in.

    Acceptance is counted over the recorded portion only.  Identical
    arguments (seed included) reproduce the identical trajectory.
    """
    import numpy as np

    sweeps = check_integer(
        sweeps, 1, name="sweeps", module=_MODULE, operation="run_sampler"
    )
    burn_in = check_integer(
        burn_in, 0, name="burn_in", module=_MODULE, operation="run_sampler"
    )
    check_seed(seed, module=_MODULE, operation="run_sampler")

    chain = MetropolisChain(params, n, seed, subgraph)
    for _ in range(burn_in):
        chain.sweep()
    chain.accepted = 0
    chain.proposed = 0

    t_edge = np.empty(sweeps)
    t_sub = np.empty(sweeps)
    for s in range(sweeps):
        chain.sweep()
        t_edge[s] = chain.t_edge
        t_sub[s] = chain.t_sub

    def se(series: np.ndarray) -> float:
        if len(series) < 2:
            return math.nan
        return float(np.std(series, ddof=1) / math.sqrt(len(series)))

    return TrajectoryStats(
        sweeps=sweeps,
        t_edge_series=t_edge,
        t_sub_series=t_sub,
        mean_t_edge=float(t_edge.mean()),
        mean_t_sub=float(t_sub.mean()),
        se_t_edge=se(t_edge),
        se_t_sub=se(t_sub),
        acceptance_rate=chain.accepted / max(chain.proposed, 1),
        seed=seed,
        max_resync_drift=chain.max_resync_drift,
    )


class ConcentrationReport(NamedTuple):
    """Deviation of trajectory means from the predicted concentration targets.

    One target pair ``(u*, u***p)`` per global maximizer; with two global
    maximizers both are listed without adjudicating which basin a finite
    chain occupies.  ``deviations[k]`` holds the absolute deviations of
    ``(mean_t_edge, mean_t_sub)`` from ``targets[k]``; the means and their
    standard errors stay in the ``TrajectoryStats`` compared.
    """

    classification: PhaseClass
    targets: tuple[tuple[float, float], ...]
    deviations: tuple[tuple[float, float], ...]


def concentration_report(
    stats: TrajectoryStats, params: ModelParams
) -> ConcentrationReport:
    """Compare a trajectory against the variational concentration targets."""
    solution = solve_psi(params)
    targets = tuple((u, power_guard(lambda: u**params.p, u, module=_MODULE,
                                    operation="concentration_report"))
                    for u in solution.maximizers)
    deviations = tuple(
        (abs(stats.mean_t_edge - t0), abs(stats.mean_t_sub - t1))
        for t0, t1 in targets
    )
    return ConcentrationReport(
        classification=solution.classification,
        targets=targets,
        deviations=deviations,
    )


def enumerate_gibbs(
    params: ModelParams, n: int, subgraph: SubgraphSpec | None = None
) -> dict[tuple[float, ...], float]:
    """Exact Gibbs law over all weight assignments of a finite-support prior.

    Keys are upper-triangle states in the order of
    ``MetropolisChain.state_key``; values are probabilities.  Cost is
    ``len(atoms) ** (n*(n+1)/2)`` states — meant for tiny ``n`` as a
    ground-truth oracle for the chain.
    """
    import numpy as np

    _require(
        bool(params.dist.atoms),
        "exact enumeration needs a finite-support edge law",
        "enumerate_gibbs",
        "params",
    )
    n = check_integer(n, 2, name="n", module=_MODULE, operation="enumerate_gibbs")
    entries = [(i, j) for i in range(n) for j in range(i, n)]
    values = [v for v, _ in params.dist.atoms]
    log_q = {v: math.log(q) for v, q in params.dist.atoms}
    if subgraph is None:
        subgraph = _default_subgraph(params.p, "enumerate_gibbs")

    states = []
    log_weights = []
    w = np.zeros((n, n))
    for assignment in itertools.product(values, repeat=len(entries)):
        for (i, j), v in zip(entries, assignment):
            w[i, j] = w[j, i] = v
        graph = WeightedGraph(n, w)
        t_edge = float(w.sum()) / n**2
        t_sub = hom_density(subgraph, graph)
        log_prior = sum(log_q[v] for v in assignment)
        states.append(assignment)
        log_weights.append(
            n**2 * (params.beta1 * t_edge + params.beta2 * t_sub) + log_prior
        )
    log_weights = np.array(log_weights)
    log_weights -= log_weights.max()
    probs = np.exp(log_weights)
    probs /= probs.sum()
    return {state: float(p) for state, p in zip(states, probs)}
