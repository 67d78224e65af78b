"""Per-layer tracing of ``wergm`` from outside the package.

``Tracer.install()`` wraps the public functions of each module at every
attribute a caller resolves them through, and ``uninstall()`` puts the
originals back:

- a module that holds another layer as a module (``from . import cramer``
  then ``cramer.rate_d1(...)``) gets a view of that module whose public
  functions are wrapped;
- a module that imported a function by name (``graphs.solve_psi``) gets
  the wrapped function under that name;
- a module's own calls to its public functions go through its globals,
  which are wrapped too, except cramer's evaluators (``log_mgf*``,
  ``support_interval``) inside cramer: they are the inner loop of every
  dual solve, and wrapping them would mostly measure the wrapper.
- ``MetropolisChain.sweep`` is wrapped on the class, where ``chain.sweep()``
  finds it; ``step`` is not, for the same reason as the evaluators.

Every wrapped call is timed, and its time is charged to its layer (the
module that defines it) minus the time of the wrapped calls it makes, each
counted from wrapper entry to wrapper exit: a layer's self time, with the
tracer's own bookkeeping left out of it.  Calls of the coarse operations in ``SPAN_NAMES`` are
also kept in memory as spans (name, start, end, parent, command) with the
work counts made inside them, and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array

LAYERS = ("cramer", "variational", "critical", "phase_curve", "graphs",
          "gaussian_directed", "cli")

#: Public functions per layer module (``cli.main`` is the command itself).
PUBLIC = {
    "cramer": ("dual_theta", "rate", "rate_d1", "rate_d2", "log_mgf", "log_mgf_d1",
               "log_mgf_d2", "support_interval", "endpoint_rate", "finite_support"),
    "variational": ("solve_psi", "local_maxima", "objective", "objective_d1",
                    "objective_d2", "psi_gradient"),
    "critical": ("find_theta0", "critical_table", "n_of_theta", "m_of_u", "f_of_u",
                 "g_of_theta"),
    "phase_curve": ("r_of_beta1", "bounding_point", "maxima_gap", "trace_curve",
                    "jump_profile"),
    "graphs": ("run_sampler", "concentration_report", "sample_prior", "hom_density",
               "enumerate_gibbs"),
    "gaussian_directed": ("psi_n_exact", "psi_inf", "psi_n_monte_carlo", "directed_stats"),
    "cli": ("main",),
}

#: Left unwrapped where cramer calls them itself (see the module docstring).
CRAMER_INNER = ("log_mgf", "log_mgf_d1", "log_mgf_d2", "support_interval")

#: Operations recorded as individual spans; the rest only feed the totals.
SPAN_NAMES = frozenset({
    "cli.main", "critical.critical_table", "critical.find_theta0",
    "variational.solve_psi", "variational.local_maxima",
    "phase_curve.r_of_beta1", "phase_curve.bounding_point",
    "graphs.run_sampler", "graphs.concentration_report",
    "gaussian_directed.psi_n_monte_carlo",
})

#: Operations whose individual durations are kept, for medians.
TIMED_NAMES = SPAN_NAMES | {"cramer.dual_theta"}

#: Work counted inside each span: name of the counted call -> counter.
WORK = {"cramer.dual_theta": "dual_solves", "variational.local_maxima": "scans",
        "variational.objective_d2": "newton_steps"}

SWEEP = "graphs.MetropolisChain.sweep"


class _ModuleView:
    """A module as one consumer sees it: some functions replaced, the rest delegated."""

    def __init__(self, module, overrides: dict):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class _Call:
    """Aggregates of one wrapped operation."""

    __slots__ = ("count", "total_ns", "durations")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.durations = array("d")


class Tracer:
    """Wraps the package's layers and accumulates spans and counts for one pass.

    ``install()`` before a command and ``uninstall()`` after it; the figures
    add up over the commands of the pass.
    """

    def __init__(self, package):
        self._modules = {name: getattr(package, name) for name in LAYERS}
        self._find_theta0 = self._modules["critical"].find_theta0
        self._patched = []
        self.calls = {}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.work = dict.fromkeys(WORK.values(), 0)
        self.spans = []
        self.entries = 0
        self.accepted = 0
        self.max_resync_drift = 0.0
        self.theta0_miss_ms = []
        self._misses = 0
        self._stack = []
        self._command = -1
        #: Called after a successful call of these operations.
        self._after = {"critical.find_theta0": self._theta0_done,
                       "graphs.run_sampler": self._sampler_done, SWEEP: self._sweep_done}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        call = self.calls.setdefault(key, _Call())
        keep = key in TIMED_NAMES
        span = key in SPAN_NAMES
        counter = WORK.get(key)
        after = self._after.get(key)
        stack, work, self_ns, clock = self._stack, self.work, self.self_ns, time.perf_counter_ns

        def traced(*args, **kwargs):
            # The caller is charged from here to the last clock reading
            # below, so that this wrapper's bookkeeping stays out of the
            # caller's self time.
            entry = clock()
            frame = [0]
            parent = stack[-1][1] if stack else -1
            if span:
                # Reserve the span's slot now, so that calls it makes can
                # name it as their parent.
                slot = len(self.spans)
                self.spans.append(None)
                before = dict(work)
            stack.append((frame, slot if span else parent))
            result = failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[layer] += elapsed - frame[0]
                call.count += 1
                call.total_ns += elapsed
                if counter:
                    work[counter] += 1
                if keep:
                    call.durations.append(elapsed / 1e3)
                if failed is None and after is not None:
                    after(args, result, elapsed)
                if span:
                    self.spans[slot] = {
                        "id": slot, "parent": parent, "command": self._command, "name": key,
                        "start_ns": start, "end_ns": end, "error": failed,
                        **{k: work[k] - before[k] for k in before},
                    }
                if stack:
                    stack[-1][0][0] += clock() - entry

        return traced

    def _theta0_done(self, args, result, elapsed_ns) -> None:
        misses = self._find_theta0.cache_info().misses
        if misses > self._misses:
            self._misses = misses
            self.theta0_miss_ms.append(elapsed_ns / 1e6)

    def _sampler_done(self, args, result, elapsed_ns) -> None:
        self.max_resync_drift = max(self.max_resync_drift, result.max_resync_drift)

    def _sweep_done(self, args, accepted, elapsed_ns) -> None:
        (chain,) = args
        self.entries += chain.n * (chain.n + 1) // 2
        self.accepted += accepted

    def _patch(self, target, name, value):
        self._patched.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def install(self) -> None:
        """Wrap every public function at each attribute it is resolved through."""
        wrapped = {
            layer: {name: self._wrap(layer, name, getattr(self._modules[layer], name))
                    for name in names}
            for layer, names in PUBLIC.items()
        }
        by_identity = {
            id(getattr(self._modules[layer], name)): (layer, name)
            for layer, names in PUBLIC.items() for name in names
        }
        module_ids = {id(m): layer for layer, m in self._modules.items()}
        for consumer, module in self._modules.items():
            for attr, value in list(vars(module).items()):
                if id(value) in module_ids and module_ids[id(value)] != consumer:
                    layer = module_ids[id(value)]
                    self._patch(module, attr, _ModuleView(value, wrapped[layer]))
                elif id(value) in by_identity:
                    layer, name = by_identity[id(value)]
                    if consumer == layer == "cramer" and name in CRAMER_INNER:
                        continue
                    self._patch(module, attr, wrapped[layer][name])
        chain_cls = self._modules["graphs"].MetropolisChain
        self._patch(chain_cls, "sweep", self._wrap("graphs", "MetropolisChain.sweep",
                                                   chain_cls.sweep))
        self._misses = self._find_theta0.cache_info().misses

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def begin_command(self, index: int) -> None:
        self._command = index

    # -- results -----------------------------------------------------------

    def _median(self, key: str, scale: float = 1.0) -> float:
        call = self.calls.get(key)
        if call is None or not call.durations:
            return 0.0
        return statistics.median(call.durations) * scale

    def _count(self, *keys: str) -> int:
        return sum(self.calls[k].count for k in keys if k in self.calls)

    def _inside(self, name: str, counter: str) -> int:
        return sum(s[counter] for s in self.spans if s["name"] == name)

    def work_counts(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        counts = {key: call.count for key, call in sorted(self.calls.items())}
        counts.update(self.work)
        counts["graphs.entries"] = self.entries
        counts["graphs.accepted"] = self.accepted
        for name in ("variational.solve_psi", "phase_curve.r_of_beta1"):
            for counter in self.work:
                counts[f"{name}.{counter}"] = self._inside(name, counter)
        return counts

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass, by name.

        The end-to-end metric each group should move, and where:

        - ``cramer.*``: ``work_per_s`` on ``psi-laws`` and ``phase-diagram``;
          about nothing on ``sampler``.
        - ``variational.*``: ``work_per_s`` on ``psi-laws``, on
          ``phase-diagram`` through the scans; slightly ``wall_s`` on
          ``sampler`` (one ``solve_psi`` per JSON command).
        - ``critical.*``: ``wall_s`` on ``phase-diagram`` (a small share);
          ``find_theta0_ms_p50`` counts cache misses only.
        - ``phase_curve.*``: ``work_per_s`` on ``phase-diagram``; nothing else.
        - ``graphs.*``: ``work_per_s`` on ``sampler``; nothing else.
          ``acceptance_rate`` includes burn-in.
        - ``gaussian_directed.*``: ``wall_s`` on ``psi-laws`` (small).
        - ``cli.*``: ``cmd_p50_s`` on ``psi-laws``.
        """
        def ratio(a, b):
            return a / b if b else 0.0

        solves = self._count("variational.solve_psi")
        points = self._count("phase_curve.r_of_beta1")
        sweep = self.calls.get(SWEEP)
        sweep_us = sweep.total_ns / 1e3 if sweep else 0.0
        out = {f"{layer}.self_s": self.self_ns[layer] / 1e9 for layer in LAYERS}
        out.update({
            "cramer.dual_solves": self.work["dual_solves"],
            "cramer.dual_us_p50": self._median("cramer.dual_theta"),
            "cramer.rate_calls": self._count("cramer.rate", "cramer.rate_d1", "cramer.rate_d2"),
            "variational.solve_psi_calls": solves,
            "variational.solve_psi_ms_p50": self._median("variational.solve_psi", 1e-3),
            "variational.scans": self.work["scans"],
            "variational.dual_solves_per_solve":
                ratio(self._inside("variational.solve_psi", "dual_solves"), solves),
            "variational.objective_calls": self._count("variational.objective"),
            "critical.find_theta0_calls": self._count("critical.find_theta0"),
            "critical.find_theta0_ms_p50":
                statistics.median(self.theta0_miss_ms) if self.theta0_miss_ms else 0.0,
            "phase_curve.points": points,
            "phase_curve.point_ms_p50": self._median("phase_curve.r_of_beta1", 1e-3),
            "phase_curve.scans_per_point":
                ratio(self._inside("phase_curve.r_of_beta1", "scans"), points),
            "phase_curve.newton_steps_per_point":
                ratio(self._inside("phase_curve.r_of_beta1", "newton_steps"), points),
            "phase_curve.dual_solves_per_point":
                ratio(self._inside("phase_curve.r_of_beta1", "dual_solves"), points),
            "phase_curve.bounding_point_ms_p50":
                self._median("phase_curve.bounding_point", 1e-3),
            "graphs.entries": self.entries,
            "graphs.us_per_entry": ratio(sweep_us, self.entries),
            "graphs.acceptance_rate": ratio(self.accepted, self.entries),
            "graphs.max_resync_drift": self.max_resync_drift,
            "graphs.report_ms": self._median("graphs.concentration_report", 1e-3),
            "gaussian_directed.mc_ms_p50":
                self._median("gaussian_directed.psi_n_monte_carlo", 1e-3),
            "cli.commands": self._count("cli.main"),
        })
        return out

    def write_spans(self, path, extra: dict) -> None:
        """Write the recorded spans as JSON lines, after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(extra) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
