"""Phase structure of edge-weighted exponential random graph models.

The package computes, for graphs with iid edge weights tilted by an edge
term and one ``p``-times-repeated edge ("p-fold") term:

- ``cramer``: log-moment generating functions, their Legendre duals, and
  the large-deviation rate function of the weight law;
- ``variational``: the limiting normalization constant as a scalar
  maximization problem, with maximizer classification;
- ``critical``: the corner point where the first-order transition curve
  begins, located as one root of ``kappa3 B + (p-2) A**2`` in the tilt;
- ``phase_curve``: the transition curve itself — bounding region, the tie
  line ``r(beta1)``, and the jump profile across it;
- ``graphs``: finite-size Metropolis sampling and exact enumeration to
  watch the predicted concentration happen;
- ``gaussian_directed``: a directed Gaussian companion model solved in
  closed form, with a Monte Carlo cross-check;
- ``cli``: a command-line front end emitting CSV/JSON.

The namespace is lazy: ``import wergm`` loads no submodule.  Each exported
name and each submodule name above is imported on first access, so a
command loads only the layers it runs.
"""

__version__ = "0.1.0"

#: Each exported name, mapped to the submodule that defines it.
_EXPORTS = {
    "BERNOULLI_HALF": "cramer",
    "EDGE": "graphs",
    "TRIANGLE": "graphs",
    "TWO_STAR": "graphs",
    "UNIFORM01": "cramer",
    "BoundingPoint": "phase_curve",
    "CriticalData": "critical",
    "DualPair": "cramer",
    "EdgeDistribution": "cramer",
    "GaussianModelParams": "gaussian_directed",
    "MaximizerSet": "variational",
    "MetropolisChain": "graphs",
    "ModelParams": "variational",
    "PhaseClass": "variational",
    "PhaseCurvePoint": "phase_curve",
    "SubgraphSpec": "graphs",
    "WeightedGraph": "graphs",
    "WergmError": "errors",
    "bounding_point": "phase_curve",
    "concentration_report": "graphs",
    "critical_table": "critical",
    "directed_stats": "gaussian_directed",
    "dual_theta": "cramer",
    "endpoint_rate": "cramer",
    "enumerate_gibbs": "graphs",
    "find_theta0": "critical",
    "finite_support": "cramer",
    "hom_density": "graphs",
    "jump_profile": "phase_curve",
    "log_mgf": "cramer",
    "log_mgf_d1": "cramer",
    "log_mgf_d2": "cramer",
    "objective": "variational",
    "objective_d1": "variational",
    "objective_d2": "variational",
    "psi_gradient": "variational",
    "psi_inf": "gaussian_directed",
    "psi_n_exact": "gaussian_directed",
    "psi_n_monte_carlo": "gaussian_directed",
    "r_of_beta1": "phase_curve",
    "rate": "cramer",
    "rate_d1": "cramer",
    "rate_d2": "cramer",
    "run_sampler": "graphs",
    "sample_prior": "graphs",
    "solve_psi": "variational",
    "support_interval": "cramer",
    "trace_curve": "phase_curve",
}
_SUBMODULES = frozenset([*_EXPORTS.values(), "cli"])

__all__ = list(_EXPORTS)


def __getattr__(name):
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    if name in _SUBMODULES:
        value = __import__(f"{__name__}.{name}", fromlist=[name])
    elif name in _EXPORTS:
        value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
