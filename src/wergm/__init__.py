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
"""

from .cramer import (
    BERNOULLI_HALF,
    UNIFORM01,
    DualPair,
    EdgeDistribution,
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
from .critical import CriticalData, critical_table, find_theta0
from .errors import WergmError
from .gaussian_directed import (
    GaussianModelParams,
    directed_stats,
    psi_inf,
    psi_n_exact,
    psi_n_monte_carlo,
)
from .graphs import (
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
from .phase_curve import (
    BoundingPoint,
    PhaseCurvePoint,
    bounding_point,
    jump_profile,
    r_of_beta1,
    trace_curve,
)
from .variational import (
    MaximizerSet,
    ModelParams,
    PhaseClass,
    objective,
    objective_d1,
    objective_d2,
    psi_gradient,
    solve_psi,
)

__version__ = "0.1.0"

__all__ = [
    "BERNOULLI_HALF",
    "EDGE",
    "TRIANGLE",
    "TWO_STAR",
    "UNIFORM01",
    "BoundingPoint",
    "CriticalData",
    "DualPair",
    "EdgeDistribution",
    "GaussianModelParams",
    "MaximizerSet",
    "MetropolisChain",
    "ModelParams",
    "PhaseClass",
    "PhaseCurvePoint",
    "SubgraphSpec",
    "WeightedGraph",
    "WergmError",
    "bounding_point",
    "concentration_report",
    "critical_table",
    "directed_stats",
    "dual_theta",
    "endpoint_rate",
    "enumerate_gibbs",
    "find_theta0",
    "finite_support",
    "hom_density",
    "jump_profile",
    "log_mgf",
    "log_mgf_d1",
    "log_mgf_d2",
    "objective",
    "objective_d1",
    "objective_d2",
    "psi_gradient",
    "psi_inf",
    "psi_n_exact",
    "psi_n_monte_carlo",
    "r_of_beta1",
    "rate",
    "rate_d1",
    "rate_d2",
    "run_sampler",
    "sample_prior",
    "solve_psi",
    "support_interval",
    "trace_curve",
]
