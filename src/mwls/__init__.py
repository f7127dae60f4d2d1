"""Least-squares Monte Carlo solver for discrete backward equations with
Malliavin-weight conditional expectations.

The package solves the pair (y_i, z_i) of a discrete backward stochastic
equation by backward local-polynomial regression on simulated clouds, with
the z component represented through integration-by-parts weights instead
of difference quotients.  Alongside the solver it ships the fully explicit
constants pipeline (truncation levels, observation bounds, interdependence
errors, and the global error bound), balancing rules for basis and cloud
sizes, analytically solvable benchmarks with exact oracles, and a CLI.
"""

from .constants import (
    AprioriConstants,
    BoundsTable,
    B_const,
    ProblemConstants,
    apriori_constants,
    as_bounds,
    bounds_table,
    c_gamma,
    dep_errors,
    global_error_bound,
    obs_bounds,
    propagation_constants,
)
from .errors import NumericalError
from .grid import TimeGrid, make_theta_grid, random_admissible_grid, weighted_step_sum
from .harness import (
    Benchmark,
    ErrorReport,
    StudyTable,
    TuningPlan,
    approximation_study,
    benchmark_b1,
    benchmark_b2,
    benchmark_b3,
    benchmark_b4,
    benchmark_zero,
    convergence_study,
    estimate_errors,
    register_benchmarks,
    tune_parameters,
)
from .model import (
    BrownianModel,
    EulerSdeModel,
    MarkovModel,
    SimulationCloud,
    brownian_model,
    cloud_rng,
    derive_seed,
    euler_sde_model,
    sample_cloud,
    sample_marginal,
)
from .regression import (
    LocalPolynomialBasis,
    LocalPolynomialEstimator,
    evaluate_basis,
    ols_fit,
    truncate_estimator,
)
from .solver import (
    DriverSpec,
    MwlsSolution,
    TerminalSpec,
    mwls_solve,
    problem_constants,
    zero_driver,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NumericalError",
    # grid
    "TimeGrid",
    "make_theta_grid",
    "random_admissible_grid",
    "weighted_step_sum",
    # constants
    "ProblemConstants",
    "AprioriConstants",
    "BoundsTable",
    "B_const",
    "c_gamma",
    "apriori_constants",
    "as_bounds",
    "obs_bounds",
    "dep_errors",
    "propagation_constants",
    "global_error_bound",
    "bounds_table",
    # model
    "MarkovModel",
    "BrownianModel",
    "EulerSdeModel",
    "SimulationCloud",
    "brownian_model",
    "euler_sde_model",
    "cloud_rng",
    "derive_seed",
    "sample_cloud",
    "sample_marginal",
    # regression
    "LocalPolynomialBasis",
    "LocalPolynomialEstimator",
    "evaluate_basis",
    "ols_fit",
    "truncate_estimator",
    # solver
    "DriverSpec",
    "TerminalSpec",
    "MwlsSolution",
    "zero_driver",
    "problem_constants",
    "mwls_solve",
    # harness
    "Benchmark",
    "ErrorReport",
    "TuningPlan",
    "StudyTable",
    "register_benchmarks",
    "benchmark_b1",
    "benchmark_b2",
    "benchmark_b3",
    "benchmark_b4",
    "benchmark_zero",
    "estimate_errors",
    "tune_parameters",
    "convergence_study",
    "approximation_study",
]
