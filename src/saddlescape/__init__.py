"""saddlescape: escaping saddle points under interpolation-like noise.

Perturbed SGD and stochastic cubic-regularized Newton with first-order and
zeroth-order (Gaussian smoothing) oracles, theorem-driven parameter
schedules, exact second-order stationarity certification, and a reproducible
benchmark harness.
"""

from .diagnostics import RunTrace, SospCertificate, TraceRow, certify, min_eigenvalue, sosp_fraction
from .errors import (
    CapabilityError,
    ConfigurationError,
    EvaluationError,
    NumericalError,
    SaddlescapeError,
    ScheduleError,
)
from .estimators import (
    GradEstimate,
    HessEstimate,
    RhoEstimate,
    estimate_sgc_rho,
    fo_gradient,
    so_hessian,
    zo_gradient,
    zo_hessian,
)
from .harness import (
    ExperimentSpec,
    SummaryRow,
    emit_plot,
    experiment_from_config,
    fit_complexity_slope,
    formula_total_calls,
    run_experiment,
)
from .problems import (
    ProblemMetadata,
    RaggedBatch,
    StochasticProblem,
    make_additive_noise_variant,
    make_multiplicative_saddle,
    make_phase_retrieval,
    problem_from_config,
)
from .psgd import (
    PsgdConfig,
    ScheduleConstants,
    psgd_step,
    run_psgd,
    schedule_first_order,
    schedule_zeroth_order,
)
from .scrn import CubicModel, CubicSolution, ScrnConfig, run_scrn, schedule_scrn, solve_cubic
from .seeds import SeedStream

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConfigurationError",
    "CubicModel",
    "CubicSolution",
    "EvaluationError",
    "ExperimentSpec",
    "GradEstimate",
    "HessEstimate",
    "NumericalError",
    "ProblemMetadata",
    "PsgdConfig",
    "RaggedBatch",
    "RhoEstimate",
    "RunTrace",
    "SaddlescapeError",
    "ScheduleConstants",
    "ScheduleError",
    "ScrnConfig",
    "SeedStream",
    "SospCertificate",
    "StochasticProblem",
    "SummaryRow",
    "TraceRow",
    "certify",
    "emit_plot",
    "estimate_sgc_rho",
    "experiment_from_config",
    "fit_complexity_slope",
    "fo_gradient",
    "formula_total_calls",
    "make_additive_noise_variant",
    "make_multiplicative_saddle",
    "make_phase_retrieval",
    "min_eigenvalue",
    "problem_from_config",
    "psgd_step",
    "run_experiment",
    "run_psgd",
    "run_scrn",
    "schedule_first_order",
    "schedule_scrn",
    "schedule_zeroth_order",
    "so_hessian",
    "solve_cubic",
    "sosp_fraction",
    "zo_gradient",
    "zo_hessian",
]
