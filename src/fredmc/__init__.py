"""fredmc: Monte-Carlo solver for linear Fredholm integral equations of the
second kind, with rate-optimal budget allocation across Neumann terms and
uniform-norm confidence bands (simulated Gaussian-supremum quantiles and
non-asymptotic moment/entropy tail bounds)."""

__version__ = "0.1.0"

from .allocation import BudgetAllocation, optimal_allocation
from .confidence import (ConfidenceBand, PsiFunction, entropy_H, natural_psi_from_R,
                         nonasymptotic_band, psi_bar, simulate_sup_quantile,
                         tail_shape_report, v_star)
from .errors import (BandTooWide, BudgetError, ConfigError, ContractivityError,
                     FredmcError, NotPSD, UnsupportedDerivative)
from .estimator import (CovarianceModel, EstimateTable, derivative_solve, estimate_covariance,
                        estimate_parametric_integral, solve_fredholm_mc, solve_geometric)
from .neumann import (TruncationPlan, apply_power_quadrature, choose_truncation,
                      damped_solution_oracle, truncated_solution_oracle)
from .problem import (DomainSpec, MeasureSampler, Metric, PowerNormTable, ProblemSpec,
                      natural_distance, operator_norm, power_norms)
from .registry import build_problem, exact_solution, fixture_constant_half, fixture_gauss, fixture_ts

__all__ = [
    "BudgetAllocation", "optimal_allocation",
    "ConfidenceBand", "PsiFunction", "entropy_H", "natural_psi_from_R",
    "nonasymptotic_band", "psi_bar", "simulate_sup_quantile", "tail_shape_report", "v_star",
    "BandTooWide", "BudgetError", "ConfigError", "ContractivityError", "FredmcError",
    "NotPSD", "UnsupportedDerivative",
    "CovarianceModel", "EstimateTable", "derivative_solve", "estimate_covariance",
    "estimate_parametric_integral", "solve_fredholm_mc", "solve_geometric",
    "TruncationPlan", "apply_power_quadrature", "choose_truncation",
    "damped_solution_oracle", "truncated_solution_oracle",
    "DomainSpec", "MeasureSampler", "Metric", "PowerNormTable", "ProblemSpec",
    "natural_distance", "operator_norm", "power_norms",
    "build_problem", "exact_solution", "fixture_constant_half", "fixture_gauss", "fixture_ts",
]
