"""ARDL bounds-cointegration toolkit.

Data ingestion and transforms (``frame``), a least-squares engine
(``regression``), every null table behind one lookup (``critical``),
unit-root tests (``unitroot``), the ARDL/ECM stack
(``ardl``), cointegrating-regression robustness estimators
(``cointreg``), Granger causality (``causality``), residual and
stability diagnostics (``diagnostics``), seeded synthetic DGPs
(``synthetic``), and a CLI (``cli``).
"""

from .ardl import (
    ArdlFit,
    ArdlSpec,
    BoundsResult,
    EcmResult,
    bounds_test,
    decide_bounds,
    fit_conditional_ecm,
    fit_ecm,
    long_run_coefficients,
    select_ardl_lags,
)
from .causality import CausalityReport, causality_matrix, classify_direction, granger_pair
from .cointreg import CointEstimate, ccr, dols, fmols
from .diagnostics import (
    DiagnosticsReport,
    StabilityPath,
    breusch_godfrey,
    breusch_pagan_godfrey,
    cusum,
    cusum_sq,
    diagnostics_report,
    jarque_bera,
    recursive_residuals,
)
from .frame import ModelSpec, TimeSeriesFrame, difference, lag_matrix, load_csv, natural_log
from .regression import (
    RegressionResult,
    info_criterion,
    long_run_covariance,
    long_run_variance,
    ols,
    tail_probability,
    wald_f,
)
from .synthetic import Dgp, generate, mc_rejection_rate
from .unitroot import IntegrationDecision, UnitRootReport, adf, dfgls, integration_order, pp

__version__ = "0.1.0"

__all__ = [
    "ArdlFit", "ArdlSpec", "BoundsResult", "CausalityReport", "CointEstimate",
    "DiagnosticsReport", "Dgp", "EcmResult", "IntegrationDecision", "ModelSpec",
    "RegressionResult", "StabilityPath", "TimeSeriesFrame",
    "UnitRootReport", "adf", "bounds_test", "breusch_godfrey",
    "breusch_pagan_godfrey", "causality_matrix", "ccr", "classify_direction",
    "cusum", "cusum_sq", "decide_bounds", "dfgls", "diagnostics_report",
    "difference", "dols", "fit_conditional_ecm", "fit_ecm", "fmols", "generate",
    "granger_pair", "info_criterion", "integration_order", "jarque_bera",
    "lag_matrix", "load_csv", "long_run_coefficients", "long_run_covariance",
    "long_run_variance", "mc_rejection_rate", "natural_log", "ols", "pp",
    "recursive_residuals", "select_ardl_lags", "tail_probability", "wald_f",
]
