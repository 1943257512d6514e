"""snt_lab: a deterministic simulation laboratory for comparing sequential
nested trial emulations against a single point trial.

The pipeline: calibrate per-visit outcome probabilities to two-year risk
targets, generate cohorts with per-visit potential outcomes, build the
single-point and the two sequential-nested index datasets, estimate
censoring-weighted and severity-standardized risk ratios, and score every
estimator against an exactly enumerated truth.
"""

from .config import (
    ConfigError,
    RunConfig,
    SCENARIO_IDS,
    ScenarioSpec,
    builtin_scenarios,
    load_config,
    validate,
)
from .designs import (
    CountTable,
    DESIGN_CAL,
    DESIGN_SPT,
    DESIGN_TD,
    IndexRecord,
    IndexSet,
    TreatmentAssignment,
    assign_treatments,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    count_table,
    describe_replicate,
)
from .estimators import (
    AnalysisResult,
    analyze_replicate,
    censoring_weights,
    crude_rr,
    ipcw_km_risk,
    standardized_rr,
)
from .harness import (
    MetricsRow,
    ScenarioBlock,
    replicate_stream,
    run_replicate,
    run_scenario,
    summarize,
    summarize_descriptives,
)
from .hazards import (
    HazardSet,
    SolveReport,
    SolverInfeasible,
    residuals,
    solve,
    two_year_risk_high,
    two_year_risk_low,
)
from .population import (
    Cohort,
    TruthEntry,
    draw_cohort,
    enumerate_truth,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "Cohort",
    "ConfigError",
    "CountTable",
    "DESIGN_CAL",
    "DESIGN_SPT",
    "DESIGN_TD",
    "HazardSet",
    "IndexRecord",
    "IndexSet",
    "MetricsRow",
    "RunConfig",
    "SCENARIO_IDS",
    "ScenarioBlock",
    "ScenarioSpec",
    "SolveReport",
    "SolverInfeasible",
    "TreatmentAssignment",
    "TruthEntry",
    "analyze_replicate",
    "assign_treatments",
    "build_esnt_cal",
    "build_esnt_td",
    "build_spt",
    "builtin_scenarios",
    "censoring_weights",
    "count_table",
    "crude_rr",
    "describe_replicate",
    "draw_cohort",
    "enumerate_truth",
    "ipcw_km_risk",
    "load_config",
    "replicate_stream",
    "residuals",
    "run_replicate",
    "run_scenario",
    "solve",
    "standardized_rr",
    "summarize",
    "summarize_descriptives",
    "two_year_risk_high",
    "two_year_risk_low",
    "validate",
]
