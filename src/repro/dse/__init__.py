"""Multi-branch design space exploration (paper Sec. VI)."""

from repro.dse.cache import LocalEvalCache
from repro.dse.crossbranch import CrossBranchOptimizer
from repro.dse.engine import DseEngine
from repro.dse.inbranch import BranchEvalTable, BranchSolution, optimize_branch
from repro.dse.objective import (
    RERANK_ORACLES,
    BranchMetrics,
    MetricsOracle,
    Objective,
    OracleStats,
    PaperObjective,
    ServingOracle,
    SimOracle,
    SloObjective,
    make_oracle,
    metrics_from_solutions,
    objective_for,
)
from repro.dse.result import (
    DseResult,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.dse.space import Customization, DesignSpace, get_pf
from repro.dse.worker import EvalSpec, GenerationEvaluator

__all__ = [
    "BranchEvalTable",
    "BranchMetrics",
    "BranchSolution",
    "CrossBranchOptimizer",
    "Customization",
    "DesignSpace",
    "DseEngine",
    "DseResult",
    "EvalSpec",
    "GenerationEvaluator",
    "LocalEvalCache",
    "MetricsOracle",
    "Objective",
    "OracleStats",
    "PaperObjective",
    "RERANK_ORACLES",
    "ServingOracle",
    "SimOracle",
    "SloObjective",
    "get_pf",
    "make_oracle",
    "metrics_from_solutions",
    "objective_for",
    "optimize_branch",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
]
