"""Multi-branch design space exploration (paper Sec. VI)."""

from repro.dse.cache import LocalEvalCache
from repro.dse.crossbranch import CrossBranchOptimizer, Particle
from repro.dse.engine import DseEngine
from repro.dse.inbranch import BranchEvalTable, BranchSolution, optimize_branch
from repro.dse.objective import (
    OBJECTIVES,
    RERANK_ORACLES,
    BranchMetrics,
    CompositeObjective,
    MetricsOracle,
    Objective,
    OracleStats,
    PaperObjective,
    ServingOracle,
    SimOracle,
    SloObjective,
    make_objective,
    make_oracle,
    metrics_from_solutions,
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
    "CompositeObjective",
    "CrossBranchOptimizer",
    "Customization",
    "DesignSpace",
    "DseEngine",
    "DseResult",
    "EvalSpec",
    "GenerationEvaluator",
    "LocalEvalCache",
    "MetricsOracle",
    "OBJECTIVES",
    "Objective",
    "OracleStats",
    "PaperObjective",
    "Particle",
    "RERANK_ORACLES",
    "ServingOracle",
    "SimOracle",
    "SloObjective",
    "get_pf",
    "make_objective",
    "make_oracle",
    "metrics_from_solutions",
    "optimize_branch",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
]
