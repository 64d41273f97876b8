"""F-CAD: a framework to explore hardware accelerators for codec avatar decoding.

A faithful reproduction of Zhang et al., DAC 2021 (arXiv:2103.04958):
an elastic multi-branch pipeline architecture, a multi-branch dynamic
design space, and a two-level design-space-exploration engine, together
with every substrate the paper's evaluation depends on (decoder model zoo,
analytical performance models, baseline accelerator models, a
cycle-accurate simulator, and a functional numpy runtime).

Quickstart::

    from repro import FCad, Customization, build_codec_avatar_decoder, get_device

    result = FCad(
        network=build_codec_avatar_decoder(),
        device=get_device("ZU9CG"),
        quant="int8",
        customization=Customization(batch_sizes=(1, 2, 2),
                                    priorities=(1.0, 1.0, 1.0)),
    ).run()
    print(result.render())
"""

from repro.analysis.analyzer import NetworkAnalysis, analyze_network
from repro.arch.config import AcceleratorConfig, BranchConfig, ConfigError, StageConfig
from repro.arch.elastic import ElasticAccelerator
from repro.arch.serialize import config_from_json, config_to_json
from repro.baselines import DnnBuilderModel, HybridDnnModel, SNAPDRAGON_865, SocModel
from repro.codegen.hls import generate_project
from repro.construction import PipelinePlan, build_pipeline_plan, fuse_graph
from repro.devices import AsicSpec, FpgaDevice, ResourceBudget, get_device, list_devices
from repro.dse import (
    BranchMetrics,
    Customization,
    DseEngine,
    DseResult,
    PaperObjective,
    ServingOracle,
    SimOracle,
    SloObjective,
    make_oracle,
)
from repro.dse.pareto import ParetoFrontier, explore_budget_frontier
from repro.fcad import FCad, FcadResult, run_sweep, sweep_grid
from repro.fcad.report import render_markdown_report
from repro.ir import (
    Activation,
    BiasMode,
    Conv2d,
    GraphBuilder,
    Input,
    Linear,
    NetworkGraph,
    TensorShape,
    Upsample,
)
from repro.models import (
    DecoderPlan,
    build_codec_avatar_decoder,
    build_mimic_decoder,
    get_model,
    list_models,
)
from repro.perf import evaluate
from repro.perf.energy import EnergyReport, estimate_energy
from repro.profiler import profile_network
from repro.quant import INT8, INT16, QuantScheme, get_scheme
from repro.runtime import Executor, run_graph
from repro.serving import AvatarWorkload, ServingReport
from repro.sim import (
    FrameLatencyProfile,
    SimulationReport,
    frame_latency_profile,
    simulate,
)

__version__ = "1.0.0"

__all__ = [
    "AcceleratorConfig",
    "Activation",
    "AsicSpec",
    "AvatarWorkload",
    "BiasMode",
    "BranchConfig",
    "BranchMetrics",
    "ConfigError",
    "Conv2d",
    "Customization",
    "DecoderPlan",
    "DnnBuilderModel",
    "DseEngine",
    "DseResult",
    "ElasticAccelerator",
    "EnergyReport",
    "Executor",
    "FCad",
    "FcadResult",
    "FpgaDevice",
    "FrameLatencyProfile",
    "GraphBuilder",
    "HybridDnnModel",
    "INT16",
    "INT8",
    "Input",
    "Linear",
    "NetworkAnalysis",
    "NetworkGraph",
    "PaperObjective",
    "ParetoFrontier",
    "PipelinePlan",
    "QuantScheme",
    "ResourceBudget",
    "SNAPDRAGON_865",
    "ServingOracle",
    "ServingReport",
    "SimOracle",
    "SimulationReport",
    "SloObjective",
    "SocModel",
    "StageConfig",
    "TensorShape",
    "Upsample",
    "analyze_network",
    "build_codec_avatar_decoder",
    "build_mimic_decoder",
    "build_pipeline_plan",
    "config_from_json",
    "config_to_json",
    "evaluate",
    "frame_latency_profile",
    "estimate_energy",
    "explore_budget_frontier",
    "generate_project",
    "fuse_graph",
    "get_device",
    "get_model",
    "get_scheme",
    "list_devices",
    "list_models",
    "make_oracle",
    "profile_network",
    "render_markdown_report",
    "run_graph",
    "run_sweep",
    "simulate",
    "sweep_grid",
]
