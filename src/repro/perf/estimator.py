"""Whole-accelerator performance estimation.

Combines Eq. 4 latencies, Eq. 5 throughput, Eq. 3 efficiency and the
resource models into one report the DSE engine (and the experiment
harnesses) consume. Branch resources include the ``batch_size`` pipeline
replicas; branch FPS is the aggregate over replicas, matching how Table IV
reports per-branch DSP/BRAM/FPS.

A branch is evaluated in two parts: :func:`stage_perf` per configured
stage, and :func:`branch_perf` over those records. The batched DSE kernel
evaluates each stage state once and aggregates the records of every
design that uses it, with the float arithmetic of
:func:`evaluate_branch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arch.config import AcceleratorConfig, BranchConfig, StageConfig
from repro.construction.fusion import FusedStage
from repro.construction.reorg import BranchPipeline, PipelinePlan
from repro.devices.budget import ResourceBudget
from repro.perf.analytical import branch_fps, efficiency, stage_latency_cycles
from repro.perf.resources import StageResources, stage_resources
from repro.quant.schemes import QuantScheme
from repro.utils.units import GIGA


@dataclass(frozen=True)
class StagePerf:
    """Latency and resources of one configured stage (one replica)."""

    name: str
    latency_cycles: int
    resources: StageResources


@dataclass(frozen=True)
class BranchPerf:
    """Performance of one branch pipeline including its replicas."""

    index: int
    output_name: str
    batch_size: int
    fps: float
    efficiency: float
    dsp: int
    bram: int
    bandwidth_gbps: float
    gops: float
    bottleneck_stage: str
    stages: tuple[StagePerf, ...]

    @property
    def latency_ms(self) -> float:
        """Latency of the slowest stage, i.e. the pipeline beat, in ms."""
        if self.fps == 0.0:
            return float("inf")
        return 1000.0 * self.batch_size / self.fps


@dataclass(frozen=True)
class AcceleratorPerf:
    """Performance of the full multi-branch accelerator."""

    branches: tuple[BranchPerf, ...]
    frequency_mhz: float
    quant_name: str

    @property
    def fps(self) -> float:
        """Decoder frame rate: the slowest branch bounds the avatar rate."""
        return min((b.fps for b in self.branches), default=0.0)

    @property
    def total_dsp(self) -> int:
        return sum(b.dsp for b in self.branches)

    @property
    def total_bram(self) -> int:
        return sum(b.bram for b in self.branches)

    @property
    def total_bandwidth_gbps(self) -> float:
        return sum(b.bandwidth_gbps for b in self.branches)

    @property
    def total_gops(self) -> float:
        return sum(b.gops for b in self.branches)

    @property
    def overall_efficiency(self) -> float:
        if self.total_dsp == 0:
            return 0.0
        beta_peak = sum(
            b.efficiency * b.dsp for b in self.branches
        )
        return beta_peak / self.total_dsp

    def fits(self, budget: ResourceBudget) -> bool:
        return budget.fits(
            self.total_dsp, self.total_bram, self.total_bandwidth_gbps
        )


def stage_perf(
    stage: FusedStage, cfg: StageConfig, quant: QuantScheme
) -> StagePerf:
    """Eq. 4 latency and the resources of one configured stage (one replica)."""
    return StagePerf(
        name=stage.name,
        latency_cycles=stage_latency_cycles(stage, cfg),
        resources=stage_resources(stage, cfg, quant),
    )


def branch_perf(
    pipeline: BranchPipeline,
    batch_size: int,
    stage_perfs: Sequence[StagePerf],
    quant: QuantScheme,
    frequency_mhz: float,
) -> BranchPerf:
    """Aggregate one branch's stage perfs, in stage order, over its replicas.

    ``stage_perfs[k]`` is :func:`stage_perf` of the pipeline's ``k``-th
    stage; ``batch_size`` replicas run side by side.
    """
    stream_bytes = 0.0
    io_bytes = 0.0
    for planned, perf in zip(pipeline.stages, stage_perfs):
        stream_bytes += perf.resources.stream_bytes_per_frame
        io_bytes += quant.activation_bytes(planned.stage.external_input_elements)
    io_bytes += quant.activation_bytes(pipeline.stages[-1].stage.output_elements)

    latencies = [p.latency_cycles for p in stage_perfs]
    fps = branch_fps(latencies, batch_size, frequency_mhz)
    gops_per_frame = pipeline.ops / GIGA
    gops_per_second = gops_per_frame * fps
    dsp = sum(p.resources.dsp for p in stage_perfs) * batch_size
    bram = sum(p.resources.bram for p in stage_perfs) * batch_size
    bandwidth_gbps = (stream_bytes + io_bytes) * fps / 1e9
    bottleneck = (
        stage_perfs[latencies.index(max(latencies))].name if latencies else ""
    )
    return BranchPerf(
        index=pipeline.index,
        output_name=pipeline.output_name,
        batch_size=batch_size,
        fps=fps,
        efficiency=efficiency(gops_per_second, quant.beta, dsp, frequency_mhz),
        dsp=dsp,
        bram=bram,
        bandwidth_gbps=bandwidth_gbps,
        gops=gops_per_second,
        bottleneck_stage=bottleneck,
        stages=tuple(stage_perfs),
    )


def evaluate_branch(
    pipeline: BranchPipeline,
    branch_cfg: BranchConfig,
    quant: QuantScheme,
    frequency_mhz: float,
) -> BranchPerf:
    """Evaluate one branch pipeline under one configuration."""
    return branch_perf(
        pipeline,
        branch_cfg.batch_size,
        [
            stage_perf(planned.stage, cfg, quant)
            for planned, cfg in zip(pipeline.stages, branch_cfg.stages)
        ],
        quant,
        frequency_mhz,
    )


def evaluate(
    plan: PipelinePlan,
    config: AcceleratorConfig,
    quant: QuantScheme,
    frequency_mhz: float = 200.0,
) -> AcceleratorPerf:
    """Evaluate a full accelerator configuration against a pipeline plan."""
    config.validate_for(plan)
    branches = tuple(
        evaluate_branch(pipeline, branch_cfg, quant, frequency_mhz)
        for pipeline, branch_cfg in zip(plan.branches, config.branches)
    )
    return AcceleratorPerf(
        branches=branches,
        frequency_mhz=frequency_mhz,
        quant_name=quant.name,
    )
