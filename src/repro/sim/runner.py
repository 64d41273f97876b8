"""High-level simulation entry point and measurement report."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.construction.reorg import PipelinePlan
from repro.perf.analytical import efficiency
from repro.perf.estimator import evaluate
from repro.quant.schemes import QuantScheme
from repro.sim.pipeline import PipelineSimulator
from repro.sim.stats import SimStats
from repro.utils.checks import check_positive, is_count
from repro.utils.units import GIGA


@dataclass(frozen=True)
class FrameLatencyProfile:
    """Per-frame decode latency of one accelerator, fill vs steady state.

    Sampled from a cycle-accurate run: a frame is *decoded* when the
    terminal stage of every branch has finished it, so ``finish_ms[i]`` is
    the completion time of frame ``i`` on a cold accelerator (weight load
    and pipeline fill included). ``first_frame_ms`` is the cold-start
    latency; ``steady_interval_ms`` is the inter-frame spacing once the
    pipeline is full — the two numbers a serving layer needs to account a
    batch that starts on an empty pipeline differently from one that keeps
    a warm pipeline fed.
    """

    finish_ms: tuple[float, ...]
    first_frame_ms: float
    steady_interval_ms: float
    frequency_mhz: float

    def __post_init__(self) -> None:
        # A NaN or infinite latency serves a session of NaN latencies and
        # no misses; a zero or negative one serves frames before they
        # start.
        for name in ("first_frame_ms", "steady_interval_ms", "frequency_mhz"):
            check_positive(name, getattr(self, name))

    @property
    def fill_overhead_ms(self) -> float:
        """Extra latency the first frame pays over a steady-state frame."""
        return max(0.0, self.first_frame_ms - self.steady_interval_ms)

    @property
    def steady_fps(self) -> float:
        return 1000.0 / self.steady_interval_ms

    def batch_finish_ms(
        self, start_ms: float, batch: int, warm: bool = False
    ) -> tuple[float, ...]:
        """Completion times of ``batch`` back-to-back frames from ``start_ms``.

        A cold start (idle pipeline) pays the full fill latency on its
        first frame; a warm start (the pipeline was still draining when the
        batch arrived) streams every frame at the steady interval.

        The scalar reference: a serving replica reads the same floats
        from its step table (:meth:`~repro.serving.replica.Replica.preview_service`),
        and the tests compare the two.
        """
        if batch < 1:
            raise ValueError("need at least one frame in a batch")
        steady = self.steady_interval_ms
        base = start_ms + (steady if warm else self.first_frame_ms)
        return tuple([base + j * steady for j in range(batch)])


@dataclass(frozen=True)
class SimulationReport:
    """Measured ("board-level") performance of an accelerator config.

    ``branch_fps`` is the steady-state rate (inter-frame spacing after
    warmup); ``end_to_end_fps`` divides the frame count by the whole run
    including pipeline fill and weight-load startup — the number a
    host-side timer reports, and the one the estimation-error experiments
    (Figs. 6-7) compare against.
    """

    branch_fps: tuple[float, ...]
    end_to_end_fps: float
    efficiency: float  # whole-run accounting (includes fill and startup)
    steady_efficiency: float  # Eq. 3 from the steady-state throughput
    total_cycles: float
    frames: int
    stats: SimStats

    @property
    def fps(self) -> float:
        return min(self.branch_fps) if self.branch_fps else 0.0


def _checked_counts(
    frames: object, warmup: object, min_frames: int
) -> tuple[int, int]:
    """``frames`` and ``warmup`` as plain ints, or ``ValueError``."""
    if not is_count(frames, minimum=min_frames):
        raise ValueError(f"frames must be an int >= {min_frames}, got {frames!r}")
    if not is_count(warmup, minimum=0):
        raise ValueError(f"warmup must be an int >= 0, got {warmup!r}")
    return int(frames), int(warmup)


def _steady_state_fps(
    finish_times: list[float], frequency_mhz: float, warmup: int
) -> float:
    """Frame rate from inter-frame spacing after discarding warmup frames."""
    if len(finish_times) < 2:
        return 0.0
    warmup = min(warmup, len(finish_times) - 2)
    window = finish_times[warmup:]
    cycles = window[-1] - window[0]
    if cycles <= 0:
        return 0.0
    return (len(window) - 1) * frequency_mhz * 1e6 / cycles


def simulate(
    plan: PipelinePlan,
    config: AcceleratorConfig,
    quant: QuantScheme,
    bandwidth_gbps: float,
    frequency_mhz: float = 200.0,
    frames: int = 8,
    warmup: int = 2,
) -> SimulationReport:
    """Run the cycle-accurate simulator and measure throughput/efficiency.

    Throughput is the steady-state rate of each branch's terminal stage
    (scaled by the branch's replica count); efficiency is Eq. 3 over the
    whole run *including* pipeline fill — the same accounting a board
    measurement with a host-side timer would produce.
    """
    frames, warmup = _checked_counts(frames, warmup, min_frames=1)
    simulator = PipelineSimulator(
        plan=plan,
        config=config,
        quant=quant,
        bandwidth_gbps=bandwidth_gbps,
        frequency_mhz=frequency_mhz,
    )
    stats = simulator.run(frames=frames)

    branch_fps = []
    for pipeline, branch_cfg in zip(plan.branches, config.branches):
        terminal = pipeline.stages[-1].name
        fps_one = _steady_state_fps(
            stats.stages[terminal].frame_finish_times, frequency_mhz, warmup
        )
        branch_fps.append(fps_one * max(1, branch_cfg.batch_size))

    slowest_batch = max(
        1,
        min(
            (cfg.batch_size for cfg in config.branches),
            default=1,
        ),
    )
    end_to_end_fps = (
        frames * slowest_batch * frequency_mhz * 1e6 / stats.total_cycles
        if stats.total_cycles > 0
        else 0.0
    )

    # Whole-run efficiency: ops completed over peak ops in the elapsed time.
    perf = evaluate(plan, config, quant, frequency_mhz)
    total_dsp = perf.total_dsp
    seconds = stats.total_cycles / (frequency_mhz * 1e6)
    gops_done = sum(
        pipeline.ops / GIGA * frames for pipeline in plan.branches
    )
    measured_eff = efficiency(
        gops_done / seconds if seconds > 0 else 0.0,
        quant.beta,
        total_dsp,
        frequency_mhz,
    )
    steady_gops = sum(
        pipeline.ops / GIGA * fps
        for pipeline, fps in zip(plan.branches, branch_fps)
    )
    steady_eff = efficiency(steady_gops, quant.beta, total_dsp, frequency_mhz)
    return SimulationReport(
        branch_fps=tuple(branch_fps),
        end_to_end_fps=end_to_end_fps,
        efficiency=measured_eff,
        steady_efficiency=steady_eff,
        total_cycles=stats.total_cycles,
        frames=frames,
        stats=stats,
    )


def frame_latency_profile(
    plan: PipelinePlan,
    config: AcceleratorConfig,
    quant: QuantScheme,
    bandwidth_gbps: float,
    frequency_mhz: float = 200.0,
    frames: int = 8,
    warmup: int = 2,
) -> FrameLatencyProfile:
    """Sample per-frame decode latencies from a cycle-accurate run.

    Frame ``i`` counts as decoded when every branch's terminal stage has
    finished it (an avatar needs all of geometry, texture, and warp). The
    steady interval averages the inter-frame spacing after ``warmup``
    frames; the frames before that carry the fill-phase accounting.
    """
    frames, warmup = _checked_counts(frames, warmup, min_frames=2)
    simulator = PipelineSimulator(
        plan=plan,
        config=config,
        quant=quant,
        bandwidth_gbps=bandwidth_gbps,
        frequency_mhz=frequency_mhz,
    )
    stats = simulator.run(frames=frames)
    cycles_per_ms = frequency_mhz * 1e3
    per_branch = [
        stats.stages[pipeline.stages[-1].name].frame_finish_times
        for pipeline in plan.branches
    ]
    finish_ms = tuple(
        max(times[i] for times in per_branch) / cycles_per_ms
        for i in range(frames)
    )
    warmup = min(warmup, frames - 2)
    # Steady interval per *decoded avatar frame*: a branch with batch B
    # runs B replica pipelines on independent frames, so its effective
    # spacing is the simulated single-replica spacing over B (the same
    # accounting `simulate` uses for branch_fps). The slowest branch
    # paces the decode.
    intervals_ms = []
    for times, branch_cfg in zip(per_branch, config.branches):
        window = times[warmup:]
        spacing = (window[-1] - window[0]) / (len(window) - 1)
        intervals_ms.append(
            spacing / cycles_per_ms / max(1, branch_cfg.batch_size)
        )
    steady = max(intervals_ms)
    return FrameLatencyProfile(
        finish_ms=finish_ms,
        first_frame_ms=finish_ms[0],
        steady_interval_ms=steady,
        frequency_mhz=frequency_mhz,
    )
