"""Event-driven execution of the whole multi-pipeline accelerator."""

from __future__ import annotations

import heapq
import itertools

from repro.arch.config import AcceleratorConfig
from repro.construction.reorg import PipelinePlan
from repro.quant.schemes import QuantScheme
from repro.sim.dram import DramChannel
from repro.sim.stage import StageSim
from repro.sim.stats import SimStats, StageStats
from repro.utils.checks import is_count


class PipelineSimulator:
    """Simulates one replica of every branch pipeline of a plan.

    Multi-replica (batch > 1) branches process independent frames on
    identical copies; the runner scales their frame rate by the replica
    count (replica DRAM contention is second-order next to the modeled
    streams and is noted in EXPERIMENTS.md).
    """

    def __init__(
        self,
        plan: PipelinePlan,
        config: AcceleratorConfig,
        quant: QuantScheme,
        bandwidth_gbps: float,
        frequency_mhz: float = 200.0,
    ) -> None:
        config.validate_for(plan)
        self.plan = plan
        self.config = config
        self.quant = quant
        self.frequency_mhz = frequency_mhz
        self.dram = DramChannel(
            bandwidth_gbps=bandwidth_gbps, frequency_mhz=frequency_mhz
        )

        terminal_names = {
            pipeline.stages[-1].name for pipeline in plan.branches
        }
        self.stages: dict[str, StageSim] = {}
        for pipeline, branch_cfg in zip(plan.branches, config.branches):
            for planned, stage_cfg in zip(pipeline.stages, branch_cfg.stages):
                self.stages[planned.name] = StageSim(
                    stage=planned.stage,
                    cfg=stage_cfg,
                    quant=quant,
                    is_terminal=planned.name in terminal_names,
                    branch=pipeline.index,
                )
        self._wire()
        self.dram.register_flows(
            {
                name: sim.dram_bytes_per_step * sim.steps_per_frame
                for name, sim in self.stages.items()
            }
        )

    def _wire(self) -> None:
        from repro.sim.stage import LinkState

        for sim in self.stages.values():
            for source in sim.stage.sources:
                producer = self.stages.get(source)
                if producer is None:
                    continue  # external input
                sim.producers.append(producer)
                # Line-buffer capacity: the window a step needs, doubled,
                # plus slack — enough to never deadlock, small enough to
                # exert real backpressure. A highly H-partitioned producer
                # emits a whole row burst atomically, so the buffer must
                # also absorb one full producer step.
                need = sim.producer_rows_needed(0)
                burst = producer.rows_after_step(0)
                capacity = max(
                    2 * (need + sim.window_overlap_rows() + 1),
                    burst + need + 1,
                )
                producer.out_links.append(
                    LinkState(consumer=sim, capacity_rows=capacity)
                )
        stages = list(self.stages.values())
        for sim in stages:
            sim.tabulate()
            near = {sim, *sim.producers, *(link.consumer for link in sim.out_links)}
            sim.unblocks = tuple(other for other in stages if other in near)

    # ------------------------------------------------------------------
    def run(self, frames: int = 8) -> SimStats:
        """Simulate ``frames`` frames through every pipeline.

        Event-driven: a stage's predicates read only its own progress,
        its producers' emitted rows and its out-links' consumed rows, and
        starting a step changes none of them for another stage. So after
        a step finishes, only that stage, its consumers and its producers
        (its :attr:`~StageSim.unblocks`) can start, plus any stage still
        waiting for its start-up data; they are checked once each, in
        stage order, which is the order a sweep over every stage would
        start them in.
        """
        if not is_count(frames):
            raise ValueError(f"frames must be an int >= 1, got {frames!r}")
        frames = int(frames)
        stats = SimStats(frames_requested=frames)
        stages = list(self.stages.values())
        stage_stats: dict[StageSim, StageStats] = {}
        for sim in stages:
            sim.frames_target = frames
            sim.frame = 0
            sim.step = 0
            sim.emitted_rows = 0
            sim.busy = False
            stage_stats[sim] = stats.stages[sim.name] = StageStats(name=sim.name)

        # Startup: resident weights load once through DRAM, then the first
        # step's streamed data is prefetched on the stage's own flow.
        request = self.dram.request
        ready_at: dict[StageSim, float] = {}
        dram_ready: dict[StageSim, float] = {}
        for sim in stages:
            loaded = request("", sim.resident_weight_bytes, 0.0)
            ready_at[sim] = loaded
            dram_ready[sim] = request(sim.name, sim.dram_bytes_per_step, loaded)
            sim.idle_since = loaded

        counter = itertools.count()
        events: list[tuple[float, int, StageSim]] = []

        def start(sim: StageSim, now: float) -> None:
            st = stage_stats[sim]
            st.input_stall_cycles += now - sim.idle_since
            # This step waits for the data prefetched one step earlier;
            # the next step's transfer starts now (double buffering).
            dram_done = dram_ready[sim]
            dram_ready[sim] = request(sim.name, sim.dram_bytes_per_step, now)
            compute_done = now + sim.compute_cycles_per_step
            finish = max(compute_done, dram_done)
            st.busy_cycles += sim.compute_cycles_per_step
            st.dram_stall_cycles += finish - compute_done
            st.record_interval(now, finish)
            sim.busy = True
            heapq.heappush(events, (finish, next(counter), sim))

        # Kick off anything that can start at the ready times. The last
        # sweep checks every stage past its ready time.
        now = 0.0
        for now in sorted(set(ready_at.values())):
            for sim in stages:
                if (
                    not (sim.busy or sim.done())
                    and ready_at[sim] <= now
                    and sim.inputs_available()
                    and sim.credits_available()
                ):
                    start(sim, now)

        # Events can precede the last ready time, so a stage may still be
        # loading when a neighbour frees it: it is re-checked after every
        # event until it passes its ready time.
        loading: list[StageSim] = []
        while events:
            now, _, sim = heapq.heappop(events)
            st = stage_stats[sim]
            was_last_step = sim.step >= sim.steps_per_frame - 1
            sim.complete_step()
            sim.busy = False
            sim.idle_since = now
            st.steps_done += 1
            if was_last_step:
                st.frames_done += 1
                st.frame_finish_times.append(now)
            recheck = sim.unblocks
            if loading:
                near = {*recheck, *loading}
                recheck = [other for other in stages if other in near]
                loading = []
            for other in recheck:
                if other.busy or other.done():
                    continue
                if ready_at[other] > now:
                    loading.append(other)
                elif other.inputs_available() and other.credits_available():
                    start(other, now)

        stats.total_cycles = now
        stats.dram_busy_cycles = self.dram.busy_cycles
        stats.dram_bytes = self.dram.bytes_moved
        unfinished = [
            s.name for s in self.stages.values() if not s.done()
        ]
        if unfinished:
            raise RuntimeError(
                f"simulation deadlocked; unfinished stages: {unfinished}"
            )
        return stats
