"""Tests for the cycle-accurate simulator."""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import AcceleratorConfig, BranchConfig, StageConfig
from repro.construction.reorg import build_pipeline_plan
from repro.devices.budget import ResourceBudget
from repro.dse.inbranch import optimize_branch
from repro.ir.builder import GraphBuilder
from repro.ir.layer import BiasMode, TensorShape
from repro.perf.analytical import stage_latency_cycles
from repro.perf.estimator import evaluate
from repro.quant.schemes import INT8, INT16
from repro.sim.dram import DramChannel
from repro.sim.pipeline import PipelineSimulator
from repro.sim.runner import frame_latency_profile, simulate
from repro.sim.stage import ROW_OVERHEAD_CYCLES
from repro.sim.stats import SimStats, StageStats
from tests.conftest import make_chain, make_tiny_decoder


def chain_setup(depth=3, channels=8, size=16):
    graph = make_chain(depth=depth, channels=channels, size=size)
    plan = build_pipeline_plan(graph)
    config = AcceleratorConfig.uniform(plan)
    return plan, config


class TestDramChannel:
    def test_bytes_per_cycle(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0, efficiency=1.0)
        assert dram.bytes_per_cycle == pytest.approx(64.0)

    def test_flow_serialization(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0, efficiency=1.0)
        dram.register_flows({"a": 100.0, "b": 100.0})
        # Each flow owns half the channel: 32 B/cycle.
        t1 = dram.request("a", 64.0, 0.0)
        assert t1 == pytest.approx(2.0)
        t2 = dram.request("a", 64.0, 0.0)  # queued behind t1 on flow a
        assert t2 == pytest.approx(4.0)
        t3 = dram.request("b", 64.0, 0.0)  # independent flow
        assert t3 == pytest.approx(2.0)

    def test_zero_bytes_immediate(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0)
        assert dram.request("x", 0.0, 5.0) == 5.0

    def test_accounting(self):
        dram = DramChannel(bandwidth_gbps=12.8, frequency_mhz=200.0, efficiency=1.0)
        dram.register_flows({"a": 1.0})
        dram.request("a", 640.0, 0.0)
        assert dram.bytes_moved == 640.0
        assert dram.busy_cycles == pytest.approx(10.0)
        assert dram.requests == 1


class TestSingleStage:
    def test_steady_state_matches_eq4_plus_overhead(self):
        plan, config = chain_setup(depth=1)
        stage = plan.branches[0].stages[0].stage
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=10, warmup=2)
        expected_cycles = stage_latency_cycles(
            stage, StageConfig()
        ) + ROW_OVERHEAD_CYCLES * stage.conv_height
        expected_fps = 200e6 / expected_cycles
        assert report.fps == pytest.approx(expected_fps, rel=0.02)

    def test_sim_never_beats_analytical(self):
        plan, config = chain_setup(depth=1)
        analytical = evaluate(plan, config, INT8, 200.0)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=10, warmup=2)
        assert report.fps <= analytical.fps * 1.001


class TestPipelines:
    def test_chain_throughput_set_by_bottleneck(self):
        plan, config = chain_setup(depth=4)
        analytical = evaluate(plan, config, INT8, 200.0)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=12, warmup=3)
        assert report.fps == pytest.approx(analytical.fps, rel=0.05)

    def test_all_frames_complete(self):
        plan, config = chain_setup(depth=3)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        stats = simulator.run(frames=5)
        for stage_stats in stats.stages.values():
            assert stage_stats.frames_done == 5

    def test_end_to_end_slower_than_steady(self):
        plan, config = chain_setup(depth=4)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=8, warmup=2)
        assert report.end_to_end_fps < report.fps

    def test_more_frames_amortize_fill(self):
        plan, config = chain_setup(depth=4)
        short = simulate(plan, config, INT8, 12.8, 200.0, frames=4, warmup=1)
        long = simulate(plan, config, INT8, 12.8, 200.0, frames=24, warmup=4)
        assert long.end_to_end_fps > short.end_to_end_fps

    def test_h_partition_speeds_up_sim(self):
        plan, _ = chain_setup(depth=2, channels=4, size=32)
        slow_cfg = AcceleratorConfig.uniform(plan)
        stages = tuple(
            StageConfig(cpf=1, kpf=1, h=4) for _ in plan.branches[0].stages
        )
        fast_cfg = AcceleratorConfig(
            branches=(BranchConfig(batch_size=1, stages=stages),)
        )
        slow = simulate(plan, slow_cfg, INT8, 12.8, 200.0, frames=6, warmup=2)
        fast = simulate(plan, fast_cfg, INT8, 12.8, 200.0, frames=6, warmup=2)
        assert fast.fps > 2 * slow.fps


class TestMultiBranch:
    def test_decoder_like_network_completes(self):
        plan = build_pipeline_plan(make_tiny_decoder())
        config = AcceleratorConfig.uniform(plan)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=6, warmup=2)
        assert all(f > 0 for f in report.branch_fps)

    def test_fork_couples_branches(self):
        """The warp branch cannot outrun the shared front that feeds it."""
        plan = build_pipeline_plan(make_tiny_decoder())
        config = AcceleratorConfig.uniform(plan)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=8, warmup=2)
        big_fps, small_fps = report.branch_fps
        # The small branch alone would be much faster than the big one; the
        # shared producer caps it at the front-end's rate.
        assert small_fps <= big_fps * 1.05

    def test_replicas_scale_reported_fps(self):
        plan = build_pipeline_plan(make_tiny_decoder())
        base = AcceleratorConfig.uniform(plan)
        batched = AcceleratorConfig(
            branches=(
                base.branches[0],
                BranchConfig(batch_size=2, stages=base.branches[1].stages),
            )
        )
        one = simulate(plan, base, INT8, 12.8, 200.0, frames=6, warmup=2)
        two = simulate(plan, batched, INT8, 12.8, 200.0, frames=6, warmup=2)
        assert two.branch_fps[1] == pytest.approx(2 * one.branch_fps[1], rel=0.01)

    def test_real_decoder_optimized_config(self, decoder_plan):
        """DSE-optimized decoder config simulates without deadlock and
        lands near the analytical estimate on the compute-bound branches."""
        budget = ResourceBudget(compute=800, memory=900, bandwidth_gbps=12.8)
        configs = []
        for branch, batch in zip(decoder_plan.branches, (1, 1, 1)):
            sol = optimize_branch(
                branch, budget.scaled(0.33), batch, INT8
            )
            configs.append(sol.config)
        config = AcceleratorConfig(branches=tuple(configs))
        analytical = evaluate(decoder_plan, config, INT8, 200.0)
        report = simulate(plan=decoder_plan, config=config, quant=INT8,
                          bandwidth_gbps=12.8, frequency_mhz=200.0,
                          frames=6, warmup=2)
        # Branch 0 (geometry) is independent: steady state matches Eq. 5.
        assert report.branch_fps[0] == pytest.approx(
            analytical.branches[0].fps, rel=0.05
        )

    def test_efficiency_fields(self):
        plan, config = chain_setup(depth=3)
        report = simulate(plan, config, INT8, 12.8, 200.0, frames=8, warmup=2)
        assert 0 < report.efficiency <= 1.0
        assert 0 < report.steady_efficiency <= 1.0
        assert report.efficiency <= report.steady_efficiency * 1.001

    def test_stats_accounting(self):
        plan, config = chain_setup(depth=2)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        stats = simulator.run(frames=3)
        assert stats.total_cycles > 0
        for st in stats.stages.values():
            assert st.busy_cycles > 0
            assert st.steps_done == 3 * 16  # H=16 rows, h=1

    def test_invalid_frame_count(self):
        plan, config = chain_setup(depth=1)
        simulator = PipelineSimulator(plan, config, INT8, 12.8, 200.0)
        for frames in (0, -1, 2.5, 8.0, math.nan, True, "8"):
            with pytest.raises(ValueError, match="frames"):
                simulator.run(frames=frames)
            with pytest.raises(ValueError, match="frames"):
                simulate(plan, config, INT8, 12.8, 200.0, frames=frames)
            with pytest.raises(ValueError, match="frames"):
                frame_latency_profile(plan, config, INT8, 12.8, 200.0, frames=frames)

    def test_profile_needs_two_frames(self):
        plan, config = chain_setup(depth=1)
        with pytest.raises(ValueError, match="frames must be an int >= 2"):
            frame_latency_profile(plan, config, INT8, 12.8, 200.0, frames=1)
        assert simulate(plan, config, INT8, 12.8, 200.0, frames=1).frames == 1

    @pytest.mark.parametrize("warmup", [-1, 1.5, math.nan, True])
    def test_invalid_warmup(self, warmup):
        plan, config = chain_setup(depth=1)
        with pytest.raises(ValueError, match="warmup"):
            simulate(plan, config, INT8, 12.8, 200.0, frames=4, warmup=warmup)
        with pytest.raises(ValueError, match="warmup"):
            frame_latency_profile(
                plan, config, INT8, 12.8, 200.0, frames=4, warmup=warmup
            )

    def test_numpy_counts_accepted_as_ints(self):
        plan, config = chain_setup(depth=1)
        report = simulate(
            plan, config, INT8, 12.8, 200.0, frames=np.int64(4), warmup=np.int64(1)
        )
        assert report.frames == 4 and type(report.frames) is int
        assert report == simulate(plan, config, INT8, 12.8, 200.0, frames=4, warmup=1)
        profile = frame_latency_profile(
            plan, config, INT8, 12.8, 200.0, frames=np.int64(4)
        )
        assert profile == frame_latency_profile(
            plan, config, INT8, 12.8, 200.0, frames=4
        )


# ---------------------------------------------------------------------------
# the event-driven scheduler against a full sweep
# ---------------------------------------------------------------------------
def full_sweep_run(simulator: PipelineSimulator, frames: int) -> SimStats:
    """Reference scheduler: after every finished step, try every stage, in
    stage order, until a whole sweep starts none."""
    stats = SimStats(frames_requested=frames)
    for name, sim in simulator.stages.items():
        sim.frames_target, sim.frame, sim.step = frames, 0, 0
        sim.emitted_rows, sim.busy = 0, False
        stats.stages[name] = StageStats(name=name)
    dram = simulator.dram
    ready_at, dram_ready = {}, {}
    for name, sim in simulator.stages.items():
        ready_at[name] = dram.request("", sim.resident_weight_bytes, 0.0)
        dram_ready[name] = dram.request(name, sim.dram_bytes_per_step, ready_at[name])
        sim.idle_since = ready_at[name]
    counter, events, now = itertools.count(), [], 0.0

    def try_start(sim) -> bool:
        if sim.busy or sim.done() or ready_at[sim.name] > now:
            return False
        if not (sim.inputs_available() and sim.credits_available()):
            return False
        record = stats.stages[sim.name]
        record.input_stall_cycles += now - sim.idle_since
        dram_done = dram_ready[sim.name]
        dram_ready[sim.name] = dram.request(sim.name, sim.dram_bytes_per_step, now)
        compute_done = now + sim.compute_cycles_per_step
        finish = max(compute_done, dram_done)
        record.busy_cycles += sim.compute_cycles_per_step
        record.dram_stall_cycles += finish - compute_done
        record.record_interval(now, finish)
        sim.busy = True
        heapq.heappush(events, (finish, next(counter), sim.name))
        return True

    def try_start_all() -> None:
        while any([try_start(sim) for sim in simulator.stages.values()]):
            pass

    for now in sorted(set(ready_at.values())):
        try_start_all()
    while events:
        now, _, name = heapq.heappop(events)
        sim, record = simulator.stages[name], stats.stages[name]
        was_last_step = sim.step >= sim.steps_per_frame - 1
        sim.complete_step()
        sim.busy, sim.idle_since = False, now
        record.steps_done += 1
        if was_last_step:
            record.frames_done += 1
            record.frame_finish_times.append(now)
        try_start_all()
    stats.total_cycles = now
    stats.dram_busy_cycles, stats.dram_bytes = dram.busy_cycles, dram.bytes_moved
    return stats


PLANS = {
    "chain": build_pipeline_plan(make_chain(depth=3)),
    "wide_chain": build_pipeline_plan(make_chain(depth=2, channels=4, size=32)),
    "tiny_decoder": build_pipeline_plan(make_tiny_decoder()),
    "tied_decoder": build_pipeline_plan(make_tiny_decoder(untied=False, base=8)),
}


@st.composite
def sim_designs(draw):
    """A plan with random per-stage factors, bandwidth and branch batch."""
    plan = PLANS[draw(st.sampled_from(sorted(PLANS)))]
    branches = []
    for pipeline in plan.branches:
        stages = tuple(
            StageConfig(
                cpf=draw(st.integers(1, planned.stage.cpf_max)),
                kpf=draw(st.integers(1, planned.stage.kpf_max)),
                h=draw(st.integers(1, planned.stage.h_max)),
            )
            for planned in pipeline.stages
        )
        branches.append(
            BranchConfig(batch_size=draw(st.integers(1, 3)), stages=stages)
        )
    # Down to 1 MB/s: weight loads then outlast the first steps of the
    # stages that feed them.
    bandwidth = draw(st.floats(0.001, 20.0))
    quant = draw(st.sampled_from([INT8, INT16]))
    return plan, AcceleratorConfig(branches=tuple(branches)), quant, bandwidth


def late_weights_plan():
    """A small conv feeding a 128-channel one, whose resident weights load
    last, beside a one-conv branch that streams its own input."""
    b = GraphBuilder("late_weights")
    z = b.input("z", TensorShape(3, 16, 16))
    small = b.conv(z, out_channels=4, kernel=3, bias=BiasMode.TIED)
    b.conv(small, out_channels=128, kernel=3, bias=BiasMode.TIED, name="late")
    b.conv(z, out_channels=2, kernel=3, bias=BiasMode.TIED, name="side")
    graph = b.graph
    graph.validate()
    return build_pipeline_plan(graph)


def assert_schedulers_agree(plan, config, quant, bandwidth, frames):
    fast = PipelineSimulator(plan, config, quant, bandwidth, 200.0)
    slow = PipelineSimulator(plan, config, quant, bandwidth, 200.0)
    expected = full_sweep_run(slow, frames)
    # Line buffers absorb every burst, so every design completes.
    assert all(sim.done() for sim in slow.stages.values())
    stats = fast.run(frames=frames)
    assert stats == expected
    assert list(stats.stages) == list(expected.stages)

    def progress(simulator):
        return [(s.frame, s.step, s.emitted_rows) for s in simulator.stages.values()]

    assert progress(fast) == progress(slow)
    assert fast.dram.busy_cycles == slow.dram.busy_cycles
    assert fast.dram.bytes_moved == slow.dram.bytes_moved
    assert fast.dram.requests == slow.dram.requests


class TestEventDrivenScheduler:
    """``run`` re-checks only the stages a finished step can unblock; it
    must start exactly the steps a full sweep starts, in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(design=sim_designs(), frames=st.integers(1, 12))
    def test_matches_full_sweep(self, design, frames):
        assert_schedulers_agree(*design, frames)

    def test_stage_freed_while_its_weights_load(self):
        """conv1's first step ends before late's weights have loaded, and
        its second only after side's first. Side's step cannot unblock
        late, yet it is the first event past late's ready time, so late
        starts there."""
        plan = late_weights_plan()
        config = AcceleratorConfig(
            branches=(
                BranchConfig(
                    batch_size=1,
                    stages=(StageConfig(cpf=2, kpf=2, h=2), StageConfig(cpf=4, kpf=100)),
                ),
                BranchConfig(batch_size=1, stages=(StageConfig(cpf=2, h=3),)),
            )
        )
        simulator = PipelineSimulator(plan, config, INT8, 0.225, 200.0)
        late_ready = (
            simulator.stages["late"].resident_weight_bytes
            / simulator.dram.bytes_per_cycle
        )
        stats = simulator.run(frames=2)
        conv1_ends = [end for _, end in stats.stages["conv1"].busy_intervals]
        side_end = stats.stages["side"].busy_intervals[0][1]
        assert conv1_ends[0] < late_ready < side_end < conv1_ends[1]
        assert stats.stages["late"].busy_intervals[0][0] == side_end
        assert_schedulers_agree(plan, config, INT8, 0.225, 2)

    def test_real_decoder_design(self, decoder_plan):
        budget = ResourceBudget(compute=800, memory=900, bandwidth_gbps=12.8)
        config = AcceleratorConfig(
            branches=tuple(
                optimize_branch(branch, budget.scaled(0.33), 1, INT8).config
                for branch in decoder_plan.branches
            )
        )
        assert_schedulers_agree(decoder_plan, config, INT8, 12.8, 3)


class TestRunState:
    def test_line_buffer_absorbs_the_largest_burst(self):
        """conv1 emits 10, 11 and 11 of its 32 rows per step. A buffer
        sized from the first burst (14 rows) ran out of credit for good
        and deadlocked; sized from the largest it completes."""
        plan = build_pipeline_plan(make_chain(depth=2, channels=4, size=32))
        config = AcceleratorConfig(
            branches=(
                BranchConfig(
                    batch_size=1,
                    stages=(StageConfig(2, 3, 12), StageConfig(3, 2, 2)),
                ),
            )
        )
        simulator = PipelineSimulator(plan, config, INT8, 0.148, 200.0)
        conv1 = simulator.stages["conv1"]
        assert [conv1.rows_after_step(k) for k in range(3)] == [10, 21, 32]
        assert conv1.largest_burst() == 11
        stats = simulator.run(frames=5)
        assert stats.total_cycles == pytest.approx(109_468.79)
        assert all(s.frames_done == 5 for s in stats.stages.values())
        assert_schedulers_agree(plan, config, INT8, 0.148, 5)

    def test_repeated_runs_report_the_same_run(self):
        # Link credits and the DRAM channel's flows and counters reset per
        # run: a second run used to start from the first one's state.
        plan = build_pipeline_plan(make_tiny_decoder())
        simulator = PipelineSimulator(
            plan, AcceleratorConfig.uniform(plan), INT8, 12.8, 200.0
        )
        first = simulator.run(frames=4)
        counters = (
            simulator.dram.busy_cycles,
            simulator.dram.bytes_moved,
            simulator.dram.requests,
        )
        second = simulator.run(frames=4)
        assert second == first
        assert first.total_cycles == pytest.approx(310_771.35)
        assert first.dram_bytes == 13_848
        assert (
            simulator.dram.busy_cycles,
            simulator.dram.bytes_moved,
            simulator.dram.requests,
        ) == counters
        assert simulator.run(frames=2) == PipelineSimulator(
            plan, AcceleratorConfig.uniform(plan), INT8, 12.8, 200.0
        ).run(frames=2)
