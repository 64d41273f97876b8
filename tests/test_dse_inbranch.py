"""Tests for Algorithm 2: the in-branch greedy search."""

from __future__ import annotations

import gc
import weakref

from repro.devices.budget import ResourceBudget
from repro.dse import inbranch
from repro.dse.inbranch import BranchEvalTable, optimize_branch
from repro.perf.analytical import stage_latency_cycles
from repro.quant.schemes import INT8, INT16


GENEROUS = ResourceBudget(compute=2000, memory=2000, bandwidth_gbps=12.8)
TIGHT = ResourceBudget(compute=64, memory=400, bandwidth_gbps=2.0)
STARVED = ResourceBudget(compute=0, memory=0, bandwidth_gbps=0.0)


class TestFeasibility:
    def test_generous_budget_meets_batch(self, decoder_plan):
        sol = optimize_branch(decoder_plan.branches[0], GENEROUS, 1, INT8)
        assert sol.meets_batch_target
        assert sol.config.batch_size == 1
        assert sol.fps > 10

    def test_resources_stay_within_distribution(self, decoder_plan):
        for budget in (GENEROUS, TIGHT):
            sol = optimize_branch(decoder_plan.branches[0], budget, 1, INT8)
            if sol.config.batch_size == 0:
                continue
            assert sol.perf.dsp <= budget.compute
            assert sol.perf.bram <= budget.memory
            assert sol.perf.bandwidth_gbps <= budget.bandwidth_gbps + 1e-6

    def test_starved_budget_is_infeasible(self, decoder_plan):
        sol = optimize_branch(decoder_plan.branches[0], STARVED, 1, INT8)
        assert not sol.meets_batch_target
        assert sol.config.batch_size == 0
        assert sol.fps == 0.0

    def test_batch_two_costs_about_double(self, decoder_plan):
        one = optimize_branch(decoder_plan.branches[2], GENEROUS, 1, INT8)
        two = optimize_branch(decoder_plan.branches[2], GENEROUS, 2, INT8)
        assert two.meets_batch_target
        assert two.config.batch_size == 2
        assert two.perf.dsp >= 2 * one.perf.dsp * 0.4  # same order
        # With a saturating budget the replicas may tie the single large
        # pipeline, but never lose to it.
        assert two.fps >= one.fps

    def test_unreachable_batch_reported(self, decoder_plan):
        sol = optimize_branch(decoder_plan.branches[1], TIGHT, 8, INT8)
        assert not sol.meets_batch_target


class TestQuality:
    def test_more_compute_never_hurts(self, decoder_plan):
        pipeline = decoder_plan.branches[1]
        small = optimize_branch(
            pipeline, ResourceBudget(256, 800, 6.0), 1, INT8
        )
        large = optimize_branch(
            pipeline, ResourceBudget(1024, 800, 6.0), 1, INT8
        )
        assert large.fps >= small.fps

    def test_growth_phase_load_balances(self, decoder_plan):
        """After growth, no stage can double without leaving the budget."""
        pipeline = decoder_plan.branches[0]
        budget = ResourceBudget(400, 600, 6.0)
        sol = optimize_branch(pipeline, budget, 1, INT8)
        latencies = [
            stage_latency_cycles(planned.stage, cfg)
            for planned, cfg in zip(pipeline.stages, sol.config.stages)
        ]
        bottleneck = max(latencies)
        # The bottleneck dominates: nothing is more than ~2 ladder steps
        # faster than needed (allowing ceil effects on odd channels).
        assert bottleneck / min(latencies) < 64

    def test_int16_slower_than_int8_at_same_budget(self, decoder_plan):
        pipeline = decoder_plan.branches[0]
        budget = ResourceBudget(400, 800, 6.0)
        fps8 = optimize_branch(pipeline, budget, 1, INT8).fps
        fps16 = optimize_branch(pipeline, budget, 1, INT16).fps
        assert fps16 < fps8

    def test_configs_are_legal(self, decoder_plan):
        for branch in decoder_plan.branches:
            sol = optimize_branch(branch, GENEROUS, 1, INT8)
            for planned, cfg in zip(branch.stages, sol.config.stages):
                cfg.validate_for(planned)

    def test_single_stage_branch(self, decoder_plan):
        warp = decoder_plan.branches[2]
        sol = optimize_branch(warp, GENEROUS, 2, INT8)
        assert sol.meets_batch_target
        assert len(sol.config.stages) == 1

    def test_deterministic(self, decoder_plan):
        a = optimize_branch(decoder_plan.branches[1], TIGHT, 2, INT8)
        b = optimize_branch(decoder_plan.branches[1], TIGHT, 2, INT8)
        assert a.config == b.config


class TestZeroSumFallback:
    """``replicas_supported``'s semantics when a resource is unconsumed.

    A pipeline whose stages report zero DSPs and zero BRAMs (e.g. a
    quantization that maps every MAC to LUTs) can never be limited by
    compute or memory: those terms fall back to ``batch_target`` rather
    than dividing by zero or reading a zero budget as "no replicas fit".
    """

    @staticmethod
    def _zero_resource_table(pipeline):
        """A real eval table whose stages report zero DSPs and BRAMs."""
        table = BranchEvalTable(pipeline, INT8)
        real_eval = table.stage_eval

        def stage_eval(idx, cfg):
            return (real_eval(idx, cfg)[0], 0, 0)

        table.stage_eval = stage_eval
        return table

    def test_zero_resource_stages_ignore_compute_and_memory(
        self, decoder_plan
    ):
        pipeline = decoder_plan.branches[2]
        table = self._zero_resource_table(pipeline)
        budget = ResourceBudget(compute=0, memory=0, bandwidth_gbps=12.8)
        sol = optimize_branch(pipeline, budget, 2, INT8, table=table)
        # Only bandwidth can limit; a generous allocation meets the batch
        # even though the compute/memory budgets are literally zero.
        assert sol.meets_batch_target
        assert sol.config.batch_size == 2

    def test_zero_resource_stages_still_bandwidth_limited(
        self, decoder_plan
    ):
        pipeline = decoder_plan.branches[2]
        table = self._zero_resource_table(pipeline)
        starved = ResourceBudget(compute=0, memory=0, bandwidth_gbps=0.0)
        sol = optimize_branch(pipeline, starved, 2, INT8, table=table)
        assert not sol.meets_batch_target
        assert sol.config.batch_size == 0


class TestStageMemoStats:
    def test_a_table_collected_while_listed_is_counted_once(
        self, decoder_plan, monkeypatch
    ):
        """A search reads the totals before and after each solve. A table
        the cyclic collector frees while :func:`stage_memo_stats` lists
        the live tables must stay in the total, or the next delta counts
        its lookups again."""

        class CollectingSet(weakref.WeakSet):
            def __iter__(self):
                gc.collect()
                return super().__iter__()

        monkeypatch.setattr(inbranch, "_LIVE_TABLES", CollectingSet())
        enabled = gc.isenabled()
        gc.disable()
        try:
            pipeline = decoder_plan.branches[0]
            table = BranchEvalTable(pipeline, INT8)
            optimize_branch(pipeline, GENEROUS, 1, INT8, table=table)
            table.cycle = table  # only the cyclic collector frees it
            before = inbranch.stage_memo_stats()
            assert table.stage_lookups > 0
            del table
            assert inbranch.stage_memo_stats() == before
        finally:
            if enabled:
                gc.enable()
