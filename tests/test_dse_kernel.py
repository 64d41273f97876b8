"""Bit-identity of the batched Algorithm-2 kernel vs the scalar solver.

The kernel's contract is absolute: for any sequence of budget buckets,
``solve_buckets`` returns solutions whose pickles are byte-for-byte
identical to calling ``optimize_branch`` per bucket. The randomized
suites here hammer that over thousands of budgets per branch (including
zero-resource and saturating edge budgets and the customization's
``max_h`` / ``max_pf`` constraints), a property suite drives one
long-lived table through many calls and batch targets, the memo counts
the kernel credits are checked against the scalar loop's, the growth
stop's edge cases (saturated and zero-traffic walks, budgets past every
trial sum, calls spanning walks old and new) get cases of their own, and
the end-to-end tests pin the seeded search results of the kernel-routed
evaluation path.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.budget import ResourceBudget
from repro.dse.inbranch import BranchEvalTable, optimize_branch
from repro.dse.kernel import (
    _bandwidth_quotient,
    _replicas_supported,
    solve_buckets,
)
from repro.dse.worker import (
    EvalTimings,
    canonical_rd,
    clear_process_caches,
    quantize_rd,
)
from repro.quant.schemes import INT8

#: Edge budgets every randomized stream includes: fully starved, the
#: smallest nonzero grid point, and a budget far past any saturation.
EDGE_BUDGETS = (
    ResourceBudget(compute=0, memory=0, bandwidth_gbps=0.0),
    ResourceBudget(compute=4, memory=4, bandwidth_gbps=0.05),
    ResourceBudget(compute=100_000, memory=100_000, bandwidth_gbps=1000.0),
)


def random_budgets(seed: int, count: int) -> list[ResourceBudget]:
    """Grid-snapped random budgets, with zero-heavy tails mixed in."""
    rng = random.Random(seed)
    budgets = list(EDGE_BUDGETS)
    while len(budgets) < count:
        # One axis in five is forced to zero so the zero-resource and
        # zero-bandwidth code paths stay continuously exercised.
        compute = 0 if rng.random() < 0.2 else rng.randrange(0, 3000)
        memory = 0 if rng.random() < 0.2 else rng.randrange(0, 3000)
        bandwidth = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 16.0)
        budgets.append(
            canonical_rd(
                quantize_rd(
                    ResourceBudget(
                        compute=compute,
                        memory=memory,
                        bandwidth_gbps=bandwidth,
                    )
                )
            )
        )
    return budgets


def budget_arrays(budgets):
    """The compute, memory and bandwidth arrays ``solve_buckets`` takes."""
    return (
        np.array([rd.compute for rd in budgets], dtype=np.int64),
        np.array([rd.memory for rd in budgets], dtype=np.int64),
        np.array([rd.bandwidth_gbps for rd in budgets], dtype=np.float64),
    )


def assert_bit_identical(pipeline, budgets, batch_target, **table_kwargs):
    table = BranchEvalTable(pipeline, INT8, **table_kwargs)
    batched = solve_buckets(table, *budget_arrays(budgets), batch_target)
    for rd, batch_sol in zip(budgets, batched):
        scalar_sol = optimize_branch(
            pipeline,
            rd,
            batch_target,
            INT8,
            table_kwargs.get("frequency_mhz", 200.0),
            max_h=table_kwargs.get("max_h"),
            max_pf=table_kwargs.get("max_pf"),
            table=table,
        )
        assert pickle.dumps(batch_sol) == pickle.dumps(scalar_sol), (
            f"kernel diverged from scalar at rd={rd}, "
            f"batch_target={batch_target}"
        )


def assert_calls_match_scalar(pipeline, calls, dram_bytes=None, **constraints):
    """Drive one table through ``calls``; check it against the scalar loop.

    Every solution must pickle like ``optimize_branch``'s for its bucket,
    and the memo traffic the kernel credits must equal the lookups the
    scalar loop makes on a fresh table. Returns the kernel's ladder.
    """
    table = BranchEvalTable(pipeline, INT8, **constraints)
    reference = BranchEvalTable(pipeline, INT8, **constraints)
    if dram_bytes is not None:
        table.dram_bytes = reference.dram_bytes = dram_bytes
    ladder = table.ladder()  # chain construction is not solve traffic
    hits, lookups = table.stage_hits, table.stage_lookups
    for batch_target, budgets in calls:
        batched = solve_buckets(table, *budget_arrays(budgets), batch_target)
        assert len(batched) == len(budgets)
        for rd, batch_sol in zip(budgets, batched):
            scalar_sol = optimize_branch(
                pipeline, rd, batch_target, INT8, table=reference,
                **constraints,
            )
            assert pickle.dumps(batch_sol) == pickle.dumps(scalar_sol), (
                f"kernel diverged from scalar at rd={rd}, "
                f"batch_target={batch_target}"
            )
    expected = reference.stage_lookups
    assert (
        table.stage_hits - hits,
        table.stage_lookups - lookups,
    ) == (expected, expected)
    return ladder


class TestRandomizedIdentity:
    @pytest.mark.parametrize("branch_idx", [0, 1, 2])
    def test_batched_matches_scalar(self, decoder_plan, branch_idx):
        """3000+ random budgets per branch, batch targets 1/2/4."""
        budgets = random_budgets(seed=branch_idx, count=3000)
        pipeline = decoder_plan.branches[branch_idx]
        for batch_target, chunk in zip(
            (1, 2, 4),
            (budgets[0::3], budgets[1::3], budgets[2::3]),
        ):
            assert_bit_identical(
                pipeline, list(chunk) + list(EDGE_BUDGETS), batch_target
            )

    def test_constrained_customizations(self, decoder_plan):
        """The max_h / max_pf clamps flow through the ladder identically."""
        budgets = random_budgets(seed=99, count=400)
        pipeline = decoder_plan.branches[0]
        assert_bit_identical(pipeline, budgets, 2, max_h=1)
        assert_bit_identical(pipeline, budgets, 2, max_pf=64)
        assert_bit_identical(pipeline, budgets, 1, max_h=1, max_pf=16)

    def test_single_stage_branch(self, decoder_plan):
        budgets = random_budgets(seed=7, count=500)
        assert_bit_identical(decoder_plan.branches[2], budgets, 4)

    def test_zero_traffic_pipeline(self, decoder_plan):
        """A replica moving no external bytes is never bandwidth-bound.

        Its bandwidth quotient is unlimited at every rung and growth step,
        which must fall back exactly as the scalar's ``bw_replica == 0``.
        """
        pipeline = decoder_plan.branches[0]
        budgets = random_budgets(seed=5, count=300)
        ladder = assert_calls_match_scalar(
            pipeline, [(1, budgets), (4, budgets)], dram_bytes=0.0
        )
        assert len(ladder.path_steps) > 1

    def test_empty_and_single_bucket(self, decoder_plan):
        table = BranchEvalTable(decoder_plan.branches[0], INT8)
        assert solve_buckets(table, [], [], [], 1) == []
        [sol] = solve_buckets(table, *budget_arrays([EDGE_BUDGETS[2]]), 1)
        assert sol.meets_batch_target

    def test_repeated_buckets_share_solutions(self, decoder_plan):
        """Duplicate buckets resolve to one memoized solution object."""
        table = BranchEvalTable(decoder_plan.branches[0], INT8)
        rd = ResourceBudget(compute=800, memory=800, bandwidth_gbps=6.0)
        a, b = solve_buckets(table, *budget_arrays([rd, rd]), 1)
        assert a is b

    def test_timings_accumulate(self, decoder_plan):
        table = BranchEvalTable(decoder_plan.branches[0], INT8)
        timings = EvalTimings()
        solve_buckets(
            table, *budget_arrays(random_budgets(3, 64)), 1, timings
        )
        assert timings.ladder_seconds > 0.0
        assert timings.growth_seconds >= 0.0
        assert timings.measure_seconds > 0.0
        # The kernel books only its phases; the evaluator books the rest.
        assert timings.eval_seconds == timings.cache_seconds == 0.0


class TestReplicasSupportedFallback:
    """The vectorized min(C/Σc, M/Σm, BW/Σbw) and its zero-sum semantics."""

    def test_zero_sums_fall_back_to_batch_target(self):
        # A pipeline consuming no DSPs/BRAMs (all-LUT mapping) must never
        # be limited by compute/memory — even under a zero budget.
        out = _replicas_supported(
            c_sum=np.array([0], dtype=np.int64),
            m_sum=np.array([0], dtype=np.int64),
            bw_quotient=_bandwidth_quotient(
                bw_margin=np.array([1e9], dtype=np.float64),
                bw_replica=np.array([2e-4], dtype=np.float64),
            ),
            compute=np.array([0], dtype=np.int64),
            memory=np.array([0], dtype=np.int64),
            batch_target=8,
        )
        assert out[0] == 8

    def test_zero_bw_replica_falls_back_to_batch_target(self):
        # A replica that moves no external bytes (dram_bytes == 0): its
        # quotient is unlimited, so bandwidth can never be the limiter.
        out = _replicas_supported(
            c_sum=np.array([10], dtype=np.int64),
            m_sum=np.array([10], dtype=np.int64),
            bw_quotient=_bandwidth_quotient(
                bw_margin=np.array([0.0], dtype=np.float64),
                bw_replica=np.array([0.0], dtype=np.float64),
            ),
            compute=np.array([100], dtype=np.int64),
            memory=np.array([55], dtype=np.int64),
            batch_target=16,
        )
        assert out[0] == 5  # memory is the binding term (55 // 10)

    def test_min_over_terms(self):
        out = _replicas_supported(
            c_sum=np.array([4, 4], dtype=np.int64),
            m_sum=np.array([2, 2], dtype=np.int64),
            bw_quotient=_bandwidth_quotient(
                bw_margin=np.array([1e6, 1e6], dtype=np.float64),
                bw_replica=np.array([2e-3, 2e-3], dtype=np.float64),
            ),
            compute=np.array([40, 8], dtype=np.int64),
            memory=np.array([100, 100], dtype=np.int64),
            batch_target=64,
        )
        assert out[0] == 10  # compute-bound: 40 // 4
        assert out[1] == 2  # tighter compute: 8 // 4


class TestMemoAccounting:
    """The kernel credits exactly the memo lookups the scalar loop makes.

    ``stage_hits`` / ``stage_lookups`` land in every serialized
    ``DseResult``, so the batched path must book 2 lookups per stage per
    rung visited, 3 per growth step applied, and 3 for a refused step or
    1 for a saturated walk — the scalar loop's counts, lookup for lookup.
    """

    @pytest.mark.parametrize("batch_target", [1, 2, 4])
    @pytest.mark.parametrize("branch_idx", [0, 1, 2])
    def test_credited_lookups_match_scalar(
        self, decoder_plan, branch_idx, batch_target
    ):
        pipeline = decoder_plan.branches[branch_idx]
        budgets = random_budgets(seed=20 + branch_idx, count=300)
        # Two calls, so the second reuses the first call's rung tables.
        assert_calls_match_scalar(
            pipeline, [(batch_target, budgets[:100]), (batch_target, budgets)]
        )


class TestOnePassGrowth:
    """Growth stops for all of a call's paths at once, edge cases first.

    One call's growing buckets share one lookup into every traced path's
    joined maxima; these cases are the ones random budgets rarely reach.
    """

    @pytest.mark.parametrize(
        "branch_idx, constraints",
        [(2, {}), (0, {"max_h": 1}), (0, {"max_pf": 1})],
    )
    def test_zero_step_paths(self, decoder_plan, branch_idx, constraints):
        """Walks saturated at their start state apply no step, beside
        longer walks (the first two cases) or alone (``max_pf = 1``)."""
        pipeline = decoder_plan.branches[branch_idx]
        budgets = [EDGE_BUDGETS[2]] + random_budgets(seed=31, count=200)
        ladder = assert_calls_match_scalar(
            pipeline, [(1, budgets), (2, budgets)], **constraints
        )
        assert 0 in ladder.path_steps
        assert (ladder.path_steps.max() > 0) == ("max_pf" not in constraints)

    @pytest.mark.parametrize("branch_idx", [0, 1, 2])
    def test_budgets_above_every_trial_sum(self, decoder_plan, branch_idx):
        """Queries past the stride are clipped into their own path."""
        pipeline = decoder_plan.branches[branch_idx]
        ladder = BranchEvalTable(pipeline, INT8).ladder()
        bound = sum(
            max(chain.dsp_list) + max(chain.bram_list)
            for chain in ladder.chains
        )
        huge = 4 * (bound + 1)
        budgets = [
            ResourceBudget(
                compute=compute, memory=memory, bandwidth_gbps=bandwidth
            )
            for compute, memory in ((huge, huge), (huge, 800), (800, huge))
            for bandwidth in (0.0, 0.05, 2.0, 6.0, 12.0, 1000.0)
        ]
        assert_calls_match_scalar(pipeline, [(1, budgets), (2, budgets)])

    @pytest.mark.parametrize("branch_idx", [0, 1])
    def test_one_call_spans_old_and_new_paths(self, decoder_plan, branch_idx):
        """Paths traced by earlier calls and during this one, together."""
        pipeline = decoder_plan.branches[branch_idx]
        first = random_budgets(seed=40 + branch_idx, count=60)
        later = [
            ResourceBudget(
                compute=rd.compute,
                memory=rd.memory,
                bandwidth_gbps=rd.bandwidth_gbps + 0.4,
            )
            for rd in random_budgets(seed=50 + branch_idx, count=300)
        ]
        calls = [(1, first), (1, first + later)]
        ladder = assert_calls_match_scalar(pipeline, calls[:1])
        traced = len(ladder.path_steps)
        ladder = assert_calls_match_scalar(pipeline, calls)
        assert 1 < traced < len(ladder.path_steps)


#: Bandwidths a long-lived table meets: zero, grid points, off-grid floats.
BANDWIDTHS = st.one_of(
    st.just(0.0),
    st.integers(0, 320).map(lambda bucket: bucket * 0.05),
    st.floats(0.0, 16.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def solve_calls(draw):
    """A sequence of (batch target, budgets) calls over one bandwidth pool."""
    pool = draw(st.lists(BANDWIDTHS, min_size=1, max_size=4))
    budget = st.builds(
        ResourceBudget,
        compute=st.integers(0, 3000),
        memory=st.integers(0, 3000),
        bandwidth_gbps=st.sampled_from(pool),
    )
    return draw(
        st.lists(
            st.tuples(st.integers(1, 8), st.lists(budget, max_size=12)),
            min_size=1,
            max_size=5,
        )
    )


class TestLongLivedTable:
    """One table across many calls: rung tables and paths are reused."""

    @settings(max_examples=60, deadline=None)
    @given(
        branch_idx=st.integers(0, 2),
        constraints=st.sampled_from(
            [{}, {"max_h": 1}, {"max_pf": 64}, {"max_h": 1, "max_pf": 16}]
        ),
        calls=solve_calls(),
    )
    def test_every_call_matches_scalar(
        self, decoder_plan, branch_idx, constraints, calls
    ):
        assert_calls_match_scalar(
            decoder_plan.branches[branch_idx], calls, **constraints
        )


def reach_table(plan, branch_idx, bandwidth_gbps):
    """A fresh table of one branch whose ladder descended the whole
    bandwidth reach of a spec with that budget."""
    from repro.dse.space import Customization
    from repro.dse.worker import EvalSpec, _descend_reach

    spec = EvalSpec(
        plan=plan,
        budget=ResourceBudget(
            compute=4096, memory=4096, bandwidth_gbps=bandwidth_gbps
        ),
        customization=Customization.uniform(plan.num_branches),
        quant=INT8,
    )
    table = BranchEvalTable(plan.branches[branch_idx], INT8)
    _descend_reach(spec, table, None)
    return table


class TestReachDescend:
    """The batched path descends a spec's whole bandwidth reach in one
    pass; rows do not depend on when they were built, so a ladder
    prefilled that way solves exactly as one filled lazily."""

    @settings(max_examples=40, deadline=None)
    @given(
        branch_idx=st.integers(0, 2),
        bandwidth=st.one_of(
            st.integers(0, 400).map(lambda bucket: bucket * 0.05),
            st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
        ),
        calls=st.lists(
            st.tuples(
                st.integers(1, 4),
                st.lists(
                    st.tuples(
                        st.integers(0, 750),
                        st.integers(0, 750),
                        st.integers(0, 400),
                    ),
                    max_size=12,
                ),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_prefilled_rows_solve_as_lazy_rows(
        self, decoder_plan, branch_idx, bandwidth, calls
    ):
        prefilled = reach_table(decoder_plan, branch_idx, bandwidth)
        lazy = BranchEvalTable(decoder_plan.branches[branch_idx], INT8)
        lazy.ladder()
        reach = int(bandwidth / 0.05)
        assert len(prefilled.ladder()._known_bw) == reach + 1
        for batch_target, buckets in calls:
            # Grid budgets inside the spec's reach, as the search makes.
            budgets = [
                canonical_rd((compute, memory, min(bucket_bw, reach)))
                for compute, memory, bucket_bw in buckets
            ]
            solved = [
                solve_buckets(table, *budget_arrays(budgets), batch_target)
                for table in (prefilled, lazy)
            ]
            assert pickle.dumps(solved[0]) == pickle.dumps(solved[1])
            assert (prefilled.stage_hits, prefilled.stage_lookups) == (
                lazy.stage_hits,
                lazy.stage_lookups,
            )

    def test_one_pass_per_ladder(self, decoder_plan):
        """A search's first generation descends each branch's reach in
        one pass; later generations descend nothing."""
        from unittest import mock

        from repro.devices.fpga import get_device
        from repro.dse.cache import LocalEvalCache
        from repro.dse.kernel import BranchLadder
        from repro.dse.space import Customization
        from repro.dse.worker import EvalSpec, GenerationEvaluator, branch_table

        spec = EvalSpec(
            plan=decoder_plan,
            budget=get_device("ZU9CG").budget(),
            customization=Customization.uniform(decoder_plan.num_branches),
            quant=INT8,
        )
        rng = random.Random(3)
        clear_process_caches()
        evaluate = GenerationEvaluator(spec, LocalEvalCache())
        with mock.patch.object(
            BranchLadder, "_descend", autospec=True,
            side_effect=BranchLadder._descend,
        ) as descending:
            for _ in range(3):
                evaluate([[rng.random() for _ in range(9)] for _ in range(20)])
        assert descending.call_count == decoder_plan.num_branches
        reach = int(spec.budget.bandwidth_gbps / 0.05)
        for branch in range(decoder_plan.num_branches):
            ladder = branch_table(spec, branch).ladder()
            assert len(ladder._known_bw) == reach + 1
        assert evaluate.timings.ladder_seconds > 0

    def test_a_wide_reach_stays_lazy(self, decoder_plan):
        from repro.dse.worker import _REACH_ROWS_CAP

        within = reach_table(decoder_plan, 0, (_REACH_ROWS_CAP - 1) * 0.05)
        assert len(within.ladder()._known_bw) == _REACH_ROWS_CAP
        wide = reach_table(decoder_plan, 0, _REACH_ROWS_CAP * 0.05)
        assert len(wide.ladder()._known_bw) == 0

    def test_the_scalar_path_builds_no_ladder(self, decoder_plan):
        from repro.devices.fpga import get_device
        from repro.dse.space import Customization
        from repro.dse.worker import EvalSpec, branch_table, solve_bucket

        spec = EvalSpec(
            plan=decoder_plan,
            budget=get_device("Z7045").budget(),
            customization=Customization.uniform(decoder_plan.num_branches),
            quant=INT8,
        )
        clear_process_caches()
        solve_bucket(spec, 0, (100, 100, 100))
        assert not branch_table(spec, 0).has_ladder


class TestEndToEndIdentity:
    """Seeded search identity across the kernel-routed evaluation path."""

    def _run(self):
        from repro.experiments.convergence import run_convergence

        clear_process_caches()
        return run_convergence(searches=2, iterations=3, population=12)

    def test_generation_evaluator_matches_scalar_path(self):
        """The batched generation path ≡ the per-candidate scalar loop."""
        from repro.dse.cache import LocalEvalCache
        from repro.dse.worker import EvalSpec, GenerationEvaluator
        from repro.construction.reorg import build_pipeline_plan
        from repro.devices.fpga import get_device
        from repro.dse.space import Customization
        from repro.models.codec_avatar import build_codec_avatar_decoder
        from repro.quant.schemes import get_scheme
        from tests.conftest import scalar_generation

        plan = build_pipeline_plan(build_codec_avatar_decoder())
        device = get_device("ZU9CG")
        spec = EvalSpec(
            plan=plan,
            budget=device.budget(),
            customization=Customization(
                batch_sizes=(1, 1, 2), priorities=(1.0, 1.0, 1.0)
            ),
            quant=get_scheme("int8"),
            frequency_mhz=device.default_frequency_mhz,
        )
        rng = random.Random(17)
        B = plan.num_branches
        positions = [
            [rng.random() for _ in range(3 * B)] for _ in range(40)
        ]
        batched = GenerationEvaluator(spec, LocalEvalCache())(positions)
        scalar = scalar_generation(spec, positions, LocalEvalCache())
        for score, (metrics, solutions), row in zip(
            batched.scores, batched.designs, scalar
        ):
            assert score == row[0]
            assert metrics == row[1]
            assert pickle.dumps(solutions) == pickle.dumps(row[2])
        assert batched.evaluations == sum(row[3] for row in scalar)
        assert batched.cache_hits == sum(row[4] for row in scalar)

    def test_off_run_repeats_bit_identically(self):
        first, again = self._run(), self._run()
        assert [
            (s.best_fitness, s.best_config, s.history)
            for s in again.searches
        ] == [
            (s.best_fitness, s.best_config, s.history)
            for s in first.searches
        ]
