"""The DSE evaluation path: spec purity, generation dedup, batch sweeps."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import pickle
import random
import sys
import threading
import traceback
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices.budget import ResourceBudget
from repro.devices.fpga import get_device
from repro.dse.cache import LocalEvalCache
from repro.dse.engine import DseEngine, SweepCase
from repro.dse.inbranch import BranchEvalTable, optimize_branch
from repro.dse.objective import (
    PaperObjective,
    metrics_from_solutions,
    penalized_score,
)
from repro.dse.result import result_to_dict
from repro.dse.space import Customization
from repro.dse.worker import (
    PROCESS_LOCK,
    EvalSpec,
    GenerationEvaluator,
    branch_table,
    candidate_keys,
    canonical_rd,
    clear_process_caches,
    quantize_rd,
)
from repro.fcad.flow import FCad, run_sweep, sweep_grid
from repro.quant.schemes import INT8, INT16
from repro.utils.rng import seed_fingerprint
from tests.conftest import HOST_TIME_KEYS, make_tiny_decoder, scalar_generation


def make_engine(plan, device="Z7045", quant=INT8, alpha=0.05):
    return DseEngine(
        plan=plan,
        budget=get_device(device).budget(),
        customization=Customization.uniform(plan.num_branches),
        quant=quant,
        alpha=alpha,
    )


@pytest.fixture(scope="module")
def spec(tiny_plan_module):
    return make_engine(tiny_plan_module).spec


@pytest.fixture(scope="module")
def tiny_plan_module():
    from repro.construction.reorg import build_pipeline_plan

    return build_pipeline_plan(make_tiny_decoder())


class TestEvalSpec:
    def test_picklable(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.plan.num_branches == spec.plan.num_branches
        assert clone.digest == spec.digest

    def test_digest_stable_across_instances(self, tiny_plan_module):
        assert (
            make_engine(tiny_plan_module).spec.digest
            == make_engine(tiny_plan_module).spec.digest
        )

    def test_digest_separates_specs(self, tiny_plan_module):
        int8 = make_engine(tiny_plan_module, quant=INT8).spec
        int16 = make_engine(tiny_plan_module, quant=INT16).spec
        other_device = make_engine(tiny_plan_module, device="ZU17EG").spec
        assert len({int8.digest, int16.digest, other_device.digest}) == 3

    def test_an_engine_states_its_problem_once(self, tiny_plan_module):
        engine = make_engine(tiny_plan_module)
        assert engine.spec is engine.spec
        assert (
            engine.plan,
            engine.budget,
            engine.customization,
            engine.quant,
            engine.frequency_mhz,
        ) == (
            engine.spec.plan,
            engine.spec.budget,
            engine.spec.customization,
            engine.spec.quant,
            engine.spec.frequency_mhz,
        )
        with pytest.raises(AttributeError):
            engine.quant = INT16

    def test_a_sweep_digests_each_spec_once(self):
        """24 distinct specs (4 devices x 2 quantizations x 3 batch
        customizations) pickle 24 digests: the sweep plan and the
        search read one spec per engine."""
        from repro.dse import worker
        from repro.models.codec_avatar import build_codec_avatar_decoder

        network = build_codec_avatar_decoder()
        flows = []
        for batches in ((1, 1, 1), (2, 2, 2), (1, 2, 4)):
            flows += sweep_grid(
                networks=[network],
                devices=("Z7045", "ZU17EG", "ZU9CG", "KU115"),
                quants=("int8", "int16"),
                customization=Customization(
                    batch_sizes=batches, priorities=(1.0, 1.0, 1.0)
                ),
            )
        dumps = mock.Mock(side_effect=pickle.dumps)
        with mock.patch.object(worker, "pickle", mock.Mock(dumps=dumps)):
            results = run_sweep(flows, iterations=2, population=8, seed=0)
        assert len({result.dse.best_fitness for result in results}) > 1
        assert dumps.call_count == len(flows) == 24

    def test_a_sweep_checks_every_customization_before_searching(
        self, monkeypatch
    ):
        from repro.models.zoo import get_model

        searched = []
        search = DseEngine.search

        def counting(engine, *args, **kwargs):
            searched.append(engine)
            return search(engine, *args, **kwargs)

        monkeypatch.setattr(DseEngine, "search", counting)
        flows = sweep_grid(
            [get_model("codec_avatar_decoder"), get_model("tiny_yolo")],
            ["Z7045", "ZU9CG"],
            customization=Customization.uniform(3),
        )
        with pytest.raises(ValueError, match="customization covers 3 branches"):
            run_sweep(flows, iterations=2, population=4)
        assert searched == []


class TestCandidateKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.5), min_size=6, max_size=6))
    def test_bucket_of_each_branch_budget(self, spec, position):
        # The reference: build each branch's absolute budget, then quantize it.
        B = spec.plan.num_branches
        budget = spec.budget
        expected = [
            quantize_rd(
                ResourceBudget(
                    compute=int(budget.compute * position[j]),
                    memory=int(budget.memory * position[B + j]),
                    bandwidth_gbps=budget.bandwidth_gbps * position[2 * B + j],
                )
            )
            for j in range(B)
        ]
        keys = candidate_keys(spec, position)
        assert [key[2] for key in keys] == expected
        assert [key[:2] for key in keys] == [(spec.digest, j) for j in range(B)]


class TestEvaluateCandidate:
    """One candidate, as a one-row generation."""

    def test_pure_and_cached(self, spec):
        cache = LocalEvalCache()
        position = [0.5, 0.5] * 3
        first = GenerationEvaluator(spec, cache)([position])
        second = GenerationEvaluator(spec, cache)([position])
        assert first.scores == second.scores
        assert first.designs[0][1] == second.designs[0][1]
        # First call misses per branch, second is served entirely from cache.
        assert first.evaluations == spec.plan.num_branches
        assert first.cache_hits == 0
        assert second.evaluations == 0
        assert second.cache_hits == spec.plan.num_branches

    def test_infeasible_positions_penalized(self, tiny_plan_module):
        from repro.devices.budget import ResourceBudget
        from repro.dse.objective import PaperObjective
        from repro.dse.worker import INFEASIBILITY_PENALTY

        spec = EvalSpec(
            plan=tiny_plan_module,
            budget=ResourceBudget(compute=64, memory=64, bandwidth_gbps=1.0),
            customization=Customization.uniform(2),
            quant=INT8,
        )
        starved = [0.99, 0.01] * 3  # branch 2 starved of everything
        generation = GenerationEvaluator(spec, LocalEvalCache())([starved])
        ((metrics, solutions),) = generation.designs
        shortfall = sum(1 for s in solutions if not s.meets_batch_target)
        assert shortfall >= 1
        assert metrics.shortfall == shortfall
        raw = PaperObjective().score(metrics, spec.customization.priorities)
        assert generation.scores == [raw - INFEASIBILITY_PENALTY * shortfall]


class TestGenerationEvaluator:
    """Generation-level dedup, charging and timings."""

    def test_matches_per_candidate_evaluation(self, spec):
        positions = [[0.5, 0.5] * 3, [0.7, 0.3] * 3, [0.4, 0.6] * 3, [0.5, 0.5] * 3]
        batched = GenerationEvaluator(spec, LocalEvalCache())(positions)
        scalar = scalar_generation(spec, positions, LocalEvalCache())
        assert batched.scores == [row[0] for row in scalar]
        assert [design[0] for design in batched.designs] == [row[1] for row in scalar]
        assert [design[1] for design in batched.designs] == [row[2] for row in scalar]
        # The totals are the per-candidate charges summed.
        assert batched.evaluations == sum(row[3] for row in scalar)
        assert batched.cache_hits == sum(row[4] for row in scalar)

    def test_generation_dedup_charges_first_candidate(self, spec):
        position = [0.5, 0.5] * 3
        generation = GenerationEvaluator(spec, LocalEvalCache())(
            [position, list(position), list(position)]
        )
        B = spec.plan.num_branches
        # One candidate pays for the unique buckets; clones ride the cache.
        assert generation.evaluations == B
        assert generation.cache_hits == 2 * B
        assert generation.scores[0] == generation.scores[1] == generation.scores[2]
        first, *clones = generation.designs
        assert all(clone is first for clone in clones)

    def test_warm_cache_means_zero_evaluations(self, spec):
        cache = LocalEvalCache()
        evaluator = GenerationEvaluator(spec, cache)
        positions = [[0.5, 0.5] * 3, [0.7, 0.3] * 3]
        evaluator(positions)
        rerun = evaluator(positions)
        assert rerun.evaluations == 0
        assert rerun.cache_hits == len(positions) * spec.plan.num_branches

    def test_timings_and_stage_stats_accumulate(self, spec):
        evaluator = GenerationEvaluator(spec, LocalEvalCache())
        evaluator([[0.5, 0.5] * 3, [0.7, 0.3] * 3])
        assert evaluator.timings.eval_seconds > 0
        assert evaluator.timings.cache_seconds > 0
        assert evaluator.stage_lookups > 0
        assert 0 <= evaluator.stage_hits <= evaluator.stage_lookups


FRACTIONS = st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
#: One branch's (compute, memory, bandwidth) fractions.
BRANCH_SHARE = st.tuples(FRACTIONS, FRACTIONS, FRACTIONS)


@st.composite
def generations(draw, branches=2):
    """A search's generations over a few shares per branch.

    Each candidate picks every branch's share from that branch's small
    pool, so candidates share some branches' solutions while differing in
    others, and whole designs repeat within and across generations.
    """
    pools = [
        draw(st.lists(BRANCH_SHARE, min_size=1, max_size=3))
        for _ in range(branches)
    ]
    position = st.tuples(*map(st.sampled_from, pools)).map(
        lambda shares: [
            shares[j][axis] for axis in range(3) for j in range(branches)
        ]
    )
    return draw(
        st.lists(
            st.lists(position, min_size=1, max_size=10),
            min_size=1,
            max_size=4,
        )
    )


#: Variance weights of the paper fitness the evaluator scores with.
MEMO_ALPHAS = (0.0, 0.05, 5.0)


def open_cache(backend, spec, positions):
    """A fresh cache, or one a previous evaluator already filled."""
    cache = LocalEvalCache()
    if backend == "warm local":
        GenerationEvaluator(spec, cache)(positions)
    return cache


class TestDesignMemo:
    """Each distinct design's metrics are built once per search; every
    candidate is still keyed and scored once, exactly as before."""

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.sampled_from(MEMO_ALPHAS),
        backend=st.sampled_from(["local", "warm local"]),
        search=generations(),
    )
    def test_memo_is_exact_and_builds_each_design_once(
        self, spec, alpha, backend, search
    ):
        objective = PaperObjective(alpha=alpha)
        priorities = spec.customization.priorities
        cache = open_cache(
            backend,
            spec,
            [position for positions in search for position in positions],
        )
        evaluator = GenerationEvaluator(spec, cache, alpha=alpha)
        designs = []
        with mock.patch(
            "repro.dse.worker.metrics_from_solutions",
            side_effect=metrics_from_solutions,
        ) as building, mock.patch(
            "repro.dse.worker.penalized_score",
            side_effect=penalized_score,
        ) as scoring, mock.patch(
            "repro.dse.worker.candidate_keys",
            side_effect=candidate_keys,
        ) as keying:
            for positions in search:
                keys = [candidate_keys(spec, p) for p in positions]
                missing = {
                    key
                    for candidate in keys
                    for key in candidate
                    if cache.get(key) is None
                }
                generation = evaluator(positions)
                charged = 0
                for candidate, score, (metrics, solutions) in zip(
                    keys, generation.scores, generation.designs
                ):
                    # The solutions its own keys hold, not a memo entry's.
                    assert all(
                        solution is cache.get(key)
                        for solution, key in zip(solutions, candidate)
                    )
                    # The first candidate to reference a miss pays.
                    paid = missing.intersection(candidate)
                    missing -= paid
                    charged += len(paid)
                    assert metrics == metrics_from_solutions(solutions)
                    assert score == penalized_score(objective, metrics, priorities)
                references = sum(map(len, keys))
                assert generation.evaluations == charged
                assert generation.cache_hits == references - charged
                designs += generation.designs
        # ``designs`` keeps every solution alive, so no id is reused.
        distinct = {tuple(map(id, solutions)) for _, solutions in designs}
        assert building.call_count == len(distinct)
        assert scoring.call_count == keying.call_count == len(designs)

    def test_memo_lives_for_one_search(self, spec):
        cache = LocalEvalCache()
        positions = [[0.5, 0.5] * 3, [0.7, 0.3] * 3, [0.5, 0.5] * 3]
        with mock.patch(
            "repro.dse.worker.metrics_from_solutions",
            side_effect=metrics_from_solutions,
        ) as building:
            evaluator = GenerationEvaluator(spec, cache)
            first = evaluator(positions)
            assert first.designs[0][0] is first.designs[2][0]
            again = evaluator(positions[::-1])
            assert building.call_count == 2
            assert again.scores == first.scores[::-1]
            GenerationEvaluator(spec, cache)(positions)
            assert building.call_count == 4


class TestSearchMany:
    def test_duplicate_cases_deduplicated(self, tiny_plan_module):
        a = make_engine(tiny_plan_module)
        b = make_engine(tiny_plan_module)
        results = DseEngine.search_many(
            [a, b, a], iterations=2, population=8, seed=3
        )
        assert results[0] is results[1] is results[2]

    def test_live_rng_seeds_never_deduplicated(self, tiny_plan_module):
        engine = make_engine(tiny_plan_module)
        rng = random.Random(0)
        results = DseEngine.search_many(
            [engine, engine],
            iterations=2,
            population=8,
            seeds=[rng, rng],
        )
        assert results[0] is not results[1]

    def test_shared_cache_warms_repeated_sweep(self, tiny_plan_module):
        """The second search of a sweep reuses the first one's solutions."""
        a = make_engine(tiny_plan_module)
        b = make_engine(tiny_plan_module)
        cold = b.search(iterations=3, population=12, seed=6)
        swept = DseEngine.search_many(
            [a, b], iterations=3, population=12, seeds=[5, 6]
        )
        assert swept[1].cache_hits > 0
        assert swept[1].evaluations < cold.evaluations
        # Warm cache never changes what the search finds.
        assert swept[1].best_fitness == cold.best_fitness
        assert swept[1].best_config == cold.best_config

    def test_callers_cache_is_used_directly(self, tiny_plan_module):
        """The caller's cache is the store every case reads and writes:
        it ends up holding exactly the sweep's solves."""
        engines = [
            make_engine(tiny_plan_module, device=device)
            for device in ("Z7045", "ZU17EG")
        ]
        local = LocalEvalCache()
        swept = DseEngine.search_many(
            engines, iterations=2, population=8, seed=0, cache=local
        )
        assert len(local) == sum(r.evaluations for r in swept) > 0
        again = DseEngine.search_many(
            engines, iterations=2, population=8, seed=0, cache=local
        )
        assert all(r.evaluations == 0 for r in again)
        assert [r.best_config for r in again] == [r.best_config for r in swept]

    def test_seed_count_mismatch_rejected(self, tiny_plan_module):
        with pytest.raises(ValueError, match="seeds"):
            DseEngine.search_many(
                [make_engine(tiny_plan_module)], seeds=[1, 2]
            )

    def test_seed_fingerprints(self):
        assert seed_fingerprint(7) == ("int", 7)
        assert seed_fingerprint(7) == seed_fingerprint(7)
        assert seed_fingerprint(None) is None
        assert seed_fingerprint(random.Random(7)) is None
        assert seed_fingerprint(True) is None


#: result_to_dict keys that may differ between a sweep case and its solo
#: search in a warm process: host timings, and the accounting a shared
#: cache and warm tables change (``oracle_stats`` repeats ``evaluations``
#: and ``cache_hits``).
SWEEP_VARIANT_KEYS = HOST_TIME_KEYS | {
    "evaluations",
    "cache_hits",
    "stage_hits",
    "stage_lookups",
    "oracle_stats",
}


def sweep_invariant_fields(result) -> dict:
    record = result_to_dict(result)
    return {k: v for k, v in record.items() if k not in SWEEP_VARIANT_KEYS}


SWEEP_CASE = st.tuples(
    st.sampled_from(["Z7045", "ZU17EG", "ZU9CG"]),
    st.sampled_from([INT8, INT16]),
    st.sampled_from([0, 1]),
)


class TestSweepEqualsSolo:
    """Sharing a cache and deduplicating cases never changes a result."""

    @settings(max_examples=40, deadline=None)
    @given(
        cases=st.lists(SWEEP_CASE, min_size=2, max_size=4),
        backend=st.sampled_from(["none", "local"]),
    )
    def test_each_case_equals_its_solo_search(
        self, tiny_plan_module, cases, backend
    ):
        size = dict(iterations=2, population=8)
        cache = LocalEvalCache() if backend == "local" else None
        swept = DseEngine.search_many(
            [
                make_engine(tiny_plan_module, device, quant)
                for device, quant, _ in cases
            ],
            seeds=[seed for _, _, seed in cases],
            cache=cache,
            **size,
        )
        if cache is not None:
            assert len(cache) > 0
        for case, result in zip(cases, swept):
            device, quant, seed = case
            solo = make_engine(tiny_plan_module, device, quant).search(
                seed=seed, cache=LocalEvalCache(), **size
            )
            assert sweep_invariant_fields(result) == sweep_invariant_fields(solo)
            assert (
                result.evaluations + result.cache_hits
                == solo.evaluations + solo.cache_hits
            )
        for i, first in enumerate(cases):
            for j, second in enumerate(cases):
                assert (swept[i] is swept[j]) == (first == second)


class TestSharedLadders:
    """Tables of one branch problem share one Algorithm-2 ladder."""

    @staticmethod
    def ladders(spec):
        return [
            branch_table(spec, branch).ladder()
            for branch in range(spec.plan.num_branches)
        ]

    def test_budget_batch_and_priorities_share(self, tiny_plan_module):
        from repro.construction.reorg import build_pipeline_plan

        clear_process_caches()
        base = make_engine(tiny_plan_module).spec
        # An equal plan built anew, another device, batch sizes and
        # priorities: another spec digest, the same branch problems.
        other = EvalSpec(
            plan=build_pipeline_plan(make_tiny_decoder()),
            budget=get_device("ZU9CG").budget(),
            customization=Customization(
                batch_sizes=(2, 4), priorities=(0.5, 2.0)
            ),
            quant=INT8,
        )
        assert other.digest != base.digest
        shared = self.ladders(base)
        assert shared[0] is not shared[1]
        assert all(a is b for a, b in zip(shared, self.ladders(other)))

    @pytest.mark.parametrize(
        "change",
        [
            dict(quant=INT16),
            dict(frequency_mhz=150.0),
            dict(customization=Customization.uniform(2, max_h=1)),
            dict(customization=Customization.uniform(2, max_pf=8)),
        ],
    )
    def test_problem_changes_do_not_share(self, spec, change):
        clear_process_caches()
        other = dataclasses.replace(spec, **change)
        assert not {id(ladder) for ladder in self.ladders(spec)} & {
            id(ladder) for ladder in self.ladders(other)
        }

    def test_direct_tables_never_share(self, spec):
        clear_process_caches()
        pipeline = spec.plan.branches[0]
        direct = BranchEvalTable(pipeline, INT8).ladder()
        assert BranchEvalTable(pipeline, INT8).ladder() is not direct
        assert branch_table(spec, 0).ladder() is not direct

    def test_cleared_process_builds_a_fresh_ladder(self, spec):
        clear_process_caches()
        first = branch_table(spec, 0).ladder()
        clear_process_caches()
        assert branch_table(spec, 0).ladder() is not first

    def test_adoption_replays_the_build_on_the_table(self, tiny_plan_module):
        # An adopting table's stage memo and counters end as if it had
        # built the ladder itself, including memo hits for states its
        # scalar solves already evaluated.
        clear_process_caches()
        first = make_engine(tiny_plan_module).spec
        second = make_engine(tiny_plan_module, device="ZU17EG").spec
        rd = canonical_rd((40, 40, 40))
        for branch in range(first.plan.num_branches):
            branch_table(first, branch).ladder()
            adopting = branch_table(second, branch)
            building = BranchEvalTable(first.plan.branches[branch], INT8)
            for table in (adopting, building):
                optimize_branch(
                    table.pipeline, rd, 1, INT8, table=table
                )
                table.ladder()
            assert adopting.ladder() is branch_table(first, branch).ladder()
            assert adopting.stage_hits > 0
            assert (adopting.stage_hits, adopting.stage_lookups) == (
                building.stage_hits,
                building.stage_lookups,
            )
            assert adopting._stage_eval == building._stage_eval

    def test_shared_ladder_measures_each_design_once(self):
        """A ladder shared across a batch-size sweep measures each
        ``(batch, state)`` once, whatever the batch target: on the
        benchmark's 24-case grid (N=5, P=40, seed 1) 556 measurements
        serve 664 solutions."""
        from repro.dse import kernel, worker
        from repro.models.codec_avatar import build_codec_avatar_decoder

        network = build_codec_avatar_decoder()
        flows = []
        for batches in ((1, 1, 1), (2, 2, 2), (1, 2, 4)):
            flows += sweep_grid(
                networks=[network],
                devices=("Z7045", "ZU17EG", "ZU9CG", "KU115"),
                quants=("int8", "int16"),
                customization=Customization(
                    batch_sizes=batches, priorities=(1.0, 1.0, 1.0)
                ),
            )
        clear_process_caches()
        with mock.patch(
            "repro.dse.kernel.branch_perf", side_effect=kernel.branch_perf
        ) as measuring:
            run_sweep(flows, iterations=5, population=40, seed=1)
        ladders = list(worker._LADDERS.values())
        solutions = sum(len(ladder._solutions) for ladder in ladders)
        designs = {
            (id(ladder), batch, state)
            for ladder in ladders
            for batch, _, state in ladder._solutions
        }
        assert measuring.call_count == len(designs) < solutions

    def test_each_chain_state_is_evaluated_once_per_ladder(self):
        """Across a sweep, every stage state a ladder's chains hold is
        evaluated exactly once, and no design re-evaluates one: a
        design's perf aggregates its stages' chain records, and each
        search's best design is assembled from its solutions' perfs."""
        from collections import Counter

        from repro.dse import worker
        from repro.models.codec_avatar import build_codec_avatar_decoder
        from repro.perf import estimator

        flows = []
        for batches in ((1, 1, 1), (1, 2, 4)):
            flows += sweep_grid(
                networks=[build_codec_avatar_decoder()],
                devices=("Z7045", "ZU9CG"),
                quants=("int8", "int16"),
                customization=Customization(
                    batch_sizes=batches, priorities=(1.0, 1.0, 1.0)
                ),
            )
        evaluated: Counter = Counter()
        stage_resources = estimator.stage_resources

        def counting(stage, cfg, quant):
            evaluated[id(stage), cfg, quant.name] += 1
            return stage_resources(stage, cfg, quant)

        clear_process_caches()
        with mock.patch.object(estimator, "stage_resources", counting):
            run_sweep(flows, iterations=3, population=16, seed=0)
        ladders = list(worker._LADDERS.values())
        # One ladder per branch and quantization: devices and batch
        # sizes share them.
        assert len(ladders) == 6
        states = Counter(
            (id(stage), cfg, ladder.table.quant.name)
            for ladder in ladders
            for stage, chain in zip(ladder.table.stages, ladder.chains)
            for cfg in chain.configs
        )
        assert max(states.values()) == 1
        assert evaluated == states

    def test_solution_judges_the_batch_target_per_call(self, spec):
        """One measurement serves every batch target; only
        ``meets_batch_target`` reads the target."""
        from repro.dse import kernel

        clear_process_caches()
        ladder = branch_table(spec, 0).ladder()
        state = (0,) * len(ladder.chains)
        with mock.patch(
            "repro.dse.kernel.branch_perf", side_effect=kernel.branch_perf
        ) as measuring:
            met = ladder.solution(2, state, batch_target=1)
            missed = ladder.solution(2, state, batch_target=4)
        assert measuring.call_count == 1
        assert met.meets_batch_target and not missed.meets_batch_target
        assert missed.config is met.config and missed.perf is met.perf
        assert met.config.batch_size == 2
        assert ladder.solution(2, state, batch_target=1) is met


class TestSweepConstructsEachNetworkOnce:
    """``run_sweep`` analyzes and constructs each distinct network object
    once: every flow of a network shares its analysis and plan, flows of
    different networks do not, and each case still reports exactly what
    its cold solo run does, whether the cases run here or on a pool."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interleaved_networks(self, workers):
        from repro.fcad import flow as flow_module
        from repro.models.zoo import get_model

        networks = [get_model("tiny_yolo"), make_tiny_decoder()]
        flows = [
            FCad(network=network, device=get_device(device), quant=quant)
            for device in ("Z7045", "ZU9CG")
            for quant in ("int8", "int16")
            for network in networks
        ]
        size = dict(iterations=2, population=8, seed=0)
        clear_process_caches()
        with mock.patch.object(
            flow_module,
            "analyze_network",
            side_effect=flow_module.analyze_network,
        ) as analyzing, mock.patch.object(
            flow_module,
            "build_pipeline_plan",
            side_effect=flow_module.build_pipeline_plan,
        ) as constructing:
            swept = run_sweep(flows, workers=workers, **size)
        for calls in (analyzing.call_args_list, constructing.call_args_list):
            assert [id(call.args[0]) for call in calls] == list(map(id, networks))
        for one, flow_one in zip(swept, flows):
            for other, flow_other in zip(swept, flows):
                same = flow_one.network is flow_other.network
                assert (one.plan is other.plan) == same
                assert (one.analysis is other.analysis) == same
        for flow, result in zip(flows, swept):
            clear_process_caches()
            solo = flow.run(**size)
            assert record(result.dse) == record(solo.dse)
            assert result.plan == solo.plan
            assert result.analysis == solo.analysis


class TestSweepCaseEqualsColdSolo:
    """A sweep case sharing ladders with earlier cases reports exactly
    what its search reports alone in a fresh process: the design, and the
    accounting too (evaluations, cache hits, stage-memo hits and
    lookups), because adopting a ladder replays its build's memo
    traffic. Equal cases share one result, and only equal ones do; a
    case whose spec an earlier case searched at another seed hits that
    case's cache entries, so only its design is compared."""

    @settings(max_examples=30, deadline=None)
    @given(
        cases=st.lists(
            st.tuples(
                st.sampled_from(["Z7045", "ZU17EG", "ZU9CG"]),
                st.sampled_from([INT8, INT16]),
                st.sampled_from([(1, 1), (2, 2), (1, 2)]),
                st.sampled_from([0, 1]),
            ),
            min_size=2,
            max_size=5,
        ),
    )
    def test_each_case_equals_its_cold_solo_search(
        self, tiny_plan_module, cases
    ):
        size = dict(iterations=2, population=8)

        def engine(device, quant, batches):
            return DseEngine(
                plan=tiny_plan_module,
                budget=get_device(device).budget(),
                customization=Customization(
                    batch_sizes=batches, priorities=(1.0,) * len(batches)
                ),
                quant=quant,
            )

        def fields(result):
            record = result_to_dict(result)
            return {k: v for k, v in record.items() if k not in HOST_TIME_KEYS}

        clear_process_caches()
        swept = DseEngine.search_many(
            [engine(*case[:3]) for case in cases],
            seeds=[case[3] for case in cases],
            **size,
        )
        for case, result in zip(cases, swept):
            clear_process_caches()
            solo = engine(*case[:3]).search(
                seed=case[3], cache=LocalEvalCache(), **size
            )
            # A case on the same spec with the other seed ran first and
            # left cache entries this search hits: only the design holds.
            warmed = any(
                earlier[:3] == case[:3] and earlier != case
                for earlier in cases[: cases.index(case)]
            )
            compare = sweep_invariant_fields if warmed else fields
            assert compare(result) == compare(solo)
        for i, first in enumerate(cases):
            for j, second in enumerate(cases):
                assert (swept[i] is swept[j]) == (first == second)


class TestConcurrentSearches:
    """Searches on two threads of one process share its Algorithm-2
    tables, ladders and stage-memo counters; each still reports exactly
    what it reports alone from cold tables."""

    SIZE = dict(iterations=3, population=20, seed=0)
    DEVICES = ("Z7045", "ZU17EG", "ZU9CG", "KU115")

    @staticmethod
    def fields(result):
        record = result_to_dict(result)
        return {k: v for k, v in record.items() if k not in HOST_TIME_KEYS}

    @classmethod
    def divergence(cls, device: str, solo: dict, result) -> str:
        """What a threaded search got that its cold solo search did not
        (``""`` when they agree), naming the search and each field."""
        if isinstance(result, BaseException):
            trace = "".join(traceback.format_exception(result))
            return f"\n  the {device} search raised:\n{trace}"
        got = cls.fields(result)
        fields = sorted(
            key for key in solo.keys() | got.keys() if solo.get(key) != got.get(key)
        )
        return "".join(
            f"\n  the {device} search's {key!r}: solo {solo.get(key)!r:.300}, "
            f"threaded {got.get(key)!r:.300}"
            for key in fields
        )

    def test_threads_each_equal_a_cold_solo_search(self, tiny_plan_module):
        # More searching threads than CI cores, and frequent thread
        # switches, so unguarded table growth would interleave.
        engines = [make_engine(tiny_plan_module, device) for device in self.DEVICES]
        solo = []
        for engine in engines:
            clear_process_caches()
            solo.append(self.fields(engine.search(**self.SIZE)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(10):
                clear_process_caches()
                barrier = threading.Barrier(len(engines))
                results: list = [None] * len(engines)

                def search(index):
                    barrier.wait()
                    try:
                        results[index] = engines[index].search(**self.SIZE)
                    except Exception as error:  # surfaced by the assert below
                        results[index] = error

                threads = [
                    threading.Thread(
                        target=search, args=(index,), name=f"search-{device}"
                    )
                    for index, device in enumerate(self.DEVICES)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                alive = [thread.name for thread in threads if thread.is_alive()]
                assert not alive, f"round {round_}: still running after 60 s: {alive}"
                diverged = "".join(
                    self.divergence(device, expected, result)
                    for device, expected, result in zip(self.DEVICES, solo, results)
                )
                assert not diverged, (
                    f"round {round_}: threaded searches differ from their cold "
                    f"solo searches:{diverged}"
                )
        finally:
            sys.setswitchinterval(interval)

    def test_clearing_waits_for_a_running_search(self, tiny_plan_module):
        engine = make_engine(tiny_plan_module)
        cleared = threading.Event()
        with PROCESS_LOCK:
            thread = threading.Thread(
                target=lambda: (clear_process_caches(), cleared.set())
            )
            thread.start()
            assert not cleared.wait(0.05)
            # The lock is re-entrant: a search on the holding thread runs.
            engine.search(iterations=1, population=4, seed=0)
        thread.join(timeout=10)
        assert not thread.is_alive() and cleared.is_set()


def record(result) -> dict:
    """A search's whole record but its host timings."""
    return {
        k: v for k, v in result_to_dict(result).items() if k not in HOST_TIME_KEYS
    }


def sweep_entry_points():
    """Both sweep entry points, each over a Z7045 and a ZU9CG case."""
    from repro.construction.reorg import build_pipeline_plan

    graph = make_tiny_decoder()
    flows = sweep_grid(networks=[graph], devices=["Z7045", "ZU9CG"])
    engines = [
        make_engine(build_pipeline_plan(graph), device)
        for device in ("Z7045", "ZU9CG")
    ]
    size = dict(iterations=2, population=8)
    return {
        "search_many": lambda **kw: DseEngine.search_many(engines, **size, **kw),
        "run_sweep": lambda **kw: tuple(
            result.dse for result in run_sweep(flows, **size, **kw)
        ),
    }


SWEEP_ENTRY_POINTS = sweep_entry_points()


def lock_free_elsewhere() -> bool:
    """Whether a thread other than this one could take PROCESS_LOCK now."""
    taken = []

    def probe():
        if PROCESS_LOCK.acquire(blocking=False):
            PROCESS_LOCK.release()
            taken.append(True)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return bool(taken)


def record_pools(monkeypatch) -> list[dict]:
    """Log each process pool a sweep builds: its size, its start method,
    and whether another thread could take PROCESS_LOCK as it was built
    and as each task was submitted."""
    pools: list[dict] = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(
                {
                    "max_workers": max_workers,
                    "start_method": kwargs["mp_context"].get_start_method(),
                    "lock_free": [lock_free_elsewhere()],
                }
            )
            super().__init__(max_workers, **kwargs)

        def submit(self, *args, **kwargs):
            pools[-1]["lock_free"].append(lock_free_elsewhere())
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools


@pytest.mark.parametrize("entry", sorted(SWEEP_ENTRY_POINTS))
class TestSweepWorkers:
    """``workers`` is a count >= 1 at both sweep entry points, and a pooled
    sweep refuses what only a serial one can honour. One worker never
    builds a pool; more fork one, no larger than the sweep's spec count,
    under the process lock, and leave no process behind. A failing or
    dying worker fails the sweep."""

    @pytest.mark.parametrize(
        "workers", [0, -1, 2.5, float("nan"), True, "2"],
        ids=["0", "-1", "2.5", "nan", "True", "str"],
    )
    def test_rejects_a_non_count(self, entry, workers):
        with pytest.raises(ValueError, match="workers"):
            SWEEP_ENTRY_POINTS[entry](workers=workers)

    def test_numpy_count_runs_the_pool(self, entry):
        clear_process_caches()
        serial = SWEEP_ENTRY_POINTS[entry]()
        clear_process_caches()
        pooled = SWEEP_ENTRY_POINTS[entry](workers=np.int64(2))
        assert [record(r) for r in pooled] == [record(r) for r in serial]

    def test_pooled_sweep_rejects_a_cache(self, entry):
        with pytest.raises(ValueError, match="takes no cache"):
            SWEEP_ENTRY_POINTS[entry](workers=2, cache=LocalEvalCache())

    def test_pooled_sweep_rejects_live_rng_seeds(self, entry):
        with pytest.raises(ValueError, match="random.Random"):
            SWEEP_ENTRY_POINTS[entry](workers=2, seed=random.Random(0))

    @pytest.mark.parametrize("workers", [1, np.int64(1)], ids=["int", "numpy"])
    def test_one_worker_runs_in_this_process(self, entry, workers, monkeypatch):
        # The serial loop, the benchmark's timed path, builds no pool.
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker sweep built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert len(SWEEP_ENTRY_POINTS[entry](workers=workers)) == 2

    @pytest.mark.parametrize(
        "workers", [2, np.int64(3), 8], ids=["2", "numpy-3", "8"]
    )
    def test_pool_size_is_the_smaller_of_workers_and_specs(
        self, entry, workers, monkeypatch
    ):
        pools = record_pools(monkeypatch)
        SWEEP_ENTRY_POINTS[entry](workers=workers)
        assert [pool["max_workers"] for pool in pools] == [2]
        assert type(pools[0]["max_workers"]) is int

    def test_forks_its_pool_under_the_process_lock(self, entry, monkeypatch):
        pools = record_pools(monkeypatch)
        SWEEP_ENTRY_POINTS[entry](workers=2)
        assert [pool["start_method"] for pool in pools] == ["fork"]
        # Built, then one task per spec submitted, each under the lock.
        assert pools[0]["lock_free"] == [False, False, False]
        assert lock_free_elsewhere()

    def test_leaves_no_process_behind(self, entry):
        SWEEP_ENTRY_POINTS[entry](workers=2)
        assert not multiprocessing.active_children()

    def test_a_failing_case_raises_in_the_caller(self, entry, monkeypatch):
        def fail(case, cache):
            raise RuntimeError(f"no design for {case.engine.spec.digest[:8]}")

        monkeypatch.setattr(SweepCase, "run", fail)
        with pytest.raises(RuntimeError, match="no design for"):
            SWEEP_ENTRY_POINTS[entry](workers=2)
        assert not multiprocessing.active_children()

    def test_a_dead_worker_fails_the_sweep(self, entry, monkeypatch):
        monkeypatch.setattr(SweepCase, "run", lambda case, cache: os._exit(1))
        with pytest.raises(BrokenProcessPool):
            SWEEP_ENTRY_POINTS[entry](workers=2)
        assert not multiprocessing.active_children()


class TestPoolEqualsSerial:
    """A pooled sweep returns the serial sweep's records, accounting
    included, also for cases that share a spec and for every ``alpha``
    and re-rank oracle; equal cases share one result, and only equal
    ones do."""

    @staticmethod
    def sweep(plan, cases, workers, alpha=0.05, **options):
        return DseEngine.search_many(
            [make_engine(plan, device, quant, alpha) for device, quant, _ in cases],
            seeds=[seed for _, _, seed in cases],
            iterations=2,
            population=8,
            workers=workers,
            **options,
        )

    @settings(max_examples=15, deadline=None)
    @given(cases=st.lists(SWEEP_CASE, min_size=2, max_size=5))
    @example(
        # One spec at two seeds, another spec's case between them, and a
        # repeat: each worker's cache must hold its spec's cases only.
        cases=[
            ("ZU9CG", INT8, 0),
            ("Z7045", INT8, 0),
            ("ZU9CG", INT8, 1),
            ("ZU9CG", INT8, 0),
        ]
    )
    def test_records_equal_the_serial_sweep(self, tiny_plan_module, cases):
        clear_process_caches()
        serial = self.sweep(tiny_plan_module, cases, workers=1)
        clear_process_caches()
        pooled = self.sweep(tiny_plan_module, cases, workers=2)
        assert [record(r) for r in pooled] == [record(r) for r in serial]
        for i, first in enumerate(cases):
            for j, second in enumerate(cases):
                assert (pooled[i] is pooled[j]) == (first == second)

    def test_waits_for_a_thread_holding_the_process_lock(self, tiny_plan_module):
        # A process forked while another thread holds the lock would
        # inherit it held, and its search would never start.
        cases = [("Z7045", INT8, 0), ("ZU9CG", INT8, 0), ("Z7045", INT8, 1)]
        clear_process_caches()
        serial = self.sweep(tiny_plan_module, cases, workers=1)
        clear_process_caches()
        held, release = threading.Event(), threading.Event()

        def hold():
            with PROCESS_LOCK:
                held.set()
                release.wait(30)

        threading.Thread(target=hold, daemon=True).start()
        assert held.wait(10)
        pooled: list = []
        sweeper = threading.Thread(
            target=lambda: pooled.extend(
                self.sweep(tiny_plan_module, cases, workers=2)
            ),
            daemon=True,
        )
        sweeper.start()
        sweeper.join(0.2)
        assert sweeper.is_alive()
        release.set()
        sweeper.join(timeout=30)
        if sweeper.is_alive():
            for child in multiprocessing.active_children():
                child.terminate()
            pytest.fail("the pooled sweep did not return")
        assert [record(r) for r in pooled] == [record(r) for r in serial]

    def test_forks_at_most_one_process_per_spec(self, tiny_plan_module, monkeypatch):
        pools = record_pools(monkeypatch)
        cases = [("Z7045", INT8, 0), ("Z7045", INT8, 1), ("Z7045", INT8, 0)]
        pooled = self.sweep(tiny_plan_module, cases, workers=4)
        assert [pool["max_workers"] for pool in pools] == [1]
        assert pooled[0] is pooled[2]

    @pytest.mark.parametrize(
        "alpha, oracle",
        [(5.0, None), (0.5, "sim"), (0.05, "serving")],
        ids=["alpha", "alpha-sim", "serving"],
    )
    def test_alpha_and_oracle_reach_the_workers(
        self, tiny_plan_module, alpha, oracle
    ):
        # Each case carries its engine and resolved oracle, pickled to the
        # worker that runs it.
        cases = [("Z7045", INT8, 0), ("ZU9CG", INT8, 0), ("Z7045", INT8, 0)]
        options = dict(alpha=alpha, rerank_oracle=oracle, rerank_top_k=2)
        clear_process_caches()
        serial = self.sweep(tiny_plan_module, cases, workers=1, **options)
        clear_process_caches()
        pooled = self.sweep(tiny_plan_module, cases, workers=2, **options)
        assert [record(r) for r in pooled] == [record(r) for r in serial]
        assert pooled[0] is pooled[2]
        assert {r.objective for r in pooled} == {
            "slo(miss_weight=1000.0)"
            if oracle == "serving"
            else f"paper(alpha={alpha!r})"
        }
        if oracle is not None:
            assert all(r.rerank_invocations > 0 for r in pooled)


class TestSweepApi:
    def test_grid_times_out_cases(self):
        flows = sweep_grid(
            networks=[make_tiny_decoder()],
            devices=["Z7045", "ZU17EG"],
            quants=["int8", "int16"],
        )
        assert len(flows) == 4
        assert {f.quant.name for f in flows} == {"int8", "int16"}

    def test_grid_reads_one_shot_iterables_once(self):
        from repro.models.zoo import get_model

        networks = [get_model("tiny_yolo"), make_tiny_decoder()]
        devices, quants = ["Z7045", "ZU9CG"], ["int8", "int16"]

        def grid(flows):
            return [(id(f.network), f.budget, f.quant.name) for f in flows]

        from_lists = sweep_grid(networks, devices, quants)
        from_iterators = sweep_grid(iter(networks), iter(devices), iter(quants))
        assert len(from_lists) == 8
        assert grid(from_iterators) == grid(from_lists)

    def test_run_sweep_matches_individual_runs(self):
        graph = make_tiny_decoder()
        flows = sweep_grid(
            networks=[graph], devices=["Z7045", "ZU17EG"], quants=["int8"]
        )
        swept = run_sweep(flows, iterations=2, population=8, seed=0)
        assert len(swept) == 2
        solo = flows[0].run(iterations=2, population=8, seed=0)
        assert swept[0].dse.best_fitness == solo.dse.best_fitness
        assert swept[0].dse.best_config == solo.dse.best_config

    def test_run_sweep_reads_a_one_shot_iterable_once(self):
        flows = sweep_grid(
            networks=[make_tiny_decoder()], devices=["Z7045", "ZU9CG"]
        )
        size = dict(iterations=2, population=8, seed=0)
        clear_process_caches()
        listed = run_sweep(flows, **size)
        clear_process_caches()
        streamed = run_sweep(iter(flows), **size)
        assert [record(r.dse) for r in streamed] == [record(r.dse) for r in listed]

    def test_run_sweep_dedups_duplicate_flows(self):
        graph = make_tiny_decoder()
        flows = sweep_grid(
            networks=[graph], devices=["Z7045", "Z7045"], quants=["int8"]
        )
        swept = run_sweep(flows, iterations=2, population=8, seed=0)
        assert swept[0].dse is swept[1].dse

    def test_pooled_run_sweep_equals_serial_and_dedups(self):
        flows = sweep_grid(
            networks=[make_tiny_decoder()],
            devices=["Z7045", "ZU9CG", "Z7045"],
            quants=["int8"],
        )
        clear_process_caches()
        serial = run_sweep(flows, iterations=2, population=8, seed=0)
        clear_process_caches()
        pooled = run_sweep(flows, iterations=2, population=8, seed=0, workers=2)
        assert [record(r.dse) for r in pooled] == [record(r.dse) for r in serial]
        assert [(r.budget, r.quant.name) for r in pooled] == [
            (r.budget, r.quant.name) for r in serial
        ]
        assert pooled[0].dse is pooled[2].dse

    @pytest.mark.parametrize(
        "workers", [2, 0, True, 1.0, "1"], ids=["2", "0", "True", "1.0", "str"]
    )
    def test_flow_run_rejects_workers(self, workers):
        flow = FCad(
            network=make_tiny_decoder(), device=get_device("Z7045"), quant="int8"
        )
        with pytest.raises(ValueError, match="workers must be 1"):
            flow.run(iterations=2, population=8, workers=workers)

    def test_flow_run_takes_a_numpy_one(self):
        flow = FCad(
            network=make_tiny_decoder(), device=get_device("Z7045"), quant="int8"
        )
        flow.run(iterations=2, population=8, workers=np.int64(1))


class TestResultStats:
    def test_cache_hit_rate_surfaced(self, tiny_plan_module):
        result = make_engine(tiny_plan_module).search(
            iterations=3, population=10, seed=0
        )
        assert result.cache_lookups == result.evaluations + result.cache_hits
        assert 0.0 <= result.bucket_hit_rate <= 1.0
        assert 0.0 <= result.cache_hit_rate <= 1.0
        assert result.stage_lookups > 0
        assert "cache hits" in result.render()

    def test_phase_timings_surfaced(self, tiny_plan_module):
        result = make_engine(tiny_plan_module).search(
            iterations=3, population=10, seed=0
        )
        assert result.eval_seconds > 0
        assert result.cache_seconds > 0
        assert result.eval_seconds + result.cache_seconds <= (
            result.runtime_seconds + 1e-6
        )
