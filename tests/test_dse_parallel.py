"""The DSE evaluation path: spec purity, generation dedup, batch sweeps."""

from __future__ import annotations

import dataclasses
import pickle
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.budget import ResourceBudget
from repro.devices.fpga import get_device
from repro.dse.cache import LocalEvalCache
from repro.dse.engine import DseEngine
from repro.dse.inbranch import BranchEvalTable, optimize_branch
from repro.dse.objective import (
    CompositeObjective,
    PaperObjective,
    SloObjective,
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
    evaluate_candidate,
    quantize_rd,
)
from repro.fcad.flow import FCad, run_sweep, sweep_grid
from repro.quant.schemes import INT8, INT16
from repro.utils.rng import seed_fingerprint
from tests.conftest import HOST_TIME_KEYS, make_tiny_decoder


def make_engine(plan, device="Z7045", quant=INT8):
    return DseEngine(
        plan=plan,
        budget=get_device(device).budget(),
        customization=Customization.uniform(plan.num_branches),
        quant=quant,
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
    def test_pure_and_cached(self, spec):
        cache = LocalEvalCache()
        position = [0.5, 0.5] * 3
        first = evaluate_candidate(spec, position, cache)
        second = evaluate_candidate(spec, position, cache)
        assert first.score == second.score
        assert first.solutions == second.solutions
        # First call misses per branch, second is served entirely from cache.
        assert first.evaluations == spec.plan.num_branches
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
        result = evaluate_candidate(spec, starved, LocalEvalCache())
        shortfall = sum(
            1 for s in result.solutions if not s.meets_batch_target
        )
        assert shortfall >= 1
        assert result.metrics.shortfall == shortfall
        raw = PaperObjective().score(
            result.metrics, spec.customization.priorities
        )
        assert result.score == raw - INFEASIBILITY_PENALTY * shortfall


class TestGenerationEvaluator:
    """Generation-level dedup, charging and timings."""

    def test_matches_per_candidate_evaluation(self, spec):
        positions = [[0.5, 0.5] * 3, [0.7, 0.3] * 3, [0.4, 0.6] * 3]
        batched = GenerationEvaluator(spec, LocalEvalCache())(positions)
        inline_cache = LocalEvalCache()
        inline = [
            evaluate_candidate(spec, pos, inline_cache) for pos in positions
        ]
        assert [r.score for r in batched] == [r.score for r in inline]
        assert [r.solutions for r in batched] == [r.solutions for r in inline]
        assert [r.evaluations for r in batched] == [
            r.evaluations for r in inline
        ]
        assert [r.cache_hits for r in batched] == [r.cache_hits for r in inline]

    def test_generation_dedup_charges_first_candidate(self, spec):
        position = [0.5, 0.5] * 3
        results = GenerationEvaluator(spec, LocalEvalCache())(
            [position, list(position), list(position)]
        )
        B = spec.plan.num_branches
        # One candidate pays for the unique buckets; clones ride the cache.
        assert results[0].evaluations == B
        assert results[1].evaluations == 0
        assert results[1].cache_hits == B
        assert results[2].cache_hits == B
        assert results[0].score == results[1].score == results[2].score

    def test_warm_cache_means_zero_evaluations(self, spec):
        cache = LocalEvalCache()
        evaluator = GenerationEvaluator(spec, cache)
        positions = [[0.5, 0.5] * 3, [0.7, 0.3] * 3]
        evaluator(positions)
        rerun = evaluator(positions)
        assert all(r.evaluations == 0 for r in rerun)
        assert all(r.cache_hits == spec.plan.num_branches for r in rerun)

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


MEMO_OBJECTIVES = {
    "paper": PaperObjective(),
    "slo": SloObjective(),
    "composite": CompositeObjective(
        ((PaperObjective(), 1.0), (SloObjective(miss_weight=10.0), 2.0))
    ),
}


def open_cache(backend, spec, positions):
    """A fresh cache, or one a previous evaluator already filled."""
    cache = LocalEvalCache()
    if backend == "warm local":
        GenerationEvaluator(spec, cache)(positions)
    return cache


class TestDesignMemo:
    """Each distinct design's metrics are built once per search; every
    candidate is still scored, exactly as before."""

    @settings(max_examples=40, deadline=None)
    @given(
        objective=st.sampled_from(sorted(MEMO_OBJECTIVES)),
        backend=st.sampled_from(["local", "warm local"]),
        search=generations(),
    )
    def test_memo_is_exact_and_builds_each_design_once(
        self, spec, objective, backend, search
    ):
        objective = MEMO_OBJECTIVES[objective]
        priorities = spec.customization.priorities
        cache = open_cache(
            backend,
            spec,
            [position for positions in search for position in positions],
        )
        evaluator = GenerationEvaluator(spec, cache, objective=objective)
        results = []
        with mock.patch(
            "repro.dse.worker.metrics_from_solutions",
            side_effect=metrics_from_solutions,
        ) as building, mock.patch(
            "repro.dse.worker.penalized_score",
            side_effect=penalized_score,
        ) as scoring:
            for positions in search:
                keys = [candidate_keys(spec, p) for p in positions]
                missing = {
                    key
                    for candidate in keys
                    for key in candidate
                    if cache.get(key) is None
                }
                out = evaluator(positions)
                for candidate, result in zip(keys, out):
                    # The solutions its own keys hold, not a memo entry's.
                    assert all(
                        solution is cache.get(key)
                        for solution, key in zip(result.solutions, candidate)
                    )
                    # The first candidate to reference a miss pays.
                    charged = missing.intersection(candidate)
                    missing -= charged
                    assert result.evaluations == len(charged)
                    assert result.cache_hits == len(candidate) - len(charged)
                    metrics = metrics_from_solutions(result.solutions)
                    assert result.metrics == metrics
                    assert result.score == penalized_score(
                        objective, metrics, priorities
                    )
                results += out
        # ``results`` keeps every solution alive, so no id is reused.
        designs = {tuple(map(id, result.solutions)) for result in results}
        assert building.call_count == len(designs)
        assert scoring.call_count == len(results)

    def test_memo_lives_for_one_search(self, spec):
        cache = LocalEvalCache()
        positions = [[0.5, 0.5] * 3, [0.7, 0.3] * 3, [0.5, 0.5] * 3]
        with mock.patch(
            "repro.dse.worker.metrics_from_solutions",
            side_effect=metrics_from_solutions,
        ) as building:
            evaluator = GenerationEvaluator(spec, cache)
            first = evaluator(positions)
            assert first[0].metrics is first[2].metrics
            again = evaluator(positions[::-1])
            assert building.call_count == 2
            assert [r.score for r in again] == [r.score for r in first[::-1]]
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

    def test_rejects_workers(self, tiny_plan_module):
        with pytest.raises(ValueError, match="workers must be 1"):
            DseEngine.search_many(
                [make_engine(tiny_plan_module)],
                iterations=2,
                population=8,
                workers=2,
            )

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
            "repro.dse.kernel.evaluate_branch",
            side_effect=kernel.evaluate_branch,
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

    def test_solution_judges_the_batch_target_per_call(self, spec):
        """One measurement serves every batch target; only
        ``meets_batch_target`` reads the target."""
        from repro.dse import kernel

        clear_process_caches()
        ladder = branch_table(spec, 0).ladder()
        state = (0,) * len(ladder.chains)
        with mock.patch(
            "repro.dse.kernel.evaluate_branch",
            side_effect=kernel.evaluate_branch,
        ) as measuring:
            met = ladder.solution(2, state, batch_target=1)
            missed = ladder.solution(2, state, batch_target=4)
        assert measuring.call_count == 1
        assert met.meets_batch_target and not missed.meets_batch_target
        assert missed.config is met.config and missed.perf is met.perf
        assert met.config.batch_size == 2
        assert ladder.solution(2, state, batch_target=1) is met


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

    @staticmethod
    def fields(result):
        record = result_to_dict(result)
        return {k: v for k, v in record.items() if k not in HOST_TIME_KEYS}

    def test_threads_each_equal_a_cold_solo_search(self, tiny_plan_module):
        # More searching threads than CI cores, and frequent thread
        # switches, so unguarded table growth would interleave.
        engines = [
            make_engine(tiny_plan_module, device)
            for device in ("Z7045", "ZU17EG", "ZU9CG", "KU115")
        ]
        solo = []
        for engine in engines:
            clear_process_caches()
            solo.append(self.fields(engine.search(**self.SIZE)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):
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
                    threading.Thread(target=search, args=(index,))
                    for index in range(len(engines))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert [self.fields(result) for result in results] == solo
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


class TestSweepApi:
    def test_grid_times_out_cases(self):
        flows = sweep_grid(
            networks=[make_tiny_decoder()],
            devices=["Z7045", "ZU17EG"],
            quants=["int8", "int16"],
        )
        assert len(flows) == 4
        assert {f.quant.name for f in flows} == {"int8", "int16"}

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

    def test_run_sweep_dedups_duplicate_flows(self):
        graph = make_tiny_decoder()
        flows = sweep_grid(
            networks=[graph], devices=["Z7045", "Z7045"], quants=["int8"]
        )
        swept = run_sweep(flows, iterations=2, population=8, seed=0)
        assert swept[0].dse is swept[1].dse

    def test_run_sweep_rejects_workers(self):
        flows = sweep_grid(
            networks=[make_tiny_decoder()], devices=["Z7045"], quants=["int8"]
        )
        with pytest.raises(ValueError, match="workers must be 1"):
            run_sweep(flows, iterations=2, population=8, workers=2)

    def test_flow_run_rejects_workers(self):
        flow = FCad(
            network=make_tiny_decoder(), device=get_device("Z7045"), quant="int8"
        )
        with pytest.raises(ValueError, match="workers must be 1"):
            flow.run(iterations=2, population=8, workers=2)

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
