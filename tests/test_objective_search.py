"""Staged-search integration: bit-identity pins, objective-independent
caching, and the expensive re-rank track (sim / serving oracles)."""

from __future__ import annotations

import pytest

from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.dse.cache import LocalEvalCache
from repro.dse.engine import DseEngine
from repro.dse.objective import (
    PaperObjective,
    ServingOracle,
    SimOracle,
)
from repro.dse.space import Customization
from repro.quant.schemes import INT8
from repro.sim.runner import frame_latency_profile
from repro.serving.workload import replay_workload
from tests.conftest import make_tiny_decoder


@pytest.fixture(scope="module")
def tiny_plan():
    return build_pipeline_plan(make_tiny_decoder())


def make_engine(plan, **kwargs):
    return DseEngine(
        plan=plan,
        budget=get_device("Z7045").budget(),
        customization=Customization.uniform(plan.num_branches),
        quant=INT8,
        **kwargs,
    )


#: A small canned workload so the serving oracle stays test-sized.
TINY_ORACLE = ServingOracle(
    avatars=8, frames_per_avatar=8, replicas=1, sim_frames=3
)


class TestPaperBitIdentity:
    """objective="paper" + no re-rank must reproduce the historical search."""

    #: Pinned from the pre-objective-layer main at the same seed/config
    #: (Z7045, tiny decoder, uniform customization, INT8, 3 x 12, seed 7).
    PINNED_BEST_FITNESS = 2777777.777777778

    def test_pinned_serial_result(self, tiny_plan):
        result = make_engine(tiny_plan).search(
            iterations=3, population=12, seed=7
        )
        assert result.best_fitness == self.PINNED_BEST_FITNESS
        assert result.objective == "paper(alpha=0.05)"

    def test_explicit_paper_objective_matches_default(self, tiny_plan):
        default = make_engine(tiny_plan).search(
            iterations=2, population=8, seed=3
        )
        explicit = make_engine(tiny_plan).search(
            iterations=2, population=8, seed=3, objective=PaperObjective()
        )
        by_name = make_engine(tiny_plan, objective="paper").search(
            iterations=2, population=8, seed=3
        )
        assert default.best_fitness == explicit.best_fitness
        assert default.best_fitness == by_name.best_fitness
        assert default.history == explicit.history == by_name.history
        assert default.best_config == explicit.best_config == by_name.best_config

    def test_analytical_oracle_stats_reported(self, tiny_plan):
        result = make_engine(tiny_plan).search(
            iterations=2, population=8, seed=0
        )
        assert len(result.oracle_stats) == 1
        stats = result.oracle_stats[0]
        assert stats.name == "analytical"
        assert stats.invocations == result.evaluations
        assert stats.cache_hits == result.cache_hits
        assert result.best_metrics is not None
        assert result.best_metrics.oracle == "analytical"
        assert result.best_metrics.p99_ms is None


class TestObjectiveIndependentCache:
    """Cache entries are metrics, not scores: switching objectives keeps hits."""

    def test_warm_cache_zero_solves_after_objective_switch(self, tiny_plan):
        cache = LocalEvalCache()
        first = make_engine(tiny_plan).search(
            iterations=2, population=10, seed=0, cache=cache
        )
        assert first.evaluations > 0
        slo = make_engine(tiny_plan).search(
            iterations=2, population=10, seed=0, cache=cache,
            objective="slo",
        )
        composite = make_engine(tiny_plan).search(
            iterations=2, population=10, seed=0, cache=cache,
            objective="composite",
        )
        assert slo.evaluations == 0, "warm cache must absorb every solve"
        assert composite.evaluations == 0
        assert slo.cache_hits == first.evaluations + first.cache_hits

    def test_alpha_change_keeps_cache_warm(self, tiny_plan):
        cache = LocalEvalCache()
        first = make_engine(tiny_plan, alpha=0.05).search(
            iterations=2, population=10, seed=0, cache=cache
        )
        assert first.evaluations > 0
        second = make_engine(tiny_plan, alpha=5.0).search(
            iterations=2, population=10, seed=0, cache=cache
        )
        assert second.evaluations == 0

    def test_search_many_none_override_disables_engine_oracle(self, tiny_plan):
        # An explicit "none" override must beat an engine-level oracle —
        # and the result must match a plain engine's, since the dedup key
        # records no oracle for either case.
        staged = make_engine(
            tiny_plan, objective="slo", rerank_oracle=TINY_ORACLE
        )
        plain = make_engine(tiny_plan, objective="slo")
        results = DseEngine.search_many(
            [staged, plain],
            iterations=2,
            population=8,
            seed=0,
            rerank_oracle="none",
        )
        assert results[0] is results[1]
        assert [s.name for s in results[0].oracle_stats] == ["analytical"]

    def test_objective_affects_search_many_dedup(self, tiny_plan):
        paper = make_engine(tiny_plan)
        paper_too = make_engine(tiny_plan)
        slo = make_engine(tiny_plan, objective="slo")
        results = DseEngine.search_many(
            [paper, paper_too, slo], iterations=2, population=8, seed=0
        )
        assert results[0] is results[1], "identical cases share one result"
        assert results[2] is not results[0], (
            "a different objective is a different case"
        )
        assert results[2].objective.startswith("slo")


class TestStagedRerank:
    def test_serving_rerank_selects_by_slo(self, tiny_plan):
        result = make_engine(tiny_plan).search(
            iterations=2,
            population=8,
            seed=0,
            objective="slo",
            rerank_oracle=TINY_ORACLE,
            rerank_top_k=2,
        )
        names = [s.name for s in result.oracle_stats]
        assert names == ["analytical", "serving"]
        serving = result.oracle_stats[1]
        assert serving.invocations > 0
        assert serving.invocations <= 2 * 2  # top-K per generation, cached
        assert result.rerank_invocations == serving.invocations
        metrics = result.best_metrics
        assert metrics is not None and metrics.oracle == "serving"
        assert metrics.p99_ms is not None and metrics.p99_ms > 0
        assert metrics.deadline_miss_rate is not None
        # SLO fitness is -(p99 + w * miss): negative for any real replay.
        assert result.best_fitness == -(
            metrics.p99_ms + 1000.0 * metrics.deadline_miss_rate
        )

    def test_rerank_metrics_cached_across_searches(self, tiny_plan):
        cache = LocalEvalCache()
        engine = make_engine(tiny_plan)
        kwargs = dict(
            iterations=2, population=8, seed=0, objective="slo",
            rerank_oracle=TINY_ORACLE, rerank_top_k=2, cache=cache,
        )
        first = engine.search(**kwargs)
        second = engine.search(**kwargs)
        assert first.oracle_stats[1].invocations > 0
        assert second.oracle_stats[1].invocations == 0
        assert second.oracle_stats[1].cache_hits > 0
        assert second.best_fitness == first.best_fitness

    def test_sim_rerank_runs(self, tiny_plan):
        result = make_engine(tiny_plan).search(
            iterations=2,
            population=6,
            seed=0,
            rerank_oracle=SimOracle(frames=3, warmup=1),
            rerank_top_k=2,
        )
        assert [s.name for s in result.oracle_stats] == ["analytical", "sim"]
        assert result.oracle_stats[1].invocations > 0
        assert result.best_metrics is not None
        assert result.best_metrics.oracle == "sim"

    def test_deterministic_at_same_seed(self, tiny_plan):
        kwargs = dict(
            iterations=2, population=8, seed=4, objective="slo",
            rerank_oracle=TINY_ORACLE, rerank_top_k=2,
        )
        a = make_engine(tiny_plan).search(**kwargs)
        b = make_engine(tiny_plan).search(**kwargs)
        assert a.best_fitness == b.best_fitness
        assert a.best_config == b.best_config

    def test_slo_pick_at_least_matches_paper_pick_on_same_workload(
        self, tiny_plan
    ):
        """The acceptance check: re-ranked design serves the workload no
        worse than the paper-objective pick, replayed identically."""
        engine = make_engine(tiny_plan)
        paper_pick = engine.search(iterations=2, population=8, seed=0)
        slo_pick = engine.search(
            iterations=2,
            population=8,
            seed=0,
            objective="slo",
            rerank_oracle=TINY_ORACLE,
            rerank_top_k=3,
        )

        def replayed_slo_cost(config):
            profile = frame_latency_profile(
                plan=tiny_plan,
                config=config,
                quant=INT8,
                bandwidth_gbps=get_device("Z7045").budget().bandwidth_gbps,
                frequency_mhz=200.0,
                frames=TINY_ORACLE.sim_frames,
                warmup=1,
            )
            report = replay_workload(
                profile,
                workload=TINY_ORACLE.workload(),
                replicas=TINY_ORACLE.replicas,
                policy=TINY_ORACLE.policy,
                batch_window_ms=TINY_ORACLE.batch_window_ms,
            )
            return report.latency_p99_ms + 1000.0 * report.miss_rate

        assert replayed_slo_cost(slo_pick.best_config) <= replayed_slo_cost(
            paper_pick.best_config
        )

    def test_rerank_top_k_validated(self, tiny_plan):
        with pytest.raises(ValueError):
            make_engine(tiny_plan).search(
                iterations=1, population=4, rerank_oracle="sim",
                rerank_top_k=0,
            )
