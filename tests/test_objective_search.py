"""Staged-search integration: bit-identity pins, objective-independent
caching, and the expensive re-rank track (sim / serving oracles), whose
oracle chooses the score."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import AcceleratorConfig, BranchConfig, StageConfig
from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.dse.cache import LocalEvalCache
from repro.dse.engine import DseEngine, plan_sweep
from repro.dse.objective import (
    BranchMetrics,
    OracleStats,
    PaperObjective,
    ServingOracle,
    SimOracle,
    penalized_score,
)
from repro.dse.space import Customization
from repro.models import build_codec_avatar_decoder
from repro.quant.schemes import INT8
from repro.sim.runner import frame_latency_profile, simulate
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
#: The two re-rank oracles, test-sized.
TINY_SIM = SimOracle(frames=3, warmup=1)
ORACLES = {"sim": TINY_SIM, "serving": TINY_ORACLE}


class TestPaperBitIdentity:
    """A search without a re-rank must reproduce the historical search."""

    #: Pinned from the pre-objective-layer main at the same seed/config
    #: (Z7045, tiny decoder, uniform customization, INT8, 3 x 12, seed 7).
    PINNED_BEST_FITNESS = 2777777.777777778

    def test_pinned_serial_result(self, tiny_plan):
        result = make_engine(tiny_plan).search(
            iterations=3, population=12, seed=7
        )
        assert result.best_fitness == self.PINNED_BEST_FITNESS
        assert result.objective == "paper(alpha=0.05)"

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 5.0])
    def test_engine_alpha_is_the_score(self, tiny_plan, alpha):
        result = make_engine(tiny_plan, alpha=alpha).search(
            iterations=2, population=8, seed=3
        )
        assert result.objective == f"paper(alpha={alpha!r})"
        priorities = Customization.uniform(tiny_plan.num_branches).priorities
        assert result.best_fitness == penalized_score(
            PaperObjective(alpha=alpha), result.best_metrics, priorities
        )

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
    """Cache entries are metrics, not scores: changing ``alpha`` or adding
    a re-rank keeps stage 1's hits."""

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_warm_cache_zero_solves_under_a_rerank(self, tiny_plan, oracle):
        cache = LocalEvalCache()
        first = make_engine(tiny_plan).search(
            iterations=2, population=10, seed=0, cache=cache
        )
        assert first.evaluations > 0
        reranked = make_engine(tiny_plan).search(
            iterations=2, population=10, seed=0, cache=cache,
            rerank_oracle=ORACLES[oracle], rerank_top_k=2,
        )
        assert reranked.evaluations == 0, "warm cache must absorb every solve"
        assert reranked.cache_hits == first.evaluations + first.cache_hits
        assert reranked.history == first.history

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

    def test_alpha_and_oracle_affect_search_many_dedup(self, tiny_plan):
        # The spec digest excludes alpha, so the planned key must carry
        # it, as the result's objective names it: 0 and 0.0 differ.
        keys = []
        for alpha, oracle in (
            (0.05, None),
            (5.0, None),
            (0, None),
            (0.0, None),
            (0.05, TINY_SIM),
            (0.05, TINY_ORACLE),
        ):
            cases, placement = plan_sweep(
                [make_engine(tiny_plan, alpha=alpha) for _ in range(2)],
                iterations=2,
                population=8,
                rerank_oracle=oracle,
            )
            assert placement == [0, 0], "identical cases share one search"
            keys.append(cases[0].key())
        assert len(set(keys)) == len(keys), (
            "a different alpha or oracle is a different case"
        )


class TestStagedRerank:
    def test_serving_rerank_selects_by_slo(self, tiny_plan):
        result = make_engine(tiny_plan).search(
            iterations=2,
            population=8,
            seed=0,
            rerank_oracle=TINY_ORACLE,
            rerank_top_k=2,
        )
        names = [s.name for s in result.oracle_stats]
        assert names == ["analytical", "serving"]
        serving = result.oracle_stats[1]
        assert serving.invocations > 0
        assert serving.invocations <= 2 * 2  # top-K per generation, cached
        assert result.rerank_invocations == serving.invocations
        assert result.objective == "slo(miss_weight=1000.0)"
        metrics = result.best_metrics
        assert metrics is not None and metrics.oracle == "serving"
        assert metrics.p99_ms is not None and metrics.p99_ms > 0
        assert metrics.deadline_miss_rate is not None
        # SLO fitness is -(p99 + w * miss): negative for any real replay.
        assert result.best_fitness == -(
            metrics.p99_ms + 1000.0 * metrics.deadline_miss_rate
        )

    def test_pinned_serving_rerank(self, tiny_plan):
        """A serving re-rank replays each finalist through
        ``ServingOracle.replay``; this search must not move by a bit when
        the replay's front door does."""
        result = make_engine(tiny_plan).search(
            iterations=3, population=12, seed=7, rerank_oracle=TINY_ORACLE
        )
        assert result.best_fitness == -2.002016774193553
        assert result.best_config == AcceleratorConfig(
            branches=(
                BranchConfig(
                    batch_size=1,
                    stages=(
                        StageConfig(cpf=8, kpf=16, h=2),
                        StageConfig(cpf=16, kpf=8, h=8),
                        StageConfig(cpf=8, kpf=3, h=16),
                    ),
                ),
                BranchConfig(
                    batch_size=1, stages=(StageConfig(cpf=16, kpf=2, h=4),)
                ),
            )
        )
        assert result.best_metrics == BranchMetrics(
            fps=(1388888.888888889, 1388888.888888889),
            meets_batch=(True, True),
            oracle="serving",
            p99_ms=2.002016774193553,
            deadline_miss_rate=0.0,
            throughput_fps=239.5181262028482,
            shed_rate=None,
            failed_rate=None,
        )
        assert result.oracle_stats == (
            OracleStats(name="analytical", invocations=68, cache_hits=4),
            OracleStats(name="serving", invocations=3, cache_hits=9),
        )

    def test_sim_rerank_runs(self, tiny_plan):
        engine = make_engine(tiny_plan, alpha=0.5)
        result = engine.search(
            iterations=2, population=6, seed=0, rerank_oracle=TINY_SIM,
            rerank_top_k=2,
        )
        assert [s.name for s in result.oracle_stats] == ["analytical", "sim"]
        assert result.oracle_stats[1].invocations > 0
        assert result.objective == "paper(alpha=0.5)"
        metrics = result.best_metrics
        assert metrics is not None and metrics.oracle == "sim"
        assert metrics.p99_ms is None
        assert result.best_fitness == penalized_score(
            PaperObjective(alpha=0.5), metrics, engine.customization.priorities
        )

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_rerank_metrics_cached_across_searches(self, tiny_plan, oracle):
        cache = LocalEvalCache()
        engine = make_engine(tiny_plan)
        kwargs = dict(
            iterations=2, population=8, seed=0,
            rerank_oracle=ORACLES[oracle], rerank_top_k=2, cache=cache,
        )
        first = engine.search(**kwargs)
        second = engine.search(**kwargs)
        assert first.oracle_stats[1].invocations > 0
        assert second.oracle_stats[1].invocations == 0
        assert second.oracle_stats[1].cache_hits > 0
        assert second.best_fitness == first.best_fitness

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_deterministic_at_same_seed(self, tiny_plan, oracle):
        kwargs = dict(
            iterations=2, population=8, seed=4,
            rerank_oracle=ORACLES[oracle], rerank_top_k=2,
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
            report = TINY_ORACLE.replay(profile)
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


def remeasure(engine, config, oracle):
    """What ``oracle`` measures for ``config`` afresh, outside a search:
    branch FPS for the sim oracle, (p99, miss rate, throughput) for the
    serving one."""
    design = dict(
        plan=engine.plan,
        config=config,
        quant=engine.quant,
        bandwidth_gbps=engine.budget.bandwidth_gbps,
        frequency_mhz=engine.frequency_mhz,
    )
    if isinstance(oracle, SimOracle):
        return simulate(
            **design, frames=oracle.frames, warmup=oracle.warmup
        ).branch_fps
    profile = frame_latency_profile(
        **design, frames=oracle.sim_frames, warmup=1
    )
    report = oracle.replay(profile)
    return report.latency_p99_ms, report.miss_rate, report.throughput_fps


class TestRerankedMetricsReproduce:
    """A re-ranked search's ``best_metrics`` equals a fresh measurement
    of its ``best_config``: the design-keyed re-rank cache hands out the
    chosen design's own metrics, so they can be reproduced from the
    design alone. Searches at two seeds share one cache, so the second
    is handed metrics the first measured."""

    @staticmethod
    def check(engine, oracle, seeds, **sizes):
        cache = LocalEvalCache()
        for seed in seeds:
            result = engine.search(
                **sizes, seed=seed, cache=cache, rerank_oracle=oracle
            )
            metrics = result.best_metrics
            assert metrics.oracle == oracle.name
            if isinstance(oracle, SimOracle):
                handed_out = metrics.fps
            else:
                handed_out = (
                    metrics.p99_ms, metrics.deadline_miss_rate,
                    metrics.throughput_fps,
                )
            assert handed_out == remeasure(engine, result.best_config, oracle)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        device=st.sampled_from(["Z7045", "ZU17EG", "ZU9CG", "KU115"]),
        oracle=st.sampled_from(sorted(ORACLES)),
        seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=2),
        iterations=st.integers(1, 3),
        population=st.integers(1, 12),
        top_k=st.integers(1, 3),
    )
    def test_tiny_decoder(
        self, tiny_plan, device, oracle, seeds, iterations, population, top_k
    ):
        engine = DseEngine(
            plan=tiny_plan,
            budget=get_device(device).budget(),
            customization=Customization.uniform(tiny_plan.num_branches),
            quant=INT8,
        )
        self.check(
            engine, ORACLES[oracle], seeds, iterations=iterations,
            population=population, rerank_top_k=top_k,
        )

    def test_codec_avatar_decoder_on_zu9cg(self):
        plan = build_pipeline_plan(build_codec_avatar_decoder())
        engine = DseEngine(
            plan=plan,
            budget=get_device("ZU9CG").budget(),
            customization=Customization.uniform(plan.num_branches),
            quant=INT8,
        )
        self.check(
            engine, TINY_ORACLE, (0, 1), iterations=2, population=8,
            rerank_top_k=2,
        )
