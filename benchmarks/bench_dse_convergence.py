"""Benchmark: the Sec. VII search-speed study (10 searches, N=20, P=200).

The 10 seeds run as one batch with a shared evaluation cache across
searches — the reported statistics are identical to 10 isolated runs.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.convergence import run_convergence

from conftest import emit

RUN = partial(
    run_convergence,
    device_name="ZU9CG",
    quant_name="int8",
    searches=10,
    iterations=20,
    population=200,
)


def test_dse_convergence(benchmark):
    result = benchmark.pedantic(RUN, rounds=1, iterations=1)
    emit("Sec. VII DSE convergence", result.render())
    print(
        f"evaluations={result.total_evaluations}  "
        f"bucket hits={result.total_cache_hits}  "
        f"stage-memo hits={result.total_stage_hits}/"
        f"{result.total_stage_lookups}  "
        f"combined hit rate={100 * result.combined_hit_rate:.1f}%"
    )
    print(
        f"phases: eval {result.eval_seconds:.2f}s  cache "
        f"{result.cache_seconds:.2f}s"
    )

    iters = result.convergence_iterations
    # Every search converges well before the iteration cap ("all of them
    # converge in minutes"; paper average 9.2 of 20).
    assert max(iters) <= 20
    assert result.avg_iteration <= 15
    # Independent seeds agree on solution quality.
    assert result.fitness_spread_pct < 20.0
    # Minutes, not hours (the paper reports 57-102 s on an i7).
    assert result.avg_runtime_seconds < 120.0
    # The batched study shares its evaluation cache across seeds.
    assert result.total_cache_hits > 0
