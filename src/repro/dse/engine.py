"""The DSE engine facade (paper Fig. 4, Optimization step).

:meth:`DseEngine.search` runs Algorithm 1 once;
:meth:`DseEngine.search_many` batches whole sweeps — a decoder family, a
device grid, a seed study — in this process or on a pool of forked
worker processes. Both run the plan :func:`plan_sweep` makes: identical
cases deduplicated outright, the distinct ones as :class:`SweepCase`
searches. Cache entries are per spec; cases with the same network,
quantization and frequency share Algorithm-2 ladders.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.construction.reorg import PipelinePlan
from repro.devices.budget import ResourceBudget
from repro.dse.cache import LocalEvalCache
from repro.dse.crossbranch import CrossBranchOptimizer
from repro.dse.objective import (
    MetricsOracle,
    Objective,
    OracleStats,
    resolve_objective,
    resolve_oracle,
)
from repro.dse.result import DseResult
from repro.dse.space import Customization
from repro.dse.worker import EvalSpec
from repro.perf.estimator import evaluate
from repro.quant.schemes import QuantScheme
from repro.utils.checks import check_finite, is_count
from repro.utils.rng import seed_fingerprint


class DseEngine:
    """Two-step DSE: cross-branch stochastic + in-branch greedy search.

    ``alpha`` is the variance-penalty weight an objective given by name
    (or left to the paper default) is built with, a finite number >= 0
    checked here; what fitness a search
    maximizes, and whether an expensive oracle re-ranks the analytical
    top-K per generation, is chosen per search (see
    :mod:`repro.dse.objective`).
    """

    def __init__(
        self,
        plan: PipelinePlan,
        budget: ResourceBudget,
        customization: Customization | None = None,
        quant: QuantScheme | None = None,
        frequency_mhz: float = 200.0,
        alpha: float = 0.05,
    ) -> None:
        if quant is None:
            raise ValueError("a quantization scheme is required")
        check_finite("alpha", alpha, minimum=0.0)
        if customization is None:
            customization = Customization.uniform(plan.num_branches)
        self.plan = plan
        self.budget = budget
        self.customization = customization
        self.quant = quant
        self.frequency_mhz = frequency_mhz
        self.alpha = alpha

    @property
    def spec(self) -> EvalSpec:
        """The frozen evaluation problem this engine searches.

        Objective-free by design: the digest namespaces cache entries,
        and cached Algorithm-2 solutions are valid under every objective.
        """
        return EvalSpec(
            plan=self.plan,
            budget=self.budget,
            customization=self.customization,
            quant=self.quant,
            frequency_mhz=self.frequency_mhz,
        )

    def search(
        self,
        iterations: int = 20,
        population: int = 200,
        seed: int | random.Random | None = 0,
        heuristic_seed: bool = True,
        cache: LocalEvalCache | None = None,
        objective: Objective | str | None = None,
        rerank_oracle: MetricsOracle | str | None = None,
        rerank_top_k: int = 4,
    ) -> DseResult:
        """Run Algorithm 1 (which invokes Algorithm 2 per candidate).

        The paper's default search size is N = 20 iterations over a
        population of P = 200 resource distributions. ``cache`` lets
        several searches share one evaluation cache (see
        :meth:`search_many`).

        ``objective`` (an instance or a name built with this engine's
        ``alpha``) is the fitness the search maximizes; ``rerank_oracle``
        re-measures each generation's analytical top-``rerank_top_k``.
        With the default paper objective and no re-rank oracle the result
        is bit-identical to the historical search at the same seed.
        """
        resolved = resolve_objective(objective, alpha=self.alpha)
        oracle = resolve_oracle(rerank_oracle)
        optimizer = CrossBranchOptimizer(
            plan=self.plan,
            budget=self.budget,
            customization=self.customization,
            quant=self.quant,
            frequency_mhz=self.frequency_mhz,
            cache=cache,
            objective=resolved,
            rerank_oracle=oracle,
            rerank_top_k=rerank_top_k,
        )
        started = time.perf_counter()
        fitness, config, history, convergence = optimizer.search(
            iterations=iterations,
            population=population,
            seed=seed,
            heuristic_seed=heuristic_seed,
        )
        runtime = time.perf_counter() - started
        perf = evaluate(self.plan, config, self.quant, self.frequency_mhz)
        timings = optimizer.eval_timings
        oracle_stats = [
            OracleStats(
                name="analytical",
                invocations=optimizer.evaluations,
                cache_hits=optimizer.cache_hits,
            )
        ]
        if oracle is not None:
            oracle_stats.append(
                OracleStats(
                    name=oracle.name,
                    invocations=optimizer.oracle_invocations,
                    cache_hits=optimizer.oracle_cache_hits,
                )
            )
        return DseResult(
            best_config=config,
            best_perf=perf,
            best_fitness=fitness,
            history=tuple(history),
            convergence_iteration=convergence,
            runtime_seconds=runtime,
            evaluations=optimizer.evaluations,
            cache_hits=optimizer.cache_hits,
            stage_hits=optimizer.stage_hits,
            stage_lookups=optimizer.stage_lookups,
            eval_seconds=timings.eval_seconds,
            cache_seconds=timings.cache_seconds,
            ladder_seconds=timings.ladder_seconds,
            growth_seconds=timings.growth_seconds,
            measure_seconds=timings.measure_seconds,
            objective=resolved.key,
            oracle_stats=tuple(oracle_stats),
            best_metrics=optimizer.best_metrics,
        )

    @staticmethod
    def search_many(
        engines: Sequence["DseEngine"],
        iterations: int = 20,
        population: int = 200,
        seed: int | random.Random | None = 0,
        seeds: Sequence[int | random.Random | None] | None = None,
        heuristic_seed: bool = True,
        workers: int = 1,
        cache: LocalEvalCache | None = None,
        objective: Objective | str | None = None,
        rerank_oracle: MetricsOracle | str | None = None,
        rerank_top_k: int = 4,
    ) -> tuple[DseResult, ...]:
        """Run a batch of searches with shared caching and deduplication.

        All searches draw from one evaluation cache. Its keys carry the
        spec digest, so only cases with the same spec (several seeds on
        one device) reuse each other's in-branch solutions. Cases with the
        same plan, quantization, frequency and parallelism caps (the same
        decoder on several devices or batch sizes) share the process's
        Algorithm-2 ladders instead, which leaves every result and its
        accounting as in a solo search. Cases that :func:`plan_sweep`
        finds identical are solved once and share the same
        :class:`DseResult` object; the distinct ones run in order of first
        appearance.

        ``objective`` / ``rerank_oracle`` / ``rerank_top_k`` apply to every
        case; a named objective is built with each engine's ``alpha``.

        ``seeds`` gives each case its own seed (e.g. a convergence study);
        by default every case uses ``seed``, which is what makes duplicate
        grid cases dedupable. Results are returned in input order.

        ``workers`` (an integer >= 1) is how many processes run the
        distinct cases. With 1, the default, they run one after another
        in this process against ``cache``, the caller's (possibly warm)
        :class:`~repro.dse.cache.LocalEvalCache`, used as-is; the default
        is a fresh one. With more, they run on a pool of forked
        processes, one task per spec, and every record equals the serial
        sweep's but for host timings, accounting included. A pooled sweep
        takes no ``cache``, since each task solves against its own, and
        no ``random.Random`` seed, whose state the cases of a serial sweep
        advance in turn.
        """
        if not is_count(workers):
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        workers = int(workers)
        if workers > 1:
            if cache is not None:
                raise ValueError(
                    "a pooled sweep (workers > 1) takes no cache: each task "
                    "solves against its own, so the caller's would stay empty"
                )
            if any(
                isinstance(case_seed, random.Random)
                for case_seed in (seeds if seeds is not None else [seed])
            ):
                raise ValueError(
                    "a pooled sweep (workers > 1) needs integer (or None) "
                    "seeds: a live random.Random carries state that the "
                    "cases of a serial sweep advance in turn"
                )
        cases, placement = plan_sweep(
            engines,
            iterations=iterations,
            population=population,
            seed=seed,
            seeds=seeds,
            heuristic_seed=heuristic_seed,
            objective=objective,
            rerank_oracle=rerank_oracle,
            rerank_top_k=rerank_top_k,
        )
        if workers > 1:
            solved = _run_pooled(cases, workers)
        else:
            solved = _run_cases(cases, cache)
        return tuple(solved[index] for index in placement)


@dataclass(frozen=True)
class SweepCase:
    """One search of a sweep: a pure function of its fields, picklable.

    ``objective`` / ``rerank_oracle`` are *resolved* instances, so the
    case runs exactly the configuration its :meth:`key` names. A pooled
    sweep pickles each case to a worker process.
    """

    engine: DseEngine
    iterations: int
    population: int
    seed: int | random.Random | None
    heuristic_seed: bool
    objective: Objective
    rerank_oracle: MetricsOracle | None
    rerank_top_k: int

    def key(self) -> tuple:
        """What the case's result depends on, given an integer seed.

        The objective is part of it because the spec digest deliberately
        excludes it. :func:`plan_sweep` deduplicates cases by it.
        """
        return (
            self.engine.spec.digest,
            self.iterations,
            self.population,
            seed_fingerprint(self.seed),
            self.heuristic_seed,
            self.objective.key,
            self.rerank_oracle.key if self.rerank_oracle is not None else None,
            self.rerank_top_k if self.rerank_oracle is not None else None,
        )

    def run(self, cache: LocalEvalCache) -> DseResult:
        return self.engine.search(
            iterations=self.iterations,
            population=self.population,
            seed=self.seed,
            heuristic_seed=self.heuristic_seed,
            cache=cache,
            objective=self.objective,
            rerank_oracle=self.rerank_oracle,
            rerank_top_k=self.rerank_top_k,
        )


def plan_sweep(
    engines: Sequence[DseEngine],
    iterations: int = 20,
    population: int = 200,
    seed: int | random.Random | None = 0,
    seeds: Sequence[int | random.Random | None] | None = None,
    heuristic_seed: bool = True,
    objective: Objective | str | None = None,
    rerank_oracle: MetricsOracle | str | None = None,
    rerank_top_k: int = 4,
) -> tuple[list[SweepCase], list[int]]:
    """The distinct searches of a sweep, and which one answers each engine.

    Returns the distinct cases in order of first appearance and, per
    engine, the index of its case. Each engine's case resolves
    ``objective`` with that engine's ``alpha``. Cases with an integer
    seed and equal :meth:`SweepCase.key` are one case; a ``None`` seed
    (fresh entropy) or a live ``random.Random`` never shares one.
    """
    engines = list(engines)
    if seeds is None:
        seeds = [seed] * len(engines)
    elif len(seeds) != len(engines):
        raise ValueError(f"got {len(seeds)} seeds for {len(engines)} engines")
    oracle = resolve_oracle(rerank_oracle)
    cases: list[SweepCase] = []
    index: dict[object, int] = {}
    placement: list[int] = []
    for engine, case_seed in zip(engines, seeds):
        case = SweepCase(
            engine=engine,
            iterations=iterations,
            population=population,
            seed=case_seed,
            heuristic_seed=heuristic_seed,
            objective=resolve_objective(objective, alpha=engine.alpha),
            rerank_oracle=oracle,
            rerank_top_k=rerank_top_k,
        )
        # Without an integer seed the key is an object equal to no other.
        key = case.key() if seed_fingerprint(case_seed) is not None else object()
        shard = index.setdefault(key, len(cases))
        if shard == len(cases):
            cases.append(case)
        placement.append(shard)
    return cases, placement


def _run_cases(
    cases: Sequence[SweepCase], cache: LocalEvalCache | None = None
) -> list[DseResult]:
    """Run cases in plan order against one cache (a fresh one by default)."""
    if cache is None:
        cache = LocalEvalCache()
    return [case.run(cache) for case in cases]


def _run_pooled(cases: Sequence[SweepCase], workers: int) -> list[DseResult]:
    """Run a sweep's distinct cases on up to ``workers`` forked processes.

    The cases are grouped by spec digest in order of first appearance,
    and each group is one task that runs its cases in plan order against
    one fresh cache. Cache entries and Algorithm-2 tables are per spec,
    and a forked process starts with this process's tables, so each case
    sees the state it sees in a serial sweep and reports the same record,
    accounting included. Results come back in case order.

    The pool is created and used under
    :data:`~repro.dse.worker.PROCESS_LOCK`: a process forked while
    another thread held the lock would inherit it held, and its searches
    would never start. A worker that dies fails the sweep with
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.dse.worker import PROCESS_LOCK

    if not cases:
        return []
    groups: dict[str, list[int]] = {}
    for index, case in enumerate(cases):
        groups.setdefault(case.engine.spec.digest, []).append(index)
    solved: dict[int, DseResult] = {}
    with PROCESS_LOCK, ProcessPoolExecutor(
        max_workers=min(workers, len(groups)),
        mp_context=multiprocessing.get_context("fork"),
    ) as pool:
        tasks = [
            (members, pool.submit(_run_cases, [cases[i] for i in members]))
            for members in groups.values()
        ]
        for members, task in tasks:
            solved.update(zip(members, task.result()))
    return [solved[index] for index in range(len(cases))]
