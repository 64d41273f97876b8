"""The DSE engine facade (paper Fig. 4, Optimization step).

:meth:`DseEngine.search` runs Algorithm 1 once;
:meth:`DseEngine.search_many` batches whole sweeps — a decoder family, a
device grid, a seed study — in one process, with identical cases
deduplicated outright. Cache entries are per spec; cases with the same
network, quantization and frequency share Algorithm-2 ladders.
"""

from __future__ import annotations

import random
import time
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
from repro.utils.rng import seed_fingerprint


def require_one_worker(workers: int) -> None:
    """Reject ``workers != 1``: every search runs in one process. The
    parameter remains only so callers passing ``workers=1`` keep working."""
    if workers != 1:
        raise ValueError(
            f"workers must be 1, got {workers}: every search runs in one "
            f"process; run sweep cases in parallel with a fleet"
        )


class DseEngine:
    """Two-step DSE: cross-branch stochastic + in-branch greedy search.

    ``objective`` / ``rerank_oracle`` / ``rerank_top_k`` configure the
    metrics → objective pipeline (see :mod:`repro.dse.objective`): what
    fitness the search maximizes, and whether an expensive oracle re-ranks
    the analytical top-K per generation. Both accept instances or CLI
    names; :meth:`search` can override them per run.
    """

    def __init__(
        self,
        plan: PipelinePlan,
        budget: ResourceBudget,
        customization: Customization | None = None,
        quant: QuantScheme | None = None,
        frequency_mhz: float = 200.0,
        alpha: float = 0.05,
        objective: Objective | str | None = None,
        rerank_oracle: MetricsOracle | str | None = None,
        rerank_top_k: int = 4,
    ) -> None:
        if quant is None:
            raise ValueError("a quantization scheme is required")
        if customization is None:
            customization = Customization.uniform(plan.num_branches)
        self.plan = plan
        self.budget = budget
        self.customization = customization
        self.quant = quant
        self.frequency_mhz = frequency_mhz
        self.alpha = alpha
        self.objective = objective
        self.rerank_oracle = rerank_oracle
        self.rerank_top_k = rerank_top_k

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

    def resolved_objective(
        self, objective: Objective | str | None = None
    ) -> Objective:
        """The objective a search would use (run override > engine > paper)."""
        return resolve_objective(
            objective if objective is not None else self.objective,
            alpha=self.alpha,
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
        rerank_top_k: int | None = None,
    ) -> DseResult:
        """Run Algorithm 1 (which invokes Algorithm 2 per candidate).

        The paper's default search size is N = 20 iterations over a
        population of P = 200 resource distributions. ``cache`` lets
        several searches share one evaluation cache (see
        :meth:`search_many`).

        ``objective`` / ``rerank_oracle`` / ``rerank_top_k`` override the
        engine-level objective configuration for this run. With the
        default paper objective and no re-rank oracle the result is
        bit-identical to the historical search at the same seed.
        """
        resolved = self.resolved_objective(objective)
        oracle = resolve_oracle(
            rerank_oracle if rerank_oracle is not None else self.rerank_oracle
        )
        top_k = rerank_top_k if rerank_top_k is not None else self.rerank_top_k
        optimizer = CrossBranchOptimizer(
            plan=self.plan,
            budget=self.budget,
            customization=self.customization,
            quant=self.quant,
            frequency_mhz=self.frequency_mhz,
            alpha=self.alpha,
            cache=cache,
            objective=resolved,
            rerank_oracle=oracle,
            rerank_top_k=top_k,
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
        rerank_top_k: int | None = None,
        fleet: "object | None" = None,
    ) -> tuple[DseResult, ...]:
        """Run a batch of searches with shared caching and deduplication.

        All searches draw from one evaluation cache. Its keys carry the
        spec digest, so only cases with the same spec (several seeds on
        one device) reuse each other's in-branch solutions. Cases with the
        same plan, quantization, frequency and parallelism caps (the same
        decoder on several devices or batch sizes) share the process's
        Algorithm-2 ladders instead, which leaves every result and its
        accounting as in a solo search. Cases whose problem spec,
        *objective configuration*, search size, and (fingerprintable) seed
        coincide are solved once and share the same :class:`DseResult`
        object — the objective is part of the dedup key because the spec
        digest deliberately excludes it.

        ``objective`` / ``rerank_oracle`` / ``rerank_top_k`` apply to every
        case (each engine's own configuration is used where they are left
        ``None``).

        ``seeds`` gives each case its own seed (e.g. a convergence study);
        by default every case uses ``seed``, which is what makes duplicate
        grid cases dedupable. Results are returned in input order.

        ``cache``, the caller's (possibly warm)
        :class:`~repro.dse.cache.LocalEvalCache`, is used as-is: it is
        the store every case reads and writes.

        The cases run one after another in this process; ``workers``
        must be 1. ``fleet`` (a
        :class:`~repro.dist.coordinator.FleetSpec`) runs the cases in
        parallel across worker *processes* — spawned locally or joined
        over the network — via
        :func:`~repro.dist.coordinator.run_fleet_sweep`: same dedup, same
        per-case results bit for bit. Each worker solves against its own
        cache, so a fleet takes no ``cache``.
        """
        require_one_worker(workers)
        if fleet is not None:
            if cache is not None:
                raise ValueError(
                    "a fleet sweep takes no cache: each worker solves "
                    "against its own, so the caller's would stay empty"
                )
            from repro.dist.coordinator import run_fleet_sweep

            return run_fleet_sweep(
                engines,
                fleet,
                iterations=iterations,
                population=population,
                seed=seed,
                seeds=seeds,
                heuristic_seed=heuristic_seed,
                objective=objective,
                rerank_oracle=rerank_oracle,
                rerank_top_k=rerank_top_k,
            )
        engines = list(engines)
        if seeds is None:
            seeds = [seed] * len(engines)
        elif len(seeds) != len(engines):
            raise ValueError(
                f"got {len(seeds)} seeds for {len(engines)} engines"
            )
        if cache is None:
            cache = LocalEvalCache()
        solved: dict[tuple, DseResult] = {}
        results: list[DseResult] = []
        for engine, case_seed in zip(engines, seeds):
            fingerprint = seed_fingerprint(case_seed)
            case_objective = engine.resolved_objective(objective)
            case_oracle = resolve_oracle(
                rerank_oracle
                if rerank_oracle is not None
                else engine.rerank_oracle
            )
            case_top_k = (
                rerank_top_k
                if rerank_top_k is not None
                else engine.rerank_top_k
            )
            key = None
            if fingerprint is not None:
                key = (
                    engine.spec.digest,
                    iterations,
                    population,
                    fingerprint,
                    heuristic_seed,
                    case_objective.key,
                    case_oracle.key if case_oracle is not None else None,
                    case_top_k if case_oracle is not None else None,
                )
                if key in solved:
                    results.append(solved[key])
                    continue
            result = engine.search(
                iterations=iterations,
                population=population,
                seed=case_seed,
                heuristic_seed=heuristic_seed,
                cache=cache,
                objective=case_objective,
                # A resolved "no oracle" must be passed explicitly:
                # a bare None would read as "no override" and fall
                # back to the engine's own oracle, desynchronizing
                # the search from the dedup key above.
                rerank_oracle=case_oracle if case_oracle is not None else "none",
                rerank_top_k=case_top_k,
            )
            if key is not None:
                solved[key] = result
            results.append(result)
        return tuple(results)
