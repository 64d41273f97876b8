"""Cross-branch stochastic optimization — the paper's Algorithm 1.

A particle-swarm search over *resource distributions*: each candidate
``rd`` splits the compute / memory / bandwidth budgets across branches
(fractions per resource summing to one). Every candidate is completed into
a full hardware configuration by the in-branch greedy search (Algorithm 2),
scored by the paper's Sec. VI-B1 fitness over its metrics, and evolved
toward its local best and the global best by a random distance — exactly
the ``Evolve(rd, rd_best_i, rd_best_global, budget)`` update of the paper.

The search can be *staged*: the cheap analytical oracle scores every PSO
position as before, and an optional expensive ``rerank_oracle`` (the
cycle-accurate simulator or a serving-workload replay) re-measures the
top-K candidates of each generation, each distinct design once. The
oracle chooses the score (:func:`~repro.dse.objective.objective_for`):
simulated metrics get the paper fitness, served ones the SLO fitness.
The expensive track runs beside the swarm, never inside it — analytical
scores keep guiding the particle updates (the two oracles' scores live
on different scales, so mixing them in one ``max`` would be
meaningless), while the returned best design is the one the expensive
oracle ranked highest. With no re-rank oracle the
loop is exactly the historical Algorithm 1, bit for bit.

Candidate evaluation is pure (see :mod:`repro.dse.worker`): it consumes
no randomness, and best-updates apply in fixed particle order after each
generation is scored, so a search is a pure function of its seed.
"""

from __future__ import annotations

import random
import time
from itertools import repeat, starmap
from typing import Sequence

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.dse.cache import LocalEvalCache
from repro.dse.objective import (
    MetricsOracle,
    OracleStats,
    objective_for,
    penalized_score,
    resolve_oracle,
)
from repro.dse.result import DseResult
from repro.dse.worker import (
    PROCESS_LOCK,
    Design,
    EvalSpec,
    GenerationEvaluator,
    rerank_key,
)
from repro.perf.estimator import AcceleratorPerf
from repro.utils.checks import check_count, check_finite
from repro.utils.rng import make_rng

#: Fraction floor so no branch is starved to exactly zero.
_FRACTION_FLOOR = 0.01
#: How much a score must beat the best so far by to replace it. Must be
#: >= 0: :func:`scan_global_best` relies on a best that only rises.
_IMPROVEMENT_TOLERANCE = 1e-9


def _normalize_block(values: list[float]) -> list[float]:
    """Clip to the floor and normalize a block of fractions to sum 1.

    The block sum adds left to right, as :meth:`CrossBranchOptimizer.evolve`
    does, and not with ``sum()``: Python 3.12 made ``sum()`` of floats
    compensated, which would give one seed a different swarm per Python.
    """
    clipped = [max(_FRACTION_FLOOR, v) for v in values]
    total = 0.0
    for v in clipped:
        total += v
    return [v / total for v in clipped]


def scan_global_best(
    scores: Sequence[float], best: float, tolerance: float
) -> tuple[float, int]:
    """One generation's sequential global-best scan, in particle order.

    A particle takes the global best when its score beats the best so far
    by more than ``tolerance``; with a tolerance, which particle wins
    depends on the order of comparison. Returns the new best and the
    index of the last particle that took it (-1 if none did).

    Only particles that beat the generation's *starting* threshold can
    win: with ``tolerance >= 0`` the best, and so the threshold, only
    rises during the scan (float addition rounds monotonically). So the
    sequential comparisons run over those particles alone, in particle
    order, and pick the winner the full scan would.
    """
    threshold = best + tolerance
    winner = -1
    for index in [i for i, score in enumerate(scores) if score > threshold]:
        score = scores[index]
        if score > best + tolerance:
            best = score
            winner = index
    return best, winner


class CrossBranchOptimizer:
    """Algorithm 1: stochastic search over cross-branch distributions.

    ``spec`` is the problem (plan, budget, customization, quantization,
    frequency); the rest configures the swarm, the cache it evaluates
    against, the paper fitness's variance weight ``alpha`` (a finite
    number >= 0), and the re-rank.
    """

    def __init__(
        self,
        spec: EvalSpec,
        inertia: float = 0.5,
        c_local: float = 1.2,
        c_global: float = 1.2,
        cache: LocalEvalCache | None = None,
        alpha: float = 0.05,
        rerank_oracle: MetricsOracle | str | None = None,
        rerank_top_k: int = 4,
    ) -> None:
        self.rerank_top_k = check_count("rerank_top_k", rerank_top_k)
        # Each weighs a pull on the velocities: a NaN or an infinity would
        # make them NaN, a negative one would push particles away.
        for name, value in (
            ("inertia", inertia), ("c_local", c_local), ("c_global", c_global)
        ):
            check_finite(name, value, minimum=0.0)
        check_finite("alpha", alpha, minimum=0.0)
        self.spec = spec
        self.inertia = inertia
        self.c_local = c_local
        self.c_global = c_global
        self.num_branches = spec.plan.num_branches
        self.alpha = alpha
        self.rerank_oracle = resolve_oracle(rerank_oracle)
        self._cache = cache if cache is not None else LocalEvalCache()

    # ------------------------------------------------------------------
    def _heuristic_position(self) -> list[float]:
        """A seed distribution proportional to each branch's demands.

        Compute and bandwidth follow the branch's total ops (times its
        requested batch size); the swarm then refines from this sensible
        starting point instead of only from random corners.
        """
        demands = [
            max(1.0, pipeline.ops * batch)
            for pipeline, batch in zip(
                self.spec.plan.branches, self.spec.customization.batch_sizes
            )
        ]
        fractions = _normalize_block([d / sum(demands) for d in demands])
        return fractions * 3

    def init_population(
        self,
        population: int,
        rng: random.Random,
        heuristic_seed: bool = True,
    ) -> list[list[float]]:
        """The initial positions: ``3 x B`` fractions each, ``[C..., M..., BW...]``."""
        B = self.num_branches
        positions = [self._heuristic_position()] if heuristic_seed else []
        while len(positions) < population:
            position: list[float] = []
            for _block in range(3):
                # Exponent < 1 spreads mass toward the corners, so extreme
                # splits (one branch taking ~80% of a resource) are explored.
                weights = [rng.random() ** 2.5 + 1e-3 for _ in range(B)]
                position.extend(_normalize_block(weights))
            positions.append(position)
        return positions

    def evolve(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        best_positions: np.ndarray,
        global_best: np.ndarray,
        rng: random.Random,
    ) -> None:
        """One PSO velocity/position update of the whole swarm, in place.

        ``positions``, ``velocities`` and ``best_positions`` are ``(P, 3B)``
        float64 arrays, one row per particle; ``global_best`` is one row.
        The result is bit-identical to updating particle after particle
        with Python floats: the draws come in the same order (particle by
        particle, dimension by dimension, ``r_local`` before ``r_global``),
        every element goes through the same float64 operations in the same
        order, and each block is clipped and normalized like
        :func:`_normalize_block`, its sum added column by column.
        """
        P, D = positions.shape
        count = 2 * P * D
        draws = np.fromiter(
            starmap(rng.random, repeat((), count)), dtype=np.float64, count=count
        ).reshape(P, D, 2)
        r_local = draws[:, :, 0]
        r_global = draws[:, :, 1]
        velocities[:] = (
            self.inertia * velocities
            + self.c_local * r_local * (best_positions - positions)
            + self.c_global * r_global * (global_best - positions)
        )
        positions += velocities
        blocks = positions.reshape(P, 3, D // 3)
        # max(_FRACTION_FLOOR, v) keeps v only when v > floor: NaN clips too.
        clipped = np.where(blocks > _FRACTION_FLOOR, blocks, _FRACTION_FLOOR)
        total = clipped[:, :, 0].copy()
        for column in range(1, D // 3):
            total += clipped[:, :, column]
        positions[:] = (clipped / total[:, :, None]).reshape(P, D)

    # ------------------------------------------------------------------
    def search(
        self,
        iterations: int = 20,
        population: int = 200,
        seed: int | random.Random | None = 0,
        heuristic_seed: bool = True,
    ) -> DseResult:
        """Run the full Algorithm 1 loop and return its result.

        ``heuristic_seed`` plants one demand-proportional particle in the
        initial population (disable it to measure the convergence of the
        pure stochastic search, as the Sec.-VII study does).

        The best design's perf is assembled from its Algorithm-2
        solutions, which hold each branch's measured
        :class:`~repro.perf.estimator.BranchPerf`: nothing is estimated
        twice.

        One search runs at a time per process: its Algorithm-2 tables,
        the ladders they share and the stage-memo counters it reads
        deltas of are process-wide (see :data:`repro.dse.worker.PROCESS_LOCK`).
        """
        started = time.perf_counter()
        iterations = check_count("iterations", iterations)
        population = check_count("population", population)
        spec = self.spec
        oracle = self.rerank_oracle
        priorities = spec.customization.priorities
        with PROCESS_LOCK:
            rng = make_rng(seed)
            # The swarm as (P, 3B) arrays, one row per particle.
            positions = np.array(
                self.init_population(population, rng, heuristic_seed=heuristic_seed),
                dtype=np.float64,
            )
            velocities = np.zeros_like(positions)
            best_positions = positions.copy()
            best_fitness = np.full(len(positions), float("-inf"))
            global_best_fitness = float("-inf")
            global_best_position: np.ndarray | None = None
            global_best: Design | None = None
            history: list[float] = []
            convergence_iteration = 0
            evaluations = cache_hits = 0
            # The expensive track: best candidate by re-ranked (oracle) score.
            # Kept apart from the swarm's cheap-score track — the two scales
            # are incommensurable (e.g. weighted FPS vs negative p99 ms).
            rerank_best_fitness = float("-inf")
            rerank_best: Design | None = None
            rerank_best_iteration = 0
            oracle_invocations = oracle_cache_hits = 0

            run_batch = GenerationEvaluator(spec, self._cache, alpha=self.alpha)
            paper = run_batch.objective
            for iteration in range(iterations):
                rows = positions.tolist()
                generation = run_batch(rows)
                evaluations += generation.evaluations
                cache_hits += generation.cache_hits
                scores = generation.scores
                designs = generation.designs
                fitness = np.array(scores)
                improved = fitness > best_fitness
                best_fitness[improved] = fitness[improved]
                best_positions[improved] = positions[improved]
                global_best_fitness, winner = scan_global_best(
                    scores, global_best_fitness, _IMPROVEMENT_TOLERANCE
                )
                if winner >= 0:
                    global_best_position = positions[winner].copy()
                    global_best = designs[winner]
                    convergence_iteration = iteration + 1
                if global_best_position is None:
                    raise ValueError(
                        "no candidate scored above -inf: the objective "
                        "returned NaN or -inf for every candidate of the "
                        "first generation"
                    )
                if oracle is not None:
                    # Stage 2: re-measure this generation's analytical
                    # top-K with the expensive oracle. Sorting is stable,
                    # so ties resolve in particle order — deterministic.
                    # The oracle identity and the design are the cache key
                    # (see rerank_key), so one cache holds analytical
                    # solutions plus each design's metrics from several
                    # oracles.
                    ranked = sorted(
                        range(len(rows)),
                        key=scores.__getitem__,
                        reverse=True,
                    )[: self.rerank_top_k]
                    for idx in ranked:
                        solutions = designs[idx][1]
                        key = rerank_key(spec, oracle.key, solutions)
                        metrics = self._cache.get(key)
                        if metrics is None:
                            metrics = oracle.measure(spec, solutions)
                            self._cache.put(key, metrics)
                            oracle_invocations += 1
                        else:
                            oracle_cache_hits += 1
                        score = penalized_score(
                            objective_for(metrics, paper), metrics, priorities
                        )
                        if score > rerank_best_fitness + _IMPROVEMENT_TOLERANCE:
                            rerank_best_fitness = score
                            rerank_best = (metrics, solutions)
                            rerank_best_iteration = iteration + 1
                history.append(global_best_fitness)
                self.evolve(
                    positions, velocities, best_positions, global_best_position, rng
                )

        oracle_stats = [OracleStats("analytical", evaluations, cache_hits)]
        if oracle is not None:
            oracle_stats.append(
                OracleStats(oracle.name, oracle_invocations, oracle_cache_hits)
            )
        if rerank_best is not None:
            fitness_of_best, (metrics, solutions) = rerank_best_fitness, rerank_best
            convergence_iteration = rerank_best_iteration
        else:
            fitness_of_best, (metrics, solutions) = global_best_fitness, global_best
        timings = run_batch.timings
        return DseResult(
            best_config=AcceleratorConfig(branches=tuple(s.config for s in solutions)),
            best_perf=AcceleratorPerf(
                branches=tuple(s.perf for s in solutions),
                frequency_mhz=spec.frequency_mhz,
                quant_name=spec.quant.name,
            ),
            best_fitness=fitness_of_best,
            history=tuple(history),
            convergence_iteration=convergence_iteration,
            runtime_seconds=time.perf_counter() - started,
            evaluations=evaluations,
            cache_hits=cache_hits,
            stage_hits=run_batch.stage_hits,
            stage_lookups=run_batch.stage_lookups,
            eval_seconds=timings.eval_seconds,
            cache_seconds=timings.cache_seconds,
            ladder_seconds=timings.ladder_seconds,
            growth_seconds=timings.growth_seconds,
            measure_seconds=timings.measure_seconds,
            objective=objective_for(metrics, paper).key,
            oracle_stats=tuple(oracle_stats),
            best_metrics=metrics,
        )
