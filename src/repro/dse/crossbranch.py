"""Cross-branch stochastic optimization — the paper's Algorithm 1.

A particle-swarm search over *resource distributions*: each candidate
``rd`` splits the compute / memory / bandwidth budgets across branches
(fractions per resource summing to one). Every candidate is completed into
a full hardware configuration by the in-branch greedy search (Algorithm 2),
scored by the configured :class:`~repro.dse.objective.Objective` over its
metrics, and evolved toward its local best and the global best by a random
distance — exactly the ``Evolve(rd, rd_best_i, rd_best_global, budget)``
update of the paper.

The search can be *staged*: the cheap analytical oracle scores every PSO
position as before, and an optional expensive ``rerank_oracle`` (the
cycle-accurate simulator or a serving-workload replay) re-measures the
top-K candidates of each generation. The expensive track runs beside the
swarm, never inside it — analytical scores keep guiding the particle
updates (the two oracles' scores live on different scales, so mixing them
in one ``max`` would be meaningless), while the returned best design is
the one the expensive oracle ranked highest. With no re-rank oracle the
loop is exactly the historical Algorithm 1, bit for bit.

Candidate evaluation is pure (see :mod:`repro.dse.worker`): it consumes
no randomness, and best-updates apply in fixed particle order after each
generation is scored, so a search is a pure function of its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat, starmap
from typing import Sequence

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.construction.reorg import PipelinePlan
from repro.devices.budget import ResourceBudget
from repro.dse.cache import LocalEvalCache
from repro.dse.inbranch import BranchSolution
from repro.dse.objective import (
    BranchMetrics,
    MetricsOracle,
    Objective,
    penalized_score,
    resolve_objective,
    resolve_oracle,
)
from repro.dse.space import Customization
from repro.dse.worker import (
    PROCESS_LOCK,
    EvalSpec,
    EvalTimings,
    GenerationEvaluator,
    rerank_key,
)
from repro.quant.schemes import QuantScheme
from repro.utils.checks import check_finite
from repro.utils.rng import make_rng

#: Fraction floor so no branch is starved to exactly zero.
_FRACTION_FLOOR = 0.01


@dataclass
class Particle:
    """One resource-distribution candidate with PSO state."""

    position: list[float]  # 3 x B fractions: [C..., M..., BW...]
    velocity: list[float]
    best_position: list[float] = field(default_factory=list)
    best_fitness: float = float("-inf")


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
    """Algorithm 1: stochastic search over cross-branch distributions."""

    def __init__(
        self,
        plan: PipelinePlan,
        budget: ResourceBudget,
        customization: Customization,
        quant: QuantScheme,
        frequency_mhz: float = 200.0,
        inertia: float = 0.5,
        c_local: float = 1.2,
        c_global: float = 1.2,
        cache: LocalEvalCache | None = None,
        objective: Objective | str | None = None,
        rerank_oracle: MetricsOracle | str | None = None,
        rerank_top_k: int = 4,
    ) -> None:
        customization.validate_for(plan)
        if rerank_top_k < 1:
            raise ValueError("rerank_top_k must be at least 1")
        self.plan = plan
        self.budget = budget
        self.customization = customization
        self.quant = quant
        self.frequency_mhz = frequency_mhz
        self.inertia = inertia
        self.c_local = c_local
        self.c_global = c_global
        self.num_branches = plan.num_branches
        self.spec = EvalSpec(
            plan=plan,
            budget=budget,
            customization=customization,
            quant=quant,
            frequency_mhz=frequency_mhz,
        )
        self.objective = resolve_objective(objective)
        self.rerank_oracle = resolve_oracle(rerank_oracle)
        self.rerank_top_k = rerank_top_k
        self._cache = cache if cache is not None else LocalEvalCache()
        self.evaluations = 0
        self.cache_hits = 0
        self.stage_hits = 0
        self.stage_lookups = 0
        self.oracle_invocations = 0
        self.oracle_cache_hits = 0
        self.best_metrics: BranchMetrics | None = None
        self.eval_timings = EvalTimings()

    # ------------------------------------------------------------------
    def _oracle_metrics(
        self,
        position: Sequence[float],
        solutions: tuple[BranchSolution, ...],
    ) -> BranchMetrics:
        """Expensive-oracle metrics for one candidate, cached by bucket.

        The oracle identity is folded into the cache key (see
        :func:`~repro.dse.worker.rerank_key`), so one cache can hold
        analytical solutions plus re-rank metrics from several oracles —
        and a persistent cache warm-starts the expensive stage too.
        """
        assert self.rerank_oracle is not None
        key = rerank_key(self.spec, self.rerank_oracle.key, position)
        metrics = self._cache.get(key)
        if metrics is None:
            metrics = self.rerank_oracle.measure(
                self.spec, position, solutions
            )
            self._cache.put(key, metrics)
            self.oracle_invocations += 1
        else:
            self.oracle_cache_hits += 1
        return metrics

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
                self.plan.branches, self.customization.batch_sizes
            )
        ]
        fractions = _normalize_block([d / sum(demands) for d in demands])
        return fractions * 3

    def init_population(
        self,
        population: int,
        rng: random.Random,
        heuristic_seed: bool = True,
    ) -> list[Particle]:
        B = self.num_branches
        particles = []
        if heuristic_seed:
            particles.append(
                Particle(
                    position=self._heuristic_position(),
                    velocity=[0.0] * (3 * B),
                )
            )
        while len(particles) < population:
            position: list[float] = []
            for _block in range(3):
                # Exponent < 1 spreads mass toward the corners, so extreme
                # splits (one branch taking ~80% of a resource) are explored.
                weights = [rng.random() ** 2.5 + 1e-3 for _ in range(B)]
                position.extend(_normalize_block(weights))
            particles.append(
                Particle(
                    position=position,
                    velocity=[0.0] * (3 * B),
                )
            )
        return particles

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
        improvement_tolerance: float = 1e-9,
        heuristic_seed: bool = True,
    ) -> tuple[float, AcceleratorConfig, list[float], int]:
        """Run the full Algorithm 1 loop.

        ``heuristic_seed`` plants one demand-proportional particle in the
        initial population (disable it to measure the convergence of the
        pure stochastic search, as the Sec.-VII study does).

        Returns (best fitness, best config, fitness history per iteration,
        iteration at which the global best last improved).

        One search runs at a time per process: its Algorithm-2 tables,
        the ladders they share and the stage-memo counters it reads
        deltas of are process-wide (see :data:`repro.dse.worker.PROCESS_LOCK`).
        """
        if iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {iterations}")
        if population < 1:
            raise ValueError(f"population must be at least 1, got {population}")
        # scan_global_best relies on it: the best only rises.
        check_finite("improvement_tolerance", improvement_tolerance, minimum=0.0)
        with PROCESS_LOCK:
            rng = make_rng(seed)
            particles = self.init_population(
                population, rng, heuristic_seed=heuristic_seed
            )
            # The swarm as (P, 3B) arrays, one row per particle.
            positions = np.array([p.position for p in particles], dtype=np.float64)
            velocities = np.array([p.velocity for p in particles], dtype=np.float64)
            best_positions = positions.copy()
            best_fitness = np.full(len(particles), float("-inf"))
            global_best_fitness = float("-inf")
            global_best_position: np.ndarray | None = None
            global_best_solutions: tuple[BranchSolution, ...] | None = None
            history: list[float] = []
            convergence_iteration = 0
            # The expensive track: best candidate by re-ranked (oracle) score.
            # Kept apart from the swarm's cheap-score track — the two scales
            # are incommensurable (e.g. weighted FPS vs negative p99 ms).
            rerank_best_fitness = float("-inf")
            rerank_best_solutions: tuple[BranchSolution, ...] | None = None
            rerank_best_metrics: BranchMetrics | None = None
            rerank_best_iteration = 0

            run_batch = GenerationEvaluator(
                self.spec, self._cache, objective=self.objective
            )
            for iteration in range(iterations):
                rows = positions.tolist()
                generation = run_batch(rows)
                self.evaluations += generation.evaluations
                self.cache_hits += generation.cache_hits
                scores = generation.scores
                designs = generation.designs
                fitness = np.array(scores)
                improved = fitness > best_fitness
                best_fitness[improved] = fitness[improved]
                best_positions[improved] = positions[improved]
                global_best_fitness, winner = scan_global_best(
                    scores, global_best_fitness, improvement_tolerance
                )
                if winner >= 0:
                    global_best_position = positions[winner].copy()
                    self.best_metrics, global_best_solutions = designs[winner]
                    convergence_iteration = iteration + 1
                if global_best_position is None:
                    raise ValueError(
                        "no candidate scored above -inf: the objective "
                        "returned NaN or -inf for every candidate of the "
                        "first generation"
                    )
                if self.rerank_oracle is not None:
                    # Stage 2: re-measure this generation's analytical
                    # top-K with the expensive oracle. Sorting is stable,
                    # so ties resolve in particle order — deterministic.
                    ranked = sorted(
                        range(len(rows)),
                        key=scores.__getitem__,
                        reverse=True,
                    )[: self.rerank_top_k]
                    for idx in ranked:
                        solutions = designs[idx][1]
                        metrics = self._oracle_metrics(rows[idx], solutions)
                        score = penalized_score(
                            self.objective,
                            metrics,
                            self.customization.priorities,
                        )
                        if score > rerank_best_fitness + improvement_tolerance:
                            rerank_best_fitness = score
                            rerank_best_solutions = solutions
                            rerank_best_metrics = metrics
                            rerank_best_iteration = iteration + 1
                history.append(global_best_fitness)
                self.evolve(
                    positions, velocities, best_positions, global_best_position, rng
                )
            self.stage_hits += run_batch.stage_hits
            self.stage_lookups += run_batch.stage_lookups
            self.eval_timings.add(run_batch.timings)

        if self.rerank_oracle is not None and rerank_best_solutions is not None:
            self.best_metrics = rerank_best_metrics
            config = AcceleratorConfig(
                branches=tuple(s.config for s in rerank_best_solutions)
            )
            return (
                rerank_best_fitness,
                config,
                history,
                rerank_best_iteration,
            )

        config = AcceleratorConfig(
            branches=tuple(s.config for s in global_best_solutions)
        )
        return global_best_fitness, config, history, convergence_iteration
