"""The candidate-evaluation data path of the cross-branch search.

Algorithm 1 spends essentially all of its time completing resource
distributions into configurations (Algorithm 2). That work is a pure
function of an :class:`EvalSpec` (the frozen problem statement: plan,
budget, customization, quantization, frequency) and a candidate position,
memoized under keys of ``(spec digest, branch index, quantized budget
bucket)``. Scoring is *not* part of the cached work: the cache stores
objective-independent metrics (Algorithm-2 solutions), and the evaluator
applies the :class:`~repro.dse.objective.Objective` to the rehydrated
metrics — so a warm cache keeps hitting after the caller switches
objectives, and the kernel never needs to know what "good" means.

A generation's data path:

1. **Generation-level dedup** — before a generation is evaluated, the
   evaluator quantizes every candidate position to its cache buckets and
   keeps only the *unique, unseen* ``(branch, bucket)`` subproblems. PSO
   populations re-visit buckets constantly (frozen particles, converged
   swarms, overlapping sweeps), and every revisit is settled for the
   price of a dict lookup.
2. **Batched solve** — the surviving subproblems go to the batched
   Algorithm-2 kernel in one pass per branch, and the solutions are
   bulk-inserted into the cache.
3. **Rehydration** — the evaluator reassembles every candidate's
   solutions in submission order from the generation's lookups (each
   unique key is read from the cache once) and its solves, and scores
   them; candidates that resolve to the same solution objects share one
   metrics record per search.

Candidate evaluation consumes no randomness, so a search is a pure
function of its seed. Several searches run in parallel as separate
processes, one sweep case each, through :mod:`repro.dist` (``repro
fleet``).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.construction.reorg import PipelinePlan
from repro.devices.budget import ResourceBudget
from repro.dse.cache import LocalEvalCache, put_entries
from repro.dse.kernel import BranchLadder, KernelTimings, solve_buckets
from repro.dse.objective import (
    INFEASIBILITY_PENALTY,
    BranchMetrics,
    Objective,
    PaperObjective,
    metrics_from_solutions,
    penalized_score,
)
from repro.dse.inbranch import (
    BranchEvalTable,
    BranchSolution,
    optimize_branch,
    stage_memo_stats,
)
from repro.dse.space import Customization
from repro.quant.schemes import QuantScheme

#: Quantization grid for candidate evaluation: per-branch budgets are
#: snapped DOWN to this grid before Algorithm 2 runs, so every budget in a
#: bucket evaluates to the exact same solution. That makes the evaluation a
#: pure function of the bucket — which is what lets any cache backend be a
#: transparent memo that can never change search results.
_COMPUTE_GRID = 4
_MEMORY_GRID = 4
_BANDWIDTH_GRID = 0.05

#: A cache key: (spec digest, branch index, quantized budget bucket).
EvalKey = tuple[str, int, tuple[int, int, int]]


@dataclass(frozen=True)
class EvalSpec:
    """The frozen evaluation *problem*, as one picklable bundle.

    Deliberately objective-free: the spec (and therefore its digest, which
    namespaces every cache key) describes only what is being evaluated —
    plan, budget, customization, quantization, frequency. How candidates
    are *scored* lives in the :class:`~repro.dse.objective.Objective`, so
    switching objectives never invalidates a warm cache.
    """

    plan: PipelinePlan
    budget: ResourceBudget
    customization: Customization
    quant: QuantScheme
    frequency_mhz: float = 200.0

    @cached_property
    def digest(self) -> str:
        """Stable fingerprint of the spec (namespaces shared-cache keys)."""
        blob = pickle.dumps(
            (
                self.plan,
                self.budget,
                self.customization,
                self.quant,
                self.frequency_mhz,
            )
        )
        return hashlib.sha1(blob).hexdigest()


@dataclass(frozen=True)
class CandidateEval:
    """Metrics, score, and solutions for one candidate, with cache stats.

    ``metrics`` is the oracle-layer record (objective-independent);
    ``score`` is the objective applied to those metrics, kept
    alongside so the PSO loop does not re-score per comparison.
    """

    score: float
    metrics: BranchMetrics
    solutions: tuple[BranchSolution, ...]
    evaluations: int
    cache_hits: int


def _bucket(compute: int, memory: int, bandwidth_gbps: float) -> tuple[int, int, int]:
    """The quantization bucket of one branch budget: each axis snaps down."""
    return (
        compute // _COMPUTE_GRID,
        memory // _MEMORY_GRID,
        int(bandwidth_gbps / _BANDWIDTH_GRID),
    )


def quantize_rd(rd: ResourceBudget) -> tuple[int, int, int]:
    return _bucket(rd.compute, rd.memory, rd.bandwidth_gbps)


def canonical_rd(bucket: tuple[int, int, int]) -> ResourceBudget:
    """The single budget every member of a quantization bucket evaluates as.

    Snapping down (floor) keeps the canonical budget conservative: a
    solution sized for it always fits the raw budget it stands in for.
    """
    compute, memory, bandwidth = bucket
    return ResourceBudget(
        compute=compute * _COMPUTE_GRID,
        memory=memory * _MEMORY_GRID,
        bandwidth_gbps=bandwidth * _BANDWIDTH_GRID,
    )


def candidate_keys(spec: EvalSpec, position: Sequence[float]) -> list[EvalKey]:
    """The per-branch cache keys one candidate position resolves to.

    A position is ``3 x B`` fractions: ``[C..., M..., BW...]``. Each
    branch's absolute budget goes straight to :func:`_bucket`, without a
    :class:`ResourceBudget` in between: DSPs and BRAMs truncate to whole
    units, bandwidth stays in GB/s.
    """
    digest = spec.digest
    budget = spec.budget
    B = spec.plan.num_branches
    return [
        (
            digest,
            j,
            _bucket(
                int(budget.compute * position[j]),
                int(budget.memory * position[B + j]),
                budget.bandwidth_gbps * position[2 * B + j],
            ),
        )
        for j in range(B)
    ]


def rerank_key(
    spec: EvalSpec, oracle_key: str, position: Sequence[float]
) -> tuple:
    """Cache key for one candidate's expensive (re-rank) oracle metrics.

    Unlike the per-branch analytical entries, expensive metrics depend on
    which oracle produced them, so the oracle identity is folded into the
    key. The candidate is identified by its quantized bucket vector — every
    position in the same buckets completes to the same configuration, so
    its replay/simulation is the same measurement.
    """
    buckets = tuple(key[2] for key in candidate_keys(spec, position))
    return (spec.digest, "rerank", oracle_key, buckets)


# ---------------------------------------------------------------------------
# per-process state: Algorithm-2 tables and ladders
# ---------------------------------------------------------------------------
#: Branch tables are expensive to warm (their memo dicts are the hot-path
#: optimization) but tiny, so they are kept per process keyed by
#: (spec digest, branch). The cap only guards pathological sweeps over
#: thousands of distinct specs in one long-lived process.
_TABLES: dict[tuple[str, int], BranchEvalTable] = {}
_TABLES_CAP = 512
#: The batched kernel's ladders, one per distinct branch problem
#: (pipeline, quantization, frequency, parallelism caps). The spec digest
#: also folds in the budget and the batch sizes, which a ladder does not
#: depend on, so the tables of a device or batch-size sweep share these.
_LADDERS: dict[str, BranchLadder] = {}
#: Held for a whole search and while the tables are cleared. The tables,
#: the ladders (which grow their rung tables in place) and the stage-memo
#: counters a search reads deltas of are shared by every thread of the
#: process, so two searches on two threads take turns.
PROCESS_LOCK = threading.RLock()


def clear_process_caches() -> None:
    """Drop this process's warm Algorithm-2 tables and ladders.

    Benchmark / test hygiene only: back-to-back measured runs in one
    process (e.g. perfbench's repetitions) would otherwise leak the
    first run's warm tables into the second and blur the comparison.
    """
    with PROCESS_LOCK:
        _TABLES.clear()
        _LADDERS.clear()


def branch_table(spec: EvalSpec, branch: int) -> BranchEvalTable:
    """The process-local Algorithm-2 table for one branch of a spec."""
    key = (spec.digest, branch)
    table = _TABLES.get(key)
    if table is None:
        if len(_TABLES) >= _TABLES_CAP:
            clear_process_caches()
        table = BranchEvalTable(
            spec.plan.branches[branch],
            spec.quant,
            spec.frequency_mhz,
            max_h=spec.customization.max_h,
            max_pf=spec.customization.max_pf,
            ladders=_LADDERS,
        )
        _TABLES[key] = table
    return table


def solve_bucket(spec: EvalSpec, branch: int, bucket: tuple[int, int, int]) -> BranchSolution:
    """Run Algorithm 2 for one ``(branch, bucket)`` subproblem (pure)."""
    return optimize_branch(
        spec.plan.branches[branch],
        canonical_rd(bucket),
        spec.customization.batch_sizes[branch],
        spec.quant,
        spec.frequency_mhz,
        max_h=spec.customization.max_h,
        max_pf=spec.customization.max_pf,
        table=branch_table(spec, branch),
    )


def solve_key_batch(
    spec: EvalSpec,
    keys: Sequence[EvalKey],
    timings: KernelTimings | None = None,
) -> dict[EvalKey, BranchSolution]:
    """Solve a batch of cache keys through the batched Algorithm-2 kernel.

    Groups the keys by branch and hands each branch's budget buckets to
    :func:`repro.dse.kernel.solve_buckets` as one vectorized pass — the
    hot path of every generation. Bit-identical to calling
    :func:`solve_bucket` per key (the kernel's core guarantee), just
    without the per-bucket Python loops. Duplicate keys are tolerated and
    resolve to one mapping entry.
    """
    by_branch: dict[int, list[EvalKey]] = {}
    for key in keys:
        by_branch.setdefault(key[1], []).append(key)
    solved: dict[EvalKey, BranchSolution] = {}
    for branch in sorted(by_branch):
        branch_keys = by_branch[branch]
        # canonical_rd's arithmetic (bucket x grid), one column at a time.
        buckets = np.array([key[2] for key in branch_keys], dtype=np.int64)
        solutions = solve_buckets(
            branch_table(spec, branch),
            buckets[:, 0] * _COMPUTE_GRID,
            buckets[:, 1] * _MEMORY_GRID,
            buckets[:, 2] * _BANDWIDTH_GRID,
            spec.customization.batch_sizes[branch],
            timings,
        )
        solved.update(zip(branch_keys, solutions))
    return solved


def evaluate_candidate(
    spec: EvalSpec,
    position: Sequence[float],
    cache: LocalEvalCache,
    objective: Objective | None = None,
) -> CandidateEval:
    """Complete a distribution into configs, derive metrics, and score them.

    The single-candidate entry point (kept for direct callers and tests);
    searches go through :class:`GenerationEvaluator`, which batches the
    same arithmetic with generation-level dedup. ``objective`` defaults to
    the paper's Sec. VI-B1 fitness.
    """
    if objective is None:
        objective = PaperObjective()
    solutions: list[BranchSolution] = []
    evaluations = 0
    cache_hits = 0
    for key in candidate_keys(spec, position):
        solution = cache.get(key)
        if solution is None:
            solution = solve_bucket(spec, key[1], key[2])
            cache.put(key, solution)
            evaluations += 1
        else:
            cache_hits += 1
        solutions.append(solution)
    metrics = metrics_from_solutions(solutions)
    return CandidateEval(
        score=penalized_score(
            objective, metrics, spec.customization.priorities
        ),
        metrics=metrics,
        solutions=tuple(solutions),
        evaluations=evaluations,
        cache_hits=cache_hits,
    )


# ---------------------------------------------------------------------------
# the per-generation evaluator
# ---------------------------------------------------------------------------
@dataclass
class EvalTimings:
    """Where one search's candidate-evaluation time went.

    ``eval_seconds`` is the wall time of the batched Algorithm-2 solves
    and of inserting their solutions into the cache. ``cache_seconds``
    is the bucketing / dedup / rehydration cost, and it includes
    objective scoring, which runs during rehydration.

    The ``ladder`` / ``growth`` / ``measure`` fields split the batched
    kernel's share of ``eval_seconds`` by Algorithm-2 phase (building
    rung tables for new bandwidth values and looking up each bucket's
    stop rung, bottleneck doubling, final branch measurement). They
    attribute where the solve went, they do not re-measure it.
    """

    eval_seconds: float = 0.0
    cache_seconds: float = 0.0
    ladder_seconds: float = 0.0
    growth_seconds: float = 0.0
    measure_seconds: float = 0.0

    def add(self, other: "EvalTimings") -> None:
        self.eval_seconds += other.eval_seconds
        self.cache_seconds += other.cache_seconds
        self.ladder_seconds += other.ladder_seconds
        self.growth_seconds += other.growth_seconds
        self.measure_seconds += other.measure_seconds


class GenerationEvaluator:
    """Evaluate one generation of candidates with generation-level dedup.

    Calling the evaluator IS the per-generation barrier: it returns one
    :class:`CandidateEval` per position, in submission order, after every
    unique unseen subproblem of the generation has been solved and put
    into the cache.

    The evaluator produces *metrics* from the cache and applies the
    objective during rehydration — the kernel only ever solves buckets,
    so cached entries stay objective-independent. Candidates
    that resolve to the same solution objects are the same design: its
    metrics record is built once per evaluator (one search) and
    remembered under the solutions' identities; the objective scores
    every candidate. Each memo entry keeps its solutions alive, so no
    identity is reused while the memo lives.

    Accounting matches the per-candidate serial loop bit for bit: the
    first candidate to reference a new bucket is charged the evaluation,
    every later reference in the generation counts as a cache hit.
    """

    def __init__(
        self,
        spec: EvalSpec,
        cache: LocalEvalCache,
        objective: Objective | None = None,
    ) -> None:
        self.spec = spec
        self.cache = cache
        self.objective = objective if objective is not None else PaperObjective()
        self.timings = EvalTimings()
        self.stage_hits = 0
        self.stage_lookups = 0
        # Solution identities -> (metrics, solutions).
        self._designs: dict[
            tuple[int, ...],
            tuple[BranchMetrics, tuple[BranchSolution, ...]],
        ] = {}

    def _solve_inline(
        self, todo: Sequence[EvalKey]
    ) -> dict[EvalKey, BranchSolution]:
        hits_before, lookups_before = stage_memo_stats()
        started = time.perf_counter()
        kernel_timings = KernelTimings()
        solved = solve_key_batch(self.spec, todo, kernel_timings)
        put_entries(self.cache, [(key, solved[key]) for key in todo])
        self.timings.eval_seconds += time.perf_counter() - started
        self.timings.ladder_seconds += kernel_timings.ladder_seconds
        self.timings.growth_seconds += kernel_timings.growth_seconds
        self.timings.measure_seconds += kernel_timings.measure_seconds
        hits_after, lookups_after = stage_memo_stats()
        self.stage_hits += hits_after - hits_before
        self.stage_lookups += lookups_after - lookups_before
        return solved

    def __call__(
        self, positions: Sequence[Sequence[float]]
    ) -> list[CandidateEval]:
        """Evaluate one generation: keys, dedup, batched solve, score."""
        bucket_started = time.perf_counter()
        keys_per_candidate = [
            candidate_keys(self.spec, position) for position in positions
        ]
        # Each unique key is read from the cache once; the misses are the
        # generation's solve list, in first-reference order, and each is
        # charged to the candidate that references it first.
        found: dict[EvalKey, BranchSolution | None] = {}
        todo: list[EvalKey] = []
        charged: list[int] = []
        for keys in keys_per_candidate:
            misses = 0
            for key in keys:
                if key not in found:
                    solution = self.cache.get(key)
                    found[key] = solution
                    if solution is None:
                        todo.append(key)
                        misses += 1
            charged.append(misses)
        self.timings.cache_seconds += time.perf_counter() - bucket_started

        if todo:
            found.update(self._solve_inline(todo))

        rehydrate_started = time.perf_counter()
        priorities = self.spec.customization.priorities
        designs = self._designs
        out: list[CandidateEval] = []
        for keys, evaluations in zip(keys_per_candidate, charged):
            solutions = tuple([found[key] for key in keys])
            identity = tuple(map(id, solutions))
            design = designs.get(identity)
            if design is None:
                design = designs[identity] = (
                    metrics_from_solutions(solutions),
                    solutions,
                )
            metrics, solutions = design
            out.append(
                CandidateEval(
                    score=penalized_score(self.objective, metrics, priorities),
                    metrics=metrics,
                    solutions=solutions,
                    evaluations=evaluations,
                    cache_hits=len(keys) - evaluations,
                )
            )
        self.timings.cache_seconds += time.perf_counter() - rehydrate_started
        return out


__all__ = [
    "CandidateEval",
    "EvalKey",
    "EvalSpec",
    "EvalTimings",
    "GenerationEvaluator",
    "INFEASIBILITY_PENALTY",
    "PROCESS_LOCK",
    "branch_table",
    "candidate_keys",
    "canonical_rd",
    "evaluate_candidate",
    "quantize_rd",
    "rerank_key",
    "solve_bucket",
    "solve_key_batch",
]
