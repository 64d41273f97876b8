"""The candidate-evaluation data path of the cross-branch search.

Algorithm 1 spends essentially all of its time completing resource
distributions into configurations (Algorithm 2). That work is a pure
function of an :class:`EvalSpec` (the frozen problem statement: plan,
budget, customization, quantization, frequency) and a candidate position,
memoized under keys of ``(spec digest, branch index, quantized budget
bucket)``. Scoring is *not* part of the cached work: the cache stores
objective-independent metrics (Algorithm-2 solutions), and the evaluator
applies the paper objective to the rehydrated metrics — so a warm cache
keeps hitting after the caller changes ``alpha``, and the kernel never
needs to know what "good" means.

A generation's data path:

1. **Keys and generation-level dedup** — the evaluator quantizes every
   candidate position to its cache keys (one :func:`candidate_keys` call
   per candidate) and keeps only the *unique, unseen* ``(branch,
   bucket)`` subproblems, reading each distinct key from the cache once.
   PSO populations re-visit buckets constantly (frozen particles,
   converged swarms, overlapping sweeps), and every revisit is settled
   for the price of a dict lookup.
2. **Batched solve** — the surviving subproblems go to the batched
   Algorithm-2 kernel in one pass per branch, and the solutions are
   bulk-inserted into the cache.
3. **Rehydration and scoring** — the evaluator reassembles every
   candidate's solutions in submission order; candidates that resolve to
   the same solution objects share one ``(metrics, solutions)`` design
   per search, whose record caches its shortfall and FPS variance. The
   paper objective still scores every candidate (one ``penalized_score``
   call each), so a per-candidate score is a few multiplies.

The generation comes back as columns (:class:`Generation`): a score and
a design per candidate, plus the generation's evaluation and cache-hit
totals, which the search adds once per generation. Keys and scores stay
one call per candidate, rather than one per distinct design, because
the benchmark's layer probes count them per candidate.

Candidate evaluation consumes no randomness, so a search is a pure
function of its seed. Several searches run in parallel as separate
processes: a pooled sweep (``DseEngine.search_many(..., workers=N)``)
forks workers that each run whole cases.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.construction.reorg import PipelinePlan
from repro.devices.budget import ResourceBudget
from repro.dse.cache import LocalEvalCache, put_entries
from repro.dse.kernel import BranchLadder, solve_buckets
from repro.dse.objective import (
    INFEASIBILITY_PENALTY,
    BranchMetrics,
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
from repro.utils.checks import check_positive

#: Quantization grid for candidate evaluation: per-branch budgets are
#: snapped DOWN to this grid before Algorithm 2 runs, so every budget in a
#: bucket evaluates to the exact same solution. That makes the evaluation a
#: pure function of the bucket — which is what lets any cache backend be a
#: transparent memo that can never change search results.
_COMPUTE_GRID = 4
_MEMORY_GRID = 4
_BANDWIDTH_GRID = 0.05
#: The most bandwidth buckets a spec's reach may span for the batched
#: path to descend it in one pass (a budget up to 204.75 GB/s). A wider
#: reach stays lazy: a search meets a few hundred values per branch, and
#: the pass's memory grows with the reach.
_REACH_ROWS_CAP = 4096

#: A cache key: (spec digest, branch index, quantized budget bucket).
EvalKey = tuple[str, int, tuple[int, int, int]]


@dataclass(frozen=True)
class EvalSpec:
    """The frozen evaluation *problem*, as one picklable bundle.

    Deliberately objective-free: the spec (and therefore its digest, which
    namespaces every cache key) describes only what is being evaluated —
    plan, budget, customization, quantization, frequency. How candidates
    are *scored* lives in :mod:`repro.dse.objective`, so changing
    ``alpha`` never invalidates a warm cache. Building one
    checks that ``frequency_mhz`` is a finite number > 0 and that the
    customization covers the plan's branches.
    """

    plan: PipelinePlan
    budget: ResourceBudget
    customization: Customization
    quant: QuantScheme
    frequency_mhz: float = 200.0

    def __post_init__(self) -> None:
        check_positive("frequency_mhz", self.frequency_mhz)
        self.customization.validate_for(self.plan)

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


def quantize_rd(rd: ResourceBudget) -> tuple[int, int, int]:
    """The quantization bucket of one branch budget: each axis snaps down."""
    return (
        rd.compute // _COMPUTE_GRID,
        rd.memory // _MEMORY_GRID,
        int(rd.bandwidth_gbps / _BANDWIDTH_GRID),
    )


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
    branch's bucket is :func:`quantize_rd` of its absolute budget, computed
    in place without a :class:`ResourceBudget` in between: DSPs and BRAMs
    truncate to whole units, bandwidth stays in GB/s.
    """
    digest = spec.digest
    budget = spec.budget
    compute = budget.compute
    memory = budget.memory
    bandwidth = budget.bandwidth_gbps
    B = spec.plan.num_branches
    keys = []
    for j in range(B):
        keys.append(
            (
                digest,
                j,
                (
                    int(compute * position[j]) // _COMPUTE_GRID,
                    int(memory * position[B + j]) // _MEMORY_GRID,
                    int(bandwidth * position[2 * B + j] / _BANDWIDTH_GRID),
                ),
            )
        )
    return keys


def rerank_key(
    spec: EvalSpec, oracle_key: str, solutions: Sequence[BranchSolution]
) -> tuple:
    """Cache key for one design's expensive (re-rank) oracle metrics.

    Unlike the per-branch analytical entries, expensive metrics depend on
    which oracle produced them, so the oracle identity is folded into the
    key. The design is identified by its branch configurations: an oracle
    measures a function of the spec and the configuration (batch
    feasibility too is ``batch >= batch_target``), and many budget
    buckets complete to one configuration, so each distinct design is
    simulated or replayed once per cache.
    """
    return (spec.digest, "rerank", oracle_key, tuple(s.config for s in solutions))


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


def _descend_reach(
    spec: EvalSpec, table: BranchEvalTable, timings: EvalTimings | None
) -> None:
    """Take the table's ladder and descend the spec's whole bandwidth reach.

    A candidate's branch gets a fraction of the budget's bandwidth, so
    its bucket lies in ``0..int(bandwidth_gbps / _BANDWIDTH_GRID)``. The
    ladder gets a rung-table row for every bucket in that range in one
    pass, instead of one pass per kernel call that meets new values. Rows
    are a function of the bandwidth value alone, so the solutions are
    those of a lazily filled ladder. A reach of more than
    :data:`_REACH_ROWS_CAP` buckets stays lazy. The time, adoption
    included, is booked to the kernel's ladder phase.
    """
    started = time.perf_counter()
    ladder = table.ladder()
    reach = int(spec.budget.bandwidth_gbps / _BANDWIDTH_GRID)
    if reach + 1 <= _REACH_ROWS_CAP:
        # The values solve_key_batch passes: bucket x grid, in float64.
        ladder.rung_rows(np.arange(reach + 1, dtype=np.int64) * _BANDWIDTH_GRID)
    if timings is not None:
        timings.ladder_seconds += time.perf_counter() - started


def solve_key_batch(
    spec: EvalSpec,
    keys: Sequence[EvalKey],
    timings: EvalTimings | None = None,
) -> dict[EvalKey, BranchSolution]:
    """Solve a batch of cache keys through the batched Algorithm-2 kernel.

    Groups the keys by branch and hands each branch's budget buckets to
    :func:`repro.dse.kernel.solve_buckets` as one vectorized pass — the
    hot path of every generation. Bit-identical to calling
    :func:`solve_bucket` per key (the kernel's core guarantee), just
    without the per-bucket Python loops. Duplicate keys are tolerated and
    resolve to one mapping entry. A table's first batched solve first
    descends the spec's whole bandwidth reach (:func:`_descend_reach`).
    """
    by_branch: dict[int, list[EvalKey]] = {}
    for key in keys:
        by_branch.setdefault(key[1], []).append(key)
    solved: dict[EvalKey, BranchSolution] = {}
    for branch in sorted(by_branch):
        branch_keys = by_branch[branch]
        table = branch_table(spec, branch)
        if not table.has_ladder:
            _descend_reach(spec, table, timings)
        # canonical_rd's arithmetic (bucket x grid), one column at a time.
        buckets = np.array([key[2] for key in branch_keys], dtype=np.int64)
        solutions = solve_buckets(
            table,
            buckets[:, 0] * _COMPUTE_GRID,
            buckets[:, 1] * _MEMORY_GRID,
            buckets[:, 2] * _BANDWIDTH_GRID,
            spec.customization.batch_sizes[branch],
            timings,
        )
        solved.update(zip(branch_keys, solutions))
    return solved


# ---------------------------------------------------------------------------
# the per-generation evaluator
# ---------------------------------------------------------------------------
@dataclass
class EvalTimings:
    """Where one search's candidate-evaluation time went: its one record.

    ``eval_seconds`` is the wall time of the batched Algorithm-2 solves
    and of inserting their solutions into the cache. ``cache_seconds``
    is the bucketing / dedup / rehydration cost, and it includes
    scoring, which runs during rehydration.

    The ``ladder`` / ``growth`` / ``measure`` fields split the batched
    kernel's share of ``eval_seconds`` by Algorithm-2 phase (taking a
    table's ladder and descending its spec's reach, building rung tables
    for new bandwidth values and looking up each bucket's stop rung;
    bottleneck doubling; final branch measurement). The kernel books
    them here itself. They attribute where the solve went, they do not
    re-measure it.
    """

    eval_seconds: float = 0.0
    cache_seconds: float = 0.0
    ladder_seconds: float = 0.0
    growth_seconds: float = 0.0
    measure_seconds: float = 0.0


#: One distinct design: its metrics record and its per-branch solutions.
Design = tuple[BranchMetrics, tuple[BranchSolution, ...]]


class Generation(NamedTuple):
    """One evaluated generation, as columns in submission order.

    ``scores[i]`` and ``designs[i]`` belong to the ``i``-th position;
    candidates that resolve to the same solutions share one design tuple.
    ``evaluations`` counts the generation's Algorithm-2 solves (its
    distinct keys the cache lacked) and ``cache_hits`` every other key
    reference: the sums of charging each solve to the first candidate
    that references its key, and every later reference to the cache.
    """

    scores: list[float]
    designs: list[Design]
    evaluations: int
    cache_hits: int


class GenerationEvaluator:
    """Evaluate one generation of candidates with generation-level dedup.

    Calling the evaluator IS the per-generation barrier: it returns the
    generation's :class:`Generation` columns after every unique unseen
    subproblem of the generation has been solved and put into the cache.

    The evaluator produces *metrics* from the cache and scores them with
    :attr:`objective`, the paper objective at ``alpha``, during
    rehydration — the kernel only ever solves buckets, so cached entries
    stay objective-independent. Candidates
    that resolve to the same solution objects are the same design: its
    metrics record is built once per evaluator (one search) and
    remembered under the solutions' identities; the objective scores
    every candidate. Each memo entry keeps its solutions alive, so no
    identity is reused while the memo lives.
    """

    def __init__(
        self, spec: EvalSpec, cache: LocalEvalCache, alpha: float = 0.05
    ) -> None:
        self.spec = spec
        self.cache = cache
        self.objective = PaperObjective(alpha=alpha)
        self.timings = EvalTimings()
        self.stage_hits = 0
        self.stage_lookups = 0
        # Solution identities -> (metrics, solutions).
        self._designs: dict[tuple[int, ...], Design] = {}

    def _solve_inline(
        self, todo: Sequence[EvalKey]
    ) -> dict[EvalKey, BranchSolution]:
        hits_before, lookups_before = stage_memo_stats()
        started = time.perf_counter()
        solved = solve_key_batch(self.spec, todo, self.timings)
        put_entries(self.cache, [(key, solved[key]) for key in todo])
        self.timings.eval_seconds += time.perf_counter() - started
        hits_after, lookups_after = stage_memo_stats()
        self.stage_hits += hits_after - hits_before
        self.stage_lookups += lookups_after - lookups_before
        return solved

    def __call__(self, positions: Sequence[Sequence[float]]) -> Generation:
        """Evaluate one generation: keys, dedup, batched solve, score."""
        bucket_started = time.perf_counter()
        spec = self.spec
        keys_per_candidate = [
            candidate_keys(spec, position) for position in positions
        ]
        # Each unique key is read from the cache once; the misses are the
        # generation's solve list, in first-reference order.
        get = self.cache.get
        found: dict[EvalKey, BranchSolution | None] = {}
        todo: list[EvalKey] = []
        for keys in keys_per_candidate:
            for key in keys:
                if key not in found:
                    solution = found[key] = get(key)
                    if solution is None:
                        todo.append(key)
        self.timings.cache_seconds += time.perf_counter() - bucket_started

        if todo:
            found.update(self._solve_inline(todo))

        rehydrate_started = time.perf_counter()
        objective = self.objective
        priorities = spec.customization.priorities
        memo = self._designs
        lookup = found.__getitem__
        scores: list[float] = []
        designs: list[Design] = []
        for keys in keys_per_candidate:
            solutions = tuple(map(lookup, keys))
            identity = tuple(map(id, solutions))
            design = memo.get(identity)
            if design is None:
                design = memo[identity] = (
                    metrics_from_solutions(solutions),
                    solutions,
                )
            designs.append(design)
            scores.append(penalized_score(objective, design[0], priorities))
        self.timings.cache_seconds += time.perf_counter() - rehydrate_started
        references = len(keys_per_candidate) * spec.plan.num_branches
        return Generation(scores, designs, len(todo), references - len(todo))


__all__ = [
    "Design",
    "EvalKey",
    "EvalSpec",
    "EvalTimings",
    "Generation",
    "GenerationEvaluator",
    "INFEASIBILITY_PENALTY",
    "PROCESS_LOCK",
    "branch_table",
    "candidate_keys",
    "canonical_rd",
    "quantize_rd",
    "rerank_key",
    "solve_bucket",
    "solve_key_batch",
]
