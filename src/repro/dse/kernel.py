"""Batched Algorithm 2: one vectorized pass over a generation of budgets.

The scalar solver (:func:`repro.dse.inbranch.optimize_branch`) walks two
loops per budget bucket: a halving loop that shrinks per-stage parallelism
targets until the requested replicas fit, and a growth loop that doubles
the bottleneck stage while they still do. Both loops only ever visit
states on a fixed per-stage *chain*: ``GetPF`` realizes any scalar target
by walking the same deterministic doubling sequence from ``(1, 1, 1)``, so
every configuration Algorithm 2 can produce for a stage is one of the
``O(log max_parallelism)`` states on that chain, and realizing a target is
a ``searchsorted`` over the chain's (strictly increasing) pf products.

That observation turns the per-bucket Python loops into array passes over
all N unique buckets of a PSO generation at once:

- **ladder** — per-stage chains are enumerated once per branch
  (:class:`StageChain`, struct-of-arrays: configs, pf products, latency,
  DSP, BRAM) and the halving loop becomes a synchronized rung descent:
  each rung realizes every active bucket's targets with one
  ``searchsorted`` per stage, reduces resource sums and the bottleneck
  latency across stages, and retires buckets whose replica count fits
  (or whose targets hit all-ones).
- **growth** — the bottleneck-doubling walk is independent of the budget
  except for *where it stops*, so the walk from each distinct halving
  end-state is traced once (:meth:`BranchLadder.growth_path`), storing the
  trial resource sums per step; each bucket then just finds the first step
  its budget cannot pay for. Buckets landing on the same rung pay for the
  walk once per table lifetime.
- **measure** — final ``(batch, chain-state)`` pairs repeat heavily across
  buckets, and :func:`~repro.perf.estimator.evaluate_branch` is a pure
  function of them, so solutions are memoized per pair.

Every arithmetic step reproduces the scalar solver's exact float64
operation order (same products, same divisions, same truncations), so the
kernel is **bit-identical** to calling ``optimize_branch`` per bucket —
the repo-wide determinism guarantee — while removing the per-bucket
Python interpretation that dominated ``eval_seconds``.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.config import BranchConfig, StageConfig
from repro.devices.budget import ResourceBudget
from repro.dse.inbranch import (
    BW_PLANNING_MARGIN,
    BranchEvalTable,
    BranchSolution,
)
from repro.perf.estimator import evaluate_branch

#: Clip for the bandwidth-quotient term before int64 conversion. Any true
#: quotient above this is irrelevant: the final replica count is the min
#: over three terms and is compared against batch targets orders of
#: magnitude smaller, so clipping here can never change a solution.
_INT_CLIP = float(2**62)


@dataclass
class KernelTimings:
    """Where the batched solve spent its time, by phase."""

    ladder_seconds: float = 0.0
    growth_seconds: float = 0.0
    measure_seconds: float = 0.0

    def add(self, other: "KernelTimings") -> None:
        self.ladder_seconds += other.ladder_seconds
        self.growth_seconds += other.growth_seconds
        self.measure_seconds += other.measure_seconds


class StageChain:
    """One stage's full ``GetPF`` doubling chain, as struct-of-arrays.

    ``configs[i]`` is the i-th state of the deterministic doubling walk
    from ``(1, 1, 1)``; ``prods`` its (strictly increasing) pf products;
    ``lat`` / ``dsp`` / ``bram`` its memoized per-stage evaluation. A
    scalar target ``t`` realizes as the first state with ``prods >= t``
    (after the ``max_pf`` clamp ``GetPF`` applies), or the last state when
    the chain saturates below ``t`` — exactly ``GetPF``'s return value.
    """

    __slots__ = (
        "configs",
        "prods",
        "lat",
        "dsp",
        "bram",
        "prods_list",
        "lat_list",
        "dsp_list",
        "bram_list",
        "max_pf",
        "last",
    )

    def __init__(
        self, table: BranchEvalTable, idx: int, max_pf: int | None
    ) -> None:
        stage = table.stages[idx]
        h_cap = (
            stage.h_max
            if table.max_h is None
            else min(stage.h_max, table.max_h)
        )
        cpf, kpf, h = 1, 1, 1
        configs: list[StageConfig] = []
        while True:
            configs.append(StageConfig(cpf=cpf, kpf=kpf, h=h))
            # The same move GetPF makes: double the smaller channel factor
            # first, fall back to H-partitioning, snap to dimension caps.
            if cpf < stage.cpf_max and (cpf <= kpf or kpf >= stage.kpf_max):
                cpf = min(cpf * 2, stage.cpf_max)
            elif kpf < stage.kpf_max:
                kpf = min(kpf * 2, stage.kpf_max)
            elif h < h_cap:
                h = min(h * 2, h_cap)
            else:
                break
        # Route per-state evaluations through the table's shared memo so
        # scalar and batched solves feed the same tables and counters.
        evals = [table.stage_eval(idx, cfg) for cfg in configs]
        self.configs = tuple(configs)
        self.prods_list = [cfg.cpf * cfg.kpf * cfg.h for cfg in configs]
        self.lat_list = [e[0] for e in evals]
        self.dsp_list = [e[1] for e in evals]
        self.bram_list = [e[2] for e in evals]
        self.prods = np.array(self.prods_list, dtype=np.int64)
        self.lat = np.array(self.lat_list, dtype=np.int64)
        self.dsp = np.array(self.dsp_list, dtype=np.int64)
        self.bram = np.array(self.bram_list, dtype=np.int64)
        self.max_pf = max_pf
        self.last = len(configs) - 1

    def indices_for(self, targets: np.ndarray) -> np.ndarray:
        """Chain indices GetPF would return for an array of targets."""
        if self.max_pf is not None:
            targets = np.minimum(targets, self.max_pf)
        idx = np.searchsorted(self.prods, targets, side="left")
        return np.minimum(idx, self.last)

    def index_for(self, target: int) -> int:
        """Chain index GetPF would return for one scalar target."""
        if self.max_pf is not None:
            target = min(target, self.max_pf)
        return min(bisect_left(self.prods_list, target), self.last)


@dataclass(frozen=True)
class GrowthPath:
    """The budget-independent bottleneck-doubling walk from one state.

    ``states[s]`` is the per-stage chain-index tuple after applying ``s``
    doubling steps (``states[0]`` is the start); step ``s`` costs
    ``trial_c[s]`` DSPs / ``trial_m[s]`` BRAMs and leaves the pipeline's
    bottleneck latency at ``trial_maxlat[s]``. A bucket applies the
    longest prefix of steps its budget still pays for.
    """

    states: tuple[tuple[int, ...], ...]
    trial_c: np.ndarray
    trial_m: np.ndarray
    trial_maxlat: np.ndarray


class BranchLadder:
    """Precomputed batched-solve state for one :class:`BranchEvalTable`.

    Built lazily (``table.ladder()``) because only the batched kernel
    needs it; holds the per-stage chains plus two memo tables keyed by
    chain state: growth paths and measured solutions.
    """

    def __init__(self, table: BranchEvalTable) -> None:
        self.table = table
        self.chains = [
            StageChain(table, idx, table.max_pf)
            for idx in range(len(table.stages))
        ]
        self._paths: dict[tuple[int, ...], GrowthPath] = {}
        self._solutions: dict[
            tuple[int, int, tuple[int, ...]], BranchSolution
        ] = {}

    def growth_path(self, start: tuple[int, ...]) -> GrowthPath:
        """The doubling walk from ``start``, traced once and memoized."""
        path = self._paths.get(start)
        if path is None:
            path = self._trace_growth(start)
            self._paths[start] = path
        return path

    def _trace_growth(self, start: tuple[int, ...]) -> GrowthPath:
        chains = self.chains
        state = list(start)
        lats = [chains[k].lat_list[j] for k, j in enumerate(state)]
        c_sum = sum(chains[k].dsp_list[j] for k, j in enumerate(state))
        m_sum = sum(chains[k].bram_list[j] for k, j in enumerate(state))
        states = [tuple(state)]
        trial_c: list[int] = []
        trial_m: list[int] = []
        trial_maxlat: list[int] = []
        while True:
            # First maximum, matching the scalar bottleneck scan.
            b = max(range(len(lats)), key=lats.__getitem__)
            chain = chains[b]
            j = state[b]
            grown = chain.index_for(2 * chain.prods_list[j])
            if grown == j:
                break  # saturated: no parallelism left in this stage
            c_sum += chain.dsp_list[grown] - chain.dsp_list[j]
            m_sum += chain.bram_list[grown] - chain.bram_list[j]
            lats[b] = chain.lat_list[grown]
            state[b] = grown
            trial_c.append(c_sum)
            trial_m.append(m_sum)
            trial_maxlat.append(max(lats))
            states.append(tuple(state))
        return GrowthPath(
            states=tuple(states),
            trial_c=np.array(trial_c, dtype=np.int64),
            trial_m=np.array(trial_m, dtype=np.int64),
            trial_maxlat=np.array(trial_maxlat, dtype=np.int64),
        )

    def solution(
        self, batch: int, state: tuple[int, ...], batch_target: int
    ) -> BranchSolution:
        """Measure (or recall) the solution for one final kernel state."""
        key = (batch, batch_target, state)
        sol = self._solutions.get(key)
        if sol is None:
            table = self.table
            config = BranchConfig(
                batch_size=batch,
                stages=tuple(
                    chain.configs[j]
                    for chain, j in zip(self.chains, state)
                ),
            )
            perf = evaluate_branch(
                table.pipeline, config, table.quant, table.frequency_mhz
            )
            sol = BranchSolution(
                config=config,
                perf=perf,
                meets_batch_target=batch >= batch_target,
            )
            self._solutions[key] = sol
        return sol


def _replicas_supported(
    c_sum: np.ndarray,
    m_sum: np.ndarray,
    maxlat: np.ndarray,
    compute: np.ndarray,
    memory: np.ndarray,
    bw_margin: np.ndarray,
    batch_target: int,
    dram_bytes: float,
    freq_hz: float,
) -> np.ndarray:
    """Vectorized ``min(C/Σc, M/Σm, BW/Σbw)``, bit-matching the scalar.

    Broadcasts: the resource-sum triple and the budget triple may differ
    in shape (e.g. ``(steps,)`` sums against ``(buckets, 1)`` budgets).
    Zero ``c_sum`` / ``m_sum`` / ``bw_replica`` fall back to
    ``batch_target`` exactly like the scalar solver: an unconsumed
    resource can never be the limiter.
    """
    fps_single = freq_hz / maxlat
    bw_replica = dram_bytes * fps_single / 1e9
    bt = np.int64(batch_target)
    comp_term = np.where(
        c_sum > 0, compute // np.maximum(c_sum, 1), bt
    )
    mem_term = np.where(m_sum > 0, memory // np.maximum(m_sum, 1), bt)
    # floor == int() truncation here (the quotient is non-negative); the
    # clip guards the int64 conversion and is proven irrelevant to the
    # min (see _INT_CLIP).
    quotient = np.floor(
        bw_margin / np.where(bw_replica > 0, bw_replica, 1.0)
    )
    bw_term = np.where(
        bw_replica > 0,
        np.minimum(quotient, _INT_CLIP).astype(np.int64),
        bt,
    )
    return np.minimum(np.minimum(comp_term, mem_term), bw_term)


def solve_buckets(
    table: BranchEvalTable,
    rds: Sequence[ResourceBudget],
    batch_target: int,
    timings: KernelTimings | None = None,
) -> list[BranchSolution]:
    """Solve Algorithm 2 for N budget buckets of one branch, batched.

    Returns one :class:`BranchSolution` per budget, in input order,
    bit-identical to ``optimize_branch(pipeline, rd, batch_target, ...)``
    per bucket. ``timings`` (optional) accumulates the per-phase wall
    time split the benchmarks record.
    """
    n = len(rds)
    if n == 0:
        return []
    started = time.perf_counter()
    ladder = table.ladder()
    chains = ladder.chains
    num_stages = len(chains)

    compute = np.array([rd.compute for rd in rds], dtype=np.int64)
    memory = np.array([rd.memory for rd in rds], dtype=np.int64)
    bw_margin = (
        np.array([rd.bandwidth_gbps for rd in rds], dtype=np.float64)
        * BW_PLANNING_MARGIN
    )
    bw_bytes = bw_margin * 1e9
    freq_hz = table.frequency_mhz * 1e6
    dram_bytes = table.dram_bytes

    # Lines 8-12: optimistic targets from the allocated bandwidth. The
    # ratio is computed in Python float exactly as the scalar does, so
    # ceil(scale * ratio) reproduces its rounding bit for bit.
    if table.norm_bw > 0:
        scale = bw_bytes / table.norm_bw
    else:
        scale = np.zeros(n, dtype=np.float64)
    targets = np.empty((num_stages, n), dtype=np.int64)
    for k in range(num_stages):
        ratio = table.ops[k] / table.op_min
        t = np.ceil(scale * ratio)
        t = np.minimum(
            np.maximum(t, 1.0), float(table.max_parallelism[k])
        )
        targets[k] = t.astype(np.int64)

    # Halving phase as a synchronized rung descent: all still-active
    # buckets realize their targets, measure, and either retire (replicas
    # fit, or targets bottomed out at all-ones) or halve and descend.
    final_idx = np.zeros((num_stages, n), dtype=np.int64)
    batch = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    # Memo-traffic accounting: the ladder serves every realization and
    # stage evaluation the scalar loop would have looked up, so the same
    # lookup counts are credited to the table as hits (2 per stage per
    # rung per active bucket — one GetPF, one stage eval).
    memo_served = 0
    while True:
        cols = np.flatnonzero(active)
        memo_served += 2 * num_stages * len(cols)
        t_act = targets[:, cols]
        j_act = np.empty_like(t_act)
        c_sum = np.zeros(len(cols), dtype=np.int64)
        m_sum = np.zeros(len(cols), dtype=np.int64)
        maxlat = np.zeros(len(cols), dtype=np.int64)
        for k, chain in enumerate(chains):
            jk = chain.indices_for(t_act[k])
            j_act[k] = jk
            c_sum += chain.dsp[jk]
            m_sum += chain.bram[jk]
            np.maximum(maxlat, chain.lat[jk], out=maxlat)
        supported = _replicas_supported(
            c_sum,
            m_sum,
            maxlat,
            compute[cols],
            memory[cols],
            bw_margin[cols],
            batch_target,
            dram_bytes,
            freq_hz,
        )
        met = supported >= batch_target
        bottomed = (t_act <= 1).all(axis=0)
        finished = met | bottomed  # "fits" wins when both hold
        if finished.any():
            done = cols[finished]
            final_idx[:, done] = j_act[:, finished]
            batch[done] = np.where(
                met[finished],
                np.int64(batch_target),
                np.maximum(supported[finished], 0),
            )
            active[done] = False
        if not active.any():
            break
        rest = cols[~finished]
        targets[:, rest] = np.maximum(1, targets[:, rest] >> 1)
    if timings is not None:
        now = time.perf_counter()
        timings.ladder_seconds += now - started
        started = now

    # Growth phase: group buckets by halving end-state, trace each
    # state's doubling walk once, and stop each bucket at the first step
    # its budget cannot pay for. States and batch sizes leave numpy as
    # plain ints in one ``tolist`` each, not one scalar index per cell.
    states: list[tuple[int, ...]] = [
        tuple(row) for row in final_idx.T.tolist()
    ]
    batches: list[int] = batch.tolist()
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, size in enumerate(batches):
        if size >= 1:
            groups.setdefault(states[i], []).append(i)
    for start, members in groups.items():
        path = ladder.growth_path(start)
        steps = len(path.trial_c)
        if steps == 0:
            # Immediately saturated: end state == start state. The scalar
            # loop still paid one realize lookup to learn that.
            memo_served += len(members)
            continue
        rows = np.array(members, dtype=np.intp)
        supported = _replicas_supported(
            path.trial_c,
            path.trial_m,
            path.trial_maxlat,
            compute[rows][:, None],
            memory[rows][:, None],
            bw_margin[rows][:, None],
            batch_target,
            dram_bytes,
            freq_hz,
        )
        stop = supported < batch[rows][:, None]
        has_stop = stop.any(axis=1)
        first_stop = np.where(has_stop, np.argmax(stop, axis=1), steps)
        # Scalar equivalence: each applied step costs 3 lookups (realize
        # grown + eval old + eval new); a budget-stopped walk pays all 3
        # on the refused step, a saturated one pays 1 (realize only).
        memo_served += int(
            (3 * first_stop + np.where(has_stop, 3, 1)).sum()
        )
        for i, stop_at in zip(members, first_stop.tolist()):
            states[i] = path.states[stop_at]
    if timings is not None:
        now = time.perf_counter()
        timings.growth_seconds += now - started
        started = now

    # Measure phase: distinct (batch, state) pairs only.
    solutions = [
        ladder.solution(size, state, batch_target)
        for size, state in zip(batches, states)
    ]
    table.credit_memo(memo_served, memo_served)
    if timings is not None:
        timings.measure_seconds += time.perf_counter() - started
    return solutions


__all__ = [
    "BranchLadder",
    "GrowthPath",
    "KernelTimings",
    "StageChain",
    "solve_buckets",
]
