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

- **ladder** — per-stage chains are enumerated once per branch, each
  state evaluated once (:class:`StageChain`, struct-of-arrays: configs,
  pf products, latency, DSP, BRAM). The halving loop's starting targets
  depend only on the bucket's bandwidth (lines 8-12), and rung ``r``
  asks for ``max(1, t0 >> r)``. So everything a rung measures — the
  realized chain states, their DSP and BRAM sums, the bandwidth-limited
  replica quotient, whether the targets have bottomed out — is a
  function of the bandwidth value alone. Each bandwidth value a branch
  meets is descended once, in one vectorized pass over all of a call's
  new values (the DSE's batched path first descends every value its
  spec can reach, in one pass), into a *rung table* kept for the
  table's lifetime. A bucket's stop rung is then the first rung of its
  row whose replicas its budget pays for (or the row's bottom).
- **growth** — the bottleneck-doubling walk is independent of the budget
  except for *where it stops*, so the walk from each distinct halving
  end-state is traced once (:class:`GrowthPath`) and kept as running
  maxima of its trial DSP and BRAM sums. For integers ``c, batch >= 1``,
  ``compute // c < batch`` holds exactly when ``c > compute // batch``.
  Every traced path's maxima sit in one sorted array, each path's shifted
  past the one before it, so the compute and memory stops of all of a
  call's growing buckets are two ``searchsorted`` calls; the bandwidth
  term is one ``(buckets × steps)`` comparison.
- **measure** — final ``(batch, chain-state)`` pairs repeat heavily across
  buckets, so solutions are memoized per pair. Each is aggregated by
  :func:`~repro.perf.estimator.branch_perf` from the per-state
  :class:`~repro.perf.estimator.StagePerf` records the chains hold, so
  no stage state is evaluated twice.

Every arithmetic step reproduces the scalar solver's exact float64
operation order (same products, same divisions, same truncations), so the
kernel is **bit-identical** to calling ``optimize_branch`` per bucket —
the repo-wide determinism guarantee — while removing the per-bucket
Python interpretation that dominated ``eval_seconds``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.arch.config import BranchConfig, StageConfig
from repro.dse.inbranch import (
    BW_PLANNING_MARGIN,
    BranchEvalTable,
    BranchSolution,
)
from repro.perf.estimator import BranchPerf, StagePerf, branch_perf, stage_perf

if TYPE_CHECKING:
    from repro.dse.worker import EvalTimings

#: Clip for the bandwidth quotient before int64 conversion, and the
#: quotient of a replica that moves no external bytes. Any true quotient
#: above this is irrelevant: the final replica count is the min over
#: three terms and is compared against batch targets orders of magnitude
#: smaller, so clipping here — or treating the clip as unlimited — can
#: never change a solution.
_INT_CLIP = 2**62


class StageChain:
    """One stage's full ``GetPF`` doubling chain, as struct-of-arrays.

    ``configs[i]`` is the i-th state of the deterministic doubling walk
    from ``(1, 1, 1)``; ``prods`` its (strictly increasing) pf products;
    ``perfs`` its one evaluation per state, and ``lat`` / ``dsp`` /
    ``bram`` their columns. A scalar target ``t`` realizes as the first
    state with ``prods >= t`` (after the ``max_pf`` clamp ``GetPF``
    applies), or the last state when the chain saturates below ``t`` —
    exactly ``GetPF``'s return value.
    """

    __slots__ = (
        "configs",
        "perfs",
        "prods",
        "lat",
        "dsp",
        "bram",
        "lat_list",
        "dsp_list",
        "bram_list",
        "max_pf",
        "last",
        "doubled",
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
        self.configs = tuple(configs)
        # The table's stage memo is seeded from these when it takes the
        # ladder (BranchEvalTable._adopt).
        self.perfs: tuple[StagePerf, ...] = tuple(
            stage_perf(stage, cfg, table.quant) for cfg in configs
        )
        self.lat_list = [perf.latency_cycles for perf in self.perfs]
        self.dsp_list = [perf.resources.dsp for perf in self.perfs]
        self.bram_list = [perf.resources.bram for perf in self.perfs]
        self.prods = np.array(
            [cfg.cpf * cfg.kpf * cfg.h for cfg in configs], dtype=np.int64
        )
        self.lat = np.array(self.lat_list, dtype=np.int64)
        self.dsp = np.array(self.dsp_list, dtype=np.int64)
        self.bram = np.array(self.bram_list, dtype=np.int64)
        self.max_pf = max_pf
        self.last = len(configs) - 1
        #: The state a growth step moves each state to (itself: saturated).
        self.doubled = self.indices_for(2 * self.prods).tolist()

    def indices_for(self, targets: np.ndarray) -> np.ndarray:
        """Chain indices GetPF would return for an array of targets."""
        if self.max_pf is not None:
            targets = np.minimum(targets, self.max_pf)
        idx = np.searchsorted(self.prods, targets, side="left")
        return np.minimum(idx, self.last)


def _bandwidth_quotient(
    bw_margin: np.ndarray, bw_replica: np.ndarray
) -> np.ndarray:
    """``int(BW / Σbw)``: the replicas a bandwidth budget pays for, as int64.

    ``bw_margin`` is the budget after the planning margin and
    ``bw_replica`` one replica's GB/s; they broadcast. A replica that moves
    no external bytes (``bw_replica == 0``) gets the unlimited quotient
    ``_INT_CLIP``, so no batch target is baked into the result: one rung
    table serves every batch target, and :func:`_replicas_supported`
    turns the unlimited quotient into the scalar's fallback.
    """
    uses = bw_replica > 0
    # floor == int() truncation here (the quotient is non-negative).
    quotient = np.floor(bw_margin / np.where(uses, bw_replica, 1.0))
    return np.where(
        uses, np.minimum(quotient, float(_INT_CLIP)), float(_INT_CLIP)
    ).astype(np.int64)


def _replicas_supported(
    c_sum: np.ndarray,
    m_sum: np.ndarray,
    bw_quotient: np.ndarray,
    compute: np.ndarray,
    memory: np.ndarray,
    batch_target: int,
) -> np.ndarray:
    """Vectorized ``min(C/Σc, M/Σm, BW/Σbw)``, bit-matching the scalar.

    Broadcasts: the per-replica triple and the budget pair may differ in
    shape (e.g. ``(buckets, rungs)`` sums against ``(buckets, 1)``
    budgets). ``bw_quotient`` comes from :func:`_bandwidth_quotient`.
    Zero ``c_sum`` / ``m_sum`` and an unlimited quotient fall back to
    ``batch_target`` exactly like the scalar solver: an unconsumed
    resource can never be the limiter. The growth phase relies on the
    same rule in :meth:`BranchLadder.growth_stops`: a zero sum or an
    unlimited quotient never stops the walk.
    """
    bt = np.int64(batch_target)
    comp_term = np.where(c_sum > 0, compute // np.maximum(c_sum, 1), bt)
    mem_term = np.where(m_sum > 0, memory // np.maximum(m_sum, 1), bt)
    bw_term = np.where(bw_quotient < _INT_CLIP, bw_quotient, bt)
    return np.minimum(np.minimum(comp_term, mem_term), bw_term)


@dataclass(frozen=True)
class GrowthPath:
    """The budget-independent bottleneck-doubling walk from one state.

    ``states[s]`` holds the per-stage chain indices after ``s`` doubling
    steps (``states[0]`` is the start), one small-int row per state. For
    the walk's steps ``0..s``, ``dsp_max[s]`` / ``bram_max[s]`` are the
    running maxima of the trial DSP / BRAM sums, and ``bw_replica[s]`` is
    one replica's bandwidth after step ``s``. A bucket applies the longest
    prefix of steps its budget still pays for.
    """

    states: np.ndarray
    dsp_max: np.ndarray
    bram_max: np.ndarray
    bw_replica: np.ndarray


class BranchLadder:
    """Precomputed batched-solve state for one :class:`BranchEvalTable`.

    Built lazily (``table.ladder()``) because only the batched kernel
    needs it. Holds the per-stage chains, the rung tables (one row per
    bandwidth value the branch has met, ``rungs`` columns), the arrays of
    every growth path traced so far, joined end to end, and the measured
    solutions.
    """

    def __init__(self, table: BranchEvalTable) -> None:
        self.table = table
        self.chains = [
            StageChain(table, idx, table.max_pf)
            for idx in range(len(table.stages))
        ]
        num_stages = len(self.chains)
        self._ratios = np.array([op / table.op_min for op in table.ops])
        self._caps = np.array(table.max_parallelism, dtype=np.float64)
        self._freq_hz = table.frequency_mhz * 1e6
        #: Rungs a descent can take: the bit length of the largest target.
        self.rungs = max(1, max(table.max_parallelism).bit_length())
        self._state_dtype = np.min_scalar_type(
            max(chain.last for chain in self.chains)
        )
        # Any rung's or growth step's DSP or BRAM sum takes one state per
        # stage, so this bound picks the narrowest safe dtype for them.
        bound = sum(
            max(chain.dsp_list) + max(chain.bram_list)
            for chain in self.chains
        )
        self._sum_dtype = (
            np.int32 if bound <= np.iinfo(np.int32).max else np.int64
        )
        # Path p's entries in the joined maxima are shifted by p * stride;
        # the stride exceeds every sum, so each path's block lies above
        # the block of the path before it.
        self._stride = bound + 1
        rungs = self.rungs
        # The bandwidth values met so far, sorted, and each one's row.
        self._known_bw = np.empty(0, dtype=np.float64)
        self._known_rows = np.empty(0, dtype=np.intp)
        # Per row and rung: DSP and BRAM sums, bandwidth quotient, chain
        # states, and the growth path from those states (-1: not traced).
        # Rungs past the row's first bottomed rung repeat it.
        self._rung_dsp = np.empty((0, rungs), dtype=self._sum_dtype)
        self._rung_bram = np.empty((0, rungs), dtype=self._sum_dtype)
        self._rung_quotient = np.empty((0, rungs), dtype=np.int64)
        self._rung_states = np.empty(
            (0, rungs, num_stages), dtype=self._state_dtype
        )
        self._rung_path = np.empty((0, rungs), dtype=np.int32)
        self._rung_floor = np.empty(0, dtype=np.intp)
        #: Steps of each growth path traced so far, by :meth:`path_ids` id.
        self.path_steps = np.empty(0, dtype=np.intp)
        self._path_ids: dict[tuple[int, ...], int] = {}
        # Every traced path joined end to end (see _join_paths): each
        # path's first step; its shifted DSP and BRAM maxima; its states;
        # its replica GB/s per step, zero-padded.
        self._step_start = np.empty(0, dtype=np.intp)
        self._dsp_steps = np.empty(0, dtype=np.int64)
        self._bram_steps = np.empty(0, dtype=np.int64)
        self._path_states = np.empty(
            (0, num_stages), dtype=self._state_dtype
        )
        self._path_bw = np.empty((0, 0), dtype=np.float64)
        # Each measured design, by (batch, state): the batch target only
        # sets ``meets_batch_target``, so a ladder shared across a
        # batch-size sweep measures each design once. The solutions are
        # kept per target too, so a repeated solve returns the same
        # object (the evaluator's design memo keys on solution ids).
        self._measured: dict[
            tuple[int, tuple[int, ...]], tuple[BranchConfig, BranchPerf]
        ] = {}
        self._solutions: dict[
            tuple[int, int, tuple[int, ...]], BranchSolution
        ] = {}

    def _bw_replica(self, maxlat: np.ndarray) -> np.ndarray:
        """One replica's GB/s at a bottleneck latency, in scalar op order."""
        fps_single = self._freq_hz / maxlat
        return self.table.dram_bytes * fps_single / 1e9

    def rung_rows(self, bandwidth: np.ndarray) -> np.ndarray:
        """Each bandwidth value's rung-table row, building missing rows."""
        rows = self._find_rows(bandwidth)
        new = rows < 0
        if new.any():
            # A set, not np.unique: that would import numpy.ma.
            self._descend(np.array(sorted(set(bandwidth[new].tolist()))))
            rows = self._find_rows(bandwidth)
        return rows

    def _find_rows(self, bandwidth: np.ndarray) -> np.ndarray:
        """Rows of known bandwidth values; -1 for values not met yet."""
        known = self._known_bw
        if len(known) == 0:
            return np.full(len(bandwidth), -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(known, bandwidth), len(known) - 1)
        return np.where(known[at] == bandwidth, self._known_rows[at], -1)

    def _descend(self, bandwidth: np.ndarray) -> None:
        """Append one rung-table row per new bandwidth value (one pass)."""
        table = self.table
        bw_margin = bandwidth * BW_PLANNING_MARGIN
        # Lines 8-12: optimistic targets from the allocated bandwidth, in
        # the scalar's float order: scale first, then ceil(scale * ratio).
        if table.norm_bw > 0:
            scale = bw_margin * 1e9 / table.norm_bw
        else:
            scale = np.zeros(len(bandwidth), dtype=np.float64)
        start = np.ceil(scale[:, None] * self._ratios)
        start = np.minimum(np.maximum(start, 1.0), self._caps).astype(
            np.int64
        )
        # Rung r asks for max(1, t0 >> r); the descent stops once every
        # target is 1, and later rungs repeat that one. The targets are
        # made one stage at a time, so a pass over a spec's whole reach
        # holds (values x rungs) arrays, not one more axis of stages.
        depth = max(1, int(start.max()).bit_length())
        shifts = np.arange(depth)
        shape = (len(bandwidth), depth)
        states = np.empty(shape + (len(self.chains),), dtype=self._state_dtype)
        c_sum = np.zeros(shape, dtype=self._sum_dtype)
        m_sum = np.zeros(shape, dtype=self._sum_dtype)
        maxlat = np.zeros(shape, dtype=np.int64)
        bottomed = np.ones(shape, dtype=bool)
        for k, chain in enumerate(self.chains):
            targets = np.maximum(start[:, k, None] >> shifts, 1)
            bottomed &= targets <= 1
            jk = chain.indices_for(targets)
            states[:, :, k] = jk
            c_sum += chain.dsp[jk]
            m_sum += chain.bram[jk]
            np.maximum(maxlat, chain.lat[jk], out=maxlat)
        quotient = _bandwidth_quotient(
            bw_margin[:, None], self._bw_replica(maxlat)
        )
        floor = bottomed.argmax(axis=1)
        cols = np.minimum(np.arange(self.rungs), depth - 1)
        first_row = len(self._rung_floor)
        self._rung_dsp = np.concatenate((self._rung_dsp, c_sum[:, cols]))
        self._rung_bram = np.concatenate((self._rung_bram, m_sum[:, cols]))
        self._rung_quotient = np.concatenate(
            (self._rung_quotient, quotient[:, cols])
        )
        self._rung_states = np.concatenate(
            (self._rung_states, states[:, cols])
        )
        untraced = np.full((len(bandwidth), self.rungs), -1, dtype=np.int32)
        self._rung_path = np.concatenate((self._rung_path, untraced))
        self._rung_floor = np.concatenate((self._rung_floor, floor))
        known = np.concatenate((self._known_bw, bandwidth))
        rows = np.concatenate(
            (self._known_rows, first_row + np.arange(len(bandwidth)))
        )
        order = np.argsort(known, kind="stable")
        self._known_bw = known[order]
        self._known_rows = rows[order]

    def stop_rungs(
        self,
        rows: np.ndarray,
        compute: np.ndarray,
        memory: np.ndarray,
        batch_target: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each bucket's stop rung, replica count and chain states there.

        A bucket stops at the first rung whose replicas fit, or at its
        row's first bottomed rung ("fits" wins when both hold).
        """
        supported = _replicas_supported(
            self._rung_dsp[rows],
            self._rung_bram[rows],
            self._rung_quotient[rows],
            compute[:, None],
            memory[:, None],
            batch_target,
        )
        met = supported >= batch_target
        bottomed = np.arange(self.rungs) >= self._rung_floor[rows][:, None]
        stop = (met | bottomed).argmax(axis=1)
        at = (np.arange(len(rows)), stop)
        batch = np.where(
            met[at], np.int64(batch_target), np.maximum(supported[at], 0)
        )
        return stop, batch, self._rung_states[rows, stop]

    def path_ids(self, rows: np.ndarray, rungs: np.ndarray) -> np.ndarray:
        """The growth path from each (row, rung) end state, traced once."""
        ids = self._rung_path[rows, rungs]
        untraced = ids < 0
        if untraced.any():
            traced = len(self.path_steps)
            new: list[GrowthPath] = []
            pairs = zip(rows[untraced].tolist(), rungs[untraced].tolist())
            for row, rung in dict.fromkeys(pairs):
                start = tuple(self._rung_states[row, rung].tolist())
                path_id = self._path_ids.get(start)
                if path_id is None:
                    path_id = traced + len(new)
                    new.append(self._trace_growth(start))
                    self._path_ids[start] = path_id
                self._rung_path[row, rung] = path_id
            if new:
                self._join_paths(new)
            ids = self._rung_path[rows, rungs]
        return ids

    def _join_paths(self, new: list[GrowthPath]) -> None:
        """Append a call's newly traced paths to the joined arrays.

        New paths take the next ids, so their shifted maxima sort after
        every earlier path's: appending keeps the joined arrays sorted.
        """
        first_id = len(self.path_steps)
        steps = np.array([len(path.bw_replica) for path in new])
        ids = np.arange(first_id, first_id + len(new), dtype=np.int64)
        shift = np.repeat(ids * self._stride, steps)
        first_step = len(self._dsp_steps) + np.cumsum(steps) - steps
        self._step_start = np.concatenate((self._step_start, first_step))
        self.path_steps = np.concatenate((self.path_steps, steps))
        dsp = shift + np.concatenate([path.dsp_max for path in new])
        bram = shift + np.concatenate([path.bram_max for path in new])
        self._dsp_steps = np.concatenate((self._dsp_steps, dsp))
        self._bram_steps = np.concatenate((self._bram_steps, bram))
        self._path_states = np.concatenate(
            [self._path_states] + [path.states for path in new]
        )
        old_rows, old_width = self._path_bw.shape
        bw = np.zeros((len(self.path_steps), int(self.path_steps.max())))
        bw[:old_rows, :old_width] = self._path_bw
        for row, path in zip(bw[old_rows:], new):
            row[: len(path.bw_replica)] = path.bw_replica
        self._path_bw = bw

    def growth_stops(
        self,
        ids: np.ndarray,
        compute: np.ndarray,
        memory: np.ndarray,
        bw_margin: np.ndarray,
        batch: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Steps each bucket applies along its path, the path's length,
        and the chain states the bucket ends in.

        ``ids`` are the buckets' paths and ``batch`` (every entry >= 1)
        their halving-phase replica counts. The first refused step is the
        first whose replica count falls below ``batch``: a trial DSP sum
        above ``compute // batch``, a BRAM sum above ``memory // batch``,
        or a bandwidth quotient below ``batch``. A bucket its path never
        refuses stops at saturation, the path's length.

        Path ``p``'s maxima are shifted by ``p * stride`` in the joined
        arrays, above every entry of the paths before it, so the arrays
        stay sorted, and a query clipped to ``stride - 1`` and shifted
        alike counts exactly the entries of its own path that it covers.
        A zero-padded step has an unlimited bandwidth quotient.
        """
        ids = ids.astype(np.int64)
        shift = ids * self._stride
        top = self._stride - 1
        first = self._step_start[ids]
        stop = np.minimum(
            np.searchsorted(
                self._dsp_steps,
                shift + np.minimum(compute // batch, top),
                side="right",
            ),
            np.searchsorted(
                self._bram_steps,
                shift + np.minimum(memory // batch, top),
                side="right",
            ),
        ) - first
        length = self.path_steps[ids]
        longest = int(length.max())
        if longest:
            short = (
                _bandwidth_quotient(
                    bw_margin[:, None], self._path_bw[:, :longest][ids]
                )
                < batch[:, None]
            )
            stop = np.minimum(
                stop,
                np.where(short.any(axis=1), short.argmax(axis=1), longest),
            )
        # A path has one more state than steps: path p's start at first + p.
        return stop, length, self._path_states[first + ids + stop]

    def _trace_growth(self, start: tuple[int, ...]) -> GrowthPath:
        chains = self.chains
        state = list(start)
        lats = [chains[k].lat_list[j] for k, j in enumerate(state)]
        c_sum = sum(chains[k].dsp_list[j] for k, j in enumerate(state))
        m_sum = sum(chains[k].bram_list[j] for k, j in enumerate(state))
        states = [start]
        trial_c: list[int] = []
        trial_m: list[int] = []
        # Bottleneck latency before each step; from index 1 on, that is
        # the previous step's trial latency.
        maxlat: list[int] = []
        while True:
            # First maximum, matching the scalar bottleneck scan.
            top = max(lats)
            b = lats.index(top)
            maxlat.append(top)
            chain = chains[b]
            j = state[b]
            grown = chain.doubled[j]
            if grown == j:
                break  # saturated: no parallelism left in this stage
            c_sum += chain.dsp_list[grown] - chain.dsp_list[j]
            m_sum += chain.bram_list[grown] - chain.bram_list[j]
            lats[b] = chain.lat_list[grown]
            state[b] = grown
            trial_c.append(c_sum)
            trial_m.append(m_sum)
            states.append(tuple(state))
        return GrowthPath(
            states=np.array(states, dtype=self._state_dtype),
            dsp_max=np.maximum.accumulate(
                np.array(trial_c, dtype=self._sum_dtype)
            ),
            bram_max=np.maximum.accumulate(
                np.array(trial_m, dtype=self._sum_dtype)
            ),
            bw_replica=self._bw_replica(
                np.array(maxlat[1:], dtype=np.int64)
            ),
        )

    def solution(
        self, batch: int, state: tuple[int, ...], batch_target: int
    ) -> BranchSolution:
        """Measure (or recall) the solution for one final kernel state.

        A design is measured from its stages' chain records, so it
        evaluates no stage state again.
        """
        key = (batch, batch_target, state)
        sol = self._solutions.get(key)
        if sol is None:
            measured = self._measured.get((batch, state))
            if measured is None:
                table = self.table
                chains = self.chains
                config = BranchConfig(
                    batch_size=batch,
                    stages=tuple(
                        chain.configs[j] for chain, j in zip(chains, state)
                    ),
                )
                measured = self._measured[batch, state] = (
                    config,
                    branch_perf(
                        table.pipeline,
                        batch,
                        [chain.perfs[j] for chain, j in zip(chains, state)],
                        table.quant,
                        table.frequency_mhz,
                    ),
                )
            config, perf = measured
            sol = BranchSolution(
                config=config,
                perf=perf,
                meets_batch_target=batch >= batch_target,
            )
            self._solutions[key] = sol
        return sol


def solve_buckets(
    table: BranchEvalTable,
    compute: np.ndarray,
    memory: np.ndarray,
    bandwidth: np.ndarray,
    batch_target: int,
    timings: EvalTimings | None = None,
) -> list[BranchSolution]:
    """Solve Algorithm 2 for N budget buckets of one branch, batched.

    Bucket ``i`` is the budget ``compute[i]`` DSPs, ``memory[i]`` BRAMs and
    ``bandwidth[i]`` GB/s (non-negative and finite). Returns one
    :class:`BranchSolution` per bucket, in input order, bit-identical to
    ``optimize_branch(pipeline, rd, batch_target, ...)`` per bucket.
    ``timings`` (optional) is the search's
    :class:`~repro.dse.worker.EvalTimings`; the kernel adds each phase's
    wall time to its ``ladder`` / ``growth`` / ``measure`` fields.
    """
    compute = np.asarray(compute, dtype=np.int64)
    memory = np.asarray(memory, dtype=np.int64)
    bandwidth = np.asarray(bandwidth, dtype=np.float64)
    n = len(compute)
    if n == 0:
        return []
    started = time.perf_counter()
    ladder = table.ladder()
    num_stages = len(ladder.chains)

    rows = ladder.rung_rows(bandwidth)
    stop, batch, final = ladder.stop_rungs(
        rows, compute, memory, batch_target
    )
    # Memo-traffic accounting: the ladder serves every realization and
    # stage evaluation the scalar loop would have looked up, so the same
    # lookup counts are credited to the table as hits (2 per stage per
    # rung visited — one GetPF, one stage eval).
    memo_served = 2 * num_stages * (int(stop.sum()) + n)
    if timings is not None:
        now = time.perf_counter()
        timings.ladder_seconds += now - started
        started = now

    # Growth phase: buckets that fit at least one replica walk on from
    # their halving end state along the path that state starts.
    grow = np.flatnonzero(batch >= 1)
    if len(grow):
        steps, length, grown = ladder.growth_stops(
            ladder.path_ids(rows[grow], stop[grow]),
            compute[grow],
            memory[grow],
            bandwidth[grow] * BW_PLANNING_MARGIN,
            batch[grow],
        )
        final[grow] = grown
        # Scalar equivalence: each applied step costs 3 lookups (realize
        # grown + eval old + eval new); a budget-stopped walk pays all 3
        # on the refused step, a saturated one pays 1 (realize only).
        memo_served += int(
            (3 * steps + np.where(steps < length, 3, 1)).sum()
        )
    if timings is not None:
        now = time.perf_counter()
        timings.growth_seconds += now - started
        started = now

    # Measure phase: distinct (batch, state) rows only, compared as raw
    # bytes; only those rows become tuples.
    keyed = np.column_stack((batch, final))
    as_bytes = keyed.view(
        np.dtype((np.void, keyed.itemsize * keyed.shape[1]))
    )
    _, first, inverse = np.unique(
        as_bytes.ravel(), return_index=True, return_inverse=True
    )
    measured = [
        ladder.solution(row[0], tuple(row[1:]), batch_target)
        for row in keyed[first].tolist()
    ]
    solutions = [measured[i] for i in inverse.tolist()]
    table.credit_memo(memo_served, memo_served)
    if timings is not None:
        timings.measure_seconds += time.perf_counter() - started
    return solutions


__all__ = [
    "BranchLadder",
    "GrowthPath",
    "StageChain",
    "solve_buckets",
]
