"""In-branch greedy optimization — the paper's Algorithm 2.

Given one branch pipeline and a resource distribution ``rd = {C, M, BW}``:

1. compute per-stage compute demands ``op_k`` and data-reuse statistics
   (``GetReuse``), and derive *optimistic* parallelism targets proportional
   to ``op_k`` — this load-balances the pipeline, which maximizes Eq. 5's
   throughput since the slowest stage sets the beat;
2. realize the targets as ``(cpf, kpf, h)`` triples via ``GetPF``;
3. compute the replica count the distribution supports
   (``batchsize = min(C/Σc, M/Σm, BW/Σbw)``); while it falls short of the
   requested batch size, halve all targets (a smaller pipeline fits more
   replicas) and retry — the greedy search converges when the parallelism
   stops growing.

The DSE calls this function hundreds of thousands of times per search, so
everything that does not depend on the resource distribution is hoisted
into a :class:`BranchEvalTable` built once per branch: the per-stage
reuse/DRAM-byte statistics and the ``norm_bw`` normalization are plain
precomputed constants, and ``GetPF`` realizations plus per-stage
latency/resource evaluations are memoized — profiled runs show those inner
calls are 84–99.7 % redundant across candidates, because the halving
ladder and the growth phase revisit the same ``(stage, config)`` points
for almost every distribution.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.config import BranchConfig, StageConfig
from repro.construction.reorg import BranchPipeline
from repro.devices.budget import ResourceBudget
from repro.dse.space import get_pf
from repro.perf.estimator import BranchPerf, evaluate_branch, stage_perf
from repro.perf.resources import stage_stream_bytes
from repro.quant.schemes import QuantScheme

if TYPE_CHECKING:
    from repro.dse.kernel import BranchLadder

#: Planning margin on external bandwidth: designs are sized against 90 % of
#: the nominal budget because sustained DDR throughput never reaches peak
#: (the cycle-accurate simulator models ~93 % efficiency).
BW_PLANNING_MARGIN = 0.90

# Stage-memo accounting is *per table* (each BranchEvalTable counts its own
# lookups and hits), aggregated at snapshot time: the process-wide totals
# are the sum over live tables plus the counts retired by tables that have
# been garbage-collected. That keeps :func:`stage_memo_stats` monotone
# non-decreasing — the property before/after snapshots rely on —
# without any mutable module globals on the solve hot path.
_LIVE_TABLES: "weakref.WeakSet[BranchEvalTable]" = weakref.WeakSet()
_RETIRED_COUNTS = [0, 0]  # [hits, lookups] from collected tables


def _retire_counters(counters: list[int]) -> None:
    _RETIRED_COUNTS[0] += counters[0]
    _RETIRED_COUNTS[1] += counters[1]


def stage_memo_stats() -> tuple[int, int]:
    """(hits, lookups) served by stage-level memo tables so far.

    Snapshot before/after a batch of work to attribute the delta (the
    generation evaluator does exactly that per solve). The totals only
    ever grow: live tables are summed directly, and a table's final counts
    are folded into the retired accumulator when it is collected.
    """
    # List the live tables before reading the retired counts: the list
    # keeps them alive, and a table the collector frees while they are
    # listed has retired its counts by the time they are read.
    tables = list(_LIVE_TABLES)
    hits, lookups = _RETIRED_COUNTS
    for table in tables:
        hits += table._counters[0]
        lookups += table._counters[1]
    return hits, lookups


@dataclass(frozen=True)
class BranchSolution:
    """Best configuration Algorithm 2 found for one resource distribution.

    This is the objective-independent unit the evaluation cache stores:
    a pure function of the problem spec and the budget bucket, with no
    fitness baked in. The evaluator derives a candidate's
    :class:`~repro.dse.objective.BranchMetrics` from its per-branch
    solutions (``fps``, ``meets_batch_target``) and scores those with
    whatever objective is configured — which is why cached solutions stay
    valid across objective switches.
    """

    config: BranchConfig
    perf: BranchPerf
    meets_batch_target: bool

    @property
    def fps(self) -> float:
        return self.perf.fps


def _stage_dram_bytes(stage, quant: QuantScheme, is_terminal: bool) -> float:
    """Per-frame external-memory bytes a stage moves at full speed."""
    bytes_per_frame = stage_stream_bytes(stage, quant)
    bytes_per_frame += quant.activation_bytes(stage.external_input_elements)
    if is_terminal:
        bytes_per_frame += quant.activation_bytes(stage.output_elements)
    return bytes_per_frame


def _stage_reuse(stage, quant: QuantScheme, is_terminal: bool) -> float:
    """GetReuse: external bytes moved per op — the data-reuse statistic.

    A stage with high reuse (many ops per byte) leaves bandwidth for the
    rest of the pipeline; a low-reuse stage (streamed weights, untied
    biases) is the one that exhausts ``BW`` first.
    """
    return _stage_dram_bytes(stage, quant, is_terminal) / max(1, stage.ops)


class BranchEvalTable:
    """Everything Algorithm 2 needs about one branch, computed once.

    Holds the distribution-independent constants (per-stage ops, the
    reuse-weighted bandwidth normalization, total DRAM bytes, parallelism
    caps) plus two memo tables over the distribution-dependent inner
    steps:

    - ``realize(idx, target)`` — ``GetPF`` for stage ``idx``;
    - ``stage_eval(idx, cfg)`` — ``(latency cycles, DSP, BRAM)`` of stage
      ``idx`` under ``cfg``.

    Memoized values are exact (the memo key is the full input), so routing
    Algorithm 2 through a table is bit-identical to recomputing — it only
    removes the redundant arithmetic, which dominates the search's wall
    time.

    ``ladders`` is a registry of batched-kernel ladders shared by every
    table of the same problem (the constructor's arguments): the table
    adopts the registered ladder instead of building its own, or
    registers the one it builds. A table without one never shares.
    """

    def __init__(
        self,
        pipeline: BranchPipeline,
        quant: QuantScheme,
        frequency_mhz: float = 200.0,
        max_h: int | None = None,
        max_pf: int | None = None,
        ladders: "dict[str, BranchLadder] | None" = None,
    ) -> None:
        self.pipeline = pipeline
        self.quant = quant
        self.frequency_mhz = frequency_mhz
        self.max_h = max_h
        self.max_pf = max_pf
        stages = [planned.stage for planned in pipeline.stages]
        self.stages = stages
        self.ops = [max(1, stage.ops) for stage in stages]
        self.op_min = min(self.ops)
        last = len(stages) - 1
        # Lines 8-12 of the paper: with every stage at
        # pf_k = S x (op_k / op_min) the pipeline is load-balanced and
        # consumes norm_bw x S bytes/s.
        self.norm_bw = sum(
            (op / self.op_min) * _stage_reuse(stage, quant, idx == last)
            for idx, (op, stage) in enumerate(zip(self.ops, stages))
        ) * (frequency_mhz * 1e6)
        self.dram_bytes = sum(
            _stage_dram_bytes(stage, quant, idx == last)
            for idx, stage in enumerate(stages)
        )
        self.max_parallelism = [stage.max_parallelism for stage in stages]
        self._realize: list[dict[int, StageConfig]] = [{} for _ in stages]
        self._stage_eval: list[dict[StageConfig, tuple[int, int, int]]] = [
            {} for _ in stages
        ]
        # Per-table memo accounting ([hits, lookups]); aggregated across
        # tables by stage_memo_stats(). The finalizer keeps the list (not
        # the table) alive, so a collected table's counts retire exactly
        # once.
        self._counters = [0, 0]
        self._ladder: "BranchLadder | None" = None
        self._ladders = ladders
        _LIVE_TABLES.add(self)
        weakref.finalize(self, _retire_counters, self._counters)

    @property
    def stage_hits(self) -> int:
        """Memoized inner-step lookups this table served without recompute."""
        return self._counters[0]

    @property
    def stage_lookups(self) -> int:
        """Memoized inner-step lookups this table has seen."""
        return self._counters[1]

    def ladder(self) -> "BranchLadder":
        """The branch's precomputed halving/growth ladder (built lazily).

        The batched kernel (:mod:`repro.dse.kernel`) solves whole
        generations of budget buckets against this struct-of-arrays view
        of the GetPF chains; the scalar path never needs it. Its memos
        hold no budget and key solutions by batch target, so one ladder
        serves every table of the same problem.
        """
        if self._ladder is None:
            from repro.dse.kernel import BranchLadder

            registry = self._ladders
            if registry is None:
                ladder = BranchLadder(self)
            else:
                problem = (
                    self.pipeline,
                    self.quant,
                    self.frequency_mhz,
                    self.max_h,
                    self.max_pf,
                )
                key = hashlib.sha1(pickle.dumps(problem)).hexdigest()
                ladder = registry.get(key)
                if ladder is None:
                    ladder = registry[key] = BranchLadder(self)
            self._adopt(ladder)
        return self._ladder

    @property
    def has_ladder(self) -> bool:
        """Whether :meth:`ladder` has built or adopted one yet."""
        return self._ladder is not None

    def _adopt(self, ladder: "BranchLadder") -> None:
        """Take a ladder, built for this table or shared by its problem.

        A ladder evaluates each chain state once; the table looks every
        state up once through its stage memo, as :meth:`stage_eval`
        would: a hit where the memo holds the state, otherwise the
        chain's exact ``(latency, DSP, BRAM)`` seeds the memo. So a table
        that adopts a shared ladder ends with the memo and counters of
        one that built it.
        """
        counters = self._counters
        for memo, chain in zip(self._stage_eval, ladder.chains):
            counters[1] += len(chain.configs)
            for cfg, entry in zip(
                chain.configs,
                zip(chain.lat_list, chain.dsp_list, chain.bram_list),
            ):
                if cfg in memo:
                    counters[0] += 1
                else:
                    memo[cfg] = entry
        self._ladder = ladder

    def credit_memo(self, hits: int, lookups: int) -> None:
        """Fold externally served memo traffic into this table's counters.

        The batched kernel serves realizations and stage evaluations from
        its precomputed ladder instead of these memo dicts; it reports
        that traffic here (as hits — the ladder is a warm memo by
        construction) so ``stage_memo_stats()`` keeps describing the
        evaluation path's memo activity regardless of which solver ran.
        """
        self._counters[0] += hits
        self._counters[1] += lookups

    def realize(self, idx: int, target: int) -> StageConfig:
        """GetPF for stage ``idx``, memoized per parallelism target."""
        counters = self._counters
        counters[1] += 1
        memo = self._realize[idx]
        cfg = memo.get(target)
        if cfg is None:
            cfg = get_pf(
                self.stages[idx], target, max_h=self.max_h, max_pf=self.max_pf
            )
            memo[target] = cfg
        else:
            counters[0] += 1
        return cfg

    def stage_eval(self, idx: int, cfg: StageConfig) -> tuple[int, int, int]:
        """(latency cycles, DSP, BRAM) of stage ``idx`` under ``cfg``."""
        counters = self._counters
        counters[1] += 1
        memo = self._stage_eval[idx]
        entry = memo.get(cfg)
        if entry is None:
            perf = stage_perf(self.stages[idx], cfg, self.quant)
            entry = memo[cfg] = (
                perf.latency_cycles,
                perf.resources.dsp,
                perf.resources.bram,
            )
        else:
            counters[0] += 1
        return entry


def optimize_branch(
    pipeline: BranchPipeline,
    rd: ResourceBudget,
    batch_target: int,
    quant: QuantScheme,
    frequency_mhz: float = 200.0,
    max_h: int | None = None,
    max_pf: int | None = None,
    table: BranchEvalTable | None = None,
) -> BranchSolution:
    """Algorithm 2: the best branch configuration under ``rd``.

    ``max_h`` / ``max_pf`` apply the customization's maximum-parallelism
    constraints per stage (``max_h = 1`` degrades the architecture to
    two-level parallelism). Pass a prebuilt ``table`` (matching the other
    arguments) to amortize the branch constants across many calls — the
    DSE keeps one table per ``(spec, branch)`` per process.
    """
    if table is None:
        table = BranchEvalTable(
            pipeline, quant, frequency_mhz, max_h=max_h, max_pf=max_pf
        )

    # Lines 8-12: optimistic parallelism targets from the allocated
    # bandwidth, proportional to each stage's compute demand; exhausting
    # the allocation gives the largest (most optimistic) scale.
    bw_bytes_per_s = rd.bandwidth_gbps * BW_PLANNING_MARGIN * 1e9
    if table.norm_bw > 0 and bw_bytes_per_s > 0:
        scale = bw_bytes_per_s / table.norm_bw
    else:
        scale = 0.0
    pf_targets = [
        max(1, math.ceil(scale * (op / table.op_min))) for op in table.ops
    ]
    # Never ask for more than the architecture can provide.
    pf_targets = [
        min(target, cap)
        for target, cap in zip(pf_targets, table.max_parallelism)
    ]

    def replicas_supported(
        c_sum: int, m_sum: int, latencies: list[int]
    ) -> int:
        """Lines 16-18: batchsize = min(C/Σc, M/Σm, BW/Σbw).

        A zero ``c_sum`` / ``m_sum`` / ``bw_replica`` means the pipeline
        consumes none of that resource (e.g. a quantization that maps all
        MACs to LUTs uses zero DSPs), so that resource can never be the
        limiter: its term falls back to ``batch_target``, the largest
        replica count the search ever asks for, leaving the decision to
        the resources the pipeline does consume.
        """
        fps_single = frequency_mhz * 1e6 / max(latencies)
        bw_replica = table.dram_bytes * fps_single / 1e9
        return min(
            rd.compute // c_sum if c_sum else batch_target,
            rd.memory // m_sum if m_sum else batch_target,
            int(rd.bandwidth_gbps * BW_PLANNING_MARGIN / bw_replica)
            if bw_replica > 0
            else batch_target,
        )

    def measure(configs: list[StageConfig]) -> tuple[int, int, list[int]]:
        c_sum = 0
        m_sum = 0
        latencies = []
        for idx, cfg in enumerate(configs):
            latency, dsp, bram = table.stage_eval(idx, cfg)
            c_sum += dsp
            m_sum += bram
            latencies.append(latency)
        return c_sum, m_sum, latencies

    # Lines 13-24: greedy shrink until the requested replicas fit.
    while True:
        configs = [
            table.realize(idx, target)
            for idx, target in enumerate(pf_targets)
        ]
        c_sum, m_sum, latencies = measure(configs)
        batch = replicas_supported(c_sum, m_sum, latencies)
        if batch >= batch_target:
            batch = batch_target
            break
        if all(target <= 1 for target in pf_targets):
            batch = max(0, batch)
            break
        pf_targets = [max(1, target // 2) for target in pf_targets]

    # Growth phase: the halving above lands on a power-of-two ladder, which
    # can leave up to half the distribution unused. Keep doubling the
    # *bottleneck* stage (the only move that improves Eq. 5) while the
    # requested replicas still fit; converge "once the parallelism fails to
    # grow". Only the bottleneck's contribution changes per step, so the
    # resource sums and the latency list are updated incrementally.
    if batch >= 1:
        while True:
            # Single-pass argmax (first maximum, like list.index(max(...))
            # but without scanning the list twice).
            bottleneck = max(range(len(latencies)), key=latencies.__getitem__)
            current = configs[bottleneck]
            grown = table.realize(bottleneck, current.pf * 2)
            if grown == current:
                break  # saturated: no parallelism left in this stage
            old_latency, old_dsp, old_bram = table.stage_eval(
                bottleneck, current
            )
            new_latency, new_dsp, new_bram = table.stage_eval(
                bottleneck, grown
            )
            trial_c = c_sum - old_dsp + new_dsp
            trial_m = m_sum - old_bram + new_bram
            trial_latencies = list(latencies)
            trial_latencies[bottleneck] = new_latency
            if replicas_supported(trial_c, trial_m, trial_latencies) < batch:
                break  # the distribution cannot pay for more parallelism
            configs[bottleneck] = grown
            c_sum, m_sum, latencies = trial_c, trial_m, trial_latencies

    config = BranchConfig(batch_size=batch, stages=tuple(configs))
    perf = evaluate_branch(pipeline, config, quant, frequency_mhz)
    return BranchSolution(
        config=config, perf=perf, meets_batch_target=batch >= batch_target
    )
