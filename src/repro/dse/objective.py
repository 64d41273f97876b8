"""The pluggable objective layer: candidate → metrics → scalar fitness.

Candidate evaluation is a two-stage pipeline:

1. a :class:`MetricsOracle` turns a candidate design into a
   :class:`BranchMetrics` record — *measurements*, free of any preference
   about what "good" means;
2. an :class:`Objective` folds those metrics into the scalar fitness the
   cross-branch search maximizes.

Splitting the two is what makes the evaluation cache objective-independent:
Algorithm-2 solutions (and the analytical metrics derived from them) are a
pure function of the problem spec and the budget bucket, so a warm cache
keeps hitting when the caller switches from the paper's Sec. VI-B1 fitness
to an SLO objective — only the cheap scoring changes.

Stage 1 scores every PSO position on :func:`metrics_from_solutions`:
metrics straight from the Algorithm-2 solutions (per-branch
steady-state FPS, batch feasibility). The re-rank oracles, both more
expensive:

- :class:`SimOracle` — re-measures the candidate with the cycle-accurate
  simulator (:func:`repro.sim.runner.simulate`): branch FPS including
  pipeline-fill and DRAM-contention effects the analytical model idealizes.
- :class:`ServingOracle` — deploys the candidate's
  :class:`~repro.sim.runner.FrameLatencyProfile` on simulated replicas and
  replays a canned multi-avatar workload through :mod:`repro.serving`,
  returning p99 latency and deadline-miss SLOs under load.

Objectives:

- :class:`PaperObjective` — Sec. VI-B1, bit-identical to the historical
  fitness formula: priority-weighted FPS minus ``alpha`` times the
  branch-FPS population variance.
- :class:`SloObjective` — maximize ``-(p99 + miss_weight x (miss_rate +
  shed_rate + failed_rate))`` when serving metrics are present; falls
  back to the paper objective as a cheap proxy on analytical metrics
  (stage 1 of a staged search).
- :class:`CompositeObjective` — a weight-normalized blend of objectives.

The expensive oracles are not run on every candidate: the search scores
every position with the analytical oracle and re-ranks only the top-K
candidates per generation through the expensive oracle (see
:class:`~repro.dse.crossbranch.CrossBranchOptimizer`). Expensive metrics
are cached under keys that fold in the oracle identity — analytical
entries never need it, because they are the same for every oracle stack.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, Protocol, Sequence, runtime_checkable

from repro.utils.checks import check_finite
from repro.utils.sums import ordered_sum

if TYPE_CHECKING:
    from repro.dse.inbranch import BranchSolution
    from repro.dse.worker import EvalSpec
    from repro.serving.cluster import GroupSpec

#: Fitness penalty per branch that cannot honour its requested batch size.
#: Applied outside the objective (see :func:`penalized_score`): an
#: infeasible design must lose under *any* objective, paper or SLO.
INFEASIBILITY_PENALTY = 1e6


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BranchMetrics:
    """Objective-independent measurements for one candidate design.

    ``fps`` / ``meets_batch`` are always present (every oracle can report
    them); the serving SLOs are ``None`` unless the producing oracle
    actually replayed a workload.

    :attr:`shortfall` and :attr:`fps_variance` are computed once per
    record and cached on it, outside the fields: equality, hashing,
    pickles and ``result_to_dict`` see only the measurements. A search
    scores every candidate but builds one record per distinct design, so
    each candidate's score reads the two instead of recomputing them.
    """

    fps: tuple[float, ...]
    meets_batch: tuple[bool, ...]
    oracle: str = "analytical"
    p99_ms: float | None = None
    deadline_miss_rate: float | None = None
    throughput_fps: float | None = None
    #: Fraction of the replayed workload shed by admission control
    #: (``None`` when the replay ran without shedding). Kept alongside
    #: the miss rate so an objective cannot be gamed by dropping frames.
    shed_rate: float | None = None
    #: Fraction of the replayed workload that resolved as *failed* —
    #: frames whose replica died past the retry budget. ``None`` on
    #: fault-free replays; charged like a miss so a chaos replay cannot
    #: game the score by abandoning the frames it cannot recover.
    failed_rate: float | None = None

    @cached_property
    def shortfall(self) -> int:
        """Branches that cannot honour their requested batch size."""
        return sum(1 for ok in self.meets_batch if not ok)

    @cached_property
    def fps_variance(self) -> float:
        """Population variance of the branch FPS (0.0 for one branch),
        exactly ``statistics.pvariance`` (see :func:`_pvariance`)."""
        fps = self.fps
        return _pvariance(fps) if len(fps) > 1 else 0.0

    def __getstate__(self) -> dict:
        # Pickle the measurements only, never a value cached above.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def metrics_from_solutions(
    solutions: Sequence["BranchSolution"], oracle: str = "analytical"
) -> BranchMetrics:
    """The analytical metrics record of a completed candidate."""
    return BranchMetrics(
        fps=tuple(s.fps for s in solutions),
        meets_batch=tuple(s.meets_batch_target for s in solutions),
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------
@runtime_checkable
class Objective(Protocol):
    """Metrics → scalar fitness (maximized by the cross-branch search).

    ``score`` must be a pure function of ``(metrics, priorities)``: no
    state, no randomness, no side effects. Candidates that resolve to the
    same design share one metrics record
    (:class:`~repro.dse.worker.GenerationEvaluator`), and a search's
    result must not depend on how often or in what order it is scored.
    """

    name: ClassVar[str]

    @property
    def key(self) -> str:
        """Stable identity string (parameters included) for dedup keys."""
        ...

    def score(
        self, metrics: BranchMetrics, priorities: tuple[float, ...]
    ) -> float: ...


@dataclass(frozen=True)
class PaperObjective:
    """Sec. VI-B1: ``S(Perf, U) - P(Perf)``.

    ``S`` is the priority-weighted performance ``sum_j perf_j x P_j`` and
    ``P`` the variance penalty ``alpha x sigma^2(Perf)`` that discourages
    starving one branch to fatten another (an avatar whose geometry
    updates at 120 FPS but whose texture crawls at 10 FPS is useless).
    Bit-identical to the historical fitness formula, whose weighted sum
    adds left to right on every Python, as :func:`ordered_sum` does; the
    variance is the record's cached :attr:`BranchMetrics.fps_variance`.
    ``alpha`` is a finite number >= 0: a negative weight would reward
    the imbalance the penalty exists to prevent.
    """

    alpha: float = 0.05

    name: ClassVar[str] = "paper"

    def __post_init__(self) -> None:
        check_finite("alpha", self.alpha, minimum=0.0)

    @property
    def key(self) -> str:
        return f"paper(alpha={self.alpha!r})"

    def score(
        self, metrics: BranchMetrics, priorities: tuple[float, ...]
    ) -> float:
        fps = metrics.fps
        if len(fps) != len(priorities):
            raise ValueError("fps and priorities must have the same length")
        weighted = 0.0
        for f, p in zip(fps, priorities):
            weighted += f * p
        return weighted - self.alpha * metrics.fps_variance


#: From Python 3.11 on, ``statistics.pvariance`` rounds the exact rational
#: variance once; not every older release does.
_EXACT_PVARIANCE = sys.version_info >= (3, 11)


def _pvariance(values: Sequence[float]) -> float:
    """``statistics.pvariance`` of floats, computed with integers.

    Every finite float is a dyadic rational ``n / 2**k``. Scaling each
    numerator to the common denominator ``2**s`` makes the population
    variance the single rational ``(n·Σx² − (Σx)²) / (n²·2**(2s))`` of two
    integers, and int/int true division rounds it once, correctly. That is
    the rational ``pvariance`` builds from ``Fraction`` objects and rounds
    once, so the float is the same, bit for bit, without a ``Fraction`` in
    sight. Anything but finite floats goes to ``pvariance`` itself, and so
    does everything on Python before 3.11: not every older ``pvariance``
    rounds the exact rational (3.9's squares float deviations from a float
    mean).
    """
    if not _EXACT_PVARIANCE:
        return statistics.pvariance(values)
    ratios = []
    den = 1  # the common denominator: the largest power of two
    for x in values:
        if type(x) is not float or not math.isfinite(x):
            return statistics.pvariance(values)
        n, d = x.as_integer_ratio()
        ratios.append((n, d))
        if d > den:
            den = d
    total = squares = 0
    for n, d in ratios:
        n *= den // d
        total += n
        squares += n * n
    count = len(ratios)
    return (count * squares - total * total) / (count * count * den * den)


@dataclass(frozen=True)
class SloObjective:
    """Serving-driven fitness: minimize p99-under-load and deadline misses.

    On metrics that carry serving SLOs the fitness is
    ``-(p99_ms + miss_weight x (miss_rate + shed_rate + failed_rate))``
    — a deadline-miss rate of 10 % costs as much as ``0.1 x miss_weight``
    milliseconds of p99, and a *shed* or *failed* (unrecovered after a
    replica fault) frame costs exactly as much as a late one (otherwise
    a shedding or chaos replay could game the score by dropping the
    traffic it cannot serve). On purely analytical
    metrics (stage 1 of a staged search, before any replay has
    happened) it falls back to the paper objective as a cheap proxy:
    higher weighted steady-state FPS correlates with lower latency under
    load, which is exactly what makes the analytical stage a useful
    pre-filter for the expensive re-rank. ``miss_weight`` is a finite
    number >= 0: a NaN would make every re-ranked score NaN, so no
    re-ranked design could ever be kept.
    """

    miss_weight: float = 1000.0
    fallback_alpha: float = 0.05

    name: ClassVar[str] = "slo"

    def __post_init__(self) -> None:
        check_finite("miss_weight", self.miss_weight, minimum=0.0)
        check_finite("fallback_alpha", self.fallback_alpha, minimum=0.0)
        # The analytical-stage proxy, built once (not a field: equality
        # and the key already carry ``fallback_alpha``).
        object.__setattr__(
            self, "_fallback", PaperObjective(alpha=self.fallback_alpha)
        )

    @property
    def key(self) -> str:
        return (
            f"slo(miss_weight={self.miss_weight!r},"
            f"fallback_alpha={self.fallback_alpha!r})"
        )

    def score(
        self, metrics: BranchMetrics, priorities: tuple[float, ...]
    ) -> float:
        if metrics.p99_ms is None:
            return self._fallback.score(metrics, priorities)
        miss_rate = metrics.deadline_miss_rate or 0.0
        shed_rate = metrics.shed_rate or 0.0
        failed_rate = metrics.failed_rate or 0.0
        return -(
            metrics.p99_ms
            + self.miss_weight * (miss_rate + shed_rate + failed_rate)
        )


@dataclass(frozen=True)
class CompositeObjective:
    """A weighted blend of objectives; weights are normalized to sum 1.

    Normalization makes weight *vectors* comparable — ``(paper, 2),
    (slo, 2)`` and ``(paper, 0.5), (slo, 0.5)`` are the same objective,
    and a single-part composite scores exactly like the part alone. It
    does **not** normalize the parts' score scales: the paper objective
    returns weighted FPS (can be 1e2..1e6) while the SLO objective
    returns negative milliseconds (-1e1..-1e3), so with naive equal
    weights the larger-scale part dominates the ranking. Choose weights
    that absorb the scale gap for the problem at hand — e.g.
    ``(PaperObjective(), 0.001), (SloObjective(), 1.0)`` values one FPS
    of weighted throughput at one microsecond of p99. Each weight is a
    finite number > 0.
    """

    parts: tuple[tuple[Objective, float], ...]

    name: ClassVar[str] = "composite"

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a composite objective needs at least one part")
        weights = [weight for _, weight in self.parts]
        for position, weight in enumerate(weights):
            name = f"composite weight {position}"
            check_finite(name, weight, minimum=0.0)
            if weight == 0:
                raise ValueError(f"{name} must be > 0, got {weight!r}")
        total = ordered_sum(weights)
        object.__setattr__(
            self,
            "parts",
            tuple(
                (objective, weight / total)
                for objective, weight in self.parts
            ),
        )

    @property
    def key(self) -> str:
        inner = "+".join(
            f"{weight:g}*{objective.key}" for objective, weight in self.parts
        )
        return f"composite({inner})"

    def score(
        self, metrics: BranchMetrics, priorities: tuple[float, ...]
    ) -> float:
        return ordered_sum(
            weight * objective.score(metrics, priorities)
            for objective, weight in self.parts
        )


def penalized_score(
    objective: Objective,
    metrics: BranchMetrics,
    priorities: tuple[float, ...],
) -> float:
    """Objective score with the hard infeasibility constraint applied.

    A distribution that cannot honour the requested batch sizes is
    strictly worse than any that can, under every objective.
    """
    return (
        objective.score(metrics, priorities)
        - INFEASIBILITY_PENALTY * metrics.shortfall
    )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------
@runtime_checkable
class MetricsOracle(Protocol):
    """Candidate → :class:`BranchMetrics`.

    ``measure`` receives the frozen problem spec, the raw position, and the
    candidate's Algorithm-2 solutions (every oracle builds on the completed
    configuration; none re-runs the in-branch search).
    """

    name: ClassVar[str]

    @property
    def key(self) -> str:
        """Stable identity string — folded into non-analytical cache keys."""
        ...

    def measure(
        self,
        spec: "EvalSpec",
        position: Sequence[float],
        solutions: Sequence["BranchSolution"],
    ) -> BranchMetrics: ...


def _candidate_config(solutions: Sequence["BranchSolution"]):
    from repro.arch.config import AcceleratorConfig

    return AcceleratorConfig(branches=tuple(s.config for s in solutions))


@dataclass(frozen=True)
class SimOracle:
    """Cycle-accurate re-measurement via :func:`repro.sim.runner.simulate`.

    Branch FPS comes from simulated steady-state inter-frame spacing, so
    pipeline-fill and DRAM-contention effects the analytical model
    idealizes away show up in the score. Imports are deferred so the DSE
    package stays simulator-free until an oracle actually runs.
    """

    frames: int = 6
    warmup: int = 1

    name: ClassVar[str] = "sim"

    @property
    def key(self) -> str:
        return f"sim(frames={self.frames},warmup={self.warmup})"

    def measure(
        self,
        spec: "EvalSpec",
        position: Sequence[float],
        solutions: Sequence["BranchSolution"],
    ) -> BranchMetrics:
        from repro.sim.runner import simulate

        report = simulate(
            plan=spec.plan,
            config=_candidate_config(solutions),
            quant=spec.quant,
            bandwidth_gbps=spec.budget.bandwidth_gbps,
            frequency_mhz=spec.frequency_mhz,
            frames=self.frames,
            warmup=self.warmup,
        )
        return BranchMetrics(
            fps=report.branch_fps,
            meets_batch=tuple(s.meets_batch_target for s in solutions),
            oracle=self.name,
        )


@dataclass(frozen=True)
class ServingOracle:
    """Replay a canned multi-avatar workload on the candidate design.

    Samples the candidate's :class:`~repro.sim.runner.FrameLatencyProfile`
    from a short cycle-accurate run, deploys ``replicas`` simulated copies,
    and replays the *same* fixed workload every candidate sees (fixed
    avatar fleet, cadence, deadlines, seed — and the replay is
    deterministic). Returns the analytical metrics augmented with
    the replayed p99 latency, deadline-miss rate, and throughput, which is
    what :class:`SloObjective` scores.

    The default fleet (8 avatars x 30 FPS = 240 offered FPS on 2 replicas)
    sits near the saturation point of paper-size codec-avatar designs —
    the regime where tail latency actually differentiates candidates; a
    fleet the pool absorbs trivially scores every candidate the same, and
    a hopeless overload drowns the ranking in queueing delay. Tune the
    fleet to the designs being searched for other model families.

    ``companions`` scores the candidate *as a member of a heterogeneous
    cluster* instead of as a lone pool: each companion is a fixed
    :class:`~repro.serving.cluster.GroupSpec` (e.g. an already-chosen
    big-batch tier) serving next to the candidate's own group, with
    ``router`` splitting the traffic and ``shed`` enabling admission
    control. The replayed SLOs are then the *cluster's* — the search
    optimizes the candidate's marginal contribution to the fleet it will
    actually join, not its solo performance.
    """

    avatars: int = 8
    frames_per_avatar: int = 12
    avatar_fps: float = 30.0
    deadline_ms: float = 50.0
    deadline_tiers: tuple[float, ...] = ()
    jitter_ms: float = 0.0
    replicas: int = 2
    policy: str = "edf"
    batch_window_ms: float = 2.0
    seed: int = 0
    sim_frames: int = 4
    companions: "tuple[GroupSpec, ...]" = ()
    router: str = "deadline"
    shed: bool = False

    name: ClassVar[str] = "serving"

    @staticmethod
    def _companion_key(spec: "GroupSpec") -> str:
        policy = getattr(spec.policy, "name", spec.policy)
        return (
            f"{spec.name}:{spec.profile.first_frame_ms!r}/"
            f"{spec.profile.steady_interval_ms!r}x{spec.replicas}"
            f"@{policy}/w{spec.batch_window_ms!r}/b{spec.max_batch}"
        )

    @property
    def key(self) -> str:
        cluster = ""
        if self.companions or self.shed:
            inner = ",".join(
                self._companion_key(spec) for spec in self.companions
            )
            cluster = (
                f",companions=[{inner}],router={self.router},"
                f"shed={self.shed}"
            )
        return (
            f"serving(avatars={self.avatars},frames={self.frames_per_avatar},"
            f"fps={self.avatar_fps!r},deadline={self.deadline_ms!r},"
            f"tiers={self.deadline_tiers!r},jitter={self.jitter_ms!r},"
            f"replicas={self.replicas},policy={self.policy},"
            f"window={self.batch_window_ms!r},seed={self.seed},"
            f"sim_frames={self.sim_frames}{cluster})"
        )

    def workload(self):
        """The canned workload every candidate is replayed against.

        Delegates to :func:`repro.serving.workload.canned_workload` (whose
        defaults match this oracle's), so a CLI user who re-replays the
        selected design via ``replay_workload(profile)`` measures the
        same traffic the search scored.
        """
        from repro.serving.workload import canned_workload

        return canned_workload(
            avatars=self.avatars,
            frames_per_avatar=self.frames_per_avatar,
            avatar_fps=self.avatar_fps,
            deadline_ms=self.deadline_ms,
            deadline_tiers=self.deadline_tiers,
            jitter_ms=self.jitter_ms,
            seed=self.seed,
        )

    def measure(
        self,
        spec: "EvalSpec",
        position: Sequence[float],
        solutions: Sequence["BranchSolution"],
    ) -> BranchMetrics:
        from repro.serving.workload import replay_workload
        from repro.sim.runner import frame_latency_profile

        profile = frame_latency_profile(
            plan=spec.plan,
            config=_candidate_config(solutions),
            quant=spec.quant,
            bandwidth_gbps=spec.budget.bandwidth_gbps,
            frequency_mhz=spec.frequency_mhz,
            frames=self.sim_frames,
            warmup=1,
        )
        report = replay_workload(
            profile,
            workload=self.workload(),
            replicas=self.replicas,
            policy=self.policy,
            batch_window_ms=self.batch_window_ms,
            companions=self.companions,
            router=self.router,
            admission=bool(self.shed) or None,
        )
        return replace(
            metrics_from_solutions(solutions, oracle=self.name),
            p99_ms=report.latency_p99_ms,
            deadline_miss_rate=report.miss_rate,
            throughput_fps=report.throughput_fps,
            shed_rate=report.shed_rate if self.shed else None,
            failed_rate=report.failed_rate if report.failed else None,
        )


@dataclass(frozen=True)
class OracleStats:
    """Per-stage oracle accounting for one search, reported in DseResult.

    For the analytical stage, ``invocations`` counts Algorithm-2 bucket
    solves and ``cache_hits`` bucket-cache hits; for a re-rank stage, they
    count full ``measure`` calls and re-rank cache hits.
    """

    name: str
    invocations: int
    cache_hits: int


# ---------------------------------------------------------------------------
# factories / resolvers (CLI names → instances)
# ---------------------------------------------------------------------------
#: Objective names accepted by :func:`make_objective` (and ``--objective``).
OBJECTIVES = ("paper", "slo", "composite")

#: Re-rank oracle names accepted by :func:`make_oracle` (and ``--rerank``).
RERANK_ORACLES = ("none", "sim", "serving")


def make_objective(name: str, alpha: float = 0.05) -> Objective:
    """Build an objective by name.

    ``alpha`` feeds the paper objective's variance penalty — and, through
    the fallback proxy, the SLO objective's analytical stage. The default
    ``composite`` weights the paper part at 1e-3 so one weighted FPS
    trades against one microsecond of p99 — roughly balancing the two
    parts' natural scales for paper-size decoders (see
    :class:`CompositeObjective` on why raw equal weights would let the
    FPS term drown the SLO term); build a custom composite to tune the
    trade.
    """
    if name == "paper":
        return PaperObjective(alpha=alpha)
    if name == "slo":
        return SloObjective(fallback_alpha=alpha)
    if name == "composite":
        return CompositeObjective(
            parts=(
                (PaperObjective(alpha=alpha), 0.001),
                (SloObjective(fallback_alpha=alpha), 1.0),
            )
        )
    raise ValueError(
        f"unknown objective {name!r}; pick one of {OBJECTIVES}"
    )


def make_oracle(name: str) -> MetricsOracle | None:
    """Build a re-rank oracle by name (``"none"`` means no re-rank stage)."""
    if name == "none":
        return None
    if name == "sim":
        return SimOracle()
    if name == "serving":
        return ServingOracle()
    raise ValueError(
        f"unknown oracle {name!r}; pick one of {RERANK_ORACLES}"
    )


def resolve_objective(
    objective: Objective | str | None, alpha: float = 0.05
) -> Objective:
    """An instance from an instance, a name, or None (paper default)."""
    if objective is None:
        return PaperObjective(alpha=alpha)
    if isinstance(objective, str):
        return make_objective(objective, alpha=alpha)
    return objective


def resolve_oracle(
    oracle: MetricsOracle | str | None,
) -> MetricsOracle | None:
    """An oracle from an instance, a name, or None (no re-rank)."""
    if oracle is None:
        return None
    if isinstance(oracle, str):
        return make_oracle(oracle)
    return oracle


__all__ = [
    "BranchMetrics",
    "CompositeObjective",
    "INFEASIBILITY_PENALTY",
    "MetricsOracle",
    "OBJECTIVES",
    "Objective",
    "OracleStats",
    "PaperObjective",
    "RERANK_ORACLES",
    "ServingOracle",
    "SimOracle",
    "SloObjective",
    "make_objective",
    "make_oracle",
    "metrics_from_solutions",
    "penalized_score",
    "resolve_objective",
    "resolve_oracle",
]
