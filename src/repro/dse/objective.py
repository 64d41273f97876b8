"""The objective layer: candidate → metrics → scalar fitness.

Candidate evaluation is a two-stage pipeline:

1. a :class:`MetricsOracle` turns a candidate design into a
   :class:`BranchMetrics` record — *measurements*, free of any preference
   about what "good" means;
2. an :class:`Objective` folds those metrics into the scalar fitness the
   cross-branch search maximizes.

Splitting the two is what makes the evaluation cache objective-independent:
Algorithm-2 solutions (and the analytical metrics derived from them) are a
pure function of the problem spec and the budget bucket, so a warm cache
keeps hitting when the caller changes ``alpha`` — only the cheap scoring
changes.

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

The oracle chooses the score (:func:`objective_for`):

- :class:`PaperObjective` — Sec. VI-B1, bit-identical to the historical
  fitness formula: priority-weighted FPS minus ``alpha`` times the
  branch-FPS population variance. It scores analytical and simulated
  metrics.
- :class:`SloObjective` — maximize ``-(p99 + 1000 x (miss_rate +
  shed_rate + failed_rate))``. It scores served metrics, the records
  that carry ``p99_ms``.

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

from repro.utils.checks import (
    check_count,
    check_finite,
    check_positive,
)

if TYPE_CHECKING:
    from repro.dse.inbranch import BranchSolution
    from repro.dse.worker import EvalSpec
    from repro.serving.slo import ServingReport
    from repro.sim.runner import FrameLatencyProfile

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
        """Stable identity string (parameters included); a search reports
        it as ``DseResult.objective``."""
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

    Scores records that carry served SLOs (``p99_ms`` set):
    ``-(p99_ms + MISS_WEIGHT x (miss_rate + shed_rate + failed_rate))``.
    A deadline-miss rate of 10 % costs as much as 100 ms of p99. A *shed*
    or *failed* (unrecovered after a replica fault) frame would cost
    exactly as much as a late one, but only a record that carries
    ``shed_rate`` or ``failed_rate`` pays it: :class:`ServingOracle`
    replays without admission or chaos and sets neither, so a search
    scores replayed p99 and miss rate.
    """

    #: Milliseconds of p99 one whole missed, shed or failed workload costs.
    MISS_WEIGHT: ClassVar[float] = 1000.0

    name: ClassVar[str] = "slo"

    @property
    def key(self) -> str:
        return f"slo(miss_weight={self.MISS_WEIGHT!r})"

    def score(
        self, metrics: BranchMetrics, priorities: tuple[float, ...]
    ) -> float:
        if metrics.p99_ms is None:
            raise ValueError(
                f"the SLO objective scores served metrics only; a "
                f"{metrics.oracle!r} record carries no p99_ms"
            )
        miss_rate = metrics.deadline_miss_rate or 0.0
        shed_rate = metrics.shed_rate or 0.0
        failed_rate = metrics.failed_rate or 0.0
        return -(
            metrics.p99_ms
            + self.MISS_WEIGHT * (miss_rate + shed_rate + failed_rate)
        )


_SLO = SloObjective()


def objective_for(metrics: BranchMetrics, paper: PaperObjective) -> Objective:
    """The objective that scores ``metrics``: the oracle chooses the score.

    A record that carries served SLOs (``p99_ms`` set, as
    :class:`ServingOracle` returns) is scored by :class:`SloObjective`;
    every other record, analytical or simulated, by ``paper``, the
    engine's Sec. VI-B1 fitness.
    """
    return _SLO if metrics.p99_ms is not None else paper


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

    ``measure`` receives the frozen problem spec and the candidate's
    Algorithm-2 solutions (every oracle builds on the completed
    configuration; none re-runs the in-branch search). Its metrics must
    be a function of the spec and the solutions' configurations alone:
    the search measures each distinct design once per cache (see
    :func:`~repro.dse.worker.rerank_key`).
    """

    name: ClassVar[str]

    @property
    def key(self) -> str:
        """Stable identity string — folded into non-analytical cache keys."""
        ...

    def measure(
        self, spec: "EvalSpec", solutions: Sequence["BranchSolution"]
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

    def __post_init__(self) -> None:
        # A steady-state frame rate needs two simulated frames.
        check_count("frames", self.frames, minimum=2)
        check_count("warmup", self.warmup, minimum=0)

    @property
    def key(self) -> str:
        return f"sim(frames={self.frames},warmup={self.warmup})"

    def measure(
        self, spec: "EvalSpec", solutions: Sequence["BranchSolution"]
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
    what :class:`SloObjective` scores. :meth:`replay` serves a profile
    the same way, so a chosen design's metrics can be reproduced from
    the design alone.

    The default fleet offers 8 avatars x 30 FPS = 240 FPS to 2 replicas.
    That overloads every Table IV design: the analytical, sim and serving
    re-ranked designs of its five cases (N=20, P=200, seeds 0 and 1)
    serve it at 45-177 FPS, with a p99 of 147-1,748 ms against the 50 ms
    deadline. Tune the fleet to the designs being searched.
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

    name: ClassVar[str] = "serving"

    def __post_init__(self) -> None:
        from repro.serving.policies import POLICIES

        for name in ("avatars", "frames_per_avatar", "replicas"):
            check_count(name, getattr(self, name))
        # A frame latency profile's steady interval needs two frames.
        check_count("sim_frames", self.sim_frames, minimum=2)
        # The seed is part of the key; a numpy integer is stored as an int.
        object.__setattr__(
            self, "seed", check_count("seed", self.seed, minimum=0)
        )
        check_positive("avatar_fps", self.avatar_fps)
        check_positive("deadline_ms", self.deadline_ms)
        for tier in self.deadline_tiers:
            check_positive("deadline_tiers", tier)
        check_finite("batch_window_ms", self.batch_window_ms, minimum=0.0)
        check_finite("jitter_ms", self.jitter_ms, minimum=0.0)
        if not self.jitter_ms < 1000.0 / self.avatar_fps:
            raise ValueError(
                f"jitter_ms must be below the frame interval "
                f"{1000.0 / self.avatar_fps!r} ms, got {self.jitter_ms!r}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )

    @property
    def key(self) -> str:
        return (
            f"serving(avatars={self.avatars},frames={self.frames_per_avatar},"
            f"fps={self.avatar_fps!r},deadline={self.deadline_ms!r},"
            f"tiers={self.deadline_tiers!r},jitter={self.jitter_ms!r},"
            f"replicas={self.replicas},policy={self.policy},"
            f"window={self.batch_window_ms!r},seed={self.seed},"
            f"sim_frames={self.sim_frames})"
        )

    def workload(self):
        """The canned workload every candidate is replayed against.

        It is fixed whatever design serves it: a workload sized off the
        design under test (as
        :func:`~repro.serving.workload.saturation_workload` is) would ask
        each candidate a different question.
        """
        from repro.serving.workload import AvatarWorkload

        return AvatarWorkload(
            avatars=self.avatars,
            frames_per_avatar=self.frames_per_avatar,
            frame_interval_ms=1000.0 / self.avatar_fps,
            deadline_ms=self.deadline_ms,
            deadline_tiers=self.deadline_tiers,
            jitter_ms=self.jitter_ms,
            seed=self.seed,
        )

    def replay(self, profile: "FrameLatencyProfile") -> "ServingReport":
        """Serve :meth:`workload` on ``replicas`` copies of one design."""
        from repro.serving import GroupSpec, serve_trace

        group = GroupSpec(
            "candidate",
            profile,
            replicas=self.replicas,
            policy=self.policy,
            batch_window_ms=self.batch_window_ms,
        )
        return serve_trace(group, self.workload())

    def measure(
        self, spec: "EvalSpec", solutions: Sequence["BranchSolution"]
    ) -> BranchMetrics:
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
        report = self.replay(profile)
        return replace(
            metrics_from_solutions(solutions, oracle=self.name),
            p99_ms=report.latency_p99_ms,
            deadline_miss_rate=report.miss_rate,
            throughput_fps=report.throughput_fps,
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
#: Re-rank oracle names accepted by :func:`make_oracle` (and ``--rerank``).
RERANK_ORACLES = ("none", "sim", "serving")


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
    "INFEASIBILITY_PENALTY",
    "MetricsOracle",
    "Objective",
    "OracleStats",
    "PaperObjective",
    "RERANK_ORACLES",
    "ServingOracle",
    "SimOracle",
    "SloObjective",
    "make_oracle",
    "metrics_from_solutions",
    "objective_for",
    "penalized_score",
    "resolve_oracle",
]
