"""Multi-avatar decode workloads and their replay on one design.

A workload is N concurrent avatars, each streaming frames at a target
cadence (e.g. 30 FPS per avatar) with seeded arrival jitter — the shape
of a telepresence call: every participant's encoder emits latent codes on
its own clock, and the receiver must decode all of them before their
display deadlines. Like a live camera, an avatar issues frames on its
own clock whether or not earlier frames finished, so backpressure shows
up as queueing latency and deadline misses, not as a slower source.

:func:`replay_workload` serves a workload on replicas of one design
profile; the run is deterministic: same seed, same report, bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.sim.runner import FrameLatencyProfile

from repro.serving.cluster import GroupSpec
from repro.serving.replica import ReplicaPool
from repro.serving.slo import ServingReport


@dataclass(frozen=True)
class AvatarWorkload:
    """N avatars streaming frames at a per-avatar cadence."""

    avatars: int
    frames_per_avatar: int
    frame_interval_ms: float  # 1000 / per-avatar FPS
    deadline_ms: float  # relative decode budget per frame
    jitter_ms: float = 0.0  # uniform arrival jitter, +/- this much
    seed: int = 0
    #: Optional per-avatar deadline budgets, assigned round-robin (avatar
    #: ``i`` gets ``deadline_tiers[i % len]``). Mixed tiers model a call
    #: where the active speakers need tight latency while background
    #: participants tolerate more — the regime where deadline-EDF beats
    #: FIFO. Empty means every avatar uses ``deadline_ms``.
    deadline_tiers: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.avatars < 1 or self.frames_per_avatar < 1:
            raise ValueError("need at least one avatar and one frame")
        # Budgets are checked as ranges, so NaN fails them too.
        if self.frame_interval_ms <= 0 or not 0 < self.deadline_ms < math.inf:
            raise ValueError("frame interval and deadline must be positive")
        if not 0 <= self.jitter_ms < self.frame_interval_ms:
            raise ValueError("jitter must be in [0, frame interval)")
        if not all(0 < tier < math.inf for tier in self.deadline_tiers):
            raise ValueError("deadline tiers must be positive")

    @property
    def total_frames(self) -> int:
        return self.avatars * self.frames_per_avatar

    @classmethod
    def for_duration(
        cls,
        duration_s: float,
        avatars: int,
        frame_interval_ms: float,
        deadline_ms: float,
        **kwargs,
    ) -> "AvatarWorkload":
        """Size a workload by session length instead of frame count.

        ``duration_s`` seconds of streaming at the per-avatar cadence —
        the natural knob for "serve a 30-second call" style sessions
        (``repro serve --duration`` routes through here).
        """
        return cls(
            avatars=avatars,
            frames_per_avatar=frames_for_duration(
                duration_s, 1000.0 / frame_interval_ms
            ),
            frame_interval_ms=frame_interval_ms,
            deadline_ms=deadline_ms,
            **kwargs,
        )

    def deadline_for(self, avatar_id: int) -> float:
        if self.deadline_tiers:
            return self.deadline_tiers[avatar_id % len(self.deadline_tiers)]
        return self.deadline_ms

    def avatar_rng(self, avatar_id: int) -> random.Random:
        # One independent stream per avatar, stable in the session seed.
        return random.Random(self.seed * 1_000_003 + avatar_id)


def frames_for_duration(duration_s: float, avatar_fps: float) -> int:
    """Frames one avatar streams in ``duration_s`` seconds at its cadence.

    The single place the duration→frame-count rule lives, shared by
    :meth:`AvatarWorkload.for_duration` and ``repro serve --duration``.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return max(1, round(duration_s * avatar_fps))


def canned_workload(
    avatars: int = 8,
    frames_per_avatar: int = 12,
    avatar_fps: float = 30.0,
    deadline_ms: float = 50.0,
    deadline_tiers: tuple[float, ...] = (),
    jitter_ms: float = 0.0,
    seed: int = 0,
) -> AvatarWorkload:
    """A *fixed* workload, identical no matter what design serves it.

    The counterpart of :func:`saturation_workload` (which sizes the fleet
    off the design's measured capacity): when the point is to *compare*
    designs — the serving-driven DSE replays every candidate against the
    same traffic — the workload must not adapt to the design under test,
    or every candidate would see a different question.

    The defaults deliberately mirror
    :class:`~repro.dse.objective.ServingOracle`'s, so replaying a
    DSE-selected design with a bare ``replay_workload(profile)`` measures
    the same traffic the search scored it under.
    """
    return AvatarWorkload(
        avatars=avatars,
        frames_per_avatar=frames_per_avatar,
        frame_interval_ms=1000.0 / avatar_fps,
        deadline_ms=deadline_ms,
        deadline_tiers=deadline_tiers,
        jitter_ms=jitter_ms,
        seed=seed,
    )


def replay_workload(
    profile: "FrameLatencyProfile",
    workload: AvatarWorkload | None = None,
    replicas: int = 2,
    policy: str = "edf",
    batch_window_ms: float = 2.0,
    max_batch: int | None = None,
    companions: "Sequence[GroupSpec] | None" = None,
    router: str = "deadline",
    admission=None,
    group_name: str = "candidate",
) -> ServingReport:
    """Replay a multi-avatar workload on replicas of one design profile.

    The workload-replay entry point that needs no :class:`FcadResult` and
    no fresh simulation — just a design's
    :class:`~repro.sim.runner.FrameLatencyProfile`. This is what the
    serving-driven DSE calls per candidate
    (:class:`~repro.dse.objective.ServingOracle`), and what ad-hoc "how
    would this design serve workload X" questions should use outside
    ``repro serve``. Defaults to the :func:`canned_workload`: same
    profile + same workload → the same report, bit for bit.

    ``companions`` places the profile *inside a heterogeneous cluster*:
    each companion is a :class:`~repro.serving.cluster.GroupSpec` for a
    fixed group serving alongside the profile's own group (named
    ``group_name``), with ``router``/``admission`` steering traffic
    between them. That is how a DSE candidate is scored as a member of a
    mixed cluster rather than as a lone pool. ``admission`` alone (no
    companions) also routes through the cluster path, so a single-group
    replay can exercise load shedding too.
    """
    from repro.serving.engine import serve_trace

    if workload is None:
        workload = canned_workload()
    if companions or admission:
        own_group = GroupSpec(
            name=group_name,
            profile=profile,
            replicas=replicas,
            policy=policy,
            batch_window_ms=batch_window_ms,
            max_batch=max_batch if max_batch is not None else 8,
        )
        return serve_trace(
            [own_group, *(companions or ())],
            workload,
            router=router,
            admission=admission,
        )
    pool = ReplicaPool(
        profile,
        replicas=replicas,
        max_batch=max_batch if max_batch is not None else 8,
    )
    return serve_trace(
        pool,
        workload,
        policy=policy,
        batch_window_ms=batch_window_ms,
        max_batch=max_batch,
    )


def saturation_workload(
    profile: "FrameLatencyProfile",
    replicas: int,
    saturation: float = 0.85,
    avatar_fps: float = 30.0,
    frames_per_avatar: int = 30,
    deadline_ms: float = 50.0,
    deadline_tiers: tuple[float, ...] = (20.0, 60.0),
    jitter_ms: float = 8.0,
    seed: int = 0,
) -> AvatarWorkload:
    """A mixed-deadline workload, sized off measured capacity.

    The avatar fleet is scaled so the offered load is ``saturation`` of
    the pool's steady-state capacity — the regime where scheduling policy
    decides how many frames make their deadlines (well under it nothing
    misses; far over it everything does). Deriving the fleet from the
    profile keeps a session in that regime even as the cost models
    evolve.
    """
    capacity_fps = replicas * profile.steady_fps
    avatars = max(2, round(saturation * capacity_fps / avatar_fps))
    return AvatarWorkload(
        avatars=avatars,
        frames_per_avatar=frames_per_avatar,
        frame_interval_ms=1000.0 / avatar_fps,
        deadline_ms=deadline_ms,
        deadline_tiers=deadline_tiers,
        jitter_ms=jitter_ms,
        seed=seed,
    )


__all__ = [
    "AvatarWorkload",
    "canned_workload",
    "frames_for_duration",
    "replay_workload",
    "saturation_workload",
]
