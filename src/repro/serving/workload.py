"""Multi-avatar decode workloads.

A workload is N concurrent avatars, each streaming frames at a target
cadence (e.g. 30 FPS per avatar) with seeded arrival jitter — the shape
of a telepresence call: every participant's encoder emits latent codes on
its own clock, and the receiver must decode all of them before their
display deadlines. Like a live camera, an avatar issues frames on its
own clock whether or not earlier frames finished, so backpressure shows
up as queueing latency and deadline misses, not as a slower source.

A workload is served like any trace, on the groups it is given::

    from repro.serving import AvatarWorkload, serve_trace

    report = serve_trace(
        result.serving_group(replicas=2, policy="edf"),
        AvatarWorkload(avatars=8, frames_per_avatar=30,
                       frame_interval_ms=1000.0 / 30, deadline_ms=50.0),
    )

The run is deterministic: same seed, same report, bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.runner import FrameLatencyProfile

from repro.utils.checks import check_count, check_positive, check_real


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
        # A numpy integer is a valid count; store it as a plain int. A
        # seed is a count too: ``random.Random`` seeds a NaN by its
        # identity hash, so one workload would expand to two traces.
        for name, minimum in (
            ("avatars", 1), ("frames_per_avatar", 1), ("seed", 0)
        ):
            value = check_count(name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)
        for name in ("frame_interval_ms", "deadline_ms", "jitter_ms"):
            check_real(name, getattr(self, name))
        for tier in self.deadline_tiers:
            check_real("deadline_tiers", tier)
        # Budgets are checked as ranges, so NaN fails them too.
        if not (
            0 < self.frame_interval_ms < math.inf and 0 < self.deadline_ms < math.inf
        ):
            raise ValueError("frame interval and deadline must be positive")
        if not 0 <= self.jitter_ms < self.frame_interval_ms:
            raise ValueError("jitter must be in [0, frame interval)")
        if not all(0 < tier < math.inf for tier in self.deadline_tiers):
            raise ValueError("deadline tiers must be positive")

    @property
    def total_frames(self) -> int:
        return self.avatars * self.frames_per_avatar

    def deadline_for(self, avatar_id: int) -> float:
        if self.deadline_tiers:
            return self.deadline_tiers[avatar_id % len(self.deadline_tiers)]
        return self.deadline_ms

    def avatar_rng(self, avatar_id: int) -> random.Random:
        # One independent stream per avatar, stable in the session seed.
        return random.Random(self.seed * 1_000_003 + avatar_id)


def frames_for_duration(duration_s: float, avatar_fps: float) -> int:
    """Frames one avatar streams in ``duration_s`` seconds at its cadence.

    The single place the duration→frame-count rule lives (``repro serve
    --duration`` sizes its sessions here).
    """
    check_positive("duration_s", duration_s)
    check_positive("avatar_fps", avatar_fps)
    return max(1, round(duration_s * avatar_fps))


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
    the replicas' steady-state capacity — the regime where scheduling policy
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
    "frames_for_duration",
    "saturation_workload",
]
