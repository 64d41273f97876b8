"""Simulated accelerator replicas and the pools they serve in.

A *replica* is one deployed instance of a DSE-selected accelerator design.
It does not re-run the cycle-accurate simulator per request; instead it is
driven by a :class:`~repro.sim.runner.FrameLatencyProfile` sampled once
from the simulator, which splits a frame's cost into fill-phase and
steady-state accounting:

- a batch landing on an **idle** replica pays the cold first-frame latency
  (weight streams plus pipeline fill) before frames start leaving at the
  steady interval;
- a batch landing while the pipeline is still **warm** (within one steady
  interval of the previous batch draining) streams every frame at the
  steady interval.

:class:`ReplicaPool` holds N identical replicas for one serving session;
:func:`pool_from_result` builds a pool straight from an
:class:`~repro.fcad.flow.FcadResult` (``FCad.run`` → serve).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fcad.flow import FcadResult
from repro.sim.runner import FrameLatencyProfile


@dataclass
class Replica:
    """One simulated accelerator instance, tracked in session time."""

    replica_id: int
    latency: FrameLatencyProfile
    max_batch: int = 8
    busy_ms: float = 0.0
    frames_served: int = 0
    batches_served: int = 0
    last_finish_ms: float = field(default=float("-inf"))
    #: ``up`` / ``degraded`` / ``dead`` — chaos faults move this; a
    #: dead replica never returns to the free list.
    health: str = "up"
    #: Chaos degradation: service times stretch by this factor (1.0 =
    #: healthy). Set by the engine from the session's chaos state before
    #: each dispatch.
    latency_factor: float = 1.0

    def preview_service(
        self, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        """Would-be completion times, *without* advancing the accounting.

        The failure path uses this: a batch dispatched to a crashing
        replica fails at its would-be finish time (the detection
        latency), but the replica serves nothing and must not be charged
        busy time or a warm window.
        """
        if not 1 <= batch <= self.max_batch:
            raise ValueError(
                f"batch of {batch} outside replica capacity 1..{self.max_batch}"
            )
        warm = (
            start_ms - self.last_finish_ms <= self.latency.steady_interval_ms
        )
        finishes = self.latency.batch_finish_ms(start_ms, batch, warm=warm)
        if self.latency_factor != 1.0:
            finishes = tuple(
                start_ms + (finish - start_ms) * self.latency_factor
                for finish in finishes
            )
        return finishes

    def service_times(self, start_ms: float, batch: int) -> tuple[float, ...]:
        """Completion time of each frame of a batch started at ``start_ms``.

        Also advances the replica's accounting (busy time, warm window).
        """
        finishes = self.preview_service(start_ms, batch)
        self.busy_ms += finishes[-1] - start_ms
        self.frames_served += len(finishes)
        self.batches_served += 1
        self.last_finish_ms = finishes[-1]
        return finishes

    def utilization(self, elapsed_ms: float) -> float:
        """Busy-time fraction (0..1) of ``elapsed_ms`` of session time."""
        return self.busy_ms / elapsed_ms if elapsed_ms > 0 else 0.0


class ReplicaPool:
    """N identical replicas of one design, served as one group."""

    def __init__(
        self,
        latency: FrameLatencyProfile,
        replicas: int = 1,
        max_batch: int = 8,
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.profile = latency
        self.replicas = [
            Replica(replica_id=i, latency=latency, max_batch=max_batch)
            for i in range(replicas)
        ]
        self.max_batch = max_batch

    def __len__(self) -> int:
        return len(self.replicas)

    def reset(self) -> None:
        """Forget all serving state (busy time, warm windows, health), so
        one pool serves back-to-back sessions without state leaking."""
        for replica in self.replicas:
            replica.busy_ms = 0.0
            replica.frames_served = 0
            replica.batches_served = 0
            replica.last_finish_ms = float("-inf")
            replica.health = "up"
            replica.latency_factor = 1.0


def health_summary(replicas) -> str:
    """Human-readable fleet health, or ``""`` while everything is up."""
    up = sum(1 for r in replicas if r.health == "up")
    degraded = sum(1 for r in replicas if r.health == "degraded")
    dead = sum(1 for r in replicas if r.health == "dead")
    if not degraded and not dead:
        return ""
    return f"{up} up/{degraded} degraded/{dead} dead"


def design_max_batch(config) -> int:
    """Default replica batch capacity for a design configuration.

    The design was optimized for specific per-branch batch sizes; let a
    replica absorb a few frames beyond that before the dispatcher must
    spill to the next one. The single home of this heuristic — both
    :func:`pool_from_result` and
    :meth:`~repro.fcad.flow.FcadResult.serving_group` size from it, so a
    single pool and a cluster group of the same design always agree.
    """
    return max(8, 2 * max(b.batch_size for b in config.branches))


def pool_from_result(
    result: FcadResult,
    replicas: int = 1,
    max_batch: int | None = None,
    sim_frames: int = 8,
    warmup: int = 2,
    profile: FrameLatencyProfile | None = None,
) -> ReplicaPool:
    """Deploy ``replicas`` copies of a DSE-selected design as a pool.

    The per-frame latency model is sampled from one cycle-accurate run of
    the design (see :meth:`FcadResult.frame_latency_profile`); pass a
    ``profile`` you already sampled to skip the simulation.
    """
    if profile is None:
        profile = result.frame_latency_profile(frames=sim_frames, warmup=warmup)
    if max_batch is None:
        max_batch = design_max_batch(result.dse.best_config)
    return ReplicaPool(latency=profile, replicas=replicas, max_batch=max_batch)


__all__ = [
    "Replica",
    "ReplicaPool",
    "design_max_batch",
    "health_summary",
    "pool_from_result",
]
