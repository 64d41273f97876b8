"""Simulated accelerator replicas.

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

A :class:`~repro.serving.cluster.GroupSpec` says how many replicas of
one design to deploy; the engine builds them fresh for every session
(:meth:`~repro.fcad.flow.FcadResult.serving_group` takes ``FCad.run``
to a spec).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    #: ``j * latency.steady_interval_ms`` for each ``j`` below the
    #: largest batch asked of this replica: frame ``j`` of a batch
    #: finishes at the batch's base time plus ``steps[j]``. It grows on
    #: demand, never to ``max_batch`` up front, which may be huge.
    steps: tuple[float, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def preview_service(
        self, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        """Would-be completion times, *without* advancing the accounting.

        The failure path uses this: a batch dispatched to a crashing
        replica fails at its would-be finish time (the detection
        latency), but the replica serves nothing and must not be charged
        busy time or a warm window.

        Each finish is ``base + steps[j]``: the same two roundings as
        :meth:`~repro.sim.runner.FrameLatencyProfile.batch_finish_ms`'s
        ``base + j * steady``, so the same float, read from the table.
        """
        if not 1 <= batch <= self.max_batch:
            raise ValueError(
                f"batch of {batch} outside replica capacity 1..{self.max_batch}"
            )
        latency = self.latency
        steady = latency.steady_interval_ms
        steps = self.steps
        if batch > len(steps):
            steps = self.steps = tuple([j * steady for j in range(batch)])
        if start_ms - self.last_finish_ms <= steady:
            base = start_ms + steady  # warm: the pipeline is still full
        else:
            base = start_ms + latency.first_frame_ms
        if batch == 1:
            # A lone frame skips the comprehension's frame.
            finishes = (base + steps[0],)
        else:
            finishes = tuple([base + step for step in steps[:batch]])
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
        last = finishes[-1]
        self.busy_ms += last - start_ms
        self.frames_served += batch
        self.batches_served += 1
        self.last_finish_ms = last
        return finishes

    def utilization(self, elapsed_ms: float) -> float:
        """Busy-time fraction (0..1) of ``elapsed_ms`` of session time."""
        return self.busy_ms / elapsed_ms if elapsed_ms > 0 else 0.0


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
    spill to the next one. The single home of this heuristic:
    :meth:`~repro.fcad.flow.FcadResult.serving_group` sizes its groups
    from it.
    """
    return max(8, 2 * max(b.batch_size for b in config.branches))


__all__ = [
    "Replica",
    "design_max_batch",
    "health_summary",
]
