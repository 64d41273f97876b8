"""Heterogeneous serving clusters: replica groups + router + admission.

One :class:`ReplicaGroup` is N replicas of *one* design with its own
batching policy, window, capacity, and transport — e.g. a
latency-optimized design batching eagerly under EDF next to a big-batch
throughput design coalescing frames under FIFO. A :class:`Cluster` owns
several groups, a :mod:`routing policy <repro.serving.router>` that
assigns every request to a group, and optional
:mod:`admission control <repro.serving.admission>` that sheds requests
the chosen group cannot serve in time.

This is the architecture the single-pool
:class:`~repro.serving.scheduler.BatchScheduler` path grows into: a
cluster of one in-process group with no admission control behaves — SLO
for SLO, on the virtual clock — exactly like the plain scheduler, while
mixed clusters express the telepresence serving shapes F-CAD targets
(tight-deadline speakers on a low-latency tier, background participants
on a throughput tier, load shedding at saturation).

End to end::

    from repro.serving import Cluster, GroupSpec, serve_cluster

    report = serve_cluster(
        [
            GroupSpec("latency", fast_profile, replicas=1, policy="edf",
                      batch_window_ms=0.0),
            GroupSpec("throughput", batch_profile, replicas=3,
                      policy="fifo", batch_window_ms=4.0),
        ],
        workload,
        router="deadline",
        admission=True,
    )
    print(report.render())
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Sequence

from repro.serving.admission import AdmissionControl, resolve_admission
from repro.serving.chaos import ChaosPlan, RecoveryPolicy
from repro.serving.clock import anchor_session_clock, now_ms, run_session
from repro.serving.policies import SchedulingPolicy
from repro.serving.replica import ReplicaPool, health_summary
from repro.serving.request import DecodeResponse
from repro.serving.router import RoutingPolicy, failover_route, get_router
from repro.serving.scheduler import BatchScheduler
from repro.serving.slo import GroupReport, ServingReport, SloTracker
from repro.serving.transport import ReplicaTransport
from repro.sim.runner import FrameLatencyProfile


@dataclass(frozen=True)
class GroupSpec:
    """One replica group: N copies of one design plus its serving knobs.

    The frozen spec a :class:`ReplicaGroup` (coroutine path) or an
    event-heap engine group (:func:`~repro.serving.engine.serve_trace`)
    is built from. With autoscaling, ``replicas`` is the *initial* fleet
    size; the controller grows and shrinks it at session time.
    """

    #: Unique group name (appears in per-group SLO slices).
    name: str
    #: Per-frame fill/steady latency model of the group's design (ms).
    profile: FrameLatencyProfile
    #: Number of replicas deployed (initial count under autoscaling).
    replicas: int = 1
    #: Batch-selection policy: "fifo", "edf", "fair", or an instance.
    policy: "str | SchedulingPolicy" = "edf"
    #: How long (ms) the dispatcher holds a sub-capacity batch so
    #: co-arriving frames can coalesce; 0 dispatches eagerly.
    batch_window_ms: float = 2.0
    #: Most frames one batch may carry (frames, per replica dispatch).
    max_batch: int = 8
    #: How batches reach replicas: "inprocess" or "socket" (coroutine
    #: path only; the event-heap engine is in-process only).
    transport: "str | ReplicaTransport" = "inprocess"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a replica group needs a name")
        if self.replicas < 1:
            raise ValueError("a replica group needs at least one replica")
        if not 0 <= self.batch_window_ms < math.inf:
            raise ValueError(
                "batch_window_ms must be a finite number >= 0, "
                f"got {self.batch_window_ms}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")


class ReplicaGroup:
    """A group's live state: pool, per-session scheduler, shed counter."""

    def __init__(self, spec: GroupSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.pool = ReplicaPool(
            spec.profile, replicas=spec.replicas, max_batch=spec.max_batch
        )
        self.scheduler: BatchScheduler | None = None
        self.tracker: SloTracker | None = None

    @property
    def replicas(self) -> int:
        """Replicas the routing/admission math should count on.

        The *live* fleet (never below one so backlog math stays finite)
        — dead replicas stop counting the moment their failure is
        detected, exactly like the heap engine's live-fleet accounting.
        Fault-free this is simply every deployed replica.
        """
        return max(1, self.pool.alive)

    @property
    def capacity_fps(self) -> float:
        """Steady-state frames/second of the whole group, pipelines warm."""
        return self.pool.capacity_fps

    @property
    def available(self) -> bool:
        """Whether the front door may route new traffic here."""
        if self.scheduler is None:
            return True
        return self.scheduler.available

    @property
    def backlog_frames(self) -> int:
        """Frames waiting in or dispatched by this group's scheduler."""
        if self.scheduler is None:
            return 0
        return self.scheduler.queue_depth + self.scheduler.inflight_frames

    def backlog_ms(self) -> float:
        """Estimated milliseconds until a frame admitted now starts service.

        The backlog drains at one frame per steady interval per replica —
        the same first-order model for every group, so routers can compare
        a big-batch group against a low-latency one on one scale.
        """
        profile = self.pool.profile
        return (
            self.backlog_frames * profile.steady_interval_ms / self.replicas
        )

    def unloaded_latency_ms(self) -> float:
        """Best-case response latency: empty queue, cold pipeline.

        Batching window plus cold fill — a static property of the group's
        design and configuration. The deadline-tiered router classifies
        requests against this: a budget below it can never be honoured
        here, however idle the group is.
        """
        profile = self.pool.profile
        return self.spec.batch_window_ms + profile.first_frame_ms

    def estimated_latency_ms(self) -> float:
        """Predicted response latency of a request admitted right now.

        Backlog drain, plus the batching window the dispatcher may hold,
        plus service: the cold fill latency when the group is idle (its
        pipelines will have drained by the time the frame lands) or one
        steady interval when it is busy.
        """
        profile = self.pool.profile
        service = (
            profile.first_frame_ms
            if self.backlog_frames == 0
            else profile.steady_interval_ms
        )
        return self.backlog_ms() + self.spec.batch_window_ms + service

    # ------------------------------------------------------------------
    def start(
        self,
        deadline_ms: float,
        deadline_tiers: tuple[float, ...],
        chaos: ChaosPlan | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        """Open the group for one serving session (inside a session loop)."""
        self.tracker = SloTracker(
            deadline_ms=deadline_ms, deadline_tiers_ms=deadline_tiers
        )
        self.scheduler = BatchScheduler(
            self.pool,
            policy=self.spec.policy,
            batch_window_ms=self.spec.batch_window_ms,
            max_batch=self.spec.max_batch,
            tracker=self.tracker,
            transport=self.spec.transport,
            group=self.name,
            chaos=chaos,
            recovery=recovery,
        )
        self.scheduler.start()

    async def close(self) -> None:
        assert self.scheduler is not None
        await self.scheduler.close()

    def report(self, duration_ms: float) -> GroupReport:
        """This group's SLO slice of the finished session."""
        assert self.scheduler is not None and self.tracker is not None
        latencies = [r.latency_ms for r in self.tracker.responses]
        from repro.serving.slo import percentile

        utilizations = self.pool.utilizations(duration_ms)
        transport_health = getattr(self.scheduler.transport, "health", "")
        pool_health = health_summary(self.pool.replicas)
        return GroupReport(
            name=self.name,
            policy=self.scheduler.policy.name,
            transport=self.scheduler.transport.name,
            replicas=len(self.pool),
            max_batch=self.scheduler.max_batch,
            batch_window_ms=self.scheduler.batch_window_ms,
            submitted=self.tracker.submitted - self.tracker.shed,
            shed=self.tracker.shed,
            completed=len(self.tracker.responses),
            deadline_misses=sum(
                1 for r in self.tracker.responses if r.deadline_missed
            ),
            latency_p50_ms=percentile(latencies, 50),
            latency_p99_ms=percentile(latencies, 99),
            mean_batch_size=(
                sum(self.tracker.batch_sizes) / len(self.tracker.batch_sizes)
                if self.tracker.batch_sizes
                else 0.0
            ),
            mean_utilization=(
                sum(utilizations) / len(utilizations) if utilizations else 0.0
            ),
            reconnects=getattr(self.scheduler.transport, "reconnects", 0),
            health=", ".join(
                part for part in (transport_health, pool_health) if part
            ),
            failed=self.tracker.failed,
            retries=self.tracker.retries,
            hedges=self.tracker.hedges,
            hedge_wins=self.tracker.hedge_wins,
            failovers=self.tracker.failovers,
            replicas_lost=self.tracker.replicas_lost,
            replicas_replaced=self.tracker.replicas_replaced,
            degraded_time_ms=self.tracker.degraded_time_ms,
        )


class Cluster:
    """Heterogeneous replica groups behind one deadline-aware front door."""

    def __init__(
        self,
        groups: Sequence[GroupSpec | ReplicaGroup],
        router: str | RoutingPolicy = "round-robin",
        admission: AdmissionControl | bool | None = None,
        chaos: ChaosPlan | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if not groups:
            raise ValueError("a cluster needs at least one replica group")
        self.groups = [
            group if isinstance(group, ReplicaGroup) else ReplicaGroup(group)
            for group in groups
        ]
        names = [group.name for group in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"replica group names must be unique: {names}")
        self.router = get_router(router)
        self.admission = resolve_admission(admission)
        self.chaos = chaos
        self.recovery = recovery

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def replicas(self) -> int:
        """Total replica budget across all groups."""
        return sum(group.replicas for group in self.groups)

    # ------------------------------------------------------------------
    def start(
        self, deadline_ms: float, deadline_tiers: tuple[float, ...] = ()
    ) -> None:
        """Open every group for one serving session."""
        for group in self.groups:
            group.start(
                deadline_ms,
                deadline_tiers,
                chaos=self.chaos,
                recovery=self.recovery,
            )

    def submit_nowait(
        self, avatar_id: int, frame_index: int, deadline_rel_ms: float
    ) -> "asyncio.Future[DecodeResponse | None]":
        """Route one request; shed requests resolve immediately to ``None``.

        Duck-type compatible with
        :meth:`~repro.serving.scheduler.BatchScheduler.submit_nowait`, so
        the same avatar clients drive a plain scheduler or a cluster.

        Routing is failure-aware: when the chosen group's circuit
        breaker is open or its pool is exhausted, the request fails over
        to the best available group (counted as a ``failover`` on the
        receiving group); when no group is available it fails at the
        front door — resolved ``None``, counted ``failed``, never a
        hang.
        """
        preferred = self.router.route(deadline_rel_ms, now_ms(), self.groups)
        index = failover_route(
            preferred,
            deadline_rel_ms,
            self.groups,
            [g.available for g in self.groups],
        )
        if index is None:
            home = self.groups[preferred]
            assert home.tracker is not None
            home.tracker.record_submit()
            home.tracker.record_failed()
            dead: asyncio.Future[DecodeResponse | None] = (
                asyncio.get_running_loop().create_future()
            )
            dead.set_result(None)
            return dead
        group = self.groups[index]
        assert group.scheduler is not None and group.tracker is not None
        if index != preferred:
            group.tracker.record_failover()
        if self.admission is not None and not self.admission.admit(
            group, deadline_rel_ms
        ):
            group.tracker.record_shed()
            shed: asyncio.Future[DecodeResponse | None] = (
                asyncio.get_running_loop().create_future()
            )
            shed.set_result(None)
            return shed
        return group.scheduler.submit_nowait(
            avatar_id, frame_index, deadline_rel_ms
        )

    async def close(self) -> None:
        for group in self.groups:
            await group.close()

    def report(self, avatars: int, duration_ms: float) -> ServingReport:
        """Aggregate + per-group SLOs of the finished session.

        A single-group cluster reports the group's own policy name (and
        identical SLO numbers to the plain scheduler path); mixed
        clusters report ``cluster(<router>)``.
        """
        first = self.groups[0]
        assert first.scheduler is not None and first.tracker is not None
        merged = SloTracker(
            deadline_ms=first.tracker.deadline_ms,
            deadline_tiers_ms=first.tracker.deadline_tiers_ms,
        )
        utilization: tuple[float, ...] = ()
        for group in self.groups:
            assert group.tracker is not None
            merged.merge(group.tracker)
            utilization += group.pool.utilizations(duration_ms)
        policy = (
            first.scheduler.policy.name
            if len(self.groups) == 1
            else f"cluster({self.router.name})"
        )
        return merged.report(
            policy=policy,
            avatars=avatars,
            duration_ms=duration_ms,
            replica_utilization=utilization,
            max_batch=max(g.scheduler.max_batch for g in self.groups),
            batch_window_ms=first.scheduler.batch_window_ms,
            router=self.router.name,
            groups=tuple(group.report(duration_ms) for group in self.groups),
            reconnects=sum(
                getattr(g.scheduler.transport, "reconnects", 0)
                for g in self.groups
            ),
        )


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------
async def run_cluster_session(cluster: Cluster, workload) -> ServingReport:
    """Serve one workload through a cluster on an open event loop."""
    from repro.serving.workload import _avatar_client

    anchor_session_clock()
    cluster.start(workload.deadline_ms, workload.deadline_tiers)
    clients = [
        asyncio.get_running_loop().create_task(
            _avatar_client(cluster, workload, avatar_id)
        )
        for avatar_id in range(workload.avatars)
    ]
    await asyncio.gather(*clients)
    await cluster.close()
    duration_ms = now_ms()
    return cluster.report(avatars=workload.avatars, duration_ms=duration_ms)


def serve_cluster(
    groups: Cluster | Sequence[GroupSpec | ReplicaGroup],
    workload,
    router: str | RoutingPolicy = "round-robin",
    admission: AdmissionControl | bool | None = None,
    real_time: bool = False,
    chaos: ChaosPlan | None = None,
    recovery: RecoveryPolicy | None = None,
) -> ServingReport:
    """Run a whole cluster serving session; deterministic on the virtual clock.

    Pass a prebuilt :class:`Cluster` (its router/admission/chaos win) or
    a list of group specs plus ``router=``/``admission=``/``chaos=``.
    """
    if not isinstance(groups, Cluster):
        groups = Cluster(
            groups,
            router=router,
            admission=admission,
            chaos=chaos,
            recovery=recovery,
        )
    return run_session(
        run_cluster_session(groups, workload), real_time=real_time
    )


__all__ = [
    "Cluster",
    "GroupSpec",
    "ReplicaGroup",
    "run_cluster_session",
    "serve_cluster",
]
