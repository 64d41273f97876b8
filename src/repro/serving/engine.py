"""The serving engine: one event heap serves every session.

A session is a single explicit event loop — a ``heapq`` of timed events
plus a presorted arrival array — in milliseconds of session time, with
no per-request objects on the hot path, so it serves millions of
requests in seconds of wall time. Each group holds a batching window,
a FIFO free list of replicas and a policy-native queue of request
indices (``fifo``, ``edf`` or ``fair``) kept in index order, which is
arrival order; a dispatched batch's replica returns each frame's finish
time.

What it builds on:

- :class:`~repro.serving.replica.Replica` — warm/cold service times and
  busy-time accounting (:meth:`Replica.service_times`);
- :mod:`repro.serving.router` — the routers, fed the engine's groups;
- :class:`~repro.serving.admission.AdmissionControl` — bounded queue +
  predicted-miss shedding;
- :class:`~repro.serving.slo.ServingReport` — the output record every
  report consumer (CLI, JSON, benchmarks) reads.

:class:`AutoscalePolicy` is a reactive controller that adds replicas
(after a provisioning delay, starting **cold** — the fill latency of the
first batch on a fresh replica is charged against the SLOs like any
other frame) and drains them when offered load falls.

Faults and recovery: a :class:`~repro.serving.chaos.ChaosPlan` injects
deterministic replica faults at dispatch time, and a crashed batch fails
at its would-be finish (an ``_EV_FAIL`` event at the detection latency).
Failed frames re-enqueue within their retry budget keeping
their original arrival and deadline, the per-group
:class:`~repro.serving.chaos.CircuitBreaker` trips and diverts arrivals
through :func:`~repro.serving.router.failover_route`, and dead replicas
provision cold replacements through the same ``_EV_PROVISION`` events
autoscaling uses.

Every session is a pure function of its inputs: same trace + same specs
→ the same report, bit for bit.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from numbers import Integral
from typing import Sequence

import numpy as np

from repro.serving.admission import AdmissionControl, resolve_admission
from repro.serving.chaos import ChaosPlan, CircuitBreaker, RecoveryPolicy
from repro.serving.cluster import GroupSpec
from repro.serving.replica import Replica, ReplicaPool, health_summary
from repro.serving.router import RoutingPolicy, failover_route, get_router
from repro.serving.slo import GroupReport, ServingReport, nearest_rank
from repro.serving.traffic import RequestTrace, trace_from_workload
from repro.serving.workload import AvatarWorkload
from repro.utils.sums import ordered_sum

#: Per-avatar p99 latencies are only folded into the report up to this
#: many avatars — a million-avatar session does not want a million-entry
#: tuple in its JSON.
PER_AVATAR_LIMIT = 4096

_FIFO, _EDF, _FAIR = 0, 1, 2
_POLICY_KIND = {"fifo": _FIFO, "edf": _EDF, "fair": _FAIR}
# A fair avatar never served yet takes its turn before every served one.
_NEG_INF = float("-inf")

# Dispatcher states: parked on an empty queue, holding the batching
# window, waiting for a free replica, dispatching.
_IDLE, _WINDOW, _WAIT, _RUNNING = 0, 1, 2, 3

# Event kinds. Ordering at equal times is by ``seq`` (creation order),
# which dominates ``kind`` in the tuple comparison — the kind is a tag,
# not a tie-breaker.
_EV_WINDOW, _EV_FINISH, _EV_PROVISION, _EV_SCALE = 0, 1, 2, 3
_EV_FAIL, _EV_RELEASE = 4, 5

# ``_EV_RELEASE`` payload flags (the ``a`` slot).
_REL_RESTORE = 1  # stall over: degraded health returns to "up"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Reactive per-group replica autoscaling for the event-heap engine.

    Every ``check_interval_ms`` the controller sizes each group from the
    load it *observed* over the last window: ``desired = ceil(offered_fps
    / (replica steady fps * target_utilization))``, clamped to
    ``[min_replicas, max_replicas]`` and rate-limited to ``max_step``
    replicas per decision. Scale-ups take ``warmup_ms`` of provisioning
    before the new replica can serve, and it starts **cold** — its first
    batch pays the full pipeline-fill latency, charged against the SLOs.
    Scale-downs retire idle replicas immediately and drain busy ones at
    their next release; a group never drains below the backlog it still
    has to serve (no scale-down while more than ``max_batch`` frames per
    surviving replica are queued or in flight).
    """

    #: Controller period (ms of session time).
    check_interval_ms: float = 500.0
    #: Provisioning delay (ms) before a scaled-up replica can serve.
    warmup_ms: float = 2000.0
    #: Sizing headroom: desired capacity = offered load / this.
    target_utilization: float = 0.75
    #: Replica count bounds per group.
    min_replicas: int = 1
    max_replicas: int = 64
    #: Most replicas added or drained per decision per group.
    max_step: int = 8

    def __post_init__(self) -> None:
        if not (
            0 < self.check_interval_ms < math.inf
            and 0 <= self.warmup_ms < math.inf
        ):
            raise ValueError("autoscale intervals must be positive")
        if not 0 < self.target_utilization <= 1.0:
            raise ValueError("target utilization must be in (0, 1]")
        for name in ("min_replicas", "max_replicas", "max_step"):
            # A float bound would pass the range checks and crash the
            # session at its first scale-up or while building the fleet.
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
            # A numpy integer is stored as a plain int, so the replica
            # counts the report derives from it stay JSON-serializable.
            object.__setattr__(self, name, int(value))
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.max_step < 1:
            raise ValueError("max_step must be >= 1")


class _EngineGroup:
    """One replica group's live state during a session: the view the
    routers and admission control decide on.

    ``backlog_frames``, ``replicas`` and ``capacity_fps`` are plain
    attributes, not properties: the session keeps them current (the
    backlog as frames are queued, finish or fail; the fleet size through
    :meth:`refresh_fleet` whenever ``live`` or ``pending_drain`` moves),
    so every admission and routing decision reads them without
    recomputing. Admission reads its predicted latency from
    :attr:`predicted`, a table by backlog for the current fleet size.
    """

    def __init__(
        self,
        spec: GroupSpec,
        index: int,
        batch_limit: int,
        recovery: RecoveryPolicy | None = None,
        chaos_states: "dict | None" = None,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.index = index
        self.profile = spec.profile
        self.policy_name = spec.policy
        self.policy_kind = _POLICY_KIND[spec.policy]
        self.batch_limit = batch_limit
        self.window_ms = spec.batch_window_ms
        self.all_replicas: list[Replica] = []
        self.free: deque[Replica] = deque()
        self.live = 0  # replicas not yet retired (free + busy)
        self.pending_drain = 0  # busy replicas marked for retirement
        self.provisioning = 0  # replicas inside their warmup_ms delay
        self.state = _IDLE
        self.queue_len = 0
        self.backlog_frames = 0  # frames queued plus in flight
        #: ``predicted[b]``: the latency admission predicts for a frame
        #: admitted behind ``b`` frames on the current fleet (see
        #: :meth:`extend_predicted`); :meth:`refresh_fleet` clears it.
        self.predicted: list[float] = []
        self.replicas = 0
        self.refresh_fleet()
        # Policy-native queues of request indices, each deque sorted by
        # index: one for fifo, one per deadline budget for edf, one per
        # avatar for fair. A deque that empties leaves its dict.
        self.fifo_q: deque[int] = deque()
        self.edf_q: dict[float, deque[int]] = {}
        self.fair_q: dict[int, deque[int]] = {}
        self.fair_last: dict[int, float] = {}
        # Fair's turn order: one (last served, avatar) entry per avatar
        # with frames queued, least first.
        self.fair_turns: list[tuple[float, int]] = []
        # SLO counters.
        self.shed = 0
        self.batch_sizes: list[int] = []
        # Autoscale bookkeeping.
        self.scale_ups = 0
        self.scale_downs = 0
        # Faults and recovery.
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.breaker = CircuitBreaker(self.recovery.breaker_threshold)
        self.chaos_states = chaos_states or None
        self.exhausted = False
        self.replacing = 0  # replacement replicas inside their delay
        self.failed = 0
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.failovers = 0
        self.replicas_lost = 0
        self.replicas_replaced = 0
        self.degraded_time_ms = 0.0

    def add_replica(self) -> Replica:
        replica = Replica(
            replica_id=len(self.all_replicas),
            latency=self.profile,
            max_batch=self.spec.max_batch,
        )
        self.all_replicas.append(replica)
        self.free.append(replica)
        self.live += 1
        self.refresh_fleet()
        return replica

    def adopt_pool(self, pool: ReplicaPool) -> None:
        """Serve on an existing pool's replicas (single-pool mode)."""
        pool.reset()
        self.all_replicas = list(pool.replicas)
        self.free = deque(pool.replicas)
        self.live = len(pool.replicas)
        self.refresh_fleet()

    def refresh_fleet(self) -> None:
        """Recompute ``replicas`` (live minus draining, at least one) and
        ``capacity_fps`` (their warm steady-state frames/second); a new
        fleet size clears :attr:`predicted`."""
        replicas = max(1, self.live - self.pending_drain)
        if replicas != self.replicas:
            self.replicas = replicas
            self.capacity_fps = replicas * self.profile.steady_fps
            self.predicted.clear()

    # -- what routers and admission read ------------------------------
    def _drain_ms(self, frames: int) -> float:
        """Estimated ms for the fleet to work off ``frames`` frames."""
        return frames * self.profile.steady_interval_ms / self.replicas

    def backlog_ms(self) -> float:
        """Estimated ms until a frame admitted now starts service."""
        return self._drain_ms(self.backlog_frames)

    def extend_predicted(self, backlog: int) -> None:
        """Grow :attr:`predicted` through index ``backlog``.

        Entry ``b`` is the drain of ``b`` frames, plus the batching
        window, plus the frame's own service: a cold fill behind an
        empty group, one steady interval behind a backlog.
        """
        predicted = self.predicted
        profile = self.profile
        for frames in range(len(predicted), backlog + 1):
            service = (
                profile.steady_interval_ms if frames else profile.first_frame_ms
            )
            predicted.append(self._drain_ms(frames) + self.window_ms + service)

    def unloaded_latency_ms(self) -> float:
        """Best-case response latency: batching window plus cold fill."""
        return self.window_ms + self.profile.first_frame_ms


class _HeapSession:
    """One event-heap serving session over a :class:`RequestTrace`."""

    def __init__(
        self,
        groups: list[_EngineGroup],
        trace: RequestTrace,
        router: RoutingPolicy,
        admission: AdmissionControl | None,
        autoscale: AutoscalePolicy | None,
        recovery: RecoveryPolicy | None = None,
        may_fail: bool = False,
        cluster: bool = True,
    ) -> None:
        self.groups = groups
        self.trace = trace
        self.router = router
        self.autoscale = autoscale
        self._recovery = recovery if recovery is not None else RecoveryPolicy()
        # The fault machinery (retries, breakers, failover) runs only when
        # a replica can fail: under a chaos plan or behind a wire.
        self._may_fail = may_fail
        self._cluster = cluster
        self._attempts: dict[int, int] = {}
        # With one group and nothing that can fail, every arrival goes to
        # that group: no routing, no failover.
        self._sole = groups[0] if len(groups) == 1 and not may_fail else None
        self._admit = admission.admit if admission is not None else None
        n = len(trace)
        # Per-request columns stay numpy arrays. The hot path reads and
        # writes them through memoryviews, which hand out plain Python
        # floats and ints, so the session holds no object per request;
        # finalization reads the arrays.
        arrival = np.ascontiguousarray(trace.arrival_ms, dtype=np.float64)
        rel = np.ascontiguousarray(trace.deadline_rel_ms, dtype=np.float64)
        # Absolute deadlines: what EDF, hedging and the miss count compare
        # finishes with.
        self._due_ms = arrival + rel
        self._arrival = memoryview(arrival)
        self._avatar = memoryview(
            np.ascontiguousarray(trace.avatar_id, dtype=np.int64)
        )
        self._rel = memoryview(rel)
        self._due = memoryview(self._due_ms)
        self._start_ms = np.zeros(n)
        self._finish_ms = np.zeros(n)
        self._start = memoryview(self._start_ms)
        self._finish = memoryview(self._finish_ms)
        self._group_of = bytearray(n) if len(groups) < 256 else [0] * n
        self._shed_flag = bytearray(n)
        self._failed_flag = bytearray(n)
        self._events: list[tuple] = []
        self._seq = 0
        # Arrivals handled so far; written before each event, read by
        # ``_on_scale`` alone.
        self._cursor = 0
        self._checked = 0  # ``_cursor`` at the last autoscale check
        # The session lasts until the last arrival, the last finish, or
        # the last fail, release or replacement, whichever is latest:
        # finalize takes the first two from the arrays, the handlers of
        # the rest keep this.
        self._duration = 0.0
        self._peak = sum(g.live for g in groups)

    # ------------------------------------------------------------------
    def run(self) -> None:
        events = self._events
        arrival = self._arrival
        n = len(arrival)
        groups = self.groups
        finish = self._finish
        on_arrival = self._on_arrival
        # Without faults, a non-last frame's completion only records its
        # finish time and frees its backlog slot: no handler call.
        inline_finish = not self._may_fail
        autoscale = self.autoscale
        if autoscale is not None:
            self._push(autoscale.check_interval_ms, _EV_SCALE, 0, 0, None)
        i = 0
        while True:
            # Drain the run of arrivals due at or before the heap's head.
            # Arrivals win ties, and the head is re-read after each one: a
            # dispatch may push an earlier event.
            while i < n:
                t = arrival[i]
                if events and t > events[0][0]:
                    break
                on_arrival(i, t)
                i += 1
            if not events:
                break
            self._cursor = i
            t, _, kind, gi, a, b = heappop(events)
            if kind == _EV_FINISH:
                if b is None and inline_finish:
                    finish[a] = t
                    groups[gi].backlog_frames -= 1
                else:
                    self._on_finish(t, groups[gi], a, b)
            elif kind == _EV_WINDOW:
                self._on_window(t, groups[gi])
            elif kind == _EV_PROVISION:
                self._on_provision(t, groups[gi], a)
            elif kind == _EV_SCALE:
                self._on_scale(t)
            elif kind == _EV_FAIL:
                self._on_fail(t, groups[gi], a, b)
            else:
                self._on_release(t, groups[gi], a, b)

    def _push(self, t: float, kind: int, gi: int, a, b) -> None:
        self._seq += 1
        heappush(self._events, (t, self._seq, kind, gi, a, b))

    # ------------------------------------------------------------------
    def _on_arrival(self, i: int, t: float) -> None:
        rel = self._rel[i]
        # The sole group is group 0, which ``_group_of`` starts as.
        group = self._sole
        if group is None:
            groups = self.groups
            if len(groups) == 1:
                preferred = 0
            else:
                preferred = self.router.route(rel, t, groups)
            group = groups[preferred]
            if self._may_fail:
                # Failure-aware front door: divert from tripped/exhausted
                # groups via failover_route; no group available → the
                # frame fails at the door, charged to the preferred group.
                if self._cluster:
                    index = failover_route(
                        preferred,
                        rel,
                        groups,
                        [
                            not g.breaker.open and not g.exhausted
                            for g in groups
                        ],
                    )
                    if index is None:
                        self._fail_at_door(i, group)
                        return
                    if index != preferred:
                        groups[index].failovers += 1
                    group = groups[index]
                elif group.exhausted:
                    self._fail_at_door(i, group)
                    return
            self._group_of[i] = group.index
        admit = self._admit
        if admit is not None and not admit(group, rel):
            group.shed += 1
            self._shed_flag[i] = 1
            return
        # Arrivals come in index order, so appending keeps every queue
        # sorted by index.
        kind = group.policy_kind
        if kind == _EDF:
            queue = group.edf_q.get(rel)
            if queue is None:
                group.edf_q[rel] = deque((i,))
            else:
                queue.append(i)
        elif kind == _FIFO:
            group.fifo_q.append(i)
        else:
            avatar = self._avatar[i]
            queue = group.fair_q.get(avatar)
            if queue is None:
                group.fair_q[avatar] = deque((i,))
                heappush(
                    group.fair_turns,
                    (group.fair_last.get(avatar, _NEG_INF), avatar),
                )
            else:
                queue.append(i)
        group.queue_len += 1
        group.backlog_frames += 1
        if group.state == _IDLE:
            self._drive(group, t)

    def _drive(self, group: _EngineGroup, t: float) -> None:
        """The dispatcher loop top: park, hold the window, or dispatch.

        The batching window is held once per loop iteration (only while
        the queue is non-empty and below the batch limit), then a free
        replica is awaited, then the policy picks the batch.
        """
        while True:
            if group.queue_len == 0:
                group.state = _IDLE
                return
            if (
                group.queue_len < group.batch_limit
                and group.window_ms
            ):
                group.state = _WINDOW
                self._push(t + group.window_ms, _EV_WINDOW, group.index, 0, None)
                return
            if not group.free:
                group.state = _WAIT
                return
            self._dispatch(group, t)

    def _on_window(self, t: float, group: _EngineGroup) -> None:
        # Waking from the batching window goes straight to acquire,
        # without re-checking the window condition.
        if group.exhausted or not group.queue_len:
            # Exhaustion drained the queue mid-window (every replica
            # dead, no replacement coming): the dispatcher retires.
            group.state = _IDLE
            return
        if not group.free:
            group.state = _WAIT
            return
        group.state = _RUNNING
        self._dispatch(group, t)
        self._drive(group, t)

    def _dispatch(self, group: _EngineGroup, t: float) -> None:
        """Serve the policy's next batch on the group's first free replica.

        Every queue is sorted by request index. For one deadline budget,
        the order by ``(arrival + budget, index)`` is the order by index,
        because arrivals are sorted and handled in index order. So EDF
        pops, from the heads of its per-budget deques, the least
        ``(arrival + budget, index)``: the key a single heap of all
        queued frames would pop. Each pop costs one comparison per budget
        with frames queued; a :func:`~repro.serving.traffic.make_trace`
        trace has at most ``len(deadline_tiers)`` budgets, or one without
        tiers.
        """
        replica = group.free.popleft()
        limit = (
            group.batch_limit
            if group.batch_limit <= replica.max_batch
            else replica.max_batch
        )
        kind = group.policy_kind
        if kind == _EDF:
            batch = self._select_edf(group, limit)
        elif kind == _FIFO:
            queue = group.fifo_q
            size = min(limit, len(queue))
            batch = [queue.popleft() for _ in range(size)]
        else:
            batch = self._select_fair(group, t, limit)
        size = len(batch)
        group.queue_len -= size
        gi = group.index
        outcome = None
        if group.chaos_states is not None:
            state = group.chaos_states.get(replica.replica_id)
            if state is not None:
                outcome = state.on_dispatch(t)
                replica.latency_factor = outcome.latency_factor
                if outcome.crashed:
                    # The batch fails at its would-be finish time — the
                    # failure-*detection* latency. The replica serves
                    # nothing: no batch counted, no busy time charged.
                    detect = replica.preview_service(t, size)[-1]
                    self._push(detect, _EV_FAIL, gi, batch, replica)
                    return
                if outcome.latency_factor != 1.0 and replica.health == "up":
                    replica.health = "degraded"
        finishes = replica.service_times(t, size)
        group.batch_sizes.append(size)
        if outcome is not None and outcome.latency_factor != 1.0:
            group.degraded_time_ms += finishes[-1] - t
        stall_ms = outcome.stall_ms if outcome is not None else 0.0
        hedge_replica = None
        hedge_finishes = None
        if self._recovery.hedge:
            due = self._due
            if any(
                finishes[j] > due[batch[j]] for j in range(size)
            ) and group.free:
                hedge_replica = group.free.popleft()
                hedge_finishes = self._dispatch_hedge(
                    group, hedge_replica, t, size
                )
                if hedge_finishes is None:
                    hedge_replica = None  # the hedge itself crashed
        eff = finishes
        if hedge_finishes is not None:
            eff = list(finishes)
            for j in range(size):
                if hedge_finishes[j] < eff[j]:
                    eff[j] = hedge_finishes[j]
                    group.hedge_wins += 1
        # One finish event per frame; the last carries the replica when
        # its finish also frees the replica.
        start = self._start
        events = self._events
        seq = self._seq
        last = size - 1
        plain = hedge_replica is None and not stall_ms
        for j in range(last):
            req = batch[j]
            start[req] = t
            seq += 1
            heappush(events, (eff[j], seq, _EV_FINISH, gi, req, None))
        req = batch[last]
        start[req] = t
        seq += 1
        freed = replica if plain else None
        heappush(events, (eff[last], seq, _EV_FINISH, gi, req, freed))
        self._seq = seq
        if plain:
            return
        # Completion decoupled from release: the breaker's success lands
        # when the batch's last frame resolves, then each replica returns
        # to rotation at its own time (stalled primary late, hedge at its
        # own finish), earliest first.
        if self._may_fail:
            self._push(eff[last], _EV_RELEASE, gi, 0, None)
        if stall_ms:
            group.degraded_time_ms += stall_ms
            if replica.health == "up":
                replica.health = "degraded"
        releases = [
            (finishes[last] + stall_ms, _REL_RESTORE if stall_ms else 0, replica)
        ]
        if hedge_replica is not None:
            releases.append((hedge_finishes[last], 0, hedge_replica))
        releases.sort(key=lambda item: item[0])
        for at, flags, freed in releases:
            self._push(at, _EV_RELEASE, gi, flags, freed)

    def _dispatch_hedge(
        self, group: _EngineGroup, hedge: Replica, t: float, size: int
    ) -> tuple[float, ...] | None:
        """Duplicate a batch onto ``hedge``; ``None`` if the hedge died.

        A crashed hedge costs only the replica (detected at its would-be
        finish), no retry, no breaker failure; a served hedge is charged
        its full occupancy.
        """
        if group.chaos_states is not None:
            state = group.chaos_states.get(hedge.replica_id)
            if state is not None:
                outcome = state.on_dispatch(t)
                hedge.latency_factor = outcome.latency_factor
                if outcome.crashed:
                    detect = hedge.preview_service(t, size)[-1]
                    self._push(detect, _EV_FAIL, group.index, None, hedge)
                    return None
                if outcome.latency_factor != 1.0 and hedge.health == "up":
                    hedge.health = "degraded"
        group.hedges += 1
        return hedge.service_times(t, size)

    def _select_edf(self, group: _EngineGroup, limit: int) -> list[int]:
        """Pop up to ``limit`` frames, least ``(deadline, index)`` first,
        from the heads of the group's per-budget deques.

        A deque that empties leaves ``edf_q``, so ``edf_q`` only ever
        holds budgets with frames queued; an arrival or a retry of that
        budget makes a new one.
        """
        edf_q = group.edf_q
        rel = self._rel
        if len(edf_q) == 1:
            (queue,) = edf_q.values()
            batch = [queue.popleft() for _ in range(min(limit, len(queue)))]
            if not queue:
                del edf_q[rel[batch[0]]]
            return batch
        due = self._due
        heads = []
        for queue in edf_q.values():
            head = queue[0]
            heads.append([due[head], head, queue])
        batch: list[int] = []
        while heads and len(batch) < limit:
            # Indices are unique, so the comparison never reaches a deque.
            best = min(heads)
            queue = best[2]
            req = queue.popleft()
            batch.append(req)
            if queue:
                head = queue[0]
                best[0] = due[head]
                best[1] = head
            else:
                heads.remove(best)
                del edf_q[rel[req]]
        return batch

    def _select_fair(
        self, group: _EngineGroup, t: float, limit: int
    ) -> list[int]:
        """Pop up to ``limit`` frames round robin, one per avatar per
        turn, avatars least ``(last served, id)`` first, FIFO within an
        avatar.

        Only the first ``limit`` avatars in that order can be reached, so
        only they leave ``fair_turns``; the ones still backlogged re-enter
        at ``(t, id)``. A dispatch costs O(batch · log backlogged).
        """
        turns = group.fair_turns
        fair_q = group.fair_q
        served = [heappop(turns)[1] for _ in range(min(limit, len(turns)))]
        queues = [fair_q[avatar] for avatar in served]
        batch: list[int] = []
        while len(batch) < limit:
            took = False
            for queue in queues:
                if queue and len(batch) < limit:
                    batch.append(queue.popleft())
                    took = True
            if not took:
                break
        last_served = group.fair_last
        for avatar, queue in zip(served, queues):
            last_served[avatar] = t
            if queue:
                heappush(turns, (t, avatar))
            else:
                del fair_q[avatar]
        return batch

    def _on_finish(
        self, t: float, group: _EngineGroup, req: int, replica
    ) -> None:
        self._finish[req] = t
        group.backlog_frames -= 1
        if self._may_fail:
            self._attempts.pop(req, None)
        if replica is None:
            return
        # Last frame of its batch: the batch succeeded (the breaker
        # closes), and the replica frees up (or retires).
        if self._may_fail:
            group.breaker.record_success()
        if group.pending_drain > 0:
            group.pending_drain -= 1
            group.live -= 1
            group.refresh_fleet()
            return
        group.free.append(replica)
        if group.state == _WAIT:
            group.state = _RUNNING
            self._dispatch(group, t)
            self._drive(group, t)

    def _on_provision(self, t: float, group: _EngineGroup, marker) -> None:
        group.provisioning -= 1
        group.add_replica()  # lands cold: first batch pays the fill
        if marker:
            # A chaos replacement, not an autoscale decision: same
            # provisioning machinery, its own counter — and the session
            # lasts until it lands.
            group.replacing -= 1
            group.replicas_replaced += 1
            if t > self._duration:
                self._duration = t
        peak = sum(g.live for g in self.groups)
        if peak > self._peak:
            self._peak = peak
        if group.state == _WAIT:
            group.state = _RUNNING
            self._dispatch(group, t)
            self._drive(group, t)

    # -- failure detection, retry, release -----------------------------
    def _on_fail(self, t: float, group: _EngineGroup, batch, replica) -> None:
        """A dispatched batch failed at ``t`` and took its replica.

        ``batch`` is ``None`` for a crashed *hedge* — the primary still
        serves every frame, so the loss costs only the replica (no
        breaker failure, no retries).
        """
        if t > self._duration:
            self._duration = t
        if replica.health != "dead":
            replica.health = "dead"
            group.live -= 1
            group.refresh_fleet()
            group.replicas_lost += 1
            if group.recovery.replace_after_ms is not None:
                group.replacing += 1
                group.provisioning += 1
                self._push(
                    t + group.recovery.replace_after_ms,
                    _EV_PROVISION,
                    group.index,
                    1,
                    None,
                )
        if batch is None:
            self._check_exhausted(group)
            return
        group.breaker.record_failure()
        size = len(batch)
        group.backlog_frames -= size
        recoverable = group.live > 0 or group.replacing > 0
        max_retries = group.recovery.max_retries
        for req in batch:
            attempts = self._attempts.get(req, 0) + 1
            if recoverable and attempts <= max_retries:
                self._attempts[req] = attempts
                group.retries += 1
                self._requeue(group, req)
            else:
                self._fail_request(group, req)
        self._check_exhausted(group)
        if group.queue_len and recoverable and group.state == _IDLE:
            self._drive(group, t)

    def _on_release(self, t: float, group: _EngineGroup, flags, replica) -> None:
        if t > self._duration:
            self._duration = t
        if replica is None:
            # Marker event: the batch's last frame just resolved.
            group.breaker.record_success()
            return
        if (
            flags & _REL_RESTORE
            and replica.health == "degraded"
            and replica.latency_factor == 1.0
        ):
            replica.health = "up"
        if replica.health == "dead":
            return  # a dead replica never rejoins the rotation
        if group.pending_drain > 0:
            group.pending_drain -= 1
            group.live -= 1
            group.refresh_fleet()
            return
        group.free.append(replica)
        if group.state == _WAIT:
            group.state = _RUNNING
            self._dispatch(group, t)
            self._drive(group, t)

    def _fail_at_door(self, i: int, group: _EngineGroup) -> None:
        """No group can take this arrival: it fails, charged to ``group``."""
        self._group_of[i] = group.index
        group.failed += 1
        self._failed_flag[i] = 1

    def _requeue(self, group: _EngineGroup, req: int) -> None:
        """Re-enqueue a failed frame with its original arrival/deadline:
        at its index-sorted slot in its queue."""
        kind = group.policy_kind
        if kind == _FIFO:
            queue = group.fifo_q
        else:
            key = self._rel[req] if kind == _EDF else self._avatar[req]
            queues = group.edf_q if kind == _EDF else group.fair_q
            queue = queues.get(key)
            if queue is None:
                queue = queues[key] = deque()
                if kind == _FAIR:
                    heappush(
                        group.fair_turns,
                        (group.fair_last.get(key, _NEG_INF), key),
                    )
        insort(queue, req)
        group.queue_len += 1
        group.backlog_frames += 1

    def _fail_request(self, group: _EngineGroup, req: int) -> None:
        self._attempts.pop(req, None)
        group.failed += 1
        self._failed_flag[req] = 1

    def _check_exhausted(self, group: _EngineGroup) -> None:
        if group.exhausted or group.live > 0 or group.replacing > 0:
            return
        group.exhausted = True
        # The dispatcher retires: a parked _WAIT would otherwise dispatch
        # an empty queue when an autoscaled replica lands later.
        group.state = _IDLE
        kind = group.policy_kind
        if kind == _FIFO:
            drained = list(group.fifo_q)
            group.fifo_q.clear()
        else:
            queues = group.edf_q if kind == _EDF else group.fair_q
            drained = [req for queue in queues.values() for req in queue]
            queues.clear()
            group.fair_turns.clear()
        for req in drained:
            self._fail_request(group, req)
        group.backlog_frames -= group.queue_len
        group.queue_len = 0

    def _on_scale(self, t: float) -> None:
        policy = self.autoscale
        assert policy is not None
        window_s = policy.check_interval_ms / 1000.0
        # Each group's arrivals since the last check: the frames routed
        # there among those handled since.
        cursor = self._cursor
        routed = self._group_of[self._checked:cursor]
        arrivals = [routed.count(g.index) for g in self.groups]
        self._checked = cursor
        for group, arrived in zip(self.groups, arrivals):
            offered_fps = arrived / window_s
            steady_fps = group.profile.steady_fps
            if steady_fps <= 0:
                continue
            desired = math.ceil(
                offered_fps / (steady_fps * policy.target_utilization)
            )
            desired = min(policy.max_replicas, max(policy.min_replicas, desired))
            serving = group.live - group.pending_drain
            current = serving + group.provisioning
            if desired > current:
                step = min(policy.max_step, desired - current)
                group.scale_ups += step
                group.provisioning += step
                for _ in range(step):
                    self._push(
                        t + policy.warmup_ms, _EV_PROVISION, group.index, 0, None
                    )
            elif desired < serving:
                # Never drain below the backlog still to be served.
                if group.backlog_frames > desired * group.spec.max_batch:
                    continue
                step = min(policy.max_step, serving - desired)
                group.scale_downs += step
                while step and group.free:
                    group.free.pop()
                    group.live -= 1
                    step -= 1
                group.pending_drain += step
                group.refresh_fleet()
        # Admitted but unfinished frames are the groups' backlogs.
        pending = sum(g.backlog_frames for g in self.groups)
        if cursor < len(self._arrival) or pending > 0:
            self._push(t + policy.check_interval_ms, _EV_SCALE, 0, 0, None)

    # ------------------------------------------------------------------
    def finalize(self) -> ServingReport:
        """The session's report: a bare pool reports no group slices and
        no router; a cluster reports both, and ``cluster(<router>)`` as
        its policy once it has more than one group."""
        trace = self.trace
        n = len(trace)
        arrival = trace.arrival_ms
        finish = self._finish_ms
        start = self._start_ms
        # The flags hold 0 or 1, so their bytes read as booleans in place.
        shed = np.frombuffer(self._shed_flag, dtype=np.bool_)
        failed = np.frombuffer(self._failed_flag, dtype=np.bool_)
        if isinstance(self._group_of, bytearray):
            group_of = np.frombuffer(self._group_of, dtype=np.uint8)
        else:
            group_of = np.asarray(self._group_of, dtype=np.int64)
        served = ~shed & ~failed
        duration_ms = max(
            self._duration, float(arrival.max()), float(finish.max())
        )

        latencies = finish[served] - arrival[served]
        queue_waits = start[served] - arrival[served]
        missed = (finish > self._due_ms) & served

        ordered = np.sort(latencies)
        per_avatar: tuple[float, ...] = ()
        if trace.avatars <= PER_AVATAR_LIMIT and len(latencies):
            avatars_served = trace.avatar_id[served]
            by_avatar = np.lexsort((latencies, avatars_served))
            ids, counts = np.unique(avatars_served, return_counts=True)
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            ranks = offsets + np.maximum(
                1, np.ceil(0.99 * counts).astype(np.int64)
            ) - 1
            per_avatar = tuple(latencies[by_avatar][ranks].tolist())

        group_reports: tuple[GroupReport, ...] = ()
        utilization: tuple[float, ...] = ()
        scale_ups = sum(g.scale_ups for g in self.groups)
        scale_downs = sum(g.scale_downs for g in self.groups)
        for group in self.groups:
            utilization += tuple(
                r.utilization(duration_ms) for r in group.all_replicas
            )
        if self._cluster:
            group_reports = tuple(
                self._group_report(
                    g, finish, served, missed, group_of, duration_ms
                )
                for g in self.groups
            )

        all_batches = [s for g in self.groups for s in g.batch_sizes]
        completed = int(np.count_nonzero(served))
        policy = self.groups[0].policy_name
        if len(self.groups) > 1:
            policy = f"cluster({self.router.name})"
        return ServingReport(
            policy=policy,
            avatars=trace.avatars,
            replicas=len(utilization),
            max_batch=max(g.batch_limit for g in self.groups),
            batch_window_ms=self.groups[0].window_ms,
            submitted=n,
            completed=completed,
            duration_ms=duration_ms,
            latency_p50_ms=nearest_rank(ordered, 50),
            latency_p95_ms=nearest_rank(ordered, 95),
            latency_p99_ms=nearest_rank(ordered, 99),
            latency_mean_ms=float(latencies.mean()) if len(latencies) else 0.0,
            latency_max_ms=float(ordered[-1]) if len(ordered) else 0.0,
            queue_mean_ms=(
                float(queue_waits.mean()) if len(queue_waits) else 0.0
            ),
            deadline_ms=trace.deadline_ms,
            deadline_tiers_ms=trace.deadline_tiers,
            deadline_misses=int(np.count_nonzero(missed)),
            batches=len(all_batches),
            mean_batch_size=(
                sum(all_batches) / len(all_batches) if all_batches else 0.0
            ),
            replica_utilization=utilization,
            per_avatar_p99_ms=per_avatar,
            shed=sum(g.shed for g in self.groups),
            router=self.router.name if self._cluster else "",
            groups=group_reports,
            engine="heap",
            shape=trace.shape,
            scale_ups=scale_ups,
            scale_downs=scale_downs,
            peak_replicas=self._peak,
            reconnects=0,
            failed=sum(g.failed for g in self.groups),
            retries=sum(g.retries for g in self.groups),
            hedges=sum(g.hedges for g in self.groups),
            hedge_wins=sum(g.hedge_wins for g in self.groups),
            failovers=sum(g.failovers for g in self.groups),
            replicas_lost=sum(g.replicas_lost for g in self.groups),
            replicas_replaced=sum(g.replicas_replaced for g in self.groups),
            degraded_time_ms=ordered_sum(
                g.degraded_time_ms for g in self.groups
            ),
        )

    def _group_report(
        self,
        group: _EngineGroup,
        finish: np.ndarray,
        served: np.ndarray,
        missed: np.ndarray,
        group_of: np.ndarray,
        duration_ms: float,
    ) -> GroupReport:
        mine = group_of == group.index
        mine_served = mine & served
        latencies = np.sort(
            finish[mine_served] - self.trace.arrival_ms[mine_served]
        )
        utilizations = [
            r.utilization(duration_ms) for r in group.all_replicas
        ]
        completed = int(np.count_nonzero(mine_served))
        return GroupReport(
            name=group.name,
            policy=group.policy_name,
            transport="inprocess",
            replicas=len(group.all_replicas),
            max_batch=group.batch_limit,
            batch_window_ms=group.window_ms,
            # Every arrival routed here counts, shed or not.
            submitted=int(np.count_nonzero(mine)) - group.shed,
            shed=group.shed,
            completed=completed,
            deadline_misses=int(np.count_nonzero(missed & mine)),
            latency_p50_ms=nearest_rank(latencies, 50),
            latency_p99_ms=nearest_rank(latencies, 99),
            mean_batch_size=(
                sum(group.batch_sizes) / len(group.batch_sizes)
                if group.batch_sizes
                else 0.0
            ),
            mean_utilization=(
                ordered_sum(utilizations) / len(utilizations)
                if utilizations
                else 0.0
            ),
            scale_ups=group.scale_ups,
            scale_downs=group.scale_downs,
            reconnects=0,
            health=health_summary(group.all_replicas),
            failed=group.failed,
            retries=group.retries,
            hedges=group.hedges,
            hedge_wins=group.hedge_wins,
            failovers=group.failovers,
            replicas_lost=group.replicas_lost,
            replicas_replaced=group.replicas_replaced,
            degraded_time_ms=group.degraded_time_ms,
        )


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------
def serve_trace(
    groups: "ReplicaPool | GroupSpec | Sequence[GroupSpec]",
    trace: RequestTrace | AvatarWorkload,
    *,
    router: str | RoutingPolicy = "round-robin",
    admission: AdmissionControl | bool | None = None,
    autoscale: AutoscalePolicy | None = None,
    policy: str = "fifo",
    batch_window_ms: float = 2.0,
    max_batch: int | None = None,
    chaos: ChaosPlan | None = None,
    recovery: RecoveryPolicy | None = None,
) -> ServingReport:
    """Serve a request trace: the entry point of every serving session.

    Pass a :class:`~repro.serving.replica.ReplicaPool` to serve it as
    one pool (``policy`` / ``batch_window_ms`` / ``max_batch`` apply),
    or one or more :class:`~repro.serving.cluster.GroupSpec` s to serve
    a cluster, each group with its own policy, window and batch cap
    (``router`` / ``admission`` / ``autoscale`` apply). ``trace`` is a
    :class:`~repro.serving.traffic.RequestTrace` or an
    :class:`~repro.serving.workload.AvatarWorkload` (expanded via
    :func:`~repro.serving.traffic.trace_from_workload`). A ``chaos`` plan
    injects deterministic replica faults; ``recovery`` sets how the
    session answers them. Deterministic: same arguments, same report,
    bit for bit.
    """
    if isinstance(trace, AvatarWorkload):
        trace = trace_from_workload(trace)
    admission_ctl = resolve_admission(admission)
    routing = get_router(router)

    if isinstance(groups, ReplicaPool):
        if admission_ctl is not None or autoscale is not None:
            raise ValueError(
                "admission control and autoscaling need replica groups; "
                "pass GroupSpec(s) instead of a bare ReplicaPool"
            )
        pool = groups
        limit = (
            min(max_batch, pool.max_batch)
            if max_batch is not None
            else pool.max_batch
        )
        if limit < 1:
            raise ValueError("max batch must be >= 1")
        spec = GroupSpec(
            name="pool",
            profile=pool.profile,
            replicas=len(pool),
            policy=policy,
            batch_window_ms=batch_window_ms,
            max_batch=pool.max_batch,
        )
        # A bare pool's chaos clauses name replicas by index alone: they
        # resolve against the empty group name.
        group = _EngineGroup(
            spec,
            0,
            batch_limit=limit,
            recovery=recovery,
            chaos_states=chaos.states("") if chaos else None,
        )
        group.adopt_pool(pool)
        engine_groups = [group]
    else:
        specs = [groups] if isinstance(groups, GroupSpec) else list(groups)
        if not specs:
            raise ValueError("a cluster needs at least one replica group")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"replica group names must be unique: {names}")
        engine_groups = []
        for index, spec in enumerate(specs):
            group = _EngineGroup(
                spec,
                index,
                batch_limit=spec.max_batch,
                recovery=recovery,
                chaos_states=chaos.states(spec.name) if chaos else None,
            )
            start_replicas = spec.replicas
            if autoscale is not None:
                start_replicas = min(
                    max(start_replicas, autoscale.min_replicas),
                    autoscale.max_replicas,
                )
            for _ in range(start_replicas):
                group.add_replica()
            engine_groups.append(group)
    session = _HeapSession(
        engine_groups,
        trace,
        routing,
        admission_ctl,
        autoscale,
        recovery=recovery,
        may_fail=bool(chaos),
        cluster=not isinstance(groups, ReplicaPool),
    )
    session.run()
    return session.finalize()


__all__ = ["AutoscalePolicy", "PER_AVATAR_LIMIT", "serve_trace"]
