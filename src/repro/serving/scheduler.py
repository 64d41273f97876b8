"""The async decode scheduler: queue, batching window, replica dispatch.

One dispatcher task owns the waiting queue. Whenever requests are waiting
it (optionally) holds a short *batching window* so frames arriving close
together coalesce, acquires a free replica from the pool (blocking while
all replicas are busy — the saturation backpressure), asks the policy for
the next batch, and hands it to the replica through the group's
:class:`~repro.serving.transport.ReplicaTransport` (in-process by
default; a socket-served subprocess for remote replicas). Each frame's
response is resolved at its own finish time, so callers see per-frame
latencies, not per-batch ones.

Everything is single-threaded asyncio with deterministic tie-breaking; on
the virtual clock (see :mod:`repro.serving.clock`) an entire session is a
pure function of its inputs.

Faults and recovery: a :class:`~repro.serving.chaos.ChaosPlan` injects
deterministic replica faults (crash / permanent death / stall /
degradation) at dispatch time, and *any* failure — injected or a real
transport error — flows through one path
(:meth:`BatchScheduler._on_replica_failure`): the replica is marked
dead, its batch's frames re-enqueue within their retry budget (keeping
their original arrival and deadline, so elapsed latency is charged in
full), the per-group circuit breaker counts the failure, and an optional
cold replacement replica is provisioned after a delay. With no chaos
plan and default :class:`~repro.serving.chaos.RecoveryPolicy` none of
this machinery runs and sessions are bit-identical to the pre-chaos
scheduler.
"""

from __future__ import annotations

import asyncio
import itertools
import math

from repro.serving.chaos import ChaosPlan, CircuitBreaker, RecoveryPolicy
from repro.serving.clock import now_ms, sleep_ms, sleep_until_ms
from repro.serving.policies import SchedulingPolicy, get_policy
from repro.serving.replica import Replica, ReplicaPool
from repro.serving.request import DecodeRequest, DecodeResponse
from repro.serving.slo import SloTracker
from repro.serving.transport import ReplicaTransport, get_transport


class BatchScheduler:
    """Batches decode requests onto a pool of simulated replicas."""

    def __init__(
        self,
        pool: ReplicaPool,
        policy: str | SchedulingPolicy = "fifo",
        batch_window_ms: float = 2.0,
        max_batch: int | None = None,
        tracker: SloTracker | None = None,
        transport: str | ReplicaTransport = "inprocess",
        group: str = "",
        chaos: ChaosPlan | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if not 0 <= batch_window_ms < math.inf:
            raise ValueError("batch window must be a finite number >= 0")
        self.pool = pool
        self.policy = get_policy(policy)
        self.transport = get_transport(transport)
        self.group = group
        self.batch_window_ms = batch_window_ms
        self.max_batch = (
            min(max_batch, pool.max_batch)
            if max_batch is not None
            else pool.max_batch
        )
        if self.max_batch < 1:
            raise ValueError("max batch must be >= 1")
        self.tracker = tracker if tracker is not None else SloTracker(0.0)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.breaker = CircuitBreaker(self.recovery.breaker_threshold)
        self._chaos = chaos.states(group) if chaos else None
        self._attempts: dict[int, int] = {}
        self._replacements_pending = 0
        self._exhausted = False
        self._queue: list[DecodeRequest] = []
        self._futures: dict[int, asyncio.Future[DecodeResponse]] = {}
        self._request_ids = itertools.count()
        self._batch_ids = itertools.count()
        self._arrived: asyncio.Event | None = None
        self._dispatcher: asyncio.Task[None] | None = None
        self._inflight: set[asyncio.Task[None]] = set()
        self._inflight_frames = 0
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the pool and launch the dispatcher (call inside a session)."""
        self.pool.open()
        self.transport.open(self.pool)
        self._arrived = asyncio.Event()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    def submit_nowait(
        self, avatar_id: int, frame_index: int, deadline_rel_ms: float
    ) -> asyncio.Future[DecodeResponse]:
        """Enqueue one decode request; resolve when the frame is decoded."""
        assert self._arrived is not None, "scheduler not started"
        if self._closed:
            raise RuntimeError("scheduler is closed")
        if self._exhausted:
            # Every replica is dead and no replacement is coming: fail
            # the frame at the front door (a resolved-``None`` future,
            # like a shed request — a failure, never a hang).
            self.tracker.record_submit()
            self.tracker.record_failed()
            dead_future: asyncio.Future[DecodeResponse] = (
                asyncio.get_running_loop().create_future()
            )
            dead_future.set_result(None)  # type: ignore[arg-type]
            return dead_future
        arrival = now_ms()
        request = DecodeRequest(
            request_id=next(self._request_ids),
            avatar_id=avatar_id,
            frame_index=frame_index,
            arrival_ms=arrival,
            deadline_ms=arrival + deadline_rel_ms,
        )
        future: asyncio.Future[DecodeResponse] = (
            asyncio.get_running_loop().create_future()
        )
        self._futures[request.request_id] = future
        self._queue.append(request)
        self.tracker.record_submit()
        self._arrived.set()
        return future

    async def submit(
        self, avatar_id: int, frame_index: int, deadline_rel_ms: float
    ) -> DecodeResponse:
        return await self.submit_nowait(
            avatar_id, frame_index, deadline_rel_ms
        )

    async def close(self) -> None:
        """Drain the queue, retire in-flight batches, stop the dispatcher."""
        self._closed = True
        assert self._arrived is not None and self._dispatcher is not None
        self._arrived.set()
        await self._dispatcher
        # Drain until quiet: an in-flight batch failing during the drain
        # can spawn a replacement-provisioning task, so loop rather than
        # gathering a single snapshot.
        while self._inflight:
            await asyncio.gather(*list(self._inflight))
        self.transport.close()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def inflight_frames(self) -> int:
        """Frames dispatched to replicas but not yet finished.

        Together with :attr:`queue_depth` this is the group backlog the
        router and admission controller base their wait estimates on.
        """
        return self._inflight_frames

    @property
    def available(self) -> bool:
        """Can this scheduler accept new traffic right now?

        ``False`` while the circuit breaker is open or once the pool is
        exhausted for good — the cluster front door fails over to
        another group (or fails the frame) instead of routing here.
        """
        return not self.breaker.open and not self._exhausted

    @property
    def replacements_pending(self) -> int:
        return self._replacements_pending

    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._arrived is not None
        declines = 0
        while True:
            while not self._queue:
                if self._closed:
                    return
                self._arrived.clear()
                await self._arrived.wait()
            if 0 < len(self._queue) < self.max_batch and self.batch_window_ms:
                await sleep_ms(self.batch_window_ms)
            replica = await self.pool.acquire()
            if replica is None:
                # Poisoned: the pool is exhausted for good. Fail whatever
                # is still queued and retire the dispatcher; new submits
                # fail at the front door.
                for request in self._queue:
                    self._fail_request(request)
                self._queue.clear()
                return
            batch = self.policy.select(
                self._queue, now_ms(), min(self.max_batch, replica.max_batch)
            )
            if not batch:
                # A policy may decline to form a batch (e.g. it is
                # holding out for a specific avatar's frame). Re-poll
                # once — many policies self-heal on the next call — then
                # park until the world changes: a new arrival or an
                # in-flight batch finishing. The pre-fix loop released
                # and immediately re-acquired the same replica, busy-
                # spinning forever without advancing the virtual clock.
                self.pool.release(replica)
                declines += 1
                if declines < 2:
                    continue
                declines = 0
                if self._closed:
                    return
                self._arrived.clear()
                arrival = asyncio.get_running_loop().create_task(
                    self._arrived.wait()
                )
                await asyncio.wait(
                    {arrival, *self._inflight},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not arrival.done():
                    arrival.cancel()
                continue
            declines = 0
            chosen = {request.request_id for request in batch}
            self._queue = [
                r for r in self._queue if r.request_id not in chosen
            ]
            self._inflight_frames += len(batch)
            task = asyncio.get_running_loop().create_task(
                self._serve(replica, batch)
            )
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _serve(
        self, replica: Replica, batch: list[DecodeRequest]
    ) -> None:
        start = now_ms()
        outcome = None
        state = self._chaos.get(replica.replica_id) if self._chaos else None
        if state is not None:
            outcome = state.on_dispatch(start)
            replica.latency_factor = outcome.latency_factor
            if outcome.crashed:
                # The replica dies serving this batch. Its would-be
                # finish is the failure-*detection* latency: the
                # scheduler notices when the batch should have
                # completed, and the frames' elapsed time is charged in
                # full on retry.
                detect = replica.preview_service(start, len(batch))[-1]
                await sleep_until_ms(detect)
                self._on_replica_failure(replica, batch)
                return
            if outcome.latency_factor != 1.0 and replica.health == "up":
                replica.health = "degraded"
        try:
            finishes = await self.transport.decode(replica, start, len(batch))
        except BaseException:
            # A transport error (the socket subprocess dying, a remote
            # server gone past its reconnect budget) is a *replica*
            # fault, not a session failure: the batch re-enqueues within
            # its retry budget and the damage lands in the report as
            # failed/retry counters and replica health — never a hang,
            # never a lost frame without a trace.
            self._on_replica_failure(replica, batch)
            return
        batch_id = next(self._batch_ids)
        self.tracker.record_batch(len(batch))
        if outcome is not None and outcome.latency_factor != 1.0:
            self.tracker.add_degraded_time(finishes[-1] - start)
        hedge_replica: Replica | None = None
        hedge_finishes: tuple[float, ...] | None = None
        if self.recovery.hedge and any(
            finish > request.deadline_ms
            for request, finish in zip(batch, finishes)
        ):
            # Predicted to blow a deadline: duplicate the batch to a
            # second replica if one is free right now (never block for
            # one). First finish wins per frame; both replicas are
            # charged their full occupancy.
            hedge_replica = self.pool.try_acquire()
        if hedge_replica is not None:
            hedge_finishes = await self._dispatch_hedge(
                hedge_replica, start, len(batch)
            )
            if hedge_finishes is None:
                hedge_replica = None  # the hedge replica itself crashed
        for index, request in enumerate(batch):
            finish = finishes[index]
            winner = replica.replica_id
            if hedge_finishes is not None and hedge_finishes[index] < finish:
                finish = hedge_finishes[index]
                winner = hedge_replica.replica_id
                self.tracker.record_hedge_win()
            await sleep_until_ms(finish)
            response = DecodeResponse(
                request=request,
                replica_id=winner,
                batch_id=batch_id,
                batch_size=len(batch),
                start_ms=start,
                finish_ms=finish,
                group=self.group,
            )
            self.tracker.record(response)
            self._inflight_frames -= 1
            self._attempts.pop(request.request_id, None)
            self._futures.pop(request.request_id).set_result(response)
        self.breaker.record_success()
        stall_ms = outcome.stall_ms if outcome is not None else 0.0
        if hedge_replica is None and not stall_ms:
            self.pool.release(replica)
            return
        if stall_ms:
            # Transient stall: the replica is held out of rotation past
            # its finish (health degraded while stalled).
            self.tracker.add_degraded_time(stall_ms)
            if replica.health == "up":
                replica.health = "degraded"
        releases: list[tuple[float, Replica]] = [
            (finishes[-1] + stall_ms, replica)
        ]
        if hedge_replica is not None:
            releases.append((hedge_finishes[-1], hedge_replica))
        for at, freed in sorted(releases, key=lambda item: item[0]):
            await sleep_until_ms(at)
            if (
                stall_ms
                and freed is replica
                and freed.health == "degraded"
                and freed.latency_factor == 1.0
            ):
                freed.health = "up"
            self.pool.release(freed)

    async def _dispatch_hedge(
        self, hedge: Replica, start: float, size: int
    ) -> tuple[float, ...] | None:
        """Duplicate a batch onto ``hedge``; ``None`` if the hedge died.

        A crashed hedge costs nothing but the replica: the primary is
        still serving every frame, so no retry, no breaker failure —
        the loss is detected at the hedge's would-be finish.
        """
        state = self._chaos.get(hedge.replica_id) if self._chaos else None
        if state is not None:
            outcome = state.on_dispatch(start)
            hedge.latency_factor = outcome.latency_factor
            if outcome.crashed:
                detect = hedge.preview_service(start, size)[-1]
                task = asyncio.get_running_loop().create_task(
                    self._lose_replica_at(detect, hedge)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
                return None
            if outcome.latency_factor != 1.0 and hedge.health == "up":
                hedge.health = "degraded"
        try:
            finishes = await self.transport.decode(hedge, start, size)
        except BaseException:
            self._lose_replica_now(hedge)
            return None
        self.tracker.record_hedge()
        return finishes

    async def _lose_replica_at(self, at: float, replica: Replica) -> None:
        await sleep_until_ms(at)
        self._lose_replica_now(replica)

    def _lose_replica_now(self, replica: Replica) -> None:
        if replica.health != "dead":
            self.pool.mark_dead(replica)
            self.tracker.record_replica_lost()
            self._schedule_replacement()
        self._check_exhausted()

    # ------------------------------------------------------------------
    def _on_replica_failure(
        self, replica: Replica, batch: list[DecodeRequest]
    ) -> None:
        """One dispatched batch failed and took its replica with it.

        Called at the failure-detection time. The replica leaves the
        rotation for good; the batch's frames re-enqueue (keeping their
        original arrival and deadline) within ``max_retries``, the
        breaker counts the failure, and if the group can never serve
        again everything still queued fails immediately — a frame always
        resolves, one way or the other.
        """
        self._lose_replica_now(replica)
        self.breaker.record_failure()
        self._inflight_frames -= len(batch)
        recoverable = (
            self.pool.alive > 0 or self._replacements_pending > 0
        )
        for request in batch:
            attempts = self._attempts.get(request.request_id, 0) + 1
            if recoverable and attempts <= self.recovery.max_retries:
                self._attempts[request.request_id] = attempts
                self.tracker.record_retry()
                self._queue.append(request)
            else:
                self._fail_request(request)
        if self._queue and recoverable:
            assert self._arrived is not None
            self._arrived.set()
        self._check_exhausted()

    def _check_exhausted(self) -> None:
        if (
            self._exhausted
            or self.pool.alive > 0
            or self._replacements_pending > 0
        ):
            return
        self._exhausted = True
        for request in self._queue:
            self._fail_request(request)
        self._queue.clear()
        self.pool.poison()

    def _fail_request(self, request: DecodeRequest) -> None:
        self._attempts.pop(request.request_id, None)
        self.tracker.record_failed()
        future = self._futures.pop(request.request_id, None)
        if future is not None and not future.done():
            future.set_result(None)  # type: ignore[arg-type]

    def _schedule_replacement(self) -> None:
        if self.recovery.replace_after_ms is None:
            return
        self._replacements_pending += 1
        task = asyncio.get_running_loop().create_task(self._replace_later())
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _replace_later(self) -> None:
        """Provision a cold replacement after the provisioning delay.

        Mirrors the heap engine's autoscale provisioning: the replica
        joins the free list cold (its first batch pays the full
        first-frame fill), at a deterministic virtual time.
        """
        assert self.recovery.replace_after_ms is not None
        await sleep_ms(self.recovery.replace_after_ms)
        self._replacements_pending -= 1
        self.pool.add_replica()
        self.tracker.record_replica_replaced()


__all__ = ["BatchScheduler"]
