"""Property tests for the event-heap engine's group counters and router.

The engine keeps each group's ``backlog_frames``, ``replicas`` and
``capacity_fps`` as counters its event handlers update. These tests wrap
every ``_HeapSession`` handler and check, after each call, that the
counters agree with the state they summarize — so a handler that forgets
an update is caught at the event where it happens, not hidden by totals
that happen to balance at the end. Two more properties pin the one-pass
deadline-tiered choice, in ``DeadlineTieredRouter.route`` and in
``failover_route``, to the list-and-``max``/``min`` formulation it
replaced, ties and infeasible budgets included.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    AdmissionControl,
    AutoscalePolicy,
    ChaosPlan,
    GroupSpec,
    RecoveryPolicy,
    ReplicaPool,
    make_trace,
    serve_trace,
)
from repro.serving import engine
from repro.serving.chaos import ChaosFault
from repro.serving.router import DeadlineTieredRouter, failover_route
from repro.sim.runner import FrameLatencyProfile
from tests.test_engine_pins import SESSIONS

PROFILES = (
    FrameLatencyProfile(
        finish_ms=(6.0, 8.0), first_frame_ms=6.0, steady_interval_ms=2.0,
        frequency_mhz=200.0,
    ),
    FrameLatencyProfile(
        finish_ms=(8.0, 12.0, 16.0), first_frame_ms=8.0,
        steady_interval_ms=4.0, frequency_mhz=200.0,
    ),
    FrameLatencyProfile(
        finish_ms=(3.0, 6.0), first_frame_ms=3.0, steady_interval_ms=3.0,
        frequency_mhz=150.0,
    ),
)

HANDLERS = (
    "_on_arrival",
    "_on_window",
    "_on_finish",
    "_on_provision",
    "_on_scale",
    "_on_fail",
    "_on_release",
)


def queued(group) -> int:
    if group.policy_kind == engine._FAIR:
        return sum(len(queue) for queue in group.fair_q.values())
    if group.policy_kind == engine._EDF:
        return sum(len(queue) for queue in group.edf_q.values())
    return len(group.fifo_q)


def check_counters(session) -> None:
    in_flight = [0] * len(session.groups)
    for _, _, kind, gi, a, _ in session._events:
        if kind == engine._EV_FINISH:
            in_flight[gi] += 1
        elif kind == engine._EV_FAIL and a is not None:
            in_flight[gi] += len(a)
    for group in session.groups:
        assert group.replicas == max(1, group.live - group.pending_drain)
        assert group.capacity_fps == (
            group.replicas * group.profile.steady_fps
        )
        assert group.queue_len == queued(group)
        assert group.backlog_frames - group.queue_len == in_flight[group.index]
        if group.policy_kind == engine._FAIR:
            # One turn per avatar with frames queued, at its last service.
            assert all(group.fair_q.values())
            assert sorted(group.fair_turns) == sorted(
                (group.fair_last.get(avatar, float("-inf")), avatar)
                for avatar in group.fair_q
            )


@contextlib.contextmanager
def checked_handlers(calls: list[int]):
    """Check every group's counters after each session event handler."""
    cls = engine._HeapSession
    originals = {name: getattr(cls, name) for name in HANDLERS}

    def wrap(handler):
        def checked(self, *args):
            handler(self, *args)
            calls[0] += 1
            check_counters(self)

        return checked

    for name, handler in originals.items():
        setattr(cls, name, wrap(handler))
    try:
        yield
    finally:
        for name, handler in originals.items():
            setattr(cls, name, handler)


@st.composite
def chaos_plans(draw, names: list[str]):
    faults = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["crash-at", "die-at", "stall", "degrade"]),
                st.sampled_from([""] + names),
                st.integers(0, 3),
            ),
            max_size=3,
            unique=True,
        )
    )
    plan = []
    for kind, group, replica in faults:
        if kind == "die-at":
            at, value = draw(st.floats(0.0, 300.0)), 0.0
        else:
            at = float(draw(st.integers(1, 4)))
            value = {
                "crash-at": 0.0,
                "stall": draw(st.floats(1.0, 60.0)),
                "degrade": draw(st.floats(1.25, 3.0)),
            }[kind]
        plan.append(ChaosFault(kind, group, replica, at, value))
    return ChaosPlan(tuple(plan))


@st.composite
def sessions(draw):
    """``(groups, trace, kwargs)`` for one small ``serve_trace`` session."""
    count = draw(st.integers(1, 3))
    specs = [
        GroupSpec(
            f"g{k}",
            draw(st.sampled_from(PROFILES)),
            replicas=draw(st.integers(1, 4)),
            policy=draw(st.sampled_from(["fifo", "edf", "fair"])),
            batch_window_ms=draw(st.floats(0.0, 4.0)),
            max_batch=draw(st.integers(1, 4)),
        )
        for k in range(count)
    ]
    trace = make_trace(
        draw(st.integers(3, 30)),
        draw(st.sampled_from([0.5, 1.0])),
        shape=draw(st.sampled_from(["steady", "flash", "diurnal"])),
        avatar_fps=draw(st.sampled_from([10.0, 30.0, 60.0])),
        deadline_tiers=draw(
            st.sampled_from([(), (10.0,), (8.0, 30.0), (15.0, 40.0, 90.0)])
        ),
        jitter_ms=draw(st.sampled_from([0.0, 5.0])),
        seed=draw(st.integers(0, 1000)),
    )
    admission = None
    if draw(st.booleans()):
        admission = AdmissionControl(
            max_queue_per_replica=draw(st.sampled_from([None, 2, 4, 16])),
            predict_miss=draw(st.booleans()),
            slack=draw(st.sampled_from([0.5, 1.0, 1.5])),
        )
    autoscale = None
    if draw(st.booleans()):
        autoscale = AutoscalePolicy(
            check_interval_ms=draw(st.sampled_from([50.0, 100.0, 200.0])),
            warmup_ms=draw(st.sampled_from([0.0, 50.0, 150.0])),
            target_utilization=draw(st.sampled_from([0.5, 0.75, 1.0])),
            max_replicas=draw(st.integers(1, 6)),
            max_step=draw(st.integers(1, 3)),
        )
    kwargs = dict(
        admission=admission,
        autoscale=autoscale,
        router=draw(st.sampled_from(["round-robin", "least-loaded", "deadline"])),
        chaos=draw(chaos_plans([spec.name for spec in specs])),
        recovery=RecoveryPolicy(
            max_retries=draw(st.integers(0, 2)),
            hedge=draw(st.booleans()),
            breaker_threshold=draw(st.integers(0, 3)),
            replace_after_ms=draw(st.sampled_from([None, 20.0, 120.0])),
        ),
    )
    if count == 1 and admission is None and autoscale is None and draw(
        st.booleans()
    ):
        # A bare pool: the single-pool path, replicas adopted up front.
        spec = specs[0]
        pool = ReplicaPool(
            spec.profile, replicas=spec.replicas, max_batch=spec.max_batch
        )
        kwargs.update(policy=spec.policy, batch_window_ms=spec.batch_window_ms)
        return pool, trace, kwargs
    return specs, trace, kwargs


class TestCounterInvariants:
    @settings(max_examples=100, deadline=None)
    @given(sessions())
    def test_counters_match_state_after_every_event(self, session):
        groups, trace, kwargs = session
        calls = [0]
        with checked_handlers(calls):
            report = serve_trace(groups, trace, **kwargs)
        assert calls[0] >= report.submitted
        assert report.completed + report.shed + report.failed == report.submitted

    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_counters_match_state_in_pinned_sessions(self, name):
        # Fixed sessions reach corners a random draw rarely does, such as
        # a group exhausted while frames are still queued.
        calls = [0]
        with checked_handlers(calls):
            SESSIONS[name]()
        assert calls[0] > 0


# ---------------------------------------------------------------------------
# fair selection
# ---------------------------------------------------------------------------
def reference_fair(fair_q, last_served, limit) -> list[int]:
    """The fair selection as a sorted scan: every avatar with frames,
    ordered by ``(last served, id)``, drained round robin one frame per
    turn. What ``_select_fair`` did before it kept only backlogged
    avatars in a heap. Pops from ``fair_q``'s deques."""
    order = sorted(
        (avatar for avatar in fair_q if fair_q[avatar]),
        key=lambda avatar: (last_served.get(avatar, float("-inf")), avatar),
    )
    batch: list[int] = []
    while len(batch) < limit:
        took = False
        for avatar in order:
            queue = fair_q[avatar]
            if queue and len(batch) < limit:
                batch.append(queue.popleft())
                took = True
        if not took:
            break
    return batch


@contextlib.contextmanager
def checked_fair_selection(dispatches: list[int]):
    """Check every fair batch against the sorted scan over the same state."""
    cls = engine._HeapSession
    select = cls._select_fair

    def checked(self, group, t, limit):
        copy = {avatar: deque(queue) for avatar, queue in group.fair_q.items()}
        expected = reference_fair(copy, group.fair_last, limit)
        batch = select(self, group, t, limit)
        assert batch == expected
        dispatches[0] += 1
        return batch

    cls._select_fair = checked
    try:
        yield
    finally:
        cls._select_fair = select


@st.composite
def fair_sessions(draw):
    """A :func:`sessions` draw with every group on the fair policy."""
    groups, trace, kwargs = draw(sessions())
    if isinstance(groups, ReplicaPool):
        return groups, trace, dict(kwargs, policy="fair")
    fair = [dataclasses.replace(spec, policy="fair") for spec in groups]
    return fair, trace, kwargs


class TestFairSelection:
    @settings(max_examples=150, deadline=None)
    @given(fair_sessions())
    def test_matches_the_sorted_scan(self, session):
        # Random arrivals, chaos retries and dispatch sizes: each batch
        # equals the one the scan over every avatar would pick.
        groups, trace, kwargs = session
        dispatches = [0]
        calls = [0]
        with checked_fair_selection(dispatches), checked_handlers(calls):
            report = serve_trace(groups, trace, **kwargs)
        assert report.completed + report.shed + report.failed == report.submitted
        assert dispatches[0] >= 1 or report.completed == 0


# ---------------------------------------------------------------------------
# admission's latency table
# ---------------------------------------------------------------------------
def predicted_for(group, backlog: int) -> float:
    """Admission's predicted latency behind ``backlog`` frames, from the
    group's live fields: what ``group.predicted[backlog]`` must hold."""
    profile = group.profile
    service = profile.steady_interval_ms if backlog else profile.first_frame_ms
    return (
        backlog * profile.steady_interval_ms / group.replicas
        + group.window_ms
        + service
    )


def reference_admit(control, group, budget) -> bool:
    """Admission as a formula over the group's live fields: what
    ``AdmissionControl.admit`` computed on every arrival before the group
    kept its predictions in a table."""
    backlog = group.backlog_frames
    cap = control.max_queue_per_replica
    if cap is not None and backlog >= cap * group.replicas:
        return False
    if control.predict_miss and (
        predicted_for(group, backlog) > control.slack * budget
    ):
        return False
    return True


@contextlib.contextmanager
def checked_admission(seen: set[str]):
    """Check every admission decision against :func:`reference_admit`,
    and every table entry against the current fleet, after each call."""
    admit = AdmissionControl.admit
    first_fleet: dict[int, int] = {}

    def checked(self, group, budget):
        expected = reference_admit(self, group, budget)
        admitted = admit(self, group, budget)
        assert admitted == expected
        assert group.replicas == max(1, group.live - group.pending_drain)
        assert all(
            value == predicted_for(group, backlog)
            for backlog, value in enumerate(group.predicted)
        )
        seen.add("admitted" if admitted else "shed")
        if first_fleet.setdefault(id(group), group.replicas) != group.replicas:
            seen.add("resized fleet")
        if group.replicas_lost:
            seen.add("killed replica")
        if not self.predict_miss:
            seen.add("no prediction")
        if self.max_queue_per_replica is None:
            seen.add("no queue cap")
        return admitted

    AdmissionControl.admit = checked
    try:
        yield
    finally:
        AdmissionControl.admit = admit


@st.composite
def admitted_sessions(draw):
    """A :func:`sessions` draw on replica groups, always with admission."""
    groups, trace, kwargs = draw(sessions())
    if isinstance(groups, ReplicaPool):
        groups = [
            GroupSpec(
                "g0",
                groups.profile,
                replicas=len(groups),
                policy=kwargs.pop("policy"),
                batch_window_ms=kwargs.pop("batch_window_ms"),
                max_batch=groups.max_batch,
            )
        ]
    kwargs["admission"] = AdmissionControl(
        max_queue_per_replica=draw(st.sampled_from([None, 1, 2, 4, 16])),
        predict_miss=draw(st.booleans()),
        slack=draw(st.sampled_from([0.5, 1.0, 1.5])),
    )
    return groups, trace, kwargs


class TestAdmissionTable:
    def test_decisions_match_the_formula(self):
        # Every decision over generated clusters (autoscaled, chaos-killed,
        # tiered budgets, either test off) equals the formula, and every
        # table entry holds for the fleet the group has at that moment.
        seen: set[str] = set()

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(admitted_sessions())
        def run(session):
            groups, trace, kwargs = session
            with checked_admission(seen):
                report = serve_trace(groups, trace, **kwargs)
            assert report.completed + report.shed + report.failed == (
                report.submitted
            )
            if len(set(trace.deadline_rel_ms.tolist())) > 1:
                seen.add("tiered budgets")

        run()
        assert seen == {
            "admitted",
            "shed",
            "resized fleet",
            "killed replica",
            "no prediction",
            "no queue cap",
            "tiered budgets",
        }

    def test_a_fleet_change_clears_the_table(self):
        group = engine._EngineGroup(GroupSpec("g", PROFILES[1], replicas=2), 0, 8)
        group.add_replica()
        group.add_replica()
        group.extend_predicted(5)
        assert group.predicted == [predicted_for(group, b) for b in range(6)]
        group.refresh_fleet()  # same fleet size: the table stays
        assert len(group.predicted) == 6
        group.pending_drain = 1  # one replica draining: one serves
        group.refresh_fleet()
        assert group.replicas == 1 and group.predicted == []
        group.extend_predicted(2)
        assert group.predicted == [predicted_for(group, b) for b in range(3)]


# ---------------------------------------------------------------------------
# the one-pass deadline router
# ---------------------------------------------------------------------------
class View:
    """The two things the deadline router reads from a group."""

    def __init__(self, unloaded_ms: float, capacity_fps: float) -> None:
        self._unloaded_ms = unloaded_ms
        self.capacity_fps = capacity_fps

    def unloaded_latency_ms(self) -> float:
        return self._unloaded_ms


def reference_pick(candidates, deadline_rel_ms, groups) -> int:
    """The deadline-tiered choice as lists plus ``max``/``min``: what
    ``DeadlineTieredRouter.route`` did over every group, and what
    ``failover_route`` still does over the available ones."""
    unloaded = {i: groups[i].unloaded_latency_ms() for i in candidates}
    feasible = [i for i in candidates if unloaded[i] <= deadline_rel_ms]
    if feasible:
        return max(feasible, key=lambda i: (groups[i].capacity_fps, -i))
    return min(candidates, key=lambda i: (unloaded[i], i))


# Few distinct values, so capacities and unloaded latencies tie often, and
# budgets below every unloaded latency leave no group feasible.
VIEWS = st.lists(
    st.tuples(
        st.sampled_from([6.0, 10.0, 12.0, 24.0]),
        st.sampled_from([250.0, 500.0, 750.0]),
    ),
    min_size=1,
    max_size=5,
)
BUDGETS = st.sampled_from([1.0, 6.0, 10.0, 11.0, 12.0, 30.0])


class TestDeadlineRouter:
    @settings(max_examples=400, deadline=None)
    @given(VIEWS, BUDGETS)
    def test_matches_the_list_formulation(self, views, budget):
        groups = [View(unloaded, fps) for unloaded, fps in views]
        router = DeadlineTieredRouter()
        assert router.route(budget, 0.0, groups) == reference_pick(
            range(len(groups)), budget, groups
        )

    @settings(max_examples=400, deadline=None)
    @given(VIEWS, BUDGETS, st.data())
    def test_failover_matches_the_list_formulation(self, views, budget, data):
        groups = [View(unloaded, fps) for unloaded, fps in views]
        available = data.draw(
            st.lists(st.booleans(), min_size=len(groups), max_size=len(groups))
        )
        preferred = data.draw(st.integers(0, len(groups) - 1))
        candidates = [i for i, ok in enumerate(available) if ok]
        if available[preferred]:
            expected = preferred
        elif not candidates:
            expected = None
        else:
            expected = reference_pick(candidates, budget, groups)
        assert failover_route(preferred, budget, groups, available) == expected
