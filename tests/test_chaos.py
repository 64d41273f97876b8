"""Chaos layer: deterministic fault plans, the recovery stack, and the
engine-equivalence guarantee extended to faulty runs.

The contract under test: a chaos plan injects *identical* faults into
the coroutine scheduler and the event-heap engine (counters exactly
equal, latencies to clock round-off), two runs at one seed are
bit-identical, every submitted frame resolves (served, shed, or counted
failed — none hang), and with no plan and default recovery knobs nothing
changes at all.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import (
    ChaosPlan,
    CircuitBreaker,
    GroupSpec,
    RecoveryPolicy,
    Replica,
    ReplicaPool,
    canned_workload,
    health_summary,
    report_from_json,
    report_to_json,
    serve_cluster,
    serve_trace,
    serve_workload,
    trace_from_workload,
)
from repro.serving.chaos import ReplicaChaosState
from repro.sim.runner import FrameLatencyProfile
from tests.conftest import two_tier_groups, two_tier_workload

FAST = FrameLatencyProfile(
    finish_ms=(6.0, 8.0),
    first_frame_ms=6.0,
    steady_interval_ms=2.0,
    frequency_mhz=200.0,
)
BIG = FrameLatencyProfile(
    finish_ms=(8.0, 12.0, 16.0),
    first_frame_ms=8.0,
    steady_interval_ms=4.0,
    frequency_mhz=200.0,
)

#: Fields the two engines legitimately report differently.
_ENGINE_ONLY = ("engine", "peak_replicas")


def assert_payloads_match(coroutine, heap):
    """Same report up to the asyncio clock's seconds<->ms round-off."""
    a = json.loads(report_to_json(coroutine))
    b = json.loads(report_to_json(heap))
    for field in _ENGINE_ONLY:
        a.pop(field), b.pop(field)
    _match(a, b, path="report")


def _match(a, b, path):
    assert type(a) is type(b) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _match(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _match(x, y, f"{path}[{i}]")
    elif isinstance(a, float) or isinstance(b, float):
        assert a == pytest.approx(b, rel=1e-6, abs=1e-6), path
    else:
        assert a == b, path


def assert_lossless(report):
    assert report.completed + report.shed + report.failed == report.submitted


def run_both(workload, *, replicas, policy, chaos, recovery):
    """One faulty session through each engine, on fresh pools."""
    coroutine = serve_workload(
        ReplicaPool(FAST, replicas=replicas, max_batch=4),
        workload,
        policy=policy,
        chaos=chaos,
        recovery=recovery,
    )
    heap = serve_trace(
        ReplicaPool(FAST, replicas=replicas, max_batch=4),
        trace_from_workload(workload),
        policy=policy,
        chaos=chaos,
        recovery=recovery,
    )
    return coroutine, heap


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------
class TestChaosSpec:
    def test_parse_round_trips(self):
        spec = (
            "crash-at:0:3,die-at:throughput/1:120.5,"
            "stall:2:2:40.0,degrade:1:1:2.5"
        )
        plan = ChaosPlan.parse(spec)
        assert len(plan.faults) == 4
        assert plan.to_spec() == spec
        assert ChaosPlan.parse(plan.to_spec()) == plan
        crash = plan.faults[0]
        assert (crash.kind, crash.group, crash.replica, crash.at) == (
            "crash-at", "", 0, 3.0
        )
        die = plan.faults[1]
        assert (die.group, die.replica, die.at) == ("throughput", 1, 120.5)

    def test_group_scoping(self):
        plan = ChaosPlan.parse("crash-at:0:1,die-at:latency/1:50")
        # Unqualified clauses target every group; qualified ones only
        # their own.
        assert len(plan.for_group("")) == 1
        assert len(plan.for_group("latency")) == 2
        assert len(plan.for_group("throughput")) == 1
        assert set(plan.states("latency")) == {0, 1}
        assert set(plan.states("")) == {0}

    def test_empty_plan_is_falsy(self):
        assert not ChaosPlan.parse("")
        assert not ChaosPlan()
        assert ChaosPlan.parse("crash-at:0:1")

    @pytest.mark.parametrize(
        ("spec", "message"),
        [
            ("bogus:0:1", "unknown chaos fault"),
            ("crash-at:0", "arguments after"),
            ("crash-at:x:1", "replica must be an integer"),
            ("crash-at:-1:1", "must be >= 0"),
            ("crash-at:0:0", "positive integer"),
            ("crash-at:0:1.5", "positive integer"),
            ("die-at:0:-5", ">= 0 ms"),
            ("die-at:0:soon", "numeric argument"),
            ("stall:0:1:0", "stall duration must be positive"),
            ("degrade:0:1:1.0", "multiplier must be > 1"),
            ("crash-at:0:1,crash-at:0:2", "duplicate"),
        ],
    )
    def test_bad_specs_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            ChaosPlan.parse(spec)


class TestChaosState:
    def test_crash_counter_is_one_based(self):
        state = ChaosPlan.parse("crash-at:0:2").states("")[0]
        assert not state.on_dispatch(0.0).crashed
        assert state.on_dispatch(10.0).crashed

    def test_death_is_observed_lazily(self):
        state = ChaosPlan.parse("die-at:0:100").states("")[0]
        assert not state.on_dispatch(99.9).crashed
        assert state.on_dispatch(100.0).crashed
        assert state.on_dispatch(500.0).crashed

    def test_degrade_and_stall_triggers(self):
        state = ReplicaChaosState()
        state.degrade_at, state.degrade_factor = 2, 3.0
        state.stall_at, state.stall_ms = 2, 25.0
        first = state.on_dispatch(0.0)
        assert first.latency_factor == 1.0 and first.stall_ms == 0.0
        second = state.on_dispatch(10.0)
        assert second.latency_factor == 3.0 and second.stall_ms == 25.0
        # The stall is one-shot; degradation persists.
        third = state.on_dispatch(20.0)
        assert third.latency_factor == 3.0 and third.stall_ms == 0.0


# ---------------------------------------------------------------------------
# recovery policy and breaker
# ---------------------------------------------------------------------------
class TestRecoveryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"breaker_threshold": -1},
            {"replace_after_ms": -0.5},
            {"replace_after_ms": float("nan")},
            {"replace_after_ms": float("inf")},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)

    def test_breaker_trips_and_closes(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        assert not breaker.open
        breaker.record_failure()
        assert breaker.open and breaker.trips == 1
        breaker.record_success()
        assert not breaker.open and breaker.consecutive_failures == 0

    def test_breaker_threshold_zero_disables(self):
        breaker = CircuitBreaker(threshold=0)
        for _ in range(10):
            breaker.record_failure()
        assert not breaker.open and breaker.trips == 0


def test_health_summary_empty_while_all_up():
    replicas = [Replica(replica_id=i, latency=FAST) for i in range(3)]
    assert health_summary(replicas) == ""
    replicas[0].health = "dead"
    replicas[1].health = "degraded"
    assert health_summary(replicas) == "1 up/1 degraded/1 dead"


# ---------------------------------------------------------------------------
# engine equivalence under faults
# ---------------------------------------------------------------------------
class TestEngineEquivalenceUnderChaos:
    @pytest.mark.parametrize("policy", ["fifo", "edf", "fair"])
    def test_mixed_faults_single_pool(self, policy):
        """Crash + degrade + stall with retries and replacement: both
        engines agree under every scheduling policy."""
        coroutine, heap = run_both(
            canned_workload(avatars=6, frames_per_avatar=10, seed=3),
            replicas=3,
            policy=policy,
            chaos=ChaosPlan.parse(
                "crash-at:0:2,degrade:1:2:2.0,stall:2:1:30.0"
            ),
            recovery=RecoveryPolicy(max_retries=2, replace_after_ms=200.0),
        )
        assert_payloads_match(coroutine, heap)
        assert_lossless(coroutine)
        assert coroutine.replicas_lost == 1
        assert coroutine.replicas_replaced == 1
        assert coroutine.retries > 0
        assert coroutine.degraded_time_ms > 0.0

    def test_cluster_failover_and_breaker(self):
        """Killing a whole group trips its breaker; the failure-aware
        router fails traffic over to the surviving group."""
        groups = [
            GroupSpec("latency", FAST, replicas=2, policy="edf"),
            GroupSpec("throughput", BIG, replicas=2, policy="fifo"),
        ]
        workload = canned_workload(
            avatars=8, frames_per_avatar=10, deadline_ms=60.0, seed=1
        )
        chaos = ChaosPlan.parse("die-at:latency/0:60,die-at:latency/1:90")
        recovery = RecoveryPolicy(
            max_retries=1, breaker_threshold=1, replace_after_ms=400.0
        )
        coroutine = serve_cluster(
            groups, workload, router="deadline", chaos=chaos, recovery=recovery
        )
        heap = serve_trace(
            groups,
            trace_from_workload(workload),
            router="deadline",
            chaos=chaos,
            recovery=recovery,
        )
        assert_payloads_match(coroutine, heap)
        assert_lossless(coroutine)
        assert coroutine.replicas_lost == 2
        assert coroutine.failovers > 0
        # Failovers are charged to the group that *received* the traffic.
        assert coroutine.groups[1].failovers == coroutine.failovers

    def test_total_kill_is_lossless(self):
        """Every replica dead and no retries: the session still ends,
        with every unserved frame counted failed — none hang."""
        coroutine, heap = run_both(
            canned_workload(avatars=4, frames_per_avatar=8, seed=0),
            replicas=2,
            policy="fifo",
            chaos=ChaosPlan.parse("die-at:0:0,die-at:1:0"),
            recovery=RecoveryPolicy(max_retries=0),
        )
        assert_payloads_match(coroutine, heap)
        assert_lossless(coroutine)
        assert coroutine.completed == 0
        assert coroutine.failed == coroutine.submitted
        assert coroutine.replicas_lost == 2

    def test_hedging_wins_against_a_degraded_replica(self):
        """With one replica degraded 4x, hedged duplicates on a healthy
        replica win; the loser's occupancy is still charged."""
        coroutine, heap = run_both(
            canned_workload(
                avatars=6,
                frames_per_avatar=8,
                deadline_ms=15.0,
                jitter_ms=3.0,
                seed=2,
            ),
            replicas=3,
            policy="edf",
            chaos=ChaosPlan.parse("degrade:0:1:4.0"),
            recovery=RecoveryPolicy(hedge=True),
        )
        assert_payloads_match(coroutine, heap)
        assert_lossless(coroutine)
        assert coroutine.hedges > 0
        assert coroutine.hedge_wins > 0

    def test_faulty_runs_are_deterministic(self):
        """Two invocations of one faulty seeded session serialize to the
        same bytes, per engine."""
        kwargs = dict(
            replicas=3,
            policy="edf",
            chaos=ChaosPlan.parse("crash-at:0:2,die-at:1:100"),
            recovery=RecoveryPolicy(max_retries=2, replace_after_ms=250.0),
        )
        workload = canned_workload(avatars=6, frames_per_avatar=10, seed=5)
        first_coroutine, first_heap = run_both(workload, **kwargs)
        second_coroutine, second_heap = run_both(workload, **kwargs)
        assert report_to_json(first_coroutine) == report_to_json(
            second_coroutine
        )
        assert report_to_json(first_heap) == report_to_json(second_heap)

    def test_no_chaos_and_default_knobs_change_nothing(self):
        """The recovery stack is invisible until a fault fires: default
        knobs reproduce the fault-free report bit for bit."""
        workload = canned_workload(avatars=6, frames_per_avatar=10, seed=4)
        baseline = serve_workload(
            ReplicaPool(FAST, replicas=2, max_batch=4), workload, policy="edf"
        )
        guarded = serve_workload(
            ReplicaPool(FAST, replicas=2, max_batch=4),
            workload,
            policy="edf",
            chaos=ChaosPlan(),
            recovery=RecoveryPolicy(),
        )
        assert report_to_json(guarded) == report_to_json(baseline)


# ---------------------------------------------------------------------------
# the recovery stack against 20% replica loss
# ---------------------------------------------------------------------------
#: A five-replica two-tier cluster of explored designs whose whole
#: latency tier (1 replica, 20% of the fleet) dies mid-session. There is
#: no admission control, so the damage cannot hide behind shedding.
CHAOS_BUDGET = 5
CHAOS_SATURATION = 0.85
CHAOS_KILL = "die-at:latency/0:250"
CHAOS_REPLACE_AFTER_MS = 80.0
#: Floor on the shielded bound, so that a fault-free run that misses
#: nothing does not demand a perfect faulty run.
CHAOS_DEGRADED_FLOOR = 0.02

SHIELDED = RecoveryPolicy(
    max_retries=2, breaker_threshold=1, replace_after_ms=CHAOS_REPLACE_AFTER_MS
)
UNSHIELDED = RecoveryPolicy(max_retries=0, breaker_threshold=0)


def degraded(report):
    return report.miss_rate + report.failed_rate


class TestRecoveryUnderReplicaLoss:
    """Shielded, the cluster stays within 2x of its fault-free miss rate;
    unshielded, it fails the dead replica's frames and runs the rest of
    the session past capacity."""

    @pytest.fixture(scope="class")
    def workload(self):
        return two_tier_workload(CHAOS_SATURATION, CHAOS_BUDGET)

    @staticmethod
    def session(workload, chaos, recovery):
        return serve_cluster(
            two_tier_groups(CHAOS_BUDGET),
            workload,
            router="deadline",
            chaos=chaos,
            recovery=recovery,
        )

    @pytest.fixture(scope="class")
    def runs(self, workload):
        kill = ChaosPlan.parse(CHAOS_KILL)
        return {
            "fault_free": self.session(workload, None, None),
            "shielded": self.session(workload, kill, SHIELDED),
            "unshielded": self.session(workload, kill, UNSHIELDED),
        }

    def test_shielded_run_holds_its_miss_rate(self, runs):
        shielded, unshielded = runs["shielded"], runs["unshielded"]
        bound = max(2.0 * degraded(runs["fault_free"]), CHAOS_DEGRADED_FLOOR)
        # 0.0397 against a bound of 0.0462; unshielded, 0.5116.
        assert degraded(shielded) <= bound
        assert degraded(unshielded) > degraded(shielded)
        assert unshielded.failed > 0

    def test_every_recovery_layer_fires_and_no_frame_is_lost(self, runs):
        shielded = runs["shielded"]
        assert shielded.retries > 0
        assert shielded.failovers > 0
        assert shielded.replicas_replaced > 0
        assert shielded.replicas_lost == 1
        for report in runs.values():
            assert_lossless(report)

    def test_shielded_run_is_deterministic_on_both_engines(self, workload, runs):
        kill = ChaosPlan.parse(CHAOS_KILL)
        shielded = runs["shielded"]
        again = self.session(workload, kill, SHIELDED)
        assert report_to_json(again) == report_to_json(shielded)
        heap = serve_trace(
            two_tier_groups(CHAOS_BUDGET),
            trace_from_workload(workload),
            router="deadline",
            chaos=kill,
            recovery=SHIELDED,
        )
        for field in (
            "submitted", "completed", "failed", "shed", "deadline_misses",
            "retries", "hedges", "failovers", "replicas_lost",
            "replicas_replaced",
        ):
            assert getattr(heap, field) == getattr(shielded, field), field


# ---------------------------------------------------------------------------
# reports: health strings, rendering, round-trip
# ---------------------------------------------------------------------------
class TestChaosReporting:
    @pytest.fixture(scope="class")
    def faulty_report(self):
        groups = [
            GroupSpec("latency", FAST, replicas=2, policy="edf"),
            GroupSpec("throughput", BIG, replicas=2, policy="fifo"),
        ]
        return serve_cluster(
            groups,
            canned_workload(avatars=6, frames_per_avatar=8, seed=1),
            router="deadline",
            chaos=ChaosPlan.parse("die-at:latency/0:40"),
            recovery=RecoveryPolicy(max_retries=1),
        )

    def test_group_health_string_lands_in_report(self, faulty_report):
        health = {g.name: g.health for g in faulty_report.groups}
        assert "1 up/0 degraded/1 dead" in health["latency"]
        assert health["throughput"] == ""

    def test_render_shows_health_and_recovery(self, faulty_report):
        rendered = faulty_report.render()
        assert "[1 up/0 degraded/1 dead]" in rendered
        assert "recovery" in rendered
        assert "replicas lost/replaced" in rendered

    def test_faulty_report_round_trips(self, faulty_report):
        loaded = report_from_json(report_to_json(faulty_report))
        assert loaded == faulty_report
        assert loaded.replicas_lost == faulty_report.replicas_lost
        assert loaded.groups[0].health == faulty_report.groups[0].health
