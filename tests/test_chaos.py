"""Chaos layer: deterministic fault plans and the recovery stack.

The contract under test: two runs of one faulty seeded session are
bit-identical, every submitted frame resolves (served, shed, or counted
failed — none hang), and with no plan and default recovery knobs nothing
changes at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    serve_trace,
)
from repro.serving.chaos import ReplicaChaosState
from repro.sim.runner import FrameLatencyProfile
from tests.conftest import two_tier_groups, two_tier_workload
from tests.test_engine_properties import chaos_plans

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


def assert_lossless(report):
    assert report.completed + report.shed + report.failed == report.submitted


def serve_pool(workload, *, replicas, policy, chaos, recovery):
    """One faulty session on a fresh pool of ``FAST`` replicas."""
    return serve_trace(
        ReplicaPool(FAST, replicas=replicas, max_batch=4),
        workload,
        policy=policy,
        chaos=chaos,
        recovery=recovery,
    )


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
            ("crash-at:0:inf", "'crash-at:0:inf': numbers must be finite"),
            ("crash-at:0:nan", "'crash-at:0:nan': numbers must be finite"),
            ("die-at:0:nan", "'die-at:0:nan': numbers must be finite"),
            ("die-at:0:inf", "'die-at:0:inf': numbers must be finite"),
            ("stall:0:1:nan", "'stall:0:1:nan': numbers must be finite"),
            ("stall:0:1:inf", "'stall:0:1:inf': numbers must be finite"),
            ("degrade:0:1:nan", "'degrade:0:1:nan': numbers must be finite"),
            ("degrade:0:1:inf", "'degrade:0:1:inf': numbers must be finite"),
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
            # NaN turned retries or the breaker off; a fractional or bool
            # count passed too.
            {"max_retries": float("nan")},
            {"max_retries": 1.5},
            {"max_retries": True},
            {"max_retries": 2.0},
            {"breaker_threshold": float("nan")},
            {"breaker_threshold": 1.5},
            {"breaker_threshold": True},
            {"replace_after_ms": -0.5},
            {"replace_after_ms": float("nan")},
            {"replace_after_ms": float("inf")},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)

    def test_numpy_counts_stored_as_ints(self):
        policy = RecoveryPolicy(
            max_retries=np.int64(2), breaker_threshold=np.int32(0)
        )
        assert type(policy.max_retries) is int and policy.max_retries == 2
        assert type(policy.breaker_threshold) is int
        assert policy == RecoveryPolicy(max_retries=2, breaker_threshold=0)

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
# faulty sessions
# ---------------------------------------------------------------------------
class TestRecoveryUnderChaos:
    @pytest.mark.parametrize("policy", ["fifo", "edf", "fair"])
    def test_mixed_faults_single_pool(self, policy):
        """Crash + degrade + stall with retries and replacement, under
        every scheduling policy."""
        report = serve_pool(
            canned_workload(avatars=6, frames_per_avatar=10, seed=3),
            replicas=3,
            policy=policy,
            chaos=ChaosPlan.parse(
                "crash-at:0:2,degrade:1:2:2.0,stall:2:1:30.0"
            ),
            recovery=RecoveryPolicy(max_retries=2, replace_after_ms=200.0),
        )
        assert_lossless(report)
        assert report.replicas_lost == 1
        assert report.replicas_replaced == 1
        assert report.retries > 0
        assert report.degraded_time_ms > 0.0

    def test_cluster_failover_and_breaker(self):
        """Killing a whole group trips its breaker; the failure-aware
        router fails traffic over to the surviving group."""
        groups = [
            GroupSpec("latency", FAST, replicas=2, policy="edf"),
            GroupSpec("throughput", BIG, replicas=2, policy="fifo"),
        ]
        report = serve_trace(
            groups,
            canned_workload(
                avatars=8, frames_per_avatar=10, deadline_ms=60.0, seed=1
            ),
            router="deadline",
            chaos=ChaosPlan.parse("die-at:latency/0:60,die-at:latency/1:90"),
            recovery=RecoveryPolicy(
                max_retries=1, breaker_threshold=1, replace_after_ms=400.0
            ),
        )
        assert_lossless(report)
        assert report.replicas_lost == 2
        assert report.failovers > 0
        # Failovers are charged to the group that *received* the traffic.
        assert report.groups[1].failovers == report.failovers

    def test_total_kill_is_lossless(self):
        """Every replica dead and no retries: the session still ends,
        with every unserved frame counted failed — none hang."""
        report = serve_pool(
            canned_workload(avatars=4, frames_per_avatar=8, seed=0),
            replicas=2,
            policy="fifo",
            chaos=ChaosPlan.parse("die-at:0:0,die-at:1:0"),
            recovery=RecoveryPolicy(max_retries=0),
        )
        assert_lossless(report)
        assert report.completed == 0
        assert report.failed == report.submitted
        assert report.replicas_lost == 2

    def test_hedging_wins_against_a_degraded_replica(self):
        """With one replica degraded 4x, hedged duplicates on a healthy
        replica win; the loser's occupancy is still charged."""
        report = serve_pool(
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
        assert_lossless(report)
        assert report.hedges > 0
        assert report.hedge_wins > 0

    def test_faulty_runs_are_deterministic(self):
        """Two invocations of one faulty seeded session serialize to the
        same bytes."""
        kwargs = dict(
            replicas=3,
            policy="edf",
            chaos=ChaosPlan.parse("crash-at:0:2,die-at:1:100"),
            recovery=RecoveryPolicy(max_retries=2, replace_after_ms=250.0),
        )
        workload = canned_workload(avatars=6, frames_per_avatar=10, seed=5)
        first = serve_pool(workload, **kwargs)
        second = serve_pool(workload, **kwargs)
        assert report_to_json(first) == report_to_json(second)

    def test_no_chaos_and_default_knobs_change_nothing(self):
        """The recovery stack is invisible until a fault fires: default
        knobs reproduce the fault-free report bit for bit."""
        workload = canned_workload(avatars=6, frames_per_avatar=10, seed=4)
        baseline = serve_trace(
            ReplicaPool(FAST, replicas=2, max_batch=4), workload, policy="edf"
        )
        guarded = serve_pool(
            workload,
            replicas=2,
            policy="edf",
            chaos=ChaosPlan(),
            recovery=RecoveryPolicy(),
        )
        assert report_to_json(guarded) == report_to_json(baseline)

    def test_stall_ending_on_the_warm_edge_stays_warm(self):
        """After a stall, the third batch starts exactly one steady
        interval after the replica's last finish, and a gap equal to the
        steady interval is warm: no cold fill is charged."""
        report = serve_trace(
            ReplicaPool(BIG, replicas=1, max_batch=4),
            canned_workload(avatars=5, frames_per_avatar=5, seed=282),
            policy="fifo",
            chaos=ChaosPlan.parse("stall:0:2:4,die-at:0:41,degrade:0:6:3"),
            recovery=RecoveryPolicy(max_retries=3),
        )
        assert (report.completed, report.failed) == (7, 18)
        assert report.latency_p99_ms == 20.820148331499233


@st.composite
def sessions(draw):
    """``(groups, workload, kwargs)`` for one small session: a bare pool
    or one or two groups, with up to three chaos clauses."""
    recovery = RecoveryPolicy(
        max_retries=draw(st.integers(0, 3)),
        hedge=draw(st.booleans()),
        breaker_threshold=draw(st.integers(0, 3)),
        replace_after_ms=draw(st.sampled_from([None, 50.0])),
    )
    workload = canned_workload(
        avatars=draw(st.integers(1, 8)),
        frames_per_avatar=draw(st.integers(1, 8)),
        deadline_tiers=draw(st.sampled_from([(), (15.0, 60.0)])),
        jitter_ms=draw(st.sampled_from([0.0, 5.0])),
        seed=draw(st.integers(0, 1000)),
    )

    def spec(name):
        return GroupSpec(
            name,
            draw(st.sampled_from([FAST, BIG])),
            replicas=draw(st.integers(1, 3)),
            policy=draw(st.sampled_from(["fifo", "edf", "fair"])),
            batch_window_ms=draw(st.sampled_from([0.0, 2.0, 4.0])),
            max_batch=draw(st.integers(1, 4)),
        )

    if draw(st.booleans()):
        pool = spec("pool")
        kwargs = dict(
            policy=pool.policy,
            batch_window_ms=pool.batch_window_ms,
            chaos=draw(chaos_plans([])),
            recovery=recovery,
        )
        replicas = ReplicaPool(
            pool.profile, replicas=pool.replicas, max_batch=pool.max_batch
        )
        return replicas, workload, kwargs
    specs = [spec(f"g{k}") for k in range(draw(st.integers(1, 2)))]
    kwargs = dict(
        router=draw(st.sampled_from(["round-robin", "least-loaded", "deadline"])),
        admission=draw(st.booleans()) or None,
        chaos=draw(chaos_plans([spec.name for spec in specs])),
        recovery=recovery,
    )
    return specs, workload, kwargs


class TestEveryFrameIsAccountedFor:
    @settings(max_examples=150, deadline=None)
    @given(sessions())
    def test_sessions_are_lossless_and_deterministic(self, session):
        groups, workload, kwargs = session
        report = serve_trace(groups, workload, **kwargs)
        assert (
            report.completed + report.shed + report.failed
            == report.submitted
            == workload.total_frames
        )
        for group in report.groups:
            assert group.completed + group.shed + group.failed == group.offered
        assert report.replicas_replaced <= report.replicas_lost
        again = serve_trace(groups, workload, **kwargs)
        assert report_to_json(again) == report_to_json(report)
        if not kwargs["chaos"]:
            assert report.failed == report.retries == 0


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
        return serve_trace(
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

    def test_shielded_run_is_deterministic(self, workload, runs):
        kill = ChaosPlan.parse(CHAOS_KILL)
        again = self.session(workload, kill, SHIELDED)
        assert report_to_json(again) == report_to_json(runs["shielded"])


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
        return serve_trace(
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
