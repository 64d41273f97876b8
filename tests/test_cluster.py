"""Cluster serving: groups, routers, admission control."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.devices.fpga import get_device
from repro.fcad.flow import FCad
from repro.serving import (
    AdmissionControl,
    GroupSpec,
    ReplicaPool,
    canned_workload,
    get_router,
    replay_workload,
    report_from_json,
    report_to_json,
    serve_from_results,
    serve_trace,
)
from repro.serving.engine import _EngineGroup
from repro.sim.runner import FrameLatencyProfile
from tests.conftest import (
    EXPLORED_BATCH1,
    EXPLORED_BATCH2,
    make_tiny_decoder,
    two_tier_groups,
    two_tier_workload,
)

#: The low-latency design: quick cold start, 250 FPS warm.
FAST = FrameLatencyProfile(
    finish_ms=(8.0, 12.0, 16.0),
    first_frame_ms=8.0,
    steady_interval_ms=4.0,
    frequency_mhz=200.0,
)

#: The big-batch design: triple the cold fill, the same steady rate.
BIG = FrameLatencyProfile(
    finish_ms=(24.0, 28.0, 32.0),
    first_frame_ms=24.0,
    steady_interval_ms=4.0,
    frequency_mhz=200.0,
)


def mixed_groups() -> list[GroupSpec]:
    return [
        GroupSpec(
            "latency", FAST, replicas=1, policy="edf",
            batch_window_ms=0.0, max_batch=4,
        ),
        GroupSpec(
            "throughput", BIG, replicas=2, policy="fifo",
            batch_window_ms=4.0, max_batch=8,
        ),
    ]


def tiered_workload(**overrides):
    defaults = dict(
        avatars=9,
        frames_per_avatar=12,
        deadline_tiers=(20.0, 60.0, 60.0),
        jitter_ms=4.0,
        seed=0,
    )
    defaults.update(overrides)
    return canned_workload(**defaults)


class TestSpecsAndValidation:
    def test_group_spec_rejects_bad_values(self):
        with pytest.raises(ValueError, match="name"):
            GroupSpec("", FAST)
        with pytest.raises(ValueError, match="replica"):
            GroupSpec("g", FAST, replicas=0)
        for window in (-5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="batch_window_ms"):
                GroupSpec("g", FAST, batch_window_ms=window)
        with pytest.raises(ValueError, match="max_batch"):
            GroupSpec("g", FAST, max_batch=0)
        # Non-integer counts passed ``< 1`` and the session then died
        # mid-run with a TypeError; True was served as one replica.
        for count in (2.5, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="replicas must be an int"):
                GroupSpec("g", FAST, replicas=count)
            with pytest.raises(ValueError, match="max_batch must be an int"):
                GroupSpec("g", FAST, max_batch=count)
        # numpy integers are integers too, and a report built from them
        # stays JSON-serializable.
        spec = GroupSpec("g", FAST, replicas=np.int64(2), max_batch=np.int64(3))
        assert (spec.replicas, spec.max_batch) == (2, 3)
        assert type(spec.replicas) is int and type(spec.max_batch) is int
        report_to_json(serve_trace(spec, tiered_workload()))

    def test_group_spec_takes_no_transport(self):
        # Every replica serves in process; a caller still asking for a
        # wire transport is refused, not quietly served in process.
        with pytest.raises(TypeError, match="transport"):
            GroupSpec("g", FAST, transport="socket")

    def test_reports_keep_the_in_process_constants(self):
        """Archived reports carry ``transport`` and ``reconnects``; a
        report written today still holds them, as constants."""
        report = serve_trace(mixed_groups(), tiered_workload())
        text = report_to_json(report)
        payload = json.loads(text)
        assert payload["reconnects"] == 0
        assert [
            (group["transport"], group["reconnects"])
            for group in payload["groups"]
        ] == [("inprocess", 0), ("inprocess", 0)]
        assert report_from_json(text) == report

    def test_cluster_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            serve_trace(
                [GroupSpec("g", FAST), GroupSpec("g", BIG)], tiered_workload()
            )

    def test_cluster_needs_groups(self):
        with pytest.raises(ValueError, match="at least one"):
            serve_trace([], tiered_workload())

    def test_unknown_router_rejected(self):
        with pytest.raises(KeyError, match="known routers"):
            get_router("random")

    def test_admission_validation(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_queue_per_replica=0)
        # A NaN cap passed ``cap < 1`` and silently turned the bound off.
        for cap in (float("nan"), 2.5, float("inf")):
            with pytest.raises(ValueError, match="must be an int"):
                AdmissionControl(max_queue_per_replica=cap)
        # numpy integers are integers too.
        admission = AdmissionControl(max_queue_per_replica=np.int64(4))
        assert admission.max_queue_per_replica == 4
        for slack in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slack"):
                AdmissionControl(slack=slack)


class TestRouters:
    def groups(self):
        groups = []
        for index, spec in enumerate(mixed_groups()):
            group = _EngineGroup(spec, index, batch_limit=spec.max_batch)
            for _ in range(spec.replicas):
                group.add_replica()
            groups.append(group)
        return groups

    def test_round_robin_cycles(self):
        router = get_router("round-robin")
        groups = self.groups()
        picks = [router.route(50.0, 0.0, groups) for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_least_loaded_prefers_lower_index_on_ties(self):
        router = get_router("least-loaded")
        groups = self.groups()
        # Nothing queued yet: both backlogs are zero.
        assert router.route(50.0, 0.0, groups) == 0

    def test_deadline_router_is_static_tiering(self):
        router = get_router("deadline")
        groups = self.groups()
        # Lax budget: both tiers feasible unloaded -> highest capacity
        # (throughput, 2 replicas x 250 FPS).
        assert router.route(60.0, 0.0, groups) == 1
        # Tight budget: only the latency tier's unloaded latency
        # (0 ms window + 8 ms fill) fits.
        assert router.route(20.0, 0.0, groups) == 0
        # Impossible budget: fall back to the quickest tier.
        assert router.route(5.0, 0.0, groups) == 0

    def test_unloaded_latency_is_window_plus_fill(self):
        latency, throughput = self.groups()
        assert latency.unloaded_latency_ms() == pytest.approx(8.0)
        assert throughput.unloaded_latency_ms() == pytest.approx(28.0)


class TestClusterSessions:
    def test_single_group_cluster_matches_pool_mode(self):
        # One in-process group with no admission control serves exactly
        # like the same replicas passed as a bare pool, SLO for SLO.
        workload = tiered_workload()
        pool = ReplicaPool(FAST, replicas=2, max_batch=8)
        direct = serve_trace(
            pool, workload, policy="edf", batch_window_ms=2.0
        )
        clustered = serve_trace(
            [
                GroupSpec(
                    "only", FAST, replicas=2, policy="edf",
                    batch_window_ms=2.0, max_batch=8,
                )
            ],
            workload,
        )
        for field in (
            "policy", "submitted", "completed", "duration_ms",
            "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
            "latency_mean_ms", "latency_max_ms", "queue_mean_ms",
            "deadline_misses", "batches", "mean_batch_size",
            "replica_utilization", "per_avatar_p99_ms",
        ):
            assert getattr(clustered, field) == getattr(direct, field), field
        assert clustered.router == "round-robin"
        assert len(clustered.groups) == 1
        assert clustered.shed == 0

    def test_mixed_cluster_routes_by_deadline(self):
        report = serve_trace(
            mixed_groups(), tiered_workload(), router="deadline"
        )
        assert report.completed == report.submitted
        groups = {group.name: group for group in report.groups}
        # Tight-tier frames (20 ms) land on the latency group, lax ones
        # (60 ms) on the big-batch group: 3 of 9 avatars are tight.
        assert groups["latency"].completed == 3 * 12
        assert groups["throughput"].completed == 6 * 12
        assert report.policy == "cluster(deadline)"

    def test_cluster_deterministic_and_json_roundtrips(self):
        def run():
            return serve_trace(
                mixed_groups(),
                tiered_workload(),
                router="deadline",
                admission=True,
            )

        first, second = run(), run()
        assert report_to_json(first) == report_to_json(second)
        clone = report_from_json(report_to_json(first))
        assert clone == first
        assert clone.groups == first.groups
        payload = report_to_json(first)
        assert '"shed_rate"' in payload and '"groups"' in payload

    def test_admission_sheds_on_overload(self):
        # One 250-FPS replica against 16 avatars x 30 FPS (~1.9x): the
        # bounded queue + predicted-miss controller must shed, count the
        # shed requests in submitted, and keep accepted p99 inside the
        # deadline budget.
        workload = tiered_workload(
            avatars=16, deadline_tiers=(), deadline_ms=40.0
        )
        shielded = serve_trace(
            [GroupSpec("only", FAST, replicas=1, max_batch=8)],
            workload,
            admission=AdmissionControl(),
        )
        assert shielded.shed > 0
        assert shielded.completed + shielded.shed == shielded.submitted
        assert shielded.shed_rate == pytest.approx(
            shielded.shed / shielded.submitted
        )
        assert shielded.latency_p99_ms <= 40.0
        assert shielded.groups[0].shed == shielded.shed

    def test_bounded_queue_without_prediction(self):
        workload = tiered_workload(avatars=16, deadline_tiers=())
        report = serve_trace(
            [GroupSpec("only", FAST, replicas=1, max_batch=8)],
            workload,
            admission=AdmissionControl(
                max_queue_per_replica=4, predict_miss=False
            ),
        )
        assert report.shed > 0
        # The queue bound holds the backlog near 4 frames, so accepted
        # latencies stay within a few service times.
        assert report.latency_p99_ms < 60.0

    def test_shed_responses_resolve_to_none(self):
        # A shed frame is dropped, never left hanging: the session ends
        # with every frame counted even when most of them are shed.
        report = serve_trace(
            [GroupSpec("only", FAST, replicas=1, max_batch=2)],
            tiered_workload(avatars=16),
            admission=AdmissionControl(max_queue_per_replica=1),
        )
        assert report.submitted == 16 * 12
        assert report.completed < report.submitted


#: Replicas every fleet of the mixed-vs-homogeneous comparison gets.
CLUSTER_BUDGET = 6

#: Offered load as a share of a batch-1 pool's capacity. Slightly past
#: capacity on purpose: EDF on a shared pool starts serving stale
#: deadlines there, while tiering isolates the tight tier and shedding
#: keeps the accepted frames inside their budgets.
CLUSTER_SATURATION = 1.05

#: Offered load of the load-shedding sessions.
SHED_OVERLOAD = 1.5


def tiered_cluster(workload, admission):
    return serve_trace(
        two_tier_groups(CLUSTER_BUDGET),
        workload,
        router="deadline",
        admission=admission,
    )


class TestMixedClusterOnExploredDesigns:
    """A batch-1/batch-2 cluster against one-design pools of equal size."""

    def test_mixed_cluster_beats_every_homogeneous_pool(self):
        workload = two_tier_workload(CLUSTER_SATURATION, CLUSTER_BUDGET)
        best = min(
            serve_trace(
                ReplicaPool(profile, replicas=CLUSTER_BUDGET, max_batch=8),
                workload,
                policy=policy,
            ).miss_rate
            for profile in (EXPLORED_BATCH1, EXPLORED_BATCH2)
            for policy in ("fifo", "edf")
        )
        mixed = tiered_cluster(workload, admission=True)
        # The best pool is batch-1 FIFO; the cluster misses 0.575 less.
        assert mixed.miss_rate < best
        (latency,) = [g for g in mixed.groups if g.name == "latency"]
        assert latency.miss_rate <= 0.05
        again = tiered_cluster(workload, admission=True)
        assert report_to_json(mixed) == report_to_json(again)

    def test_shedding_bounds_accepted_p99_at_overload(self):
        overload = two_tier_workload(SHED_OVERLOAD, CLUSTER_BUDGET)
        shed = tiered_cluster(overload, admission=True)
        unshed = tiered_cluster(overload, admission=None)
        assert shed.latency_p99_ms <= 2.0 * max(overload.deadline_tiers)
        assert shed.shed_rate > 0.0
        assert unshed.latency_p99_ms > shed.latency_p99_ms


class TestReplayWorkloadClusters:
    def test_companions_score_candidate_in_mixed_cluster(self):
        companion = GroupSpec(
            "companion", BIG, replicas=2, policy="fifo", batch_window_ms=4.0
        )
        report = replay_workload(
            FAST,
            workload=tiered_workload(),
            replicas=1,
            companions=[companion],
            router="deadline",
        )
        names = [group.name for group in report.groups]
        assert names == ["candidate", "companion"]
        assert report.completed == report.submitted

    def test_admission_alone_routes_through_the_cluster_path(self):
        # A shedding single-group replay must actually shed (the plain
        # pool path silently dropping admission= was a bug).
        report = replay_workload(
            FAST,
            workload=tiered_workload(avatars=16, deadline_tiers=()),
            replicas=1,
            admission=True,
        )
        assert report.shed > 0
        assert report.completed + report.shed == report.submitted

    def test_serving_oracle_key_folds_cluster_membership(self):
        from repro.dse.objective import ServingOracle

        solo = ServingOracle()
        companion = GroupSpec("companion", BIG, replicas=2)
        clustered = ServingOracle(
            companions=(companion,), router="deadline", shed=True
        )
        assert solo.key != clustered.key
        assert "companion" in clustered.key
        assert "shed=True" in clustered.key
        # shed without companions still changes the replay -> the key.
        assert ServingOracle(shed=True).key != solo.key

    def test_slo_objective_penalizes_shedding(self):
        from repro.dse.objective import BranchMetrics, SloObjective

        served = BranchMetrics(
            fps=(100.0,), meets_batch=(True,), oracle="serving",
            p99_ms=20.0, deadline_miss_rate=0.1, shed_rate=None,
        )
        shedding = BranchMetrics(
            fps=(100.0,), meets_batch=(True,), oracle="serving",
            p99_ms=20.0, deadline_miss_rate=0.0, shed_rate=0.1,
        )
        objective = SloObjective()
        # A shed frame costs exactly as much as a missed one: dropping
        # the traffic must not look like serving it.
        assert objective.score(shedding, (1.0,)) == pytest.approx(
            objective.score(served, (1.0,))
        )


class TestServeFromResults:
    @pytest.fixture(scope="class")
    def tiny_results(self):
        def explore(batch):
            from repro.dse.space import Customization

            return FCad(
                network=make_tiny_decoder(),
                device=get_device("Z7045"),
                quant="int8",
                customization=Customization(
                    batch_sizes=(batch, batch), priorities=(1.0, 1.0)
                ),
            ).run(iterations=2, population=8, seed=0)

        return explore(1), explore(2)

    def test_serving_group_from_result(self, tiny_results):
        latency, _throughput = tiny_results
        spec = latency.serving_group(
            name="lat", replicas=2, policy="edf", sim_frames=4
        )
        assert spec.name == "lat"
        assert spec.replicas == 2
        assert spec.profile.steady_interval_ms > 0

    def test_serve_from_results_mixed_cluster(self, tiny_results):
        latency, throughput = tiny_results
        report = serve_from_results(
            [(latency, 1), (throughput, 2)],
            avatars=4,
            frames_per_avatar=5,
            deadline_tiers=(25.0, 100.0),
            router="deadline",
            admission=True,
            sim_frames=4,
        )
        assert len(report.groups) == 2
        assert report.router == "deadline"
        assert report.submitted == 20
        assert report.completed + report.shed == report.submitted
