"""Event-heap engine: saturation, traffic shapes, autoscaling,
determinism, guard rails, and report compatibility."""

from __future__ import annotations

import gc
import json
import time
import tracemalloc

import numpy as np
import pytest

from repro.serving import (
    AutoscalePolicy,
    AvatarWorkload,
    ChaosPlan,
    GroupSpec,
    RecoveryPolicy,
    ReplicaPool,
    RequestTrace,
    canned_workload,
    list_shapes,
    make_trace,
    report_from_json,
    report_to_json,
    saturation_workload,
    serve_trace,
    trace_from_workload,
)
from repro.serving import engine
from repro.sim.runner import FrameLatencyProfile

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


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["fifo", "edf", "fair"])
def test_saturated_pool_misses_deadlines(policy):
    # Past capacity the queue couples every decision to every earlier
    # one, and every policy misses deadlines.
    workload = saturation_workload(BIG, replicas=2, saturation=1.3, seed=7)
    report = serve_trace(
        ReplicaPool(BIG, replicas=2, max_batch=8), workload, policy=policy
    )
    assert report.deadline_misses > 0
    assert report.completed == report.submitted == workload.total_frames


@pytest.mark.parametrize("router", ["round-robin", "least-loaded", "deadline"])
def test_overloaded_cluster_sheds(router):
    workload = saturation_workload(BIG, replicas=4, saturation=1.5, seed=11)
    groups = [
        GroupSpec(
            "latency",
            FAST,
            replicas=1,
            policy="edf",
            batch_window_ms=0.0,
            max_batch=4,
        ),
        GroupSpec(
            "throughput",
            BIG,
            replicas=3,
            policy="fifo",
            batch_window_ms=4.0,
        ),
    ]
    report = serve_trace(groups, workload, router=router, admission=True)
    assert report.shed > 0
    assert report.completed + report.shed == report.submitted


def test_trace_and_workload_inputs_agree():
    workload = canned_workload(avatars=6, frames_per_avatar=8, jitter_ms=5.0)
    via_workload = serve_trace(
        ReplicaPool(BIG, replicas=1), workload, policy="edf"
    )
    via_trace = serve_trace(
        ReplicaPool(BIG, replicas=1), trace_from_workload(workload), policy="edf"
    )
    assert report_to_json(via_workload) == report_to_json(via_trace)


# ---------------------------------------------------------------------------
# traffic shapes
# ---------------------------------------------------------------------------
def test_trace_from_workload_matches_client_streams():
    workload = canned_workload(
        avatars=5, frames_per_avatar=7, jitter_ms=6.0, deadline_tiers=(25.0, 80.0)
    )
    trace = trace_from_workload(workload)
    assert len(trace) == workload.total_frames
    assert np.all(np.diff(trace.arrival_ms) >= 0)
    # Re-derive one avatar's arrivals straight from its rng stream.
    rng = workload.avatar_rng(2)
    expected, t = [], rng.uniform(0.0, workload.frame_interval_ms)
    for _ in range(workload.frames_per_avatar):
        expected.append(t)
        t += workload.frame_interval_ms + rng.uniform(
            -workload.jitter_ms, workload.jitter_ms
        )
    got = sorted(trace.arrival_ms[trace.avatar_id == 2].tolist())
    assert got == pytest.approx(sorted(expected))
    assert set(trace.deadline_rel_ms[trace.avatar_id == 2]) == {25.0}
    assert set(trace.deadline_rel_ms[trace.avatar_id == 3]) == {80.0}


def test_shapes_are_deterministic_and_sorted():
    assert list_shapes() == ["diurnal", "flash", "steady"]
    for shape in list_shapes():
        a = make_trace(500, 10.0, shape=shape, avatar_fps=5.0, seed=9)
        b = make_trace(500, 10.0, shape=shape, avatar_fps=5.0, seed=9)
        assert np.array_equal(a.arrival_ms, b.arrival_ms)
        assert np.array_equal(a.avatar_id, b.avatar_id)
        assert np.all(np.diff(a.arrival_ms) >= 0)
        assert a.shape == shape
        assert a.arrival_ms.min() >= 0.0


def test_steady_churn_cuts_sessions_short():
    full = make_trace(200, 10.0, shape="steady", avatar_fps=10.0, seed=1)
    churny = make_trace(
        200, 10.0, shape="steady", avatar_fps=10.0, seed=1, churn=0.5
    )
    assert churny.requests < full.requests
    # A churned avatar's stream neither starts at 0 nor spans the session.
    last_avatar = churny.arrival_ms[churny.avatar_id == 199]
    assert last_avatar.min() > 1000.0 or last_avatar.max() < 9000.0


def test_diurnal_concurrency_peaks_mid_session():
    trace = make_trace(2000, 60.0, shape="diurnal", avatar_fps=2.0, seed=4)
    edges = np.linspace(0.0, 60_000.0, 7)
    counts, _ = np.histogram(trace.arrival_ms, bins=edges)
    middle = counts[2] + counts[3]
    tails = counts[0] + counts[-1]
    assert middle > 2 * tails


def test_flash_crowd_spikes_after_ramp():
    trace = make_trace(
        1000, 20.0, shape="flash", avatar_fps=5.0, seed=6, base=0.2
    )
    before = np.count_nonzero(trace.arrival_ms < 5_000.0)
    during = np.count_nonzero(
        (trace.arrival_ms >= 6_000.0) & (trace.arrival_ms < 11_000.0)
    )
    assert during > 3 * before


def test_make_trace_validation():
    with pytest.raises(KeyError):
        make_trace(10, 1.0, shape="tsunami")
    with pytest.raises(ValueError):
        make_trace(0, 1.0)
    with pytest.raises(ValueError):
        make_trace(10, 1.0, jitter_ms=1000.0, avatar_fps=30.0)
    for duration in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="duration must be positive"):
            make_trace(10, duration)
    # A NaN or infinite budget never tripped admission nor counted as a
    # miss; every way into a trace rejects it.
    for budget in (float("nan"), float("inf"), 0.0, -5.0):
        with pytest.raises(ValueError, match="deadline must be positive"):
            make_trace(10, 1.0, deadline_ms=budget)
        with pytest.raises(ValueError, match="tiers must be positive"):
            make_trace(10, 1.0, deadline_tiers=(20.0, budget))
        with pytest.raises(ValueError, match="finite and positive"):
            RequestTrace(
                arrival_ms=np.arange(3.0),
                avatar_id=np.zeros(3, dtype=np.int64),
                deadline_rel_ms=np.array([50.0, budget, 50.0]),
                avatars=1,
                deadline_ms=50.0,
            )
        with pytest.raises(ValueError, match="deadline must be positive"):
            AvatarWorkload(2, 3, 33.3, deadline_ms=budget)
        with pytest.raises(ValueError, match="tiers must be positive"):
            AvatarWorkload(2, 3, 33.3, 50.0, deadline_tiers=(budget,))


def test_trace_arrivals_must_be_sorted():
    # The engine's queues take index order for arrival order.
    for arrival in ([0.0, 2.0, 1.0], [0.0, float("nan"), 1.0]):
        with pytest.raises(ValueError, match="sorted"):
            RequestTrace(
                arrival_ms=np.array(arrival),
                avatar_id=np.zeros(3, dtype=np.int64),
                deadline_rel_ms=np.full(3, 50.0),
                avatars=1,
                deadline_ms=50.0,
            )


def test_edf_queue_holds_only_budgets_with_frames(monkeypatch):
    # A recorded trace may give every request its own deadline budget. An
    # EDF pop compares one deque head per budget, so a budget whose deque
    # empties leaves the queue: the scan is bounded by the frames queued,
    # not by every budget the session has seen.
    n = 300
    trace = RequestTrace(
        arrival_ms=np.arange(n, dtype=float),
        avatar_id=np.zeros(n, dtype=np.int64),
        deadline_rel_ms=50.0 + 0.01 * np.arange(n),
        avatars=1,
        deadline_ms=50.0,
    )
    dispatch = engine._HeapSession._dispatch
    scanned = []

    def checked(self, group, t):
        scanned.append(len(group.edf_q))
        dispatch(self, group, t)
        assert all(group.edf_q.values())
        assert len(group.edf_q) == group.queue_len

    monkeypatch.setattr(engine._HeapSession, "_dispatch", checked)
    report = serve_trace(
        GroupSpec("g", BIG, replicas=1, policy="edf", max_batch=4), trace
    )
    assert report.completed == n
    assert max(scanned) > 1  # the multi-budget merge ran


def test_fair_dispatch_cost_tracks_the_batch_not_the_avatars():
    # 40,000 requests from 20,000 avatars on one overloaded group. A fair
    # dispatch that scans every avatar ever queued makes the session
    # quadratic (about 500x edf's time); one that reaches only the batch's
    # avatars stays within a small factor of edf. A ratio on one host,
    # each policy's best of three.
    trace = make_trace(
        20_000, 10.0, "steady", avatar_fps=0.2, deadline_ms=200, seed=1
    )
    best = {"edf": float("inf"), "fair": float("inf")}
    for _ in range(3):
        for policy in best:
            spec = GroupSpec("g", BIG, replicas=8, policy=policy)
            started = time.perf_counter()
            report = serve_trace(spec, trace)
            best[policy] = min(best[policy], time.perf_counter() - started)
            assert report.completed == len(trace)
    assert best["fair"] <= 5 * best["edf"], best


def test_session_memory_per_request():
    # A session holds no Python object per request: the trace's columns
    # and the start/finish times stay numpy arrays, and make_trace builds
    # its columns in place. Peaks traced by tracemalloc, in bytes per
    # request, on a 66k-request diurnal session with admission and
    # autoscaling: make_trace 74 -> 32, serve_trace 215 -> 79 (numpy 2.4).
    # Each bound is below half the old peak.
    args = (2_000, 30.0, "diurnal")
    kwargs = dict(avatar_fps=2.0, jitter_ms=100.0)
    make_trace(*args, **kwargs)  # lazy imports (numpy.random) off the books
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        trace = make_trace(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        trace_peak = peak - held
        tracemalloc.reset_peak()
        held = current
        report = serve_trace(
            GroupSpec("fleet", BIG, replicas=2, policy="edf"),
            trace,
            admission=True,
            autoscale=AutoscalePolicy(
                check_interval_ms=1000.0,
                warmup_ms=5000.0,
                min_replicas=2,
                max_replicas=64,
            ),
        )
        _, serve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(trace)
    assert n == 66_044 and report.shed and report.scale_ups
    assert trace_peak / n < 36, trace_peak / n
    assert (serve_peak - held) / n < 105, (serve_peak - held) / n


# ---------------------------------------------------------------------------
# autoscaling
# ---------------------------------------------------------------------------
def test_autoscale_grows_and_drains_the_fleet():
    trace = make_trace(
        4000, 20.0, shape="flash", avatar_fps=2.0, deadline_ms=100.0,
        jitter_ms=50.0, seed=5,
    )
    spec = GroupSpec("fleet", BIG, replicas=1, policy="edf", max_batch=8)
    report = serve_trace(
        spec,
        trace,
        autoscale=AutoscalePolicy(
            check_interval_ms=500.0, warmup_ms=1000.0, max_replicas=12
        ),
    )
    assert report.scale_ups > 0
    assert report.scale_downs > 0
    assert report.peak_replicas > 1
    assert report.completed == report.submitted  # drained, nothing lost
    assert report.groups[0].scale_ups == report.scale_ups
    # The report's utilization covers every replica that ever served.
    assert report.replicas == len(report.replica_utilization)
    assert report.replicas >= report.peak_replicas


def test_autoscale_beats_static_underprovisioning():
    trace = make_trace(
        3000, 20.0, shape="flash", avatar_fps=2.0, deadline_ms=60.0,
        jitter_ms=50.0, seed=8,
    )
    spec = GroupSpec("fleet", BIG, replicas=1, policy="edf", max_batch=8)
    static = serve_trace(spec, trace)
    scaled = serve_trace(
        spec,
        trace,
        autoscale=AutoscalePolicy(check_interval_ms=500.0, warmup_ms=1000.0),
    )
    assert scaled.miss_rate < static.miss_rate


def test_autoscale_warmup_is_charged():
    # With a long provisioning delay the same overload misses more than
    # with a short one: cold fill and warm-up are not free capacity.
    trace = make_trace(
        2000, 12.0, shape="flash", avatar_fps=2.0, deadline_ms=60.0,
        jitter_ms=50.0, seed=10,
    )
    spec = GroupSpec("fleet", BIG, replicas=1, policy="edf", max_batch=8)
    fast = serve_trace(
        spec, trace,
        autoscale=AutoscalePolicy(check_interval_ms=500.0, warmup_ms=200.0),
    )
    slow = serve_trace(
        spec, trace,
        autoscale=AutoscalePolicy(check_interval_ms=500.0, warmup_ms=6000.0),
    )
    assert slow.deadline_misses > fast.deadline_misses


def test_exhausted_group_ignores_a_late_autoscaled_replica():
    # The only replica dies while a frame waits for it, the group is
    # exhausted, and then the autoscaler lands a replica there. The group
    # stays retired (later arrivals fail at the door) rather than
    # dispatching its empty queue to the new replica.
    spec = GroupSpec(
        "g", FAST, replicas=1, policy="fifo", batch_window_ms=0.0, max_batch=1
    )
    report = serve_trace(
        spec,
        make_trace(3, 0.5, avatar_fps=10.0, seed=2),
        autoscale=AutoscalePolicy(
            check_interval_ms=50.0, warmup_ms=0.0, max_replicas=1
        ),
        chaos=ChaosPlan.parse("die-at:0:0"),
        recovery=RecoveryPolicy(max_retries=0),
    )
    assert report.scale_ups == 1
    assert report.replicas_lost == 1
    assert report.completed == 0
    assert report.failed == report.submitted


def test_autoscale_validation():
    for interval in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="intervals"):
            AutoscalePolicy(check_interval_ms=interval)
    for warmup in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="intervals"):
            AutoscalePolicy(warmup_ms=warmup)
    with pytest.raises(ValueError):
        AutoscalePolicy(target_utilization=1.5)
    with pytest.raises(ValueError):
        AutoscalePolicy(min_replicas=5, max_replicas=2)
    # Float bounds passed the range checks and crashed the session at its
    # first scale-up or while building the fleet.
    for bad in (
        dict(max_step=float("nan")),
        dict(max_step=2.5),
        dict(min_replicas=1.5),
        dict(max_replicas=float("inf")),
    ):
        with pytest.raises(ValueError, match="must be an int"):
            AutoscalePolicy(**bad)
    # numpy integers are integers too, and a report built from them
    # stays JSON-serializable.
    trace = make_trace(200, 2.0, "flash", avatar_fps=30.0, seed=1)
    reports = [
        report_to_json(
            serve_trace(
                GroupSpec("g", BIG),
                trace,
                autoscale=AutoscalePolicy(
                    check_interval_ms=100.0,
                    min_replicas=kind(1),
                    max_replicas=kind(4),
                    max_step=kind(2),
                ),
            )
        )
        for kind in (np.int64, int)
    ]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# determinism and guard rails
# ---------------------------------------------------------------------------
def test_heap_sessions_are_bit_identical():
    def run():
        trace = make_trace(
            5000, 15.0, shape="diurnal", avatar_fps=2.0, deadline_ms=80.0,
            jitter_ms=100.0, seed=12,
        )
        spec = GroupSpec("fleet", BIG, replicas=1, policy="edf", max_batch=8)
        return report_to_json(
            serve_trace(
                spec,
                trace,
                admission=True,
                autoscale=AutoscalePolicy(
                    check_interval_ms=500.0, warmup_ms=1000.0
                ),
            )
        )

    assert run() == run()


def test_engine_rejects_unsupported_configurations():
    workload = canned_workload(avatars=2, frames_per_avatar=2)
    with pytest.raises(KeyError, match="known policies"):
        serve_trace(ReplicaPool(BIG), workload, policy="lifo")
    with pytest.raises(ValueError, match="GroupSpec"):
        serve_trace(ReplicaPool(BIG), workload, admission=True)
    with pytest.raises(ValueError, match="unique"):
        serve_trace(
            [GroupSpec("g", BIG), GroupSpec("g", FAST)], workload
        )


# ---------------------------------------------------------------------------
# report JSON compatibility
# ---------------------------------------------------------------------------
#: A serving-report payload exactly as PR 5 serialized it — no engine,
#: shape, or autoscale fields. Archived CI artifacts look like this and
#: must keep loading as the record grows.
PR5_REPORT_JSON = json.dumps(
    {
        "policy": "cluster(deadline)",
        "avatars": 6,
        "replicas": 3,
        "max_batch": 8,
        "batch_window_ms": 0.0,
        "submitted": 30,
        "completed": 30,
        "duration_ms": 177.80121983236802,
        "latency_p50_ms": 3.962195783627621,
        "latency_p95_ms": 6.0,
        "latency_p99_ms": 6.0,
        "latency_mean_ms": 4.089158100816489,
        "latency_max_ms": 6.0,
        "queue_mean_ms": 0.6891581008164895,
        "deadline_ms": 50.0,
        "deadline_tiers_ms": [20.0, 60.0],
        "deadline_misses": 0,
        "batches": 29,
        "mean_batch_size": 1.0344827586206897,
        "replica_utilization": [0.5624258376533106, 0.0, 0.0],
        "per_avatar_p99_ms": [
            6.0,
            4.724120737110255,
            6.0,
            5.70612977404147,
            6.0,
            6.0,
        ],
        "shed": 0,
        "router": "deadline",
        "groups": [
            {
                "name": "latency",
                "policy": "edf",
                "transport": "inprocess",
                "replicas": 1,
                "max_batch": 4,
                "batch_window_ms": 0.0,
                "submitted": 30,
                "shed": 0,
                "completed": 30,
                "deadline_misses": 0,
                "latency_p50_ms": 3.962195783627621,
                "latency_p99_ms": 6.0,
                "mean_batch_size": 1.0344827586206897,
                "mean_utilization": 0.5624258376533106,
                "shed_rate": 0.0,
                "miss_rate": 0.0,
            },
            {
                "name": "throughput",
                "policy": "fifo",
                "transport": "inprocess",
                "replicas": 2,
                "max_batch": 8,
                "batch_window_ms": 4.0,
                "submitted": 0,
                "shed": 0,
                "completed": 0,
                "deadline_misses": 0,
                "latency_p50_ms": 0.0,
                "latency_p99_ms": 0.0,
                "mean_batch_size": 0.0,
                "mean_utilization": 0.0,
                "shed_rate": 0.0,
                "miss_rate": 0.0,
            },
        ],
        "miss_rate": 0.0,
        "shed_rate": 0.0,
        "throughput_fps": 168.72775129599316,
        "mean_utilization": 0.18747527921777019,
    }
)


def test_pr5_report_fixture_still_loads():
    report = report_from_json(PR5_REPORT_JSON)
    assert report.policy == "cluster(deadline)"
    assert report.submitted == 30 and report.shed == 0
    assert report.groups[0].name == "latency"
    # The fields added since default cleanly.
    assert report.engine == "" and report.shape == ""
    assert report.scale_ups == 0 and report.scale_downs == 0
    assert report.peak_replicas == 0
    assert report.groups[0].scale_ups == 0
    # Chaos-era counters (this PR) default too: a pre-chaos payload is a
    # fault-free run.
    assert report.failed == 0 and report.retries == 0
    assert report.hedges == 0 and report.hedge_wins == 0
    assert report.failovers == 0
    assert report.replicas_lost == 0 and report.replicas_replaced == 0
    assert report.degraded_time_ms == 0.0
    assert report.groups[0].failed == 0
    assert report.groups[0].retries == 0
    assert report.groups[0].replicas_lost == 0
    assert report.groups[0].degraded_time_ms == 0.0
    # And it keeps round-tripping through the current serializer.
    assert report_from_json(report_to_json(report)) == report


def test_new_engine_fields_round_trip():
    trace = make_trace(
        500, 5.0, shape="flash", avatar_fps=5.0, jitter_ms=20.0, seed=2
    )
    report = serve_trace(
        GroupSpec("fleet", BIG, replicas=1, policy="edf"),
        trace,
        admission=True,
        autoscale=AutoscalePolicy(check_interval_ms=500.0, warmup_ms=500.0),
    )
    loaded = report_from_json(report_to_json(report))
    assert loaded == report
    assert loaded.engine == "heap"
    assert loaded.shape == "flash"
    assert loaded.scale_ups == report.scale_ups
    assert loaded.peak_replicas == report.peak_replicas
    assert loaded.groups[0].scale_downs == report.groups[0].scale_downs
