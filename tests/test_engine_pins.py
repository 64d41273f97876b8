"""Pinned event-heap reports: small seeded sessions hashed bit for bit.

Each session below is served on the event-heap engine and its
``report_to_json`` text is hashed. The digests were taken from the engine
before its group state became event-maintained counters, so any change
that moves a single admission, routing, batching or recovery decision —
or a single float of a latency — shows up here as a digest mismatch.

Together the sessions cover the fifo, edf and fair policies, single
groups with a session batch cap below the default and with no batching
window, a two-group cluster with admission under the ``deadline`` and
``least-loaded`` routers, autoscaling with scale-ups and drains, and
chaos plans with crash, die, stall and degrade clauses under retries,
hedging and replacement. The three ``pool_`` sessions were bare replica
pools once; as one-group sessions their reports equal the pools' in every
field but ``router`` and ``groups``. Each session also asserts the feature
it is there for actually fired, so a pin cannot quietly stop covering it.

The report adds its float sums left to right, never with ``sum()``, which
Python 3.12 made compensated; so the digests hold on 3.10 to 3.12, and
the last test re-checks them with a compensated ``sum()`` patched in.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.serving import engine, slo
from repro.serving import (
    AdmissionControl,
    AutoscalePolicy,
    ChaosPlan,
    GroupSpec,
    RecoveryPolicy,
    make_trace,
    report_to_json,
    serve_trace,
)
from repro.sim.runner import FrameLatencyProfile
from tests.conftest import compensated_sum

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


def _steady(seed: int, avatars: int = 40, **overrides):
    params = dict(avatar_fps=10.0, deadline_ms=50.0, jitter_ms=5.0, seed=seed)
    params.update(overrides)
    return make_trace(avatars, 2.0, **params)


def _tiered(seed: int, avatars: int = 60):
    return _steady(seed, avatars, deadline_tiers=(10.0, 40.0, 80.0))


def _mixed(latency_policy: str = "edf", throughput_policy: str = "fifo"):
    return [
        GroupSpec(
            "latency", FAST, replicas=1, policy=latency_policy,
            batch_window_ms=0.0, max_batch=4,
        ),
        GroupSpec(
            "throughput", BIG, replicas=3, policy=throughput_policy,
            batch_window_ms=4.0, max_batch=8,
        ),
    ]


def fifo_group():
    spec = GroupSpec(
        "g", BIG, replicas=2, policy="fifo", batch_window_ms=2.0, max_batch=4
    )
    return serve_trace(spec, _steady(1)), {}


def edf_group():
    spec = GroupSpec(
        "g", BIG, replicas=2, policy="edf", batch_window_ms=1.0, max_batch=4
    )
    return serve_trace(spec, _tiered(2, avatars=45)), {"deadline_misses": 1}


def fair_group():
    spec = GroupSpec(
        "g", FAST, replicas=1, policy="fair", batch_window_ms=1.5, max_batch=3
    )
    return serve_trace(spec, _steady(3, avatars=50)), {"batches": 1}


def pool_fifo():
    spec = GroupSpec(
        "g", BIG, replicas=2, policy="fifo", batch_window_ms=2.0, max_batch=3
    )
    return serve_trace(spec, _steady(4)), {}


def pool_edf_eager():
    spec = GroupSpec(
        "g", FAST, replicas=1, policy="edf", batch_window_ms=0.0, max_batch=8
    )
    return serve_trace(spec, _tiered(5, avatars=30)), {}


def cluster_deadline_admission():
    report = serve_trace(
        _mixed(), _tiered(6, avatars=120), router="deadline", admission=True
    )
    return report, {"shed": 1}


def cluster_least_loaded_admission():
    report = serve_trace(
        _mixed(),
        _tiered(7, avatars=120),
        router="least-loaded",
        admission=AdmissionControl(max_queue_per_replica=8, slack=0.9),
    )
    return report, {"shed": 1}


def cluster_round_robin_fair():
    report = serve_trace(
        _mixed("fair", "edf"), _tiered(8, avatars=80), router="round-robin"
    )
    return report, {}


def autoscale_flash():
    trace = make_trace(
        600, 6.0, shape="flash", avatar_fps=4.0, deadline_ms=100.0,
        jitter_ms=20.0, seed=9,
    )
    spec = GroupSpec("fleet", BIG, replicas=1, policy="edf", max_batch=8)
    report = serve_trace(
        spec,
        trace,
        autoscale=AutoscalePolicy(
            check_interval_ms=250.0, warmup_ms=500.0, max_replicas=8
        ),
    )
    return report, {"scale_ups": 1, "scale_downs": 1}


def autoscale_diurnal_admission():
    trace = make_trace(
        500, 6.0, shape="diurnal", avatar_fps=5.0, deadline_ms=40.0,
        jitter_ms=10.0, seed=10,
    )
    spec = GroupSpec("fleet", BIG, replicas=2, policy="edf", max_batch=8)
    report = serve_trace(
        spec,
        trace,
        admission=True,
        autoscale=AutoscalePolicy(
            check_interval_ms=200.0, warmup_ms=400.0, min_replicas=2,
            max_replicas=6,
        ),
    )
    return report, {"scale_ups": 1, "scale_downs": 1, "shed": 1}


def chaos_cluster():
    report = serve_trace(
        _mixed(),
        _tiered(11, avatars=80),
        router="deadline",
        chaos=ChaosPlan.parse(
            "die-at:latency/0:600,crash-at:latency/1:1,crash-at:throughput/1:3,"
            "stall:throughput/0:2:40,degrade:throughput/2:1:2.0"
        ),
        recovery=RecoveryPolicy(
            max_retries=2, hedge=True, breaker_threshold=2,
            replace_after_ms=150.0,
        ),
    )
    return report, {
        "retries": 1, "hedges": 1, "failovers": 1, "replicas_lost": 2,
        "replicas_replaced": 2, "degraded_time_ms": 1,
    }


def chaos_pool_fifo():
    spec = GroupSpec(
        "g", BIG, replicas=3, policy="fifo", batch_window_ms=2.0, max_batch=4
    )
    report = serve_trace(
        spec,
        _tiered(12, avatars=60),
        chaos=ChaosPlan.parse("crash-at:0:2,stall:1:3:25,degrade:2:5:2.0"),
        recovery=RecoveryPolicy(
            max_retries=1, hedge=True, replace_after_ms=100.0
        ),
    )
    return report, {"retries": 1, "hedges": 1, "replicas_replaced": 1}


def chaos_fair_autoscale():
    trace = make_trace(
        300, 4.0, shape="flash", avatar_fps=5.0, deadline_ms=60.0,
        jitter_ms=10.0, seed=13,
    )
    spec = GroupSpec(
        "fleet", FAST, replicas=2, policy="fair", batch_window_ms=1.0,
        max_batch=4,
    )
    report = serve_trace(
        spec,
        trace,
        autoscale=AutoscalePolicy(
            check_interval_ms=250.0, warmup_ms=300.0, max_replicas=6
        ),
        chaos=ChaosPlan.parse("die-at:0:1500,crash-at:1:4"),
        recovery=RecoveryPolicy(max_retries=1, replace_after_ms=200.0),
    )
    return report, {"scale_ups": 1, "retries": 1, "replicas_replaced": 1}


def chaos_exhausted_edf():
    # Every replica dies and none is replaced: the group drains its queue
    # as failures and the front door fails every later arrival.
    spec = GroupSpec(
        "g", BIG, replicas=2, policy="edf", batch_window_ms=1.0, max_batch=4
    )
    report = serve_trace(
        spec,
        _steady(14, avatars=30),
        chaos=ChaosPlan.parse("die-at:0:300,die-at:1:500"),
        recovery=RecoveryPolicy(max_retries=1),
    )
    return report, {"failed": 1, "replicas_lost": 2}


SESSIONS = {
    fn.__name__: fn
    for fn in (
        fifo_group,
        edf_group,
        fair_group,
        pool_fifo,
        pool_edf_eager,
        cluster_deadline_admission,
        cluster_least_loaded_admission,
        cluster_round_robin_fair,
        autoscale_flash,
        autoscale_diurnal_admission,
        chaos_cluster,
        chaos_pool_fifo,
        chaos_fair_autoscale,
        chaos_exhausted_edf,
    )
}

PINS = {
    "autoscale_diurnal_admission": (
        "e478bba015ff37e2f8c41b009849da814f54024036dd317607a1ffc723f25e72"
    ),
    "autoscale_flash": (
        "9ed128af1a36f03108df0df0881117305aa81fc4dae477246e616d0e1c15b25b"
    ),
    "chaos_cluster": (
        "6867053bc2998e536cf1372570cfef8e5098890256dce9b5f41a2c44e4589e27"
    ),
    "chaos_exhausted_edf": (
        "386281330d05a880102f961477065b7f9e7f2b3e9742528674710e39d5fa7ae7"
    ),
    "chaos_fair_autoscale": (
        "05235d842600117ed9ee351f2a8a3a3a37cd324069219d1c8155b3cda5153977"
    ),
    "chaos_pool_fifo": (
        "04baf2879e46e8b2d1fd5c5dcc64f103447bb56cc3e95cdc9291b1a603fc7807"
    ),
    "cluster_deadline_admission": (
        "abe9b9a8d3481b5aa960901e3d4dd6f23a797c9f9010a2a93df55430c431845e"
    ),
    "cluster_least_loaded_admission": (
        "38b1168296e836469e93e3c7cf48faabf54f83ae5923231badcff3dc481e510d"
    ),
    "cluster_round_robin_fair": (
        "0d6816a45de263932e94eb8a8760edee1636e5ae8ea3641aac6a9ce1593d29b1"
    ),
    "edf_group": (
        "fb744fe83b719bf8f432d1f10c60a9decc863247b583ee0300eae67bdecb6d92"
    ),
    "fair_group": (
        "aa524077de104eeafcd13ee2e20da50b12720d41ed7bf2544a7bea3fee07222f"
    ),
    "fifo_group": (
        "c0230c89c5b7764e52b41fedb8ee6f87c92510c3226ce9f003fb8e97530a7999"
    ),
    "pool_edf_eager": (
        "0ea605d476574e5f7dff62e3d31a1c5cd2718a3117241436df8e20a9774503cf"
    ),
    "pool_fifo": (
        "2240e904be7fbc5efa78bf78e5a8ae16480be0c50ca4b4dbc212733b465c0d48"
    ),
}


def report_digest(report) -> str:
    return hashlib.sha256(report_to_json(report).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_heap_report_matches_pin(name):
    report, floors = SESSIONS[name]()
    for field, floor in floors.items():
        assert getattr(report, field) >= floor, (name, field)
    assert report.completed + report.shed + report.failed == report.submitted
    assert report_digest(report) == PINS[name]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_pins_hold_under_a_compensated_sum(name, monkeypatch):
    # The tier-1 matrix runs Python 3.10-3.12. A float ``sum()`` left in
    # the report path (the utilization means, the degraded time) would
    # round differently on 3.12 and move these digests there.
    for module in (engine, slo):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    report, _ = SESSIONS[name]()
    assert report_digest(report) == PINS[name]
