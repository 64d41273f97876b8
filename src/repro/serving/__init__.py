"""Avatar decode serving: batching onto simulated accelerator replicas.

F-CAD's end product is an accelerator that decodes codec avatars for live
telepresence. This package is the *workload* layer on top of the design
flow: take DSE-selected designs, deploy replicas of them, and serve
decode requests from many concurrent avatars under latency SLOs —

- :mod:`~repro.serving.replica`   — replicas driven by cycle-accurate
  fill/steady-state latency profiles;
- :mod:`~repro.serving.policies`  — FIFO / deadline-EDF / per-avatar
  fairness batch selection;
- :mod:`~repro.serving.cluster`   — the replica group: one design, or
  one tier of a heterogeneous cluster behind one front door;
- :mod:`~repro.serving.router`    — round-robin / least-loaded /
  deadline-tiered request routing across groups;
- :mod:`~repro.serving.admission` — bounded queues and
  predicted-deadline-miss load shedding;
- :mod:`~repro.serving.chaos`     — deterministic replica faults and the
  recovery policy;
- :mod:`~repro.serving.slo`       — p50/p95/p99 latency, deadline-miss
  rate, shed rate, throughput, utilization (aggregate and per group);
- :mod:`~repro.serving.workload`  — multi-avatar frame streams;
- :mod:`~repro.serving.traffic`   — vectorized request traces and named
  traffic shapes (steady / diurnal / flash) with session churn;
- :mod:`~repro.serving.engine`    — the event-heap engine every session
  runs on (:func:`serve_trace`), at up to millions of requests per
  session, plus replica autoscaling.

One design, one replica group::

    from repro import FCad
    from repro.serving import AvatarWorkload, serve_trace

    result = FCad(network=..., device=...).run()
    report = serve_trace(
        result.serving_group(replicas=4, policy="edf"),
        AvatarWorkload(avatars=64, frames_per_avatar=30,
                       frame_interval_ms=1000.0 / 30, deadline_ms=50.0),
    )
    print(report.render())

A lone group under chaos fails new arrivals at the door while its
circuit breaker is open, until a batch succeeds;
``RecoveryPolicy(breaker_threshold=0)`` keeps the door open.

A heterogeneous cluster (a low-latency tier next to a big-batch tier,
deadline-tiered routing, load shedding at saturation)::

    report = serve_trace(
        [latency_result.serving_group("latency", replicas=1),
         throughput_result.serving_group("throughput", replicas=3)],
        AvatarWorkload(avatars=64, frames_per_avatar=30,
                       frame_interval_ms=1000.0 / 30, deadline_ms=50.0,
                       deadline_tiers=(20.0, 60.0)),
        router="deadline",
        admission=True,
    )
"""

from __future__ import annotations

from repro.serving.admission import AdmissionControl, resolve_admission
from repro.serving.chaos import (
    ChaosFault,
    ChaosPlan,
    CircuitBreaker,
    RecoveryPolicy,
)
from repro.serving.engine import AutoscalePolicy, serve_trace
from repro.serving.cluster import GroupSpec
from repro.serving.policies import list_policies
from repro.serving.replica import Replica, health_summary
from repro.serving.router import (
    DeadlineTieredRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    RoutingPolicy,
    failover_route,
    get_router,
    list_routers,
)
from repro.serving.slo import (
    GroupReport,
    ServingReport,
    nearest_rank,
    report_from_json,
    report_to_json,
)
from repro.serving.traffic import (
    RequestTrace,
    list_shapes,
    make_trace,
    trace_from_workload,
)
from repro.serving.workload import AvatarWorkload, saturation_workload


__all__ = [
    "AdmissionControl",
    "AutoscalePolicy",
    "AvatarWorkload",
    "ChaosFault",
    "ChaosPlan",
    "CircuitBreaker",
    "DeadlineTieredRouter",
    "GroupReport",
    "GroupSpec",
    "LeastLoadedRouter",
    "RecoveryPolicy",
    "Replica",
    "RequestTrace",
    "RoundRobinRouter",
    "RoutingPolicy",
    "ServingReport",
    "failover_route",
    "get_router",
    "health_summary",
    "list_policies",
    "list_routers",
    "list_shapes",
    "make_trace",
    "nearest_rank",
    "report_from_json",
    "report_to_json",
    "resolve_admission",
    "saturation_workload",
    "serve_trace",
    "trace_from_workload",
]
