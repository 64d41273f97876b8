"""Avatar decode serving: batching onto simulated accelerator replicas.

F-CAD's end product is an accelerator that decodes codec avatars for live
telepresence. This package is the *workload* layer on top of the design
flow: take DSE-selected designs, deploy replicas of them, and serve
decode requests from many concurrent avatars under latency SLOs —

- :mod:`~repro.serving.replica`   — replicas driven by cycle-accurate
  fill/steady-state latency profiles;
- :mod:`~repro.serving.policies`  — FIFO / deadline-EDF / per-avatar
  fairness batch selection;
- :mod:`~repro.serving.cluster`   — heterogeneous replica groups behind
  one front door;
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

One design, one pool::

    from repro import FCad
    from repro.serving import serve_from_result

    result = FCad(network=..., device=...).run()
    report = serve_from_result(
        result, avatars=64, replicas=4, policy="edf", seed=0
    )
    print(report.render())

A heterogeneous cluster (a low-latency tier next to a big-batch tier,
deadline-tiered routing, load shedding at saturation)::

    from repro.serving import serve_from_results

    report = serve_from_results(
        [(latency_result, 1), (throughput_result, 3)],
        avatars=64,
        router="deadline",
        admission=True,
    )
"""

from __future__ import annotations

from repro.fcad.flow import FcadResult
from repro.sim.runner import FrameLatencyProfile
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
from repro.serving.replica import (
    Replica,
    ReplicaPool,
    health_summary,
    pool_from_result,
)
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
from repro.serving.workload import (
    AvatarWorkload,
    canned_workload,
    replay_workload,
    saturation_workload,
)


def serve_from_result(
    result: FcadResult,
    avatars: int = 16,
    replicas: int = 1,
    policy: str = "fifo",
    frames_per_avatar: int = 30,
    avatar_fps: float = 30.0,
    deadline_ms: float = 50.0,
    deadline_tiers: tuple[float, ...] = (),
    jitter_ms: float = 0.0,
    batch_window_ms: float = 2.0,
    max_batch: int | None = None,
    seed: int = 0,
    sim_frames: int = 8,
    profile: "FrameLatencyProfile | None" = None,
    chaos: ChaosPlan | None = None,
    recovery: RecoveryPolicy | None = None,
) -> ServingReport:
    """``FCad.run`` → serving report, in one call.

    Samples the design's per-frame latency from the cycle-accurate
    simulator (pass a ``profile`` you already sampled to skip that run),
    deploys ``replicas`` copies, and serves ``avatars`` concurrent frame
    streams (each at ``avatar_fps``, each frame due ``deadline_ms`` after
    it arrives — or its tier's budget when ``deadline_tiers`` is given)
    under the chosen policy.
    """
    pool = pool_from_result(
        result,
        replicas=replicas,
        max_batch=max_batch,
        sim_frames=sim_frames,
        profile=profile,
    )
    workload = AvatarWorkload(
        avatars=avatars,
        frames_per_avatar=frames_per_avatar,
        frame_interval_ms=1000.0 / avatar_fps,
        deadline_ms=deadline_ms,
        deadline_tiers=deadline_tiers,
        jitter_ms=jitter_ms,
        seed=seed,
    )
    return serve_trace(
        pool,
        workload,
        policy=policy,
        batch_window_ms=batch_window_ms,
        max_batch=max_batch,
        chaos=chaos,
        recovery=recovery,
    )


def serve_from_results(
    results,
    avatars: int = 16,
    router: str | RoutingPolicy = "deadline",
    admission: AdmissionControl | bool | None = None,
    frames_per_avatar: int = 30,
    avatar_fps: float = 30.0,
    deadline_ms: float = 50.0,
    deadline_tiers: tuple[float, ...] = (),
    jitter_ms: float = 0.0,
    seed: int = 0,
    sim_frames: int = 8,
    chaos: ChaosPlan | None = None,
    recovery: RecoveryPolicy | None = None,
) -> ServingReport:
    """Serve one workload on a heterogeneous cluster of explored designs.

    ``results`` is a sequence of ``(FcadResult, replicas)`` pairs (or
    ready :class:`GroupSpec` objects, passed through); each result
    becomes one replica group via :meth:`FcadResult.serving_group`,
    named ``group<i>`` unless the spec names it. The router assigns each frame to a group by its deadline
    budget; ``admission=True`` enables load shedding.
    """
    groups = []
    for index, entry in enumerate(results):
        if isinstance(entry, GroupSpec):
            groups.append(entry)
            continue
        result, replicas = entry
        groups.append(
            result.serving_group(
                name=f"group{index}",
                replicas=replicas,
                sim_frames=sim_frames,
            )
        )
    workload = AvatarWorkload(
        avatars=avatars,
        frames_per_avatar=frames_per_avatar,
        frame_interval_ms=1000.0 / avatar_fps,
        deadline_ms=deadline_ms,
        deadline_tiers=deadline_tiers,
        jitter_ms=jitter_ms,
        seed=seed,
    )
    return serve_trace(
        groups,
        workload,
        router=router,
        admission=admission,
        chaos=chaos,
        recovery=recovery,
    )


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
    "ReplicaPool",
    "RequestTrace",
    "RoundRobinRouter",
    "RoutingPolicy",
    "ServingReport",
    "canned_workload",
    "failover_route",
    "get_router",
    "health_summary",
    "list_policies",
    "list_routers",
    "list_shapes",
    "make_trace",
    "nearest_rank",
    "pool_from_result",
    "replay_workload",
    "report_from_json",
    "report_to_json",
    "resolve_admission",
    "saturation_workload",
    "serve_from_result",
    "serve_from_results",
    "serve_trace",
    "trace_from_workload",
]
