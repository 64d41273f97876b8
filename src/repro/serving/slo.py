"""SLO accounting: latency percentiles, deadline misses, throughput.

A session's outcome is a :class:`ServingReport` — the serving
counterpart of :class:`~repro.sim.runner.SimulationReport` and
:class:`~repro.dse.result.DseResult`: a frozen record that renders as a
table and round-trips through JSON (:func:`report_to_json` /
:func:`report_from_json`) so CI can archive it as an artifact.

Percentiles use the nearest-rank definition (p-th percentile = smallest
value with at least p% of samples at or below it), so a report is an
exact function of the observed latencies — no interpolation noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.utils.sums import ordered_sum
from repro.utils.tables import render_table


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of the presorted ``ordered``;
    0.0 when it is empty."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100]: {q}")
    if not len(ordered):
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class GroupReport:
    """Per-replica-group SLO slice of a cluster serving session."""

    name: str
    policy: str
    #: Always ``"inprocess"``: every replica serves in this process. Kept
    #: so report payloads and their digests stay as they were.
    transport: str
    replicas: int
    max_batch: int
    batch_window_ms: float
    submitted: int  # requests the router admitted into this group
    shed: int  # requests routed here but rejected by admission control
    completed: int
    deadline_misses: int
    latency_p50_ms: float
    latency_p99_ms: float
    mean_batch_size: float
    mean_utilization: float
    #: Replicas added / drained by autoscaling during the session.
    scale_ups: int = 0
    scale_downs: int = 0
    #: Always 0 (no replica is reached over a wire); kept so report
    #: payloads and their digests stay as they were.
    reconnects: int = 0
    #: Replica health summary at session end ("" while every replica
    #: is up; see :func:`~repro.serving.replica.health_summary`).
    health: str = ""
    #: Chaos/recovery accounting (all zero on a fault-free session —
    #: older JSON payloads without these fields keep loading).
    failed: int = 0  # frames that exhausted retries (or had no replica)
    retries: int = 0  # re-enqueues after a batch failure
    hedges: int = 0  # duplicate dispatches to a second replica
    hedge_wins: int = 0  # hedges that finished before the primary
    failovers: int = 0  # frames diverted *to* this group from another
    replicas_lost: int = 0  # replicas that died mid-session
    replicas_replaced: int = 0  # cold replacements provisioned
    degraded_time_ms: float = 0.0  # stall time + degraded service time

    @property
    def offered(self) -> int:
        """Requests the router sent this way, admitted or shed."""
        return self.submitted + self.shed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def miss_rate(self) -> float:
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def failed_rate(self) -> float:
        """Fraction of admitted requests that were never served."""
        return self.failed / self.submitted if self.submitted else 0.0


@dataclass(frozen=True)
class ServingReport:
    """SLO summary of one serving session.

    Units, once and for all: every ``*_ms`` field is milliseconds of
    *session* time (virtual milliseconds on the deterministic clock);
    ``submitted`` / ``completed`` / ``shed`` / ``deadline_misses`` count
    individual frame requests; ``batches`` counts replica dispatches;
    ``replica_utilization`` is busy-time fractions in ``[0, 1]``, one
    entry per replica (every replica that ever served, under
    autoscaling); throughput properties are frames per second.
    """

    policy: str
    avatars: int
    replicas: int
    max_batch: int
    batch_window_ms: float
    submitted: int
    completed: int
    duration_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    queue_mean_ms: float
    deadline_ms: float
    #: Per-avatar deadline budgets when the workload used tiers (empty
    #: means every request had the flat ``deadline_ms`` budget).
    deadline_tiers_ms: tuple[float, ...]
    deadline_misses: int
    batches: int
    mean_batch_size: float
    replica_utilization: tuple[float, ...]
    per_avatar_p99_ms: tuple[float, ...] = field(default=())
    #: Requests rejected by admission control (never reached a replica).
    #: ``submitted`` counts them — they entered the front door — so
    #: ``completed + shed == submitted`` in a fully drained session.
    shed: int = 0
    #: Routing policy of the cluster session ("" for a bare pool).
    router: str = ""
    #: Per-group SLO slices of a cluster session (empty for a single pool).
    groups: tuple[GroupReport, ...] = field(default=())
    #: The serving engine that produced the report: always "heap" (the
    #: event heap of :mod:`repro.serving.engine`); "" in older payloads.
    engine: str = ""
    #: Traffic shape the session's trace was generated from ("" for
    #: workload-driven sessions).
    shape: str = ""
    #: Autoscaling activity: replicas added / drained across all groups
    #: (both 0 when autoscaling was off), and the peak number of
    #: provisioned replicas alive at any instant (0 in payloads that did
    #: not track it).
    scale_ups: int = 0
    scale_downs: int = 0
    peak_replicas: int = 0
    #: Always 0, like :attr:`GroupReport.reconnects`.
    reconnects: int = 0
    #: Chaos/recovery accounting, summed across groups (all zero on a
    #: fault-free session; see :class:`GroupReport` for the per-field
    #: meanings). ``completed + shed + failed == submitted`` in a fully
    #: drained session — no frame ever hangs.
    failed: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    replicas_lost: int = 0
    replicas_replaced: int = 0
    degraded_time_ms: float = 0.0

    @property
    def failed_rate(self) -> float:
        """Fraction of submitted requests that were never served."""
        return self.failed / self.submitted if self.submitted else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of completed frames that blew their deadline."""
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests rejected by admission control.

        The load-shedding SLO: what share of the offered traffic the
        cluster refused in order to keep the accepted share inside its
        deadlines. 0.0 whenever admission control is off.
        """
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def throughput_fps(self) -> float:
        """Decoded frames per second of session time, all avatars together."""
        return (
            1000.0 * self.completed / self.duration_ms
            if self.duration_ms > 0
            else 0.0
        )

    @property
    def deadline_label(self) -> str:
        """The budget(s) misses were counted against, for display."""
        if self.deadline_tiers_ms:
            tiers = "/".join(f"{t:.0f}" for t in self.deadline_tiers_ms)
            return f"@tiers {tiers} ms"
        return f"@{self.deadline_ms:.0f} ms"

    @property
    def mean_utilization(self) -> float:
        if not self.replica_utilization:
            return 0.0
        return ordered_sum(self.replica_utilization) / len(
            self.replica_utilization
        )

    def render(self) -> str:
        rows = [
            ["avatars / replicas", f"{self.avatars} / {self.replicas}"],
            [
                "workload",
                f"{self.completed}/{self.submitted} frames in "
                f"{self.duration_ms:.1f} ms",
            ],
        ]
        if self.engine:
            label = self.engine + (f" / {self.shape}" if self.shape else "")
            rows.append(["engine", label])
        if self.scale_ups or self.scale_downs:
            rows.append(
                [
                    "autoscale",
                    f"+{self.scale_ups} / -{self.scale_downs} replicas "
                    f"(peak {self.peak_replicas})",
                ]
            )
        if self.router:
            rows.append(["router", self.router])
        if self.reconnects:
            rows.append(["transport reconnects", str(self.reconnects)])
        if self.shed or self.router:
            rows.append(
                ["shed", f"{self.shed} ({100 * self.shed_rate:.1f}%)"]
            )
        if self.failed or self.retries or self.hedges or self.failovers:
            rows.append(
                ["failed", f"{self.failed} ({100 * self.failed_rate:.1f}%)"]
            )
            rows.append(
                [
                    "recovery",
                    f"{self.retries} retries, {self.hedges} hedges "
                    f"({self.hedge_wins} won), {self.failovers} failovers",
                ]
            )
        if self.replicas_lost or self.replicas_replaced:
            rows.append(
                [
                    "replicas lost/replaced",
                    f"{self.replicas_lost} / {self.replicas_replaced}",
                ]
            )
        if self.degraded_time_ms:
            rows.append(["degraded time", f"{self.degraded_time_ms:.1f} ms"])
        rows += [
            ["throughput", f"{self.throughput_fps:.1f} FPS"],
            [
                "latency p50/p95/p99",
                f"{self.latency_p50_ms:.2f} / {self.latency_p95_ms:.2f} / "
                f"{self.latency_p99_ms:.2f} ms",
            ],
            [
                "latency mean/max",
                f"{self.latency_mean_ms:.2f} / {self.latency_max_ms:.2f} ms",
            ],
            ["queue wait (mean)", f"{self.queue_mean_ms:.2f} ms"],
            [
                f"deadline misses ({self.deadline_label})",
                f"{self.deadline_misses} ({100 * self.miss_rate:.1f}%)",
            ],
            [
                "batches",
                f"{self.batches} (mean size {self.mean_batch_size:.2f}, "
                f"window {self.batch_window_ms:.1f} ms)",
            ],
            [
                "replica utilization",
                " ".join(f"{100 * u:.0f}%" for u in self.replica_utilization)
                or "-",
            ],
        ]
        for group in self.groups:
            health = f" [{group.health}]" if group.health else ""
            chaos = ""
            if group.failed or group.replicas_lost or group.replicas_replaced:
                chaos = (
                    f", {group.failed} failed, "
                    f"-{group.replicas_lost}/+{group.replicas_replaced} "
                    f"replicas"
                )
            rows.append(
                [
                    f"group {group.name}",
                    f"{group.replicas}x {group.policy}/{group.transport}"
                    f"{health}: "
                    f"{group.completed} done, {group.shed} shed, "
                    f"{group.deadline_misses} missed, p99 "
                    f"{group.latency_p99_ms:.2f} ms{chaos}",
                ]
            )
        return render_table(
            ["SLO", "value"],
            rows,
            title=f"Serving report ({self.policy})",
        )


def report_to_json(report: ServingReport, indent: int = 2) -> str:
    """Serialize a report (derived SLOs included, for easy dashboards)."""
    payload = asdict(report)
    payload["miss_rate"] = report.miss_rate
    payload["shed_rate"] = report.shed_rate
    payload["failed_rate"] = report.failed_rate
    payload["throughput_fps"] = report.throughput_fps
    payload["mean_utilization"] = report.mean_utilization
    for group_payload, group in zip(payload["groups"], report.groups):
        group_payload["shed_rate"] = group.shed_rate
        group_payload["miss_rate"] = group.miss_rate
        group_payload["failed_rate"] = group.failed_rate
    return json.dumps(payload, indent=indent)


def report_from_json(text: str) -> ServingReport:
    """Rebuild a :class:`ServingReport` from :func:`report_to_json` output.

    Tolerant of *older* payloads: fields added since (engine, shape,
    autoscale counters, per-group slices…) fall back to their dataclass
    defaults, so archived CI reports keep loading as the record grows.
    """
    payload = json.loads(text)
    for derived in (
        "miss_rate",
        "shed_rate",
        "failed_rate",
        "throughput_fps",
        "mean_utilization",
    ):
        payload.pop(derived, None)
    payload["replica_utilization"] = tuple(payload["replica_utilization"])
    payload["deadline_tiers_ms"] = tuple(
        payload.get("deadline_tiers_ms", ())
    )
    payload["per_avatar_p99_ms"] = tuple(
        payload.get("per_avatar_p99_ms", ())
    )
    groups = []
    for group_payload in payload.get("groups", ()):
        group_payload = dict(group_payload)
        group_payload.pop("shed_rate", None)
        group_payload.pop("miss_rate", None)
        group_payload.pop("failed_rate", None)
        groups.append(GroupReport(**group_payload))
    payload["groups"] = tuple(groups)
    return ServingReport(**payload)


__all__ = [
    "GroupReport",
    "ServingReport",
    "nearest_rank",
    "report_from_json",
    "report_to_json",
]
