"""Heterogeneous serving clusters: the replica-group spec.

One :class:`GroupSpec` is N replicas of *one* design with its own
batching policy, window and capacity — e.g. a
latency-optimized design batching eagerly under EDF next to a big-batch
throughput design coalescing frames under FIFO. Several groups serve
together behind a :mod:`routing policy <repro.serving.router>` that
assigns every request to a group, with optional
:mod:`admission control <repro.serving.admission>` that sheds requests
the chosen group cannot serve in time — the telepresence serving shapes
F-CAD targets (tight-deadline speakers on a low-latency tier, background
participants on a throughput tier, load shedding at saturation).

End to end::

    from repro.serving import GroupSpec, serve_trace

    report = serve_trace(
        [
            GroupSpec("latency", fast_profile, replicas=1, policy="edf",
                      batch_window_ms=0.0),
            GroupSpec("throughput", batch_profile, replicas=3,
                      policy="fifo", batch_window_ms=4.0),
        ],
        workload,
        router="deadline",
        admission=True,
    )
    print(report.render())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.policies import POLICIES, list_policies
from repro.sim.runner import FrameLatencyProfile
from repro.utils.checks import check_finite, is_count


@dataclass(frozen=True)
class GroupSpec:
    """One replica group: N copies of one design plus its serving knobs.

    The frozen spec :func:`~repro.serving.engine.serve_trace` builds a
    group from. With autoscaling, ``replicas`` is the *initial* fleet
    size; the controller grows and shrinks it at session time.
    """

    #: Unique group name (appears in per-group SLO slices).
    name: str
    #: Per-frame fill/steady latency model of the group's design (ms).
    profile: FrameLatencyProfile
    #: Number of replicas deployed (initial count under autoscaling).
    replicas: int = 1
    #: Batch-selection policy: "fifo", "edf" or "fair".
    policy: str = "edf"
    #: How long (ms) the dispatcher holds a sub-capacity batch so
    #: co-arriving frames can coalesce; 0 dispatches eagerly.
    batch_window_ms: float = 2.0
    #: Most frames one batch may carry (frames, per replica dispatch).
    max_batch: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a replica group needs a name")
        if not is_count(self.replicas):
            raise ValueError(
                f"replicas must be an int >= 1, got {self.replicas!r}"
            )
        if self.policy not in POLICIES:
            known = ", ".join(list_policies())
            raise KeyError(
                f"unknown scheduling policy {self.policy!r}; "
                f"known policies: {known}"
            )
        check_finite("batch_window_ms", self.batch_window_ms, minimum=0.0)
        if not is_count(self.max_batch):
            raise ValueError(
                f"max_batch must be an int >= 1, got {self.max_batch!r}"
            )
        # A numpy integer is a valid count; store it as a plain int so
        # every report field built from it stays JSON-serializable.
        object.__setattr__(self, "replicas", int(self.replicas))
        object.__setattr__(self, "max_batch", int(self.max_batch))


__all__ = ["GroupSpec"]
