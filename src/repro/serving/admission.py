"""Admission control: bounded queues and predicted-deadline-miss shedding.

EDF (and every other work-conserving policy) degrades sharply once the
offered load passes roughly 1.2x of pool capacity: the queue grows
without bound, every frame inherits the backlog's wait, and the miss
rate goes from "the tail" to "everything". Past that point the only way
to keep *accepted* requests inside their deadlines is to refuse some of
them at the front door.

:class:`AdmissionControl` applies two tests when the router has picked a
group for a request:

1. **bounded queue** — reject when the group already holds more than
   ``max_queue_per_replica`` frames per replica (queued + in flight). A
   hard backstop that bounds memory and worst-case wait even when the
   predictor is wrong.
2. **predicted deadline miss** — reject when the group's estimated
   response latency (backlog drain + batching window + service time)
   exceeds ``slack`` times the request's deadline budget. This is the
   deadline-aware part: it starts shedding exactly when the backlog
   crosses the request's deadline horizon — i.e. right around the ~1.2x
   overload point where EDF's misses explode — rather than at any fixed
   queue length.

A shed request is a dropped frame, never a hang: it is counted at once
and tracked as a first-class ``shed_rate`` SLO in the
:class:`~repro.serving.slo.ServingReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.serving.engine import _EngineGroup


@dataclass(frozen=True)
class AdmissionControl:
    """Reject-or-admit policy applied after routing, before enqueueing."""

    #: Hard cap on frames per replica a group may hold (queued plus in
    #: flight); ``None`` disables the bound.
    max_queue_per_replica: int | None = 64
    #: Shed requests whose predicted latency exceeds ``slack`` x budget.
    predict_miss: bool = True
    #: Headroom multiplier on the deadline budget: < 1.0 sheds earlier
    #: (conservative), > 1.0 tolerates predicted near-misses.
    slack: float = 1.0

    def __post_init__(self) -> None:
        cap = self.max_queue_per_replica
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 1
        ):
            # A NaN cap would pass ``cap < 1`` and turn the bound off.
            raise ValueError(
                f"max queue per replica must be an int >= 1, got {cap!r}"
            )
        if not 0 < self.slack < math.inf:
            raise ValueError("admission slack must be positive")

    def admit(self, group: "_EngineGroup", deadline_rel_ms: float) -> bool:
        """True if the request may enter ``group``'s queue.

        The predicted latency is the backlog's drain (the load
        :class:`~repro.serving.router.LeastLoadedRouter` reads), plus the
        batching window, plus the request's own service: a cold fill on
        an empty group, one steady interval behind a backlog. It depends
        only on the backlog and the fleet size, so the group keeps it as
        a table by backlog (:attr:`~repro.serving.engine._EngineGroup.predicted`),
        grown on demand and cleared when the fleet size changes.
        """
        backlog = group.backlog_frames
        cap = self.max_queue_per_replica
        if cap is not None and backlog >= cap * group.replicas:
            return False
        if self.predict_miss:
            predicted = group.predicted
            if backlog >= len(predicted):
                group.extend_predicted(backlog)
            if predicted[backlog] > self.slack * deadline_rel_ms:
                return False
        return True


def resolve_admission(
    admission: "AdmissionControl | bool | None",
) -> AdmissionControl | None:
    """An :class:`AdmissionControl` from an instance, a flag, or ``None``.

    ``True`` means the default controller (bounded queue + predicted-miss
    shedding); ``False``/``None`` means admit everything.
    """
    if admission is None or admission is False:
        return None
    if admission is True:
        return AdmissionControl()
    return admission


__all__ = ["AdmissionControl", "resolve_admission"]
