"""Pluggable request routing across heterogeneous replica groups.

A router answers one question per request: which replica group (the
engine's live view of a :class:`~repro.serving.cluster.GroupSpec`)
should decode this frame? It sees the request's *relative* deadline
budget and every group's live state (queue depth, in-flight frames,
latency profile), and must be deterministic — same cluster state, same
answer — so sessions stay bit-identical per seed.

- ``round-robin``   — cycle the groups; the baseline, blind to both load
  and deadlines.
- ``least-loaded``  — smallest estimated backlog (in milliseconds of
  work per replica, so a big-batch group and a low-latency group are
  compared fairly).
- ``deadline``      — deadline-tiered: of the groups whose *estimated*
  response latency fits the request's budget, pick the highest-capacity
  one (lax deadlines ride the big-batch group); when none fits, fall
  back to the quickest group. Tight deadlines therefore land on the
  low-latency group exactly when the throughput tier cannot honour them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:
    from repro.serving.engine import _EngineGroup


@runtime_checkable
class RoutingPolicy(Protocol):
    """Pick the replica group that should serve a request."""

    name: str

    def route(
        self,
        deadline_rel_ms: float,
        now_ms: float,
        groups: Sequence["_EngineGroup"],
    ) -> int:
        """Index into ``groups`` of the chosen replica group."""
        ...


class RoundRobinRouter:
    """Cycle through the groups in order, one request each."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(
        self,
        deadline_rel_ms: float,
        now_ms: float,
        groups: Sequence["_EngineGroup"],
    ) -> int:
        index = self._next % len(groups)
        self._next += 1
        return index


class LeastLoadedRouter:
    """Send each request to the group with the least queued work.

    Backlog is measured in estimated milliseconds until a new frame would
    start service (queue + in-flight frames, divided by the group's
    per-replica drain rate), so groups of different designs and sizes are
    compared on a common scale. Ties break on group index.
    """

    name = "least-loaded"

    def route(
        self,
        deadline_rel_ms: float,
        now_ms: float,
        groups: Sequence["_EngineGroup"],
    ) -> int:
        return min(
            range(len(groups)), key=lambda i: (groups[i].backlog_ms(), i)
        )


class DeadlineTieredRouter:
    """Deadline-tiered routing: lax budgets ride the big-batch tier.

    Each request's *home* tier is the highest-capacity group whose
    **unloaded** latency (batching window + cold fill) fits the request's
    deadline budget — so lax frames ride the big-batch tier and tight
    frames land on the low-latency tier, which is the only one that can
    honour them. Requests no group could serve even unloaded go to the
    quickest group (they will likely miss; admission control is the tool
    that sheds them instead).

    The classification is deliberately *static* — a function of the
    request's budget and the groups' designs, not of queue depths. A
    load-based fallback ("send it wherever is emptiest") sounds smarter
    but inverts the architecture exactly when it matters: at overload the
    big-batch tier backs up first, every lax frame then chases the idle
    low-latency tier, and the tight-deadline traffic that tier exists to
    protect drowns in spillover. Strict tiering keeps the fast tier's
    queue short at any load; overload surfaces as shedding (or misses) in
    the tier that is actually over capacity.

    The answer for a budget moves only when a group's ``capacity_fps``
    does (``unloaded_ms`` is fixed), so it is kept per budget in the
    ``tier_picks`` table that a session's groups share and that any
    group's fleet change clears (see ``_EngineGroup.refresh_fleet``).
    The router itself holds no state; a group view without the table is
    answered afresh.
    """

    name = "deadline"

    def route(
        self,
        deadline_rel_ms: float,
        now_ms: float,
        groups: Sequence["_EngineGroup"],
    ) -> int:
        try:
            return groups[0].tier_picks[deadline_rel_ms]
        except KeyError:
            pick = _tiered_pick(range(len(groups)), deadline_rel_ms, groups)
            groups[0].tier_picks[deadline_rel_ms] = pick
            return pick
        except AttributeError:
            return _tiered_pick(range(len(groups)), deadline_rel_ms, groups)


def _tiered_pick(
    candidates: Iterable[int],
    deadline_rel_ms: float,
    groups: Sequence["_EngineGroup"],
) -> int:
    """The deadline-tiered choice among ``candidates`` (ascending indices,
    at least one): the highest-capacity group whose unloaded latency fits
    the budget, else the quickest one.

    One pass; strict comparisons keep the lowest index on ties, for both
    the home tier and the quickest group.
    """
    home = -1
    home_fps = 0.0
    quickest = -1
    quickest_ms = 0.0
    for i in candidates:
        group = groups[i]
        unloaded = group.unloaded_ms
        if unloaded <= deadline_rel_ms:
            fps = group.capacity_fps
            if home < 0 or fps > home_fps:
                home, home_fps = i, fps
        if quickest < 0 or unloaded < quickest_ms:
            quickest, quickest_ms = i, unloaded
    return home if home >= 0 else quickest


def failover_route(
    preferred: int,
    deadline_rel_ms: float,
    groups: Sequence["_EngineGroup"],
    available: Sequence[bool],
) -> int | None:
    """Failure-aware rerouting on top of any router's choice.

    When the ``preferred`` group is available the answer is the
    preferred group — failover never perturbs a healthy cluster. When it
    is not (circuit breaker open, pool exhausted), the request diverts
    with :class:`DeadlineTieredRouter` semantics restricted to the
    available groups: the highest-capacity one whose unloaded latency
    fits the budget, else the quickest one. ``None`` means *no* group
    can serve — the front door fails the frame rather than queueing it
    nowhere.
    """
    if available[preferred]:
        return preferred
    candidates = [i for i, ok in enumerate(available) if ok]
    if not candidates:
        return None
    return _tiered_pick(candidates, deadline_rel_ms, groups)


_ROUTERS: dict[str, Callable[[], RoutingPolicy]] = {
    "round-robin": RoundRobinRouter,
    "least-loaded": LeastLoadedRouter,
    "deadline": DeadlineTieredRouter,
}


def get_router(name: str | RoutingPolicy) -> RoutingPolicy:
    """Look a routing policy up by name (or pass an instance through)."""
    if not isinstance(name, str):
        return name
    try:
        return _ROUTERS[name]()
    except KeyError:
        known = ", ".join(sorted(_ROUTERS))
        raise KeyError(
            f"unknown routing policy {name!r}; known routers: {known}"
        ) from None


def list_routers() -> list[str]:
    """Names of the built-in routing policies."""
    return sorted(_ROUTERS)


__all__ = [
    "DeadlineTieredRouter",
    "LeastLoadedRouter",
    "RoundRobinRouter",
    "RoutingPolicy",
    "failover_route",
    "get_router",
    "list_routers",
]
