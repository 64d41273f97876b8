"""Vectorized request traces and named traffic shapes.

A :class:`RequestTrace` holds a whole session's arrivals as presorted
numpy arrays (one row per request: arrival time, avatar id, deadline
budget), cheap to generate for millions of requests and cheap for the
event-heap engine (:mod:`repro.serving.engine`) to consume.

Two ways to build a trace:

- :func:`trace_from_workload` expands an
  :class:`~repro.serving.workload.AvatarWorkload` into its avatars'
  arrival streams — one seeded ``random.Random`` stream per avatar, with
  a chained jitter;
- :func:`make_trace` generates large sessions from a named *traffic
  shape* with session churn (avatars joining and leaving mid-session):

  - ``steady``  — every avatar streams for the whole session (optional
    ``churn`` fraction with random sub-window sessions);
  - ``diurnal`` — concurrency follows a smooth one-cycle envelope
    (quiet → peak → quiet), each avatar present for one contiguous
    window sized by its rank;
  - ``flash``   — a steady baseline plus a flash crowd that joins over a
    short ramp and leaves together after a hold.

All times are milliseconds of session time; ``avatar_fps`` is frames per
second per avatar. Generation is deterministic in ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class RequestTrace:
    """One serving session's request stream as flat, presorted arrays.

    ``arrival_ms`` is sorted ascending; row ``i`` is the session's
    ``i``-th submitted request. ``deadline_rel_ms`` holds each request's
    *relative* decode budget in milliseconds (absolute deadline =
    arrival + budget). An ``edf`` group queues one deque per distinct
    budget, and each frame it pops costs one comparison per budget with
    frames queued: a trace with few distinct budgets (``make_trace`` has
    at most ``len(deadline_tiers)``) serves fastest.
    """

    #: Arrival time of each request (ms of session time, sorted ascending).
    arrival_ms: np.ndarray
    #: Avatar id of each request (int64).
    avatar_id: np.ndarray
    #: Relative deadline budget of each request (ms).
    deadline_rel_ms: np.ndarray
    #: Size of the avatar universe (ids are ``0..avatars-1``; churny
    #: shapes may leave some avatars with zero requests).
    avatars: int
    #: The flat deadline budget (ms) the session was configured with.
    deadline_ms: float
    #: Per-avatar deadline tiers (ms), if the session used them.
    deadline_tiers: tuple[float, ...] = ()
    #: Name of the generating traffic shape ("" for workload expansions).
    shape: str = ""
    #: Seed the trace was generated from.
    seed: int = 0

    def __post_init__(self) -> None:
        n = len(self.arrival_ms)
        if len(self.avatar_id) != n or len(self.deadline_rel_ms) != n:
            raise ValueError("trace arrays must have equal length")
        if n == 0:
            raise ValueError("a trace needs at least one request")
        # The engine's queues keep arrival order as index order.
        arrival = self.arrival_ms
        if not (arrival[1:] >= arrival[:-1]).all():
            raise ValueError("trace arrivals must be sorted ascending")
        # A NaN or infinite budget would never trip admission's
        # predicted-miss test nor count as a miss, and a NaN one could not
        # find its EDF deque again (NaN equals no key).
        rel = self.deadline_rel_ms
        if not (rel.min() > 0 and rel.max() < math.inf):
            raise ValueError("deadline budgets must be finite and positive")

    def __len__(self) -> int:
        return len(self.arrival_ms)

    @property
    def requests(self) -> int:
        """Total number of requests in the trace."""
        return len(self.arrival_ms)

    @property
    def span_ms(self) -> float:
        """Arrival span (ms) from the first to the last request."""
        return float(self.arrival_ms[-1] - self.arrival_ms[0])


def trace_from_workload(workload) -> RequestTrace:
    """Expand an :class:`AvatarWorkload` into the trace its avatars submit.

    Each avatar draws from its own ``random.Random`` stream
    (:meth:`~repro.serving.workload.AvatarWorkload.avatar_rng`): a
    uniform initial phase within one frame interval, then one frame per
    interval, each step plus a uniform jitter drawn after the frame it
    follows. Arrivals are sorted stably, so ties keep avatar order.
    """
    n = workload.avatars * workload.frames_per_avatar
    arrival = np.empty(n, dtype=np.float64)
    avatar = np.empty(n, dtype=np.int64)
    rel = np.empty(n, dtype=np.float64)
    interval = workload.frame_interval_ms
    jitter = workload.jitter_ms
    pos = 0
    for avatar_id in range(workload.avatars):
        rng = workload.avatar_rng(avatar_id)
        budget = workload.deadline_for(avatar_id)
        next_arrival = rng.uniform(0.0, interval)
        for _ in range(workload.frames_per_avatar):
            arrival[pos] = next_arrival
            avatar[pos] = avatar_id
            rel[pos] = budget
            pos += 1
            step = rng.uniform(-jitter, jitter) if jitter else 0.0
            next_arrival += interval + step
    order = np.argsort(arrival, kind="stable")
    return RequestTrace(
        arrival_ms=arrival[order],
        avatar_id=avatar[order],
        deadline_rel_ms=rel[order],
        avatars=workload.avatars,
        deadline_ms=workload.deadline_ms,
        deadline_tiers=workload.deadline_tiers,
        shape="",
        seed=workload.seed,
    )


# ---------------------------------------------------------------------------
# traffic shapes: (avatars, duration_ms, interval_ms, rng) -> (join, leave)
# ---------------------------------------------------------------------------
def _steady_windows(
    avatars: int,
    duration_ms: float,
    interval_ms: float,
    rng: np.random.Generator,
    churn: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-session presence; ``churn`` fraction get random sub-windows."""
    if not 0.0 <= churn <= 1.0:
        raise ValueError("churn must be in [0, 1]")
    join = rng.uniform(0.0, min(interval_ms, duration_ms), avatars)
    leave = np.full(avatars, duration_ms)
    churners = int(round(churn * avatars))
    if churners:
        # The last `churners` avatars join late and leave early: a random
        # dwell of 25-50% of the session starting in its first half.
        join_c = rng.uniform(0.0, 0.5 * duration_ms, churners)
        dwell = rng.uniform(0.25, 0.5, churners) * duration_ms
        join[avatars - churners :] = join_c
        leave[avatars - churners :] = np.minimum(join_c + dwell, duration_ms)
    return join, leave


def _diurnal_windows(
    avatars: int,
    duration_ms: float,
    interval_ms: float,
    rng: np.random.Generator,
    floor: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """One quiet→peak→quiet concurrency cycle over the session.

    Avatar ``i``'s rank ``i/avatars`` decides its presence window: the
    target concurrency at time ``t`` is
    ``floor + (1-floor) * (1 - cos(2*pi*t/D)) / 2`` of the fleet, and an
    avatar is present exactly while the envelope sits above its rank —
    low ranks stream all session, high ranks only around the peak.
    """
    if not 0.0 <= floor < 1.0:
        raise ValueError("diurnal floor must be in [0, 1)")
    rank = np.arange(avatars, dtype=np.float64) / avatars
    q = np.clip((rank - floor) / (1.0 - floor), 0.0, 1.0)
    theta = np.arccos(1.0 - 2.0 * q)  # 0 (always on) .. pi (never on)
    join = duration_ms * theta / (2.0 * math.pi)
    leave = duration_ms * (1.0 - theta / (2.0 * math.pi))
    # Desynchronize joins by up to one frame interval so same-rank-ish
    # avatars don't all arrive on the same instant.
    join = join + rng.uniform(0.0, interval_ms, avatars)
    return join, np.maximum(leave, join)


def _flash_windows(
    avatars: int,
    duration_ms: float,
    interval_ms: float,
    rng: np.random.Generator,
    base: float = 0.2,
    spike_at: float = 0.3,
    ramp: float = 0.05,
    hold: float = 0.3,
) -> tuple[np.ndarray, np.ndarray]:
    """A steady baseline plus a flash crowd.

    ``base`` of the fleet streams the whole session; everyone else joins
    inside a ``ramp``-long window starting at ``spike_at`` and leaves
    after ``hold`` (all three as fractions of the session).
    """
    if not 0.0 < base <= 1.0:
        raise ValueError("flash base fraction must be in (0, 1]")
    baseline = max(1, int(round(base * avatars)))
    join = np.empty(avatars, dtype=np.float64)
    leave = np.full(avatars, duration_ms)
    join[:baseline] = rng.uniform(
        0.0, min(interval_ms, duration_ms), baseline
    )
    crowd = avatars - baseline
    if crowd:
        join_c = spike_at * duration_ms + rng.uniform(
            0.0, max(ramp * duration_ms, 1e-9), crowd
        )
        join[baseline:] = join_c
        leave[baseline:] = np.minimum(join_c + hold * duration_ms, duration_ms)
    return join, np.maximum(leave, join)


_SHAPES: dict[str, Callable[..., tuple[np.ndarray, np.ndarray]]] = {
    "steady": _steady_windows,
    "diurnal": _diurnal_windows,
    "flash": _flash_windows,
}


def list_shapes() -> list[str]:
    """Names of the built-in traffic shapes."""
    return sorted(_SHAPES)


def make_trace(
    avatars: int,
    duration_s: float,
    shape: str = "steady",
    avatar_fps: float = 30.0,
    deadline_ms: float = 50.0,
    deadline_tiers: tuple[float, ...] = (),
    jitter_ms: float = 0.0,
    seed: int = 0,
    **shape_params,
) -> RequestTrace:
    """Generate a session trace from a named traffic shape.

    Each avatar gets a presence window ``[join, leave)`` from the shape
    and streams one frame every ``1000/avatar_fps`` ms inside it, with
    optional uniform ±``jitter_ms`` arrival jitter per frame. Deadlines
    follow the same tiering rule as :class:`AvatarWorkload` (avatar ``i``
    gets ``deadline_tiers[i % len]``; no tiers means the flat
    ``deadline_ms``). Extra keyword arguments go to the shape (e.g.
    ``churn=`` for ``steady``, ``floor=`` for ``diurnal``, ``base=`` /
    ``spike_at=`` / ``ramp=`` / ``hold=`` for ``flash``).

    Deterministic in ``seed``: same arguments, same trace, bit for bit.
    """
    if avatars < 1:
        raise ValueError("need at least one avatar")
    if not 0 < duration_s < math.inf:
        raise ValueError("duration must be positive")
    if not 0 < avatar_fps < math.inf:
        raise ValueError("avatar fps must be positive")
    if not 0 < deadline_ms < math.inf:
        raise ValueError("deadline must be positive")
    if not all(0 < tier < math.inf for tier in deadline_tiers):
        raise ValueError("deadline tiers must be positive")
    interval_ms = 1000.0 / avatar_fps
    if not 0 <= jitter_ms < interval_ms:
        raise ValueError("jitter must be in [0, frame interval)")
    try:
        windows = _SHAPES[shape]
    except KeyError:
        known = ", ".join(sorted(_SHAPES))
        raise KeyError(
            f"unknown traffic shape {shape!r}; known shapes: {known}"
        ) from None
    duration_ms = duration_s * 1000.0
    rng = np.random.default_rng(seed)
    join, leave = windows(avatars, duration_ms, interval_ms, rng, **shape_params)

    # One frame per interval inside [join, leave): counts, then arrivals
    # via a flat repeat + per-avatar frame index, all vectorized. Each
    # full-length column is built in place and every intermediate is
    # dropped once used, so a million-request trace peaks at a few
    # columns.
    counts = leave - join
    del leave
    counts /= interval_ms
    np.ceil(counts, out=counts)
    counts[~(counts > 0)] = 0.0  # an empty window streams no frame
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        raise ValueError(
            "traffic shape produced an empty trace; "
            "increase duration or avatar fps"
        )
    avatar = np.repeat(np.arange(avatars, dtype=np.int64), counts)
    starts = np.repeat(join, counts)
    del join
    # Each frame's index within its avatar's stream: its flat index less
    # its avatar's first (the exclusive prefix sum of the counts).
    first = np.cumsum(counts)
    first -= counts
    frame_index = np.repeat(first, counts)
    del first, counts
    np.subtract(np.arange(total, dtype=np.int64), frame_index, out=frame_index)
    arrival = frame_index.astype(np.float64)
    del frame_index
    arrival *= interval_ms
    arrival += starts
    if jitter_ms:
        arrival += rng.uniform(-jitter_ms, jitter_ms, total)
        np.maximum(arrival, starts, out=arrival)  # never before the join
    del starts
    order = np.argsort(arrival, kind="stable")
    arrival = arrival[order]
    avatar = avatar[order]
    del order
    # A budget follows its avatar, so the sorted avatars give it.
    if deadline_tiers:
        tiers = np.asarray(deadline_tiers, dtype=np.float64)
        rel = tiers[avatar % len(deadline_tiers)]
    else:
        rel = np.full(total, deadline_ms)
    return RequestTrace(
        arrival_ms=arrival,
        avatar_id=avatar,
        deadline_rel_ms=rel,
        avatars=avatars,
        deadline_ms=deadline_ms,
        deadline_tiers=deadline_tiers,
        shape=shape,
        seed=seed,
    )


__all__ = [
    "RequestTrace",
    "list_shapes",
    "make_trace",
    "trace_from_workload",
]
