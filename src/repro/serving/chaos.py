"""Deterministic chaos plans and recovery policy for the serving layer.

Chaos engineering for the serving simulator: a :class:`ChaosPlan`
describes per-replica faults — crash on the Nth dispatched batch,
permanent death past a session time, a one-shot transient stall, a
degraded-latency multiplier — and the serving engine injects them at
dispatch time. Every trigger is a dispatch counter or a session time,
never a wall clock or an RNG, so two runs of the same seeded session
inject *identical* faults.

Spec grammar (comma-separated clauses)::

    crash-at:REP:N      replica REP dies dispatching its Nth batch
                        (1-based); that batch fails at its would-be
                        finish time — the elapsed service time is the
                        failure-detection latency.
    die-at:REP:T        replica REP is dead for any dispatch at or after
                        session time T ms. Death is observed lazily, at
                        the next dispatch — an idle replica dies the
                        moment work reaches it.
    stall:REP:N:D       after REP's Nth batch completes, the replica is
                        held out of rotation for D extra ms (health
                        ``degraded`` while stalled, then ``up``).
    degrade:REP:N:M     from REP's Nth dispatch on, service times
                        stretch by factor M (health ``degraded``).

``REP`` is a replica index, optionally group-qualified:``3`` targets
replica 3 of *every* group (the natural form for a single design), while
``throughput/0`` targets replica 0 of the group named ``throughput``.
Indices refer to session-start replica numbering; replacements provision
with fresh indices past the initial fleet, so a replacement is fault-free
unless a clause targets its index explicitly.

The recovery knobs live in :class:`RecoveryPolicy`; the per-group
trip-and-divert state machine is :class:`CircuitBreaker`. With no chaos
plan and default recovery knobs, no fault ever fires and no recovery
path runs — sessions are bit-identical to the pre-chaos stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.checks import check_finite, check_flag, check_real, is_count

#: Fault kinds and the number of ``:``-separated fields each clause takes
#: (including the kind itself).
_KINDS = {"crash-at": 3, "die-at": 3, "stall": 4, "degrade": 4}


def _check_kind(kind: object) -> None:
    if kind not in _KINDS:
        known = ", ".join(sorted(_KINDS))
        raise ValueError(f"unknown chaos fault {kind!r}; known faults: {known}")


@dataclass(frozen=True)
class ChaosFault:
    """One fault clause, targeting one replica.

    Built directly or by :meth:`ChaosPlan.parse`, a fault is checked
    once, here: a known kind, a replica index ``>= 0``, finite numbers, a
    positive-integer batch ordinal for the batch kinds, a death time
    ``>= 0`` ms, a stall ``> 0`` ms and a degrade multiplier ``> 1``.
    """

    kind: str  # "crash-at" | "die-at" | "stall" | "degrade"
    group: str  # "" = any group
    replica: int
    at: float  # batch ordinal (1-based) or session time ms
    value: float = 0.0  # stall duration ms / degrade multiplier

    def __post_init__(self) -> None:
        kind = self.kind
        _check_kind(kind)
        replica = self.replica
        if not is_count(replica, minimum=0):
            raise ValueError(
                f"replica index must be >= 0 and an integer, got {replica!r}"
            )
        # A numpy integer is stored as a plain int, like GroupSpec's.
        object.__setattr__(self, "replica", int(replica))
        at, value = self.at, self.value
        check_real("at", at)
        check_real("value", value)
        if not (math.isfinite(at) and math.isfinite(value)):
            raise ValueError(
                f"numbers must be finite, got at={at!r}, value={value!r}"
            )
        if kind == "die-at":
            if at < 0:
                raise ValueError(f"death time must be >= 0 ms, got {at!r}")
        elif at < 1 or at != int(at):
            raise ValueError(
                f"batch ordinal must be a positive integer, got {at!r}"
            )
        if kind == "stall" and value <= 0:
            raise ValueError(
                f"stall duration must be positive, got {value!r} ms"
            )
        if kind == "degrade" and value <= 1.0:
            raise ValueError(
                f"degrade multiplier must be > 1, got {value!r}"
            )

    def to_spec(self) -> str:
        rep = f"{self.group}/{self.replica}" if self.group else str(self.replica)
        at = int(self.at) if self.kind != "die-at" else self.at
        if self.kind in ("stall", "degrade"):
            return f"{self.kind}:{rep}:{at}:{self.value}"
        return f"{self.kind}:{rep}:{at}"


@dataclass(frozen=True)
class ChaosPlan:
    """A full chaos plan: every fault of a session, parsed and frozen."""

    faults: tuple[ChaosFault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse the comma-separated clause grammar (see module doc)."""
        faults: list[ChaosFault] = []
        seen: set[tuple[str, str, int]] = set()
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            kind = parts[0].strip()
            _check_kind(kind)
            if len(parts) != _KINDS[kind]:
                raise ValueError(
                    f"chaos fault {clause!r}: expected "
                    f"{_KINDS[kind] - 1} ':'-separated arguments after "
                    f"{kind!r}"
                )
            group, _, index_text = parts[1].strip().rpartition("/")
            try:
                replica = int(index_text)
            except ValueError as exc:
                raise ValueError(
                    f"chaos fault {clause!r}: replica must be an integer "
                    f"index (optionally 'group/index'), got {parts[1]!r}"
                ) from exc
            try:
                at = float(parts[2])
                value = float(parts[3]) if len(parts) > 3 else 0.0
            except ValueError as exc:
                raise ValueError(
                    f"chaos fault {clause!r}: numeric argument expected"
                ) from exc
            try:
                fault = ChaosFault(
                    kind=kind, group=group, replica=replica, at=at, value=value
                )
            except ValueError as exc:
                raise ValueError(f"chaos fault {clause!r}: {exc}") from None
            key = (kind, group, replica)
            if key in seen:
                raise ValueError(
                    f"chaos fault {clause!r}: duplicate {kind!r} clause "
                    f"for replica {parts[1]!r}"
                )
            seen.add(key)
            faults.append(fault)
        return cls(faults=tuple(faults))

    def to_spec(self) -> str:
        """Inverse of :meth:`parse`."""
        return ",".join(fault.to_spec() for fault in self.faults)

    def for_group(self, group_name: str) -> tuple[ChaosFault, ...]:
        return tuple(
            fault
            for fault in self.faults
            if not fault.group or fault.group == group_name
        )

    def states(self, group_name: str) -> dict[int, "ReplicaChaosState"]:
        """Fresh mutable per-replica fault state for one group's session.

        The plan itself stays frozen and reusable; each session gets its
        own counters.
        """
        states: dict[int, ReplicaChaosState] = {}
        for fault in self.for_group(group_name):
            state = states.setdefault(fault.replica, ReplicaChaosState())
            if fault.kind == "crash-at":
                state.crash_at = int(fault.at)
            elif fault.kind == "die-at":
                state.die_at_ms = fault.at
            elif fault.kind == "stall":
                state.stall_at = int(fault.at)
                state.stall_ms = fault.value
            elif fault.kind == "degrade":
                state.degrade_at = int(fault.at)
                state.degrade_factor = fault.value
        return states


@dataclass(frozen=True)
class DispatchOutcome:
    """What the chaos layer decided for one dispatched batch."""

    crashed: bool  # the replica dies; this batch fails
    latency_factor: float  # stretch this batch's service times
    stall_ms: float  # hold the replica out this long after finishing


#: The outcome of every dispatch that is neither crashed, degraded nor
#: stalled, shared rather than built per batch.
_NO_FAULT = DispatchOutcome(crashed=False, latency_factor=1.0, stall_ms=0.0)


class ReplicaChaosState:
    """Mutable fault counters for one replica in one session."""

    def __init__(self) -> None:
        self.crash_at: int = 0
        self.die_at_ms: float | None = None
        self.stall_at: int = 0
        self.stall_ms: float = 0.0
        self.degrade_at: int = 0
        self.degrade_factor: float = 1.0
        self.dispatches = 0

    def on_dispatch(self, start_ms: float) -> DispatchOutcome:
        """Advance the counters for a batch dispatched at ``start_ms``."""
        self.dispatches += 1
        crashed = bool(
            (self.crash_at and self.dispatches >= self.crash_at)
            or (self.die_at_ms is not None and start_ms >= self.die_at_ms)
        )
        factor = (
            self.degrade_factor
            if self.degrade_at and self.dispatches >= self.degrade_at
            else 1.0
        )
        stall = (
            self.stall_ms
            if self.stall_at and self.dispatches == self.stall_at
            else 0.0
        )
        if not crashed and factor == 1.0 and not stall:
            return _NO_FAULT
        return DispatchOutcome(
            crashed=crashed, latency_factor=factor, stall_ms=stall
        )

    @property
    def degraded(self) -> bool:
        return bool(self.degrade_at and self.dispatches >= self.degrade_at)


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the serving stack responds to replica faults.

    The defaults change nothing on a fault-free run: retries, hedging,
    breakers, and replacement only ever act *after* a failure or a
    predicted miss, and without a chaos plan neither occurs.
    """

    #: Times a frame whose batch failed is re-enqueued before it is
    #: counted ``failed`` (it keeps its original arrival and deadline,
    #: so elapsed latency is charged in full).
    max_retries: int = 2
    #: Duplicate a frame to a second free replica when its predicted
    #: completion exceeds its deadline; first finish wins, both replicas
    #: are charged their full occupancy.
    hedge: bool = False
    #: Consecutive failed batches that trip a group's circuit breaker
    #: (0 disables the breaker).
    breaker_threshold: int = 3
    #: Provision a cold replacement this many ms after a replica dies
    #: (``None`` disables replacement).
    replace_after_ms: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_retries", "breaker_threshold"):
            # A NaN count would pass a ``< 0`` test and turn retries or
            # the breaker off.
            value = getattr(self, name)
            if not is_count(value, minimum=0):
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
            # A numpy integer is stored as a plain int, like GroupSpec's.
            object.__setattr__(self, name, int(value))
        check_flag("hedge", self.hedge)
        if self.replace_after_ms is not None:
            check_finite("replace_after_ms", self.replace_after_ms, minimum=0.0)


class CircuitBreaker:
    """Trip after K consecutive batch failures; close on any success.

    While open, the front door diverts new traffic away from the group
    (a lone group's new arrivals fail at the door) — frames already
    queued there stay, and the first batch a surviving or replacement
    replica completes closes the breaker again.
    Purely event-driven, so it flips at deterministic session times.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.consecutive_failures = 0
        self.open = False
        self.trips = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.threshold
            and not self.open
            and self.consecutive_failures >= self.threshold
        ):
            self.open = True
            self.trips += 1

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.open = False


__all__ = [
    "ChaosFault",
    "ChaosPlan",
    "CircuitBreaker",
    "DispatchOutcome",
    "RecoveryPolicy",
    "ReplicaChaosState",
]
