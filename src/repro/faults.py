"""Deterministic fault injection, shared across the repo.

Tests, the fleet-smoke CI job, and the serving chaos layer all need
failures on demand: a dropped message, a slow link, a worker that dies
right after taking a lease. :class:`FaultPlan` describes *what* goes
wrong, :class:`FaultInjector` counts messages/leases and fires at the
configured points. Plans parse from a compact spec string
(``"die-after-leases:1,drop-every:3"``) so CI can arm a spawned worker
through the ``REPRO_FLEET_FAULT`` environment variable without any code.

All faults are deterministic (counter-based, never random) so a faulted
run is as reproducible as a clean one. The serving layer's richer
per-replica fault grammar builds on the same rule — see
:mod:`repro.serving.chaos`.

The fleet runtime (:mod:`repro.dist`) and the serving chaos layer both
import it from here.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

#: Environment variable spawned fleet workers read their fault plan from.
FAULT_ENV = "REPRO_FLEET_FAULT"


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong, and when (all counters 0 = fault disabled)."""

    #: Drop every Nth outbound message (send becomes a no-op).
    drop_every: int = 0
    #: Sleep this long (wall time) before every outbound message.
    delay_ms: float = 0.0
    #: Worker: abandon after receiving the Nth lease — close the
    #: connection without submitting a result, then stop. To the
    #: coordinator this is indistinguishable from a crash.
    die_after_leases: int = 0
    #: Server: abruptly close the client connection after serving the
    #: Nth decode (the reply is never sent). Exercises client reconnect
    #: + resubmission.
    drop_conn_after_decodes: int = 0
    #: Server: stop serving entirely after the Nth decode (close the
    #: listener too). Exercises unrecoverable-death error paths.
    kill_server_after_decodes: int = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"name:value,name:value"`` fault specs.

        Names mirror the field names with dashes:
        ``drop-every``, ``delay-ms``, ``die-after-leases``,
        ``drop-conn-after-decodes``, ``kill-server-after-decodes``.
        """
        fields: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, value = part.partition(":")
            key = name.strip().replace("-", "_")
            if key not in cls.__dataclass_fields__:
                known = ", ".join(
                    f.replace("_", "-") for f in cls.__dataclass_fields__
                )
                raise ValueError(
                    f"unknown fault {name!r}; known faults: {known}"
                )
            try:
                fields[key] = float(value)
            except ValueError as exc:
                raise ValueError(
                    f"fault {name!r} needs a numeric value, got {value!r}"
                ) from exc
        return cls(
            **{
                key: (value if key == "delay_ms" else int(value))
                for key, value in fields.items()
            }
        )

    @classmethod
    def from_env(cls) -> "FaultPlan":
        spec = os.environ.get(FAULT_ENV, "")
        return cls.parse(spec) if spec else cls()

    def to_spec(self) -> str:
        """Inverse of :meth:`parse` (only non-default fields)."""
        parts = []
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value:
                parts.append(f"{name.replace('_', '-')}:{value}")
        return ",".join(parts)


class FaultInjector:
    """Counts events and fires the plan's faults at the right moments."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self.sends = 0
        self.leases = 0
        self.decodes = 0

    def before_send(self, message: dict) -> bool:
        """Called per outbound message; ``False`` means drop it."""
        self.sends += 1
        if self.plan.delay_ms > 0:
            time.sleep(self.plan.delay_ms / 1000.0)
        if self.plan.drop_every and self.sends % self.plan.drop_every == 0:
            return False
        return True

    def should_die_on_lease(self) -> bool:
        """Worker-side: called once per granted lease."""
        self.leases += 1
        return (
            self.plan.die_after_leases > 0
            and self.leases >= self.plan.die_after_leases
        )

    def after_decode(self) -> str:
        """Server-side, called once per served decode.

        Returns ``"ok"``, ``"drop-conn"`` (close this connection without
        replying) or ``"kill"`` (stop the whole server).
        """
        self.decodes += 1
        if (
            self.plan.kill_server_after_decodes
            and self.decodes >= self.plan.kill_server_after_decodes
        ):
            return "kill"
        if (
            self.plan.drop_conn_after_decodes
            and self.decodes == self.plan.drop_conn_after_decodes
        ):
            return "drop-conn"
        return "ok"


__all__ = ["FAULT_ENV", "FaultInjector", "FaultPlan"]
