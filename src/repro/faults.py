"""Deterministic fault injection for the fleet runtime.

Tests and the fleet-smoke CI job need a worker that dies on demand, right
after taking a lease. :class:`FaultPlan` describes *when* it dies,
:class:`FaultInjector` counts leases and fires at the configured point.
Plans parse from a compact spec string (``"die-after-leases:1"``) so CI
can arm a spawned worker through the ``REPRO_FLEET_FAULT`` environment
variable without any code.

Faults are deterministic (counter-based, never random) so a faulted run
is as reproducible as a clean one. The serving layer's per-replica fault
grammar follows the same rule — see :mod:`repro.serving.chaos`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Environment variable spawned fleet workers read their fault plan from.
FAULT_ENV = "REPRO_FLEET_FAULT"


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong, and when (all counters 0 = fault disabled)."""

    #: Worker: abandon after receiving the Nth lease — close the
    #: connection without submitting a result, then stop. To the
    #: coordinator this is indistinguishable from a crash.
    die_after_leases: int = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"name:value,name:value"`` fault specs.

        Names mirror the field names with dashes: ``die-after-leases``.
        """
        fields: dict[str, int] = {}
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
                fields[key] = int(float(value))
            except ValueError as exc:
                raise ValueError(
                    f"fault {name!r} needs a numeric value, got {value!r}"
                ) from exc
        return cls(**fields)

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
    """Counts leases and fires the plan's fault at the right moment."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self.leases = 0

    def should_die_on_lease(self) -> bool:
        """Worker-side: called once per granted lease."""
        self.leases += 1
        return (
            self.plan.die_after_leases > 0
            and self.leases >= self.plan.die_after_leases
        )


__all__ = ["FAULT_ENV", "FaultInjector", "FaultPlan"]
