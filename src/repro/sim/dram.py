"""External-memory channel model.

The single DDR controller of the target platforms is shared by every
streaming flow (non-resident weights, untied biases, branch I/O). Real
memory subsystems interleave bursts from concurrent DMA streams rather
than serving whole multi-megabyte transfers FCFS, so the channel is
modeled as *demand-proportional bandwidth partitioning*: each flow owns a
share of the effective bandwidth proportional to its per-frame traffic,
and transfers within a flow are serialized. This captures steady-state
contention without the convoy artifacts of a strict FCFS queue, and it is
slightly conservative (idle shares are not redistributed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

#: Fraction of peak DDR bandwidth sustainable with realistic access
#: patterns (row activations, refresh, read/write turnaround).
DEFAULT_DDR_EFFICIENCY = 0.93


@dataclass
class DramFlow:
    """One stream's private slice of the channel."""

    name: str
    bytes_per_cycle: float
    free_at: float = 0.0


@dataclass
class DramChannel:
    """Bandwidth-partitioned external-memory channel."""

    bandwidth_gbps: float
    frequency_mhz: float
    efficiency: float = DEFAULT_DDR_EFFICIENCY
    busy_cycles: float = field(default=0.0, init=False)
    bytes_moved: float = field(default=0.0, init=False)
    requests: int = field(default=0, init=False)
    _flows: dict[str, DramFlow] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth_gbps}")
        if self.frequency_mhz <= 0:
            raise ValueError(f"frequency must be positive: {self.frequency_mhz}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1]: {self.efficiency}")

    @cached_property
    def bytes_per_cycle(self) -> float:
        """Effective bytes the whole channel moves per accelerator cycle."""
        return (
            self.bandwidth_gbps * 1e9 * self.efficiency
        ) / (self.frequency_mhz * 1e6)

    def register_flows(self, demands: dict[str, float]) -> None:
        """Assign each flow a bandwidth share proportional to its demand."""
        total = sum(d for d in demands.values() if d > 0)
        for name, demand in demands.items():
            share = demand / total if total > 0 else 0.0
            self._flows[name] = DramFlow(
                name=name,
                bytes_per_cycle=self.bytes_per_cycle * share,
            )

    def reset(self) -> None:
        """Idle every flow and zero the counters, keeping the shares."""
        for flow in self._flows.values():
            flow.free_at = 0.0
        self.busy_cycles = 0.0
        self.bytes_moved = 0.0
        self.requests = 0

    def request(self, flow_name: str, num_bytes: float, now: float) -> float:
        """Enqueue a transfer on a flow; returns its completion time."""
        if num_bytes <= 0:
            return now
        flow = self._flows.get(flow_name)
        if flow is None or flow.bytes_per_cycle <= 0:
            # Unregistered or zero-demand flow: give it the whole channel
            # (used for one-off startup loads of resident weights).
            duration = num_bytes / self.bytes_per_cycle
            self.busy_cycles += duration
            self.bytes_moved += num_bytes
            self.requests += 1
            return now + duration
        start = max(flow.free_at, now)
        duration = num_bytes / flow.bytes_per_cycle
        flow.free_at = start + duration
        self.busy_cycles += num_bytes / self.bytes_per_cycle
        self.bytes_moved += num_bytes
        self.requests += 1
        return flow.free_at
