"""Resource budgets — the ``{Cmax, Mmax, BWmax}`` triple of the paper.

The budget is the common currency between devices, the DSE engine, and the
resource models:

- ``compute``   — number of multiplier units (DSP slices on FPGA, MAC units
  on ASIC); how many MACs each sustains per cycle depends on the
  quantization scheme (see :mod:`repro.quant.schemes`);
- ``memory``    — on-chip memory in BRAM18K-block equivalents (18 Kb each);
- ``bandwidth`` — external memory bandwidth in GB/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ResourceBudget:
    """An upper bound on the three resources an accelerator may consume."""

    compute: int
    memory: int
    bandwidth_gbps: float

    def __post_init__(self) -> None:
        if self.compute < 0 or self.memory < 0 or self.bandwidth_gbps < 0:
            raise ValueError(f"budget components must be non-negative: {self}")
        if not math.isfinite(self.bandwidth_gbps):
            raise ValueError(f"budget bandwidth must be finite: {self}")

    def scaled(self, fraction: float) -> "ResourceBudget":
        """A proportionally smaller budget (used to split across branches)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return ResourceBudget(
            compute=int(self.compute * fraction),
            memory=int(self.memory * fraction),
            bandwidth_gbps=self.bandwidth_gbps * fraction,
        )

    def fits(self, compute: float, memory: float, bandwidth_gbps: float) -> bool:
        """Whether a usage triple fits inside this budget."""
        return (
            compute <= self.compute
            and memory <= self.memory
            and bandwidth_gbps <= self.bandwidth_gbps + 1e-9
        )

    def with_compute(self, compute: int) -> "ResourceBudget":
        return replace(self, compute=compute)

    def with_memory(self, memory: int) -> "ResourceBudget":
        return replace(self, memory=memory)

    def with_bandwidth(self, bandwidth_gbps: float) -> "ResourceBudget":
        return replace(self, bandwidth_gbps=bandwidth_gbps)
