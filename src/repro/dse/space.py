"""The multi-branch dynamic design space (paper Table III).

Per branch: a batch size plus one ``(cpf, kpf, h)`` triple per stage. The
space is *dynamic* because its dimensionality follows the network: more
branches or more layers per branch widen it. :func:`get_pf` is Algorithm 2's
``GetPF``: it realizes a scalar parallelism target as a concrete legal
triple, preferring channel parallelism and falling back to H-partitioning
when the channel dimensions saturate — the reason thin high-resolution
layers scale on this architecture but not on DNNBuilder's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.config import StageConfig
from repro.construction.fusion import FusedStage
from repro.construction.reorg import PipelinePlan


@dataclass(frozen=True)
class Customization:
    """User-facing knobs of Table III: targeted batch sizes, priorities,
    and the optional constraints the paper lists ("maximum parallelism,
    maximum batch size, different branch priority").

    The paper's VR use case renders two HD textures (one per eye) but only
    one shared geometry, hence the ``{1, 2, 2}`` default for the decoder.
    ``max_h = 1`` degrades the architecture to two-level (channel-only)
    parallelism — the ablation that shows why the 3-D parallelism matters.
    """

    batch_sizes: tuple[int, ...]
    priorities: tuple[float, ...]
    max_h: int | None = None
    max_pf: int | None = None

    def __post_init__(self) -> None:
        if len(self.batch_sizes) != len(self.priorities):
            raise ValueError(
                "batch_sizes and priorities must have the same length"
            )
        if any(b < 1 for b in self.batch_sizes):
            raise ValueError(f"batch sizes must be >= 1: {self.batch_sizes}")
        if not all(0 <= p < math.inf for p in self.priorities):
            raise ValueError(
                f"priorities must be finite and >= 0: {self.priorities}"
            )
        if self.max_h is not None and self.max_h < 1:
            raise ValueError(f"max_h must be >= 1: {self.max_h}")
        if self.max_pf is not None and self.max_pf < 1:
            raise ValueError(f"max_pf must be >= 1: {self.max_pf}")

    @classmethod
    def uniform(
        cls,
        num_branches: int,
        batch_size: int = 1,
        priority: float = 1.0,
        max_h: int | None = None,
        max_pf: int | None = None,
    ) -> "Customization":
        return cls(
            batch_sizes=tuple([batch_size] * num_branches),
            priorities=tuple([priority] * num_branches),
            max_h=max_h,
            max_pf=max_pf,
        )

    def validate_for(self, plan: PipelinePlan) -> None:
        if len(self.batch_sizes) != plan.num_branches:
            raise ValueError(
                f"customization covers {len(self.batch_sizes)} branches, "
                f"plan has {plan.num_branches}"
            )


def _pow2_values(cap: int) -> list[int]:
    """1, 2, 4, ... up to ``cap``, with ``cap`` itself as the final value."""
    values = []
    v = 1
    while v < cap:
        values.append(v)
        v *= 2
    values.append(cap)
    return values


def get_pf(
    stage: FusedStage,
    pf_target: int,
    max_h: int | None = None,
    max_pf: int | None = None,
) -> StageConfig:
    """Realize a scalar parallelism target as a legal ``(cpf, kpf, h)``.

    Doubles the smaller of the two channel factors first (mirroring the
    balanced ``cpf = kpf`` example of Fig. 5 (c)); once both channel
    dimensions are exhausted, adds H-partition parallelism. Factors grow as
    powers of two and snap to the (possibly non-power-of-two) dimension cap.

    ``max_h`` / ``max_pf`` impose the customization's maximum-parallelism
    constraints on top of the natural dimension bounds.
    """
    h_cap = stage.h_max if max_h is None else min(stage.h_max, max_h)
    if max_pf is not None:
        pf_target = min(pf_target, max_pf)
    cpf, kpf, h = 1, 1, 1
    while cpf * kpf * h < pf_target:
        if cpf < stage.cpf_max and (cpf <= kpf or kpf >= stage.kpf_max):
            cpf = min(cpf * 2, stage.cpf_max)
        elif kpf < stage.kpf_max:
            kpf = min(kpf * 2, stage.kpf_max)
        elif h < h_cap:
            h = min(h * 2, h_cap)
        else:
            break
    return StageConfig(cpf=cpf, kpf=kpf, h=h)


@dataclass(frozen=True)
class DesignSpace:
    """Summary of a plan's configurable space (for reports and tests)."""

    plan: PipelinePlan
    max_batch_size: int = 8

    def stage_choices(self, branch: int, index: int) -> dict[str, list[int]]:
        stage = self.plan.branches[branch].stages[index].stage
        return {
            "cpf": _pow2_values(stage.cpf_max),
            "kpf": _pow2_values(stage.kpf_max),
            "h": _pow2_values(stage.h_max),
        }

    def log2_size(self) -> float:
        """log2 of the number of distinct configurations in the space."""
        import math

        total = 0.0
        for pipeline in self.plan.branches:
            total += math.log2(self.max_batch_size)
            for planned in pipeline.stages:
                choices = self.stage_choices(pipeline.index, planned.index)
                total += sum(math.log2(len(v)) for v in choices.values())
        return total
