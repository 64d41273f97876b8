"""Ablation studies for F-CAD's three design choices.

The paper motivates (but does not isolate) three mechanisms; these drivers
isolate each one:

1. **3-D vs. 2-D parallelism** — rerun the decoder DSE with ``max_h = 1``
   (H-partitioning disabled). Without the third dimension the architecture
   degenerates to DNNBuilder-style channel-only parallelism and the thin
   HD texture convs cap the whole decoder.
2. **Search strategy** — at an equal candidate-evaluation budget, compare
   the PSO cross-branch search against pure random sampling and against
   the single demand-proportional heuristic split.
3. **Variance penalty** — sweep the fitness penalty weight ``alpha`` and
   observe the trade between total throughput and branch balance.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.dse.cache import LocalEvalCache
from repro.dse.crossbranch import CrossBranchOptimizer
from repro.dse.engine import DseEngine
from repro.dse.space import Customization
from repro.dse.worker import PROCESS_LOCK, EvalSpec, GenerationEvaluator
from repro.models.codec_avatar import build_codec_avatar_decoder
from repro.perf.estimator import AcceleratorPerf, evaluate
from repro.quant.schemes import get_scheme
from repro.utils.rng import make_rng
from repro.utils.tables import render_table

_VR_CUSTOM = dict(batch_sizes=(1, 2, 2), priorities=(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# 1. 3-D vs 2-D parallelism
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelismAblation:
    device: str
    quant_name: str
    full_3d: AcceleratorPerf
    two_level: AcceleratorPerf

    @property
    def texture_speedup(self) -> float:
        """3-D over 2-D on the critical texture branch."""
        return self.full_3d.branches[1].fps / self.two_level.branches[1].fps

    def render(self) -> str:
        rows = []
        for label, perf in (("3-D (cpf,kpf,h)", self.full_3d), ("2-D (h=1)", self.two_level)):
            rows.append(
                [
                    label,
                    " / ".join(f"{b.fps:.1f}" for b in perf.branches),
                    f"{perf.fps:.1f}",
                    perf.total_dsp,
                    f"{100 * perf.overall_efficiency:.1f}",
                ]
            )
        rows.append(
            [
                "texture speedup",
                f"{self.texture_speedup:.1f}x from H-partitioning",
                "-",
                "-",
                "-",
            ]
        )
        return render_table(
            ["architecture", "branch FPS", "decoder FPS", "DSP", "eff %"],
            rows,
            title=f"Ablation: 3-D parallelism on {self.device} ({self.quant_name})",
        )


def run_ablation_parallelism(
    device_name: str = "ZU9CG",
    quant_name: str = "int8",
    iterations: int = 10,
    population: int = 80,
    seed: int = 0,
) -> ParallelismAblation:
    """Disable the H-partition and measure what the decoder loses."""
    plan = build_pipeline_plan(build_codec_avatar_decoder())
    device = get_device(device_name)
    quant = get_scheme(quant_name)

    def search(max_h: int | None) -> AcceleratorPerf:
        engine = DseEngine(
            plan=plan,
            budget=device.budget(),
            customization=Customization(max_h=max_h, **_VR_CUSTOM),
            quant=quant,
            frequency_mhz=device.default_frequency_mhz,
        )
        return engine.search(
            iterations=iterations, population=population, seed=seed
        ).best_perf

    return ParallelismAblation(
        device=device_name,
        quant_name=quant_name,
        full_3d=search(None),
        two_level=search(1),
    )


# ---------------------------------------------------------------------------
# 2. search strategy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SearchAblation:
    strategies: dict[str, AcceleratorPerf]
    fitness: dict[str, float]
    evaluations: int

    def render(self) -> str:
        rows = []
        for name in self.strategies:
            perf = self.strategies[name]
            rows.append(
                [
                    name,
                    f"{self.fitness[name]:.1f}",
                    " / ".join(f"{b.fps:.1f}" for b in perf.branches),
                    f"{perf.fps:.1f}",
                ]
            )
        return render_table(
            ["strategy", "fitness", "branch FPS", "decoder FPS"],
            rows,
            title=(
                "Ablation: cross-branch search strategy "
                f"(~{self.evaluations} candidate evaluations each)"
            ),
        )


def run_ablation_search(
    device_name: str = "ZU9CG",
    quant_name: str = "int8",
    iterations: int = 10,
    population: int = 80,
    seed: int = 0,
) -> SearchAblation:
    """PSO vs pure random sampling vs the heuristic split alone."""
    plan = build_pipeline_plan(build_codec_avatar_decoder())
    device = get_device(device_name)
    quant = get_scheme(quant_name)
    optimizer = CrossBranchOptimizer(
        EvalSpec(
            plan=plan,
            budget=device.budget(),
            customization=Customization(**_VR_CUSTOM),
            quant=quant,
            frequency_mhz=device.default_frequency_mhz,
        )
    )
    # PSO (without the heuristic seed, to isolate the evolution mechanism).
    pso = optimizer.search(
        iterations=iterations,
        population=population,
        seed=seed,
        heuristic_seed=False,
    )
    fitness = {"PSO (Algorithm 1)": pso.best_fitness}
    configs = {"PSO (Algorithm 1)": pso.best_config}

    # Pure random sampling at the same evaluation budget, each drawn
    # population evaluated as one generation and the best updated in
    # particle order; then the heuristic demand-proportional split alone,
    # as a one-row generation.
    run_generation = GenerationEvaluator(
        optimizer.spec, LocalEvalCache(), alpha=optimizer.alpha
    )
    rng = make_rng(seed)
    best_score, best_solutions = float("-inf"), None
    with PROCESS_LOCK:
        for _ in range(iterations):
            generation = run_generation(
                optimizer.init_population(population, rng, heuristic_seed=False)
            )
            for score, (_, solutions) in zip(
                generation.scores, generation.designs
            ):
                if score > best_score:
                    best_score, best_solutions = score, solutions
        heuristic = run_generation([optimizer._heuristic_position()])
    assert best_solutions is not None
    fitness["random sampling"] = best_score
    configs["random sampling"] = AcceleratorConfig(
        branches=tuple(s.config for s in best_solutions)
    )
    fitness["heuristic split only"] = heuristic.scores[0]
    configs["heuristic split only"] = AcceleratorConfig(
        branches=tuple(s.config for s in heuristic.designs[0][1])
    )

    strategies = {
        name: evaluate(plan, config, quant, device.default_frequency_mhz)
        for name, config in configs.items()
    }
    return SearchAblation(
        strategies=strategies,
        fitness=fitness,
        evaluations=iterations * population,
    )


# ---------------------------------------------------------------------------
# 3. differentiated batch scheme
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BatchAblation:
    """Uniform vs per-branch (differentiated) batch customization.

    Finding (see EXPERIMENTS.md): on the elastic architecture, replicating
    a pipeline (batch) and widening it (parallelism) are *fungible* until a
    stage saturates its dimension caps, so the three schemes deliver the
    same stereo avatar rate from near-identical budgets. The {1, 2, 2}
    customization's value is semantic — it requests the number of
    in-flight frames each branch's display path actually needs — rather
    than extra throughput.
    """

    schemes: dict[str, AcceleratorPerf]

    def effective_eye_rate(self, name: str) -> float:
        """Stereo-aware avatar rate: Br.2/Br.3 must render both eyes."""
        perf = self.schemes[name]
        fps = [b.fps for b in perf.branches]
        return min(fps[0], fps[1] / 2.0, fps[2] / 2.0)

    def render(self) -> str:
        rows = []
        for name, perf in self.schemes.items():
            rows.append(
                [
                    name,
                    " / ".join(f"{b.fps:.1f}" for b in perf.branches),
                    f"{self.effective_eye_rate(name):.1f}",
                    perf.total_dsp,
                ]
            )
        return render_table(
            ["batch scheme", "branch FPS", "stereo avatar FPS", "DSP"],
            rows,
            title="Ablation: differentiated batch scheme (two eyes need two textures)",
        )


def run_ablation_batch(
    device_name: str = "Z7045",
    quant_name: str = "int8",
    iterations: int = 8,
    population: int = 60,
    seed: int = 0,
) -> BatchAblation:
    """Why the paper's {1, 2, 2} customization beats uniform batching.

    Stereo VR needs *two* texture/warp outputs per displayed frame (one per
    eye) but only one geometry ("the Br. 1 only outputs one facial geometry
    that can be shared by both eyes"). A uniform batch of 2 therefore
    wastes a whole geometry replica that the differentiated scheme instead
    invests in the critical texture branch — visible on the small Z7045,
    where resources are genuinely scarce.
    """
    plan = build_pipeline_plan(build_codec_avatar_decoder())
    device = get_device(device_name)
    quant = get_scheme(quant_name)
    schemes = {}
    for name, batches in (
        ("uniform {1,1,1}", (1, 1, 1)),
        ("uniform {2,2,2}", (2, 2, 2)),
        ("differentiated {1,2,2}", (1, 2, 2)),
    ):
        engine = DseEngine(
            plan=plan,
            budget=device.budget(),
            customization=Customization(
                batch_sizes=batches, priorities=(1.0, 1.0, 1.0)
            ),
            quant=quant,
            frequency_mhz=device.default_frequency_mhz,
        )
        schemes[name] = engine.search(
            iterations=iterations, population=population, seed=seed
        ).best_perf
    return BatchAblation(schemes=schemes)


# ---------------------------------------------------------------------------
# 4. variance penalty
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AlphaAblation:
    alphas: tuple[float, ...]
    perfs: tuple[AcceleratorPerf, ...]

    def branch_fps(self, idx: int) -> list[float]:
        return [b.fps for b in self.perfs[idx].branches]

    def variance(self, idx: int) -> float:
        return statistics.pvariance(self.branch_fps(idx))

    def total_fps(self, idx: int) -> float:
        return sum(self.branch_fps(idx))

    def render(self) -> str:
        rows = []
        for idx, alpha in enumerate(self.alphas):
            rows.append(
                [
                    f"{alpha:g}",
                    " / ".join(f"{f:.1f}" for f in self.branch_fps(idx)),
                    f"{self.total_fps(idx):.1f}",
                    f"{self.variance(idx):.0f}",
                ]
            )
        return render_table(
            ["alpha", "branch FPS", "sum FPS", "variance"],
            rows,
            title="Ablation: branch-variance penalty (fitness = S - alpha*var)",
        )


def run_ablation_alpha(
    alphas: tuple[float, ...] = (0.0, 0.05, 0.5, 5.0),
    device_name: str = "ZU9CG",
    quant_name: str = "int8",
    iterations: int = 8,
    population: int = 60,
    seed: int = 0,
) -> AlphaAblation:
    """Sweep the fitness variance penalty and record the balance trade."""
    plan = build_pipeline_plan(build_codec_avatar_decoder())
    device = get_device(device_name)
    quant = get_scheme(quant_name)
    perfs = []
    for alpha in alphas:
        engine = DseEngine(
            plan=plan,
            budget=device.budget(),
            customization=Customization(**_VR_CUSTOM),
            quant=quant,
            frequency_mhz=device.default_frequency_mhz,
            alpha=alpha,
        )
        perfs.append(
            engine.search(
                iterations=iterations, population=population, seed=seed
            ).best_perf
        )
    return AlphaAblation(alphas=tuple(alphas), perfs=tuple(perfs))
