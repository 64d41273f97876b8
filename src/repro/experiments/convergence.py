"""Sec. VII search-speed study: DSE convergence statistics.

The paper performs 10 independent searches per case with N = 20 iterations
and P = 200 candidates; all converge in minutes on a 2.6 GHz i7, with an
average convergence iteration of 9.2 (min 6.8, max 13.6).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.construction.reorg import build_pipeline_plan
from repro.devices.fpga import get_device
from repro.dse.engine import DseEngine
from repro.dse.result import DseResult
from repro.dse.space import Customization
from repro.experiments import paper_constants as paper
from repro.models.codec_avatar import build_codec_avatar_decoder
from repro.quant.schemes import get_scheme
from repro.utils.tables import render_table


@dataclass(frozen=True)
class ConvergenceResult:
    device: str
    quant_name: str
    searches: tuple[DseResult, ...]

    @property
    def convergence_iterations(self) -> list[int]:
        return [s.convergence_iteration for s in self.searches]

    @property
    def avg_iteration(self) -> float:
        return statistics.mean(self.convergence_iterations)

    @property
    def avg_runtime_seconds(self) -> float:
        return statistics.mean(s.runtime_seconds for s in self.searches)

    @property
    def total_evaluations(self) -> int:
        return sum(s.evaluations for s in self.searches)

    @property
    def total_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.searches)

    @property
    def total_stage_hits(self) -> int:
        return sum(s.stage_hits for s in self.searches)

    @property
    def total_stage_lookups(self) -> int:
        return sum(s.stage_lookups for s in self.searches)

    @property
    def combined_hit_rate(self) -> float:
        """Hits over lookups across both cache levels, whole study."""
        lookups = (
            self.total_evaluations
            + self.total_cache_hits
            + self.total_stage_lookups
        )
        hits = self.total_cache_hits + self.total_stage_hits
        return hits / lookups if lookups else 0.0

    @property
    def eval_seconds(self) -> float:
        return sum(s.eval_seconds for s in self.searches)

    @property
    def cache_seconds(self) -> float:
        return sum(s.cache_seconds for s in self.searches)

    @property
    def fitness_spread_pct(self) -> float:
        """Relative spread of the best fitness across seeds."""
        best = [s.best_fitness for s in self.searches]
        mean = statistics.mean(best)
        if mean == 0:
            return 0.0
        return 100.0 * (max(best) - min(best)) / abs(mean)

    def render(self) -> str:
        iters = self.convergence_iterations
        rows = [
            [
                "measured",
                f"{self.avg_iteration:.1f}",
                f"{min(iters)}",
                f"{max(iters)}",
                f"{self.avg_runtime_seconds:.1f}",
                f"{self.fitness_spread_pct:.1f}%",
            ],
            [
                "paper",
                f"{paper.CONVERGENCE_AVG_ITER:.1f}",
                f"{paper.CONVERGENCE_MIN_ITER:.1f}",
                f"{paper.CONVERGENCE_MAX_ITER:.1f}",
                "57-102 (i7 2.6GHz)",
                "-",
            ],
        ]
        return render_table(
            ["source", "avg iter", "min", "max", "runtime s", "fitness spread"],
            rows,
            title=(
                f"DSE convergence on {self.device} ({self.quant_name}), "
                f"{len(self.searches)} independent searches"
            ),
        )


def run_convergence(
    device_name: str = "ZU9CG",
    quant_name: str = "int8",
    searches: int = paper.CONVERGENCE_SEARCHES,
    iterations: int = paper.CONVERGENCE_ITERATIONS,
    population: int = paper.CONVERGENCE_POPULATION,
    heuristic_seed: bool = False,
) -> ConvergenceResult:
    """Run repeated independent searches and collect convergence stats.

    The heuristic seed particle is disabled by default here: the paper's
    study characterizes how fast the *stochastic* search converges from
    random initializations.

    The searches run as one batch (:meth:`DseEngine.search_many`): they
    share an evaluation cache — seeds agree on many in-branch subproblems
    even when their swarms differ — which changes no search's result.
    """
    plan = build_pipeline_plan(build_codec_avatar_decoder())
    device = get_device(device_name)
    quant = get_scheme(quant_name)
    customization = Customization(
        batch_sizes=paper.TABLE4_BATCH_SIZES, priorities=(1.0, 1.0, 1.0)
    )
    engines = [
        DseEngine(
            plan=plan,
            budget=device.budget(),
            customization=customization,
            quant=quant,
            frequency_mhz=device.default_frequency_mhz,
        )
        for _ in range(searches)
    ]
    results = DseEngine.search_many(
        engines,
        iterations=iterations,
        population=population,
        seeds=list(range(searches)),
        heuristic_seed=heuristic_seed,
    )
    return ConvergenceResult(
        device=device_name,
        quant_name=quant_name,
        searches=tuple(results),
    )
