"""DSE result container, rendering, and a stable JSON codec.

The codec (:func:`result_to_dict` / :func:`result_from_dict`) exists so
results survive as plain-JSON artifacts — bench archives and
regression fixtures — without pickle's coupling to class layout. It is
forward-tolerant: fields added after a payload was written simply take
their defaults on load, which the pinned fixture under ``tests/data/``
holds. Keys for fields that no longer exist (the
``surrogate_stats`` block older searches wrote, and the two keys of the
removed in-search process pool) are ignored on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.arch.config import AcceleratorConfig, ConfigError
from repro.arch.serialize import config_from_dict, config_to_dict
from repro.dse.objective import BranchMetrics, OracleStats
from repro.perf.estimator import AcceleratorPerf, BranchPerf, StagePerf
from repro.perf.resources import StageResources
from repro.utils.tables import render_table

RESULT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DseResult:
    """Outcome of one design-space exploration run."""

    best_config: AcceleratorConfig
    best_perf: AcceleratorPerf
    best_fitness: float
    history: tuple[float, ...]
    convergence_iteration: int
    runtime_seconds: float
    evaluations: int  # Algorithm-2 solves actually run (cache misses)
    cache_hits: int
    # Algorithm 2's inner memo tables (GetPF realizations and per-stage
    # latency/resource evaluations): how many inner steps were looked up,
    # and how many were served without recomputation.
    stage_hits: int = 0
    stage_lookups: int = 0
    # Where the wall time went: Algorithm-2 solve time and cache
    # bookkeeping. ``cache_seconds`` also holds objective scoring: each
    # candidate is scored while its solutions are reassembled.
    eval_seconds: float = 0.0
    cache_seconds: float = 0.0
    # The batched Algorithm-2 kernel's phase split of eval_seconds: rung
    # descent over the precomputed ladder, bottleneck-doubling growth, and
    # final branch measurement. Zero on payloads written before the kernel
    # existed.
    ladder_seconds: float = 0.0
    growth_seconds: float = 0.0
    measure_seconds: float = 0.0
    # The objective the search maximized (its stable key, parameters
    # included) and the per-stage oracle accounting: stage 1 is always the
    # analytical oracle; a staged search appends its re-rank oracle.
    objective: str = "paper(alpha=0.05)"
    oracle_stats: tuple[OracleStats, ...] = ()
    # Metrics of the selected design, from whichever oracle selected it
    # (analytical for a plain search, the re-rank oracle for a staged one;
    # serving-oracle metrics carry the replayed p99 / deadline-miss SLOs).
    best_metrics: BranchMetrics | None = None

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def rerank_invocations(self) -> int:
        """Expensive-oracle ``measure`` calls the staged search made."""
        return sum(
            s.invocations for s in self.oracle_stats if s.name != "analytical"
        )

    @property
    def cache_lookups(self) -> int:
        """Bucket-level lookups: one per candidate branch."""
        return self.evaluations + self.cache_hits

    @property
    def bucket_hit_rate(self) -> float:
        """Fraction of candidate-branch lookups served by the result cache."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def stage_hit_rate(self) -> float:
        """Fraction of Algorithm-2 inner steps served by the memo tables."""
        return self.stage_hits / self.stage_lookups if self.stage_lookups else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of all evaluation-path lookups served from a cache.

        Counts both levels of the data path: the bucket-level result cache
        (one lookup per candidate branch) and Algorithm 2's stage-level
        memo tables (one lookup per GetPF realization or per-stage
        latency/resource evaluation) — the denominator is every chance the
        search had to skip recomputation.
        """
        lookups = self.cache_lookups + self.stage_lookups
        hits = self.cache_hits + self.stage_hits
        return hits / lookups if lookups else 0.0

    def render(self) -> str:
        """Table IV-style per-branch report."""
        rows = []
        for branch in self.best_perf.branches:
            rows.append(
                [
                    f"Br.{branch.index + 1}",
                    branch.batch_size,
                    branch.dsp,
                    branch.bram,
                    f"{branch.fps:.1f}",
                    f"{100 * branch.efficiency:.1f}",
                    branch.bottleneck_stage,
                ]
            )
        rows.append(
            [
                "total",
                "-",
                self.best_perf.total_dsp,
                self.best_perf.total_bram,
                f"{self.best_perf.fps:.1f}",
                f"{100 * self.best_perf.overall_efficiency:.1f}",
                f"DSE {self.runtime_seconds:.1f}s "
                f"(converged @ iter {self.convergence_iteration}, "
                f"{100 * self.cache_hit_rate:.0f}% cache hits)",
            ]
        )
        return render_table(
            ["branch", "batch", "DSP", "BRAM", "FPS", "eff %", "note"],
            rows,
            title="F-CAD generated accelerator",
        )


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------
def _perf_to_dict(perf: AcceleratorPerf) -> dict[str, Any]:
    return {
        "frequency_mhz": perf.frequency_mhz,
        "quant_name": perf.quant_name,
        "branches": [
            {
                "index": b.index,
                "output_name": b.output_name,
                "batch_size": b.batch_size,
                "fps": b.fps,
                "efficiency": b.efficiency,
                "dsp": b.dsp,
                "bram": b.bram,
                "bandwidth_gbps": b.bandwidth_gbps,
                "gops": b.gops,
                "bottleneck_stage": b.bottleneck_stage,
                "stages": [
                    {
                        "name": s.name,
                        "latency_cycles": s.latency_cycles,
                        "resources": {
                            "dsp": s.resources.dsp,
                            "bram": s.resources.bram,
                            "stream_bytes_per_frame": (
                                s.resources.stream_bytes_per_frame
                            ),
                            "weights_resident": s.resources.weights_resident,
                        },
                    }
                    for s in b.stages
                ],
            }
            for b in perf.branches
        ],
    }


def _perf_from_dict(data: dict[str, Any]) -> AcceleratorPerf:
    return AcceleratorPerf(
        frequency_mhz=data["frequency_mhz"],
        quant_name=data["quant_name"],
        branches=tuple(
            BranchPerf(
                index=b["index"],
                output_name=b["output_name"],
                batch_size=b["batch_size"],
                fps=b["fps"],
                efficiency=b["efficiency"],
                dsp=b["dsp"],
                bram=b["bram"],
                bandwidth_gbps=b["bandwidth_gbps"],
                gops=b["gops"],
                bottleneck_stage=b["bottleneck_stage"],
                stages=tuple(
                    StagePerf(
                        name=s["name"],
                        latency_cycles=s["latency_cycles"],
                        resources=StageResources(
                            dsp=s["resources"]["dsp"],
                            bram=s["resources"]["bram"],
                            stream_bytes_per_frame=(
                                s["resources"]["stream_bytes_per_frame"]
                            ),
                            weights_resident=s["resources"]["weights_resident"],
                        ),
                    )
                    for s in b["stages"]
                ),
            )
            for b in data["branches"]
        ),
    )


def _metrics_to_dict(metrics: BranchMetrics) -> dict[str, Any]:
    return {
        "fps": list(metrics.fps),
        "meets_batch": list(metrics.meets_batch),
        "oracle": metrics.oracle,
        "p99_ms": metrics.p99_ms,
        "deadline_miss_rate": metrics.deadline_miss_rate,
        "throughput_fps": metrics.throughput_fps,
        "shed_rate": metrics.shed_rate,
        "failed_rate": metrics.failed_rate,
    }


def _metrics_from_dict(data: dict[str, Any]) -> BranchMetrics:
    return BranchMetrics(
        fps=tuple(data["fps"]),
        meets_batch=tuple(bool(ok) for ok in data["meets_batch"]),
        oracle=data.get("oracle", "analytical"),
        p99_ms=data.get("p99_ms"),
        deadline_miss_rate=data.get("deadline_miss_rate"),
        throughput_fps=data.get("throughput_fps"),
        shed_rate=data.get("shed_rate"),
        failed_rate=data.get("failed_rate"),
    )


def result_to_dict(result: DseResult) -> dict[str, Any]:
    """Serialize a result to plain dicts/lists (stable JSON shape).

    The removed in-search process pool's two keys stay, as constants,
    until the next format version: every search runs in one process.
    """
    return {
        "version": RESULT_FORMAT_VERSION,
        "best_config": config_to_dict(result.best_config),
        "best_perf": _perf_to_dict(result.best_perf),
        "best_fitness": result.best_fitness,
        "history": list(result.history),
        "convergence_iteration": result.convergence_iteration,
        "runtime_seconds": result.runtime_seconds,
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "workers": 1,
        "stage_hits": result.stage_hits,
        "stage_lookups": result.stage_lookups,
        "eval_seconds": result.eval_seconds,
        "cache_seconds": result.cache_seconds,
        "overhead_seconds": 0.0,
        "ladder_seconds": result.ladder_seconds,
        "growth_seconds": result.growth_seconds,
        "measure_seconds": result.measure_seconds,
        "objective": result.objective,
        "oracle_stats": [
            {
                "name": s.name,
                "invocations": s.invocations,
                "cache_hits": s.cache_hits,
            }
            for s in result.oracle_stats
        ],
        "best_metrics": (
            _metrics_to_dict(result.best_metrics)
            if result.best_metrics is not None
            else None
        ),
    }


def result_from_dict(data: dict[str, Any]) -> DseResult:
    """Rebuild a result serialized by :func:`result_to_dict`.

    Payloads written before a field existed load fine: absent optional
    keys fall back to the dataclass defaults. Keys this codec no longer
    reads (``surrogate_stats`` and the removed in-search process pool's
    two keys) are ignored.
    """
    version = data.get("version", RESULT_FORMAT_VERSION)
    if version != RESULT_FORMAT_VERSION:
        raise ConfigError(f"unsupported result format version {version}")
    try:
        raw_metrics = data.get("best_metrics")
        return DseResult(
            best_config=config_from_dict(data["best_config"]),
            best_perf=_perf_from_dict(data["best_perf"]),
            best_fitness=data["best_fitness"],
            history=tuple(data["history"]),
            convergence_iteration=data["convergence_iteration"],
            runtime_seconds=data["runtime_seconds"],
            evaluations=data["evaluations"],
            cache_hits=data["cache_hits"],
            stage_hits=data.get("stage_hits", 0),
            stage_lookups=data.get("stage_lookups", 0),
            eval_seconds=data.get("eval_seconds", 0.0),
            cache_seconds=data.get("cache_seconds", 0.0),
            ladder_seconds=data.get("ladder_seconds", 0.0),
            growth_seconds=data.get("growth_seconds", 0.0),
            measure_seconds=data.get("measure_seconds", 0.0),
            objective=data.get("objective", "paper(alpha=0.05)"),
            oracle_stats=tuple(
                OracleStats(
                    name=s["name"],
                    invocations=s["invocations"],
                    cache_hits=s["cache_hits"],
                )
                for s in data.get("oracle_stats", [])
            ),
            best_metrics=(
                _metrics_from_dict(raw_metrics)
                if raw_metrics is not None
                else None
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed result payload: {exc}") from exc


def result_to_json(result: DseResult, indent: int | None = 2) -> str:
    """Serialize a result to a JSON string."""
    return json.dumps(result_to_dict(result), indent=indent)


def result_from_json(text: str) -> DseResult:
    """Rebuild a result from its JSON string form."""
    return result_from_dict(json.loads(text))
