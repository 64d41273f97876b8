"""F-CAD: the three-step automation design flow.

1. **Analysis** — profile the network layer- and branch-wise
   (:mod:`repro.profiler`);
2. **Construction** — fuse layers, separate shared branches, instantiate
   the elastic architecture (:mod:`repro.construction`, :mod:`repro.arch`);
3. **Optimization** — explore the multi-branch design space with the DSE
   engine under the budget and customization (:mod:`repro.dse`).

Usage::

    from repro import FCad, get_device, INT8, Customization

    result = FCad(
        network=build_codec_avatar_decoder(),
        device=get_device("ZU9CG"),
        quant=INT8,
        customization=Customization(batch_sizes=(1, 2, 2),
                                    priorities=(1.0, 1.0, 1.0)),
    ).run()
    print(result.render())

Whole families and device grids go through the batch entry point, which
analyzes and constructs each network once and deduplicates identical
cases. Cache entries are per spec; cases with the same network,
quantization and frequency share Algorithm-2 ladders::

    results = run_sweep(
        sweep_grid(
            networks=[build_codec_avatar_decoder()],
            devices=["Z7045", "ZU17EG", "ZU9CG"],
            quants=["int8", "int16"],
        ),
    )

Each search runs in one process; ``run_sweep(..., workers=N)`` (or
``repro explore --sweep ... --workers N``) runs a sweep's distinct cases
on N forked processes, with the serial sweep's results.

A found design can then be *deployed*: :mod:`repro.serving` batches live
decode requests from many avatars onto simulated replicas of it, which
:meth:`FcadResult.serving_group` turns into one replica group::

    from repro.serving import AvatarWorkload, serve_trace

    workload = AvatarWorkload(avatars=64, frames_per_avatar=30,
                              frame_interval_ms=1000.0 / 30, deadline_ms=50.0)
    report = serve_trace(
        result.serving_group(replicas=4, policy="edf"), workload
    )
    print(report.render())

Several found designs can serve *together* as a heterogeneous cluster —
one group each, with a deadline-aware router splitting the traffic::

    report = serve_trace(
        [fast.serving_group("latency", replicas=1, batch_window_ms=0.0),
         big.serving_group("throughput", replicas=3, policy="fifo")],
        workload, router="deadline", admission=True,
    )
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from repro.dse.objective import MetricsOracle

from repro.analysis.analyzer import NetworkAnalysis, analyze_network
from repro.arch.elastic import ElasticAccelerator
from repro.construction.reorg import PipelinePlan, build_pipeline_plan
from repro.devices.asic import AsicSpec
from repro.devices.budget import ResourceBudget
from repro.devices.fpga import FpgaDevice, get_device
from repro.dse.cache import LocalEvalCache
from repro.dse.engine import DseEngine
from repro.dse.result import DseResult
from repro.dse.space import Customization
from repro.ir.graph import NetworkGraph
from repro.profiler.network import NetworkProfile
from repro.profiler.report import render_branch_table
from repro.quant.schemes import QuantScheme, get_scheme
from repro.utils.checks import check_finite, check_positive, is_count


@dataclass(frozen=True)
class FcadResult:
    """Everything the flow produced, from analysis to the optimized design."""

    network_name: str
    analysis: NetworkAnalysis
    plan: PipelinePlan
    dse: DseResult
    budget: ResourceBudget
    quant: QuantScheme
    frequency_mhz: float

    @property
    def profile(self) -> NetworkProfile:
        return self.analysis.profile

    @property
    def fps(self) -> float:
        return self.dse.best_perf.fps

    @property
    def efficiency(self) -> float:
        return self.dse.best_perf.overall_efficiency

    def accelerator(self) -> ElasticAccelerator:
        """Instantiate the optimized elastic architecture."""
        return ElasticAccelerator(
            plan=self.plan,
            config=self.dse.best_config,
            quant=self.quant,
            frequency_mhz=self.frequency_mhz,
        )

    def frame_latency_profile(self, frames: int = 8, warmup: int = 2):
        """Per-frame decode latency of the found design, from the simulator.

        The returned :class:`~repro.sim.runner.FrameLatencyProfile` splits
        cold-start (weight load + pipeline fill) from steady-state cost —
        what the serving layer (:mod:`repro.serving`) uses to account each
        replica's batches. Deferred import keeps ``fcad`` free of a
        dependency on the simulator package at import time.
        """
        from repro.sim.runner import frame_latency_profile

        return frame_latency_profile(
            plan=self.plan,
            config=self.dse.best_config,
            quant=self.quant,
            bandwidth_gbps=self.budget.bandwidth_gbps,
            frequency_mhz=self.frequency_mhz,
            frames=frames,
            warmup=warmup,
        )

    def serving_group(
        self,
        name: str | None = None,
        replicas: int = 1,
        policy: str = "edf",
        batch_window_ms: float = 2.0,
        max_batch: int | None = None,
        sim_frames: int = 8,
        profile=None,
    ):
        """This design as one replica group of a heterogeneous cluster.

        The bridge from the design flow into the cluster serving layer
        (:mod:`repro.serving.cluster`): sample the design's frame-latency
        profile once and wrap it in a
        :class:`~repro.serving.cluster.GroupSpec` with the group's own
        batching policy and window. Feed several of these — e.g. a
        low-latency design next to a big-batch one — to
        :func:`~repro.serving.engine.serve_trace`.
        """
        from repro.serving.cluster import GroupSpec
        from repro.serving.replica import design_max_batch

        if profile is None:
            profile = self.frame_latency_profile(frames=sim_frames)
        if max_batch is None:
            max_batch = design_max_batch(self.dse.best_config)
        return GroupSpec(
            name=name if name is not None else self.network_name,
            profile=profile,
            replicas=replicas,
            policy=policy,
            batch_window_ms=batch_window_ms,
            max_batch=max_batch,
        )

    def render(self) -> str:
        parts = [
            render_branch_table(self.profile),
            "",
            self.dse.render(),
            "",
            (
                f"budget: {self.budget.compute} DSP, {self.budget.memory} BRAM, "
                f"{self.budget.bandwidth_gbps:.1f} GB/s @ {self.frequency_mhz:.0f} MHz "
                f"({self.quant.name})"
            ),
        ]
        return "\n".join(parts)


class FCad:
    """The end-to-end automation tool."""

    def __init__(
        self,
        network: NetworkGraph,
        device: FpgaDevice | AsicSpec | None = None,
        budget: ResourceBudget | None = None,
        quant: QuantScheme | str = "int8",
        customization: Customization | None = None,
        frequency_mhz: float | None = None,
        alpha: float = 0.05,
    ) -> None:
        if (device is None) == (budget is None):
            raise ValueError("provide exactly one of device or budget")
        check_finite("alpha", alpha, minimum=0.0)
        if isinstance(quant, str):
            quant = get_scheme(quant)
        self.network = network
        self.budget = budget if budget is not None else device.budget()
        self.quant = quant
        if frequency_mhz is None:
            frequency_mhz = (
                device.default_frequency_mhz if device is not None else 200.0
            )
        check_positive("frequency_mhz", frequency_mhz)
        self.frequency_mhz = frequency_mhz
        self.customization = customization
        self.alpha = alpha

    def prepare(self) -> tuple[NetworkAnalysis, PipelinePlan, DseEngine]:
        """Run Analysis and Construction; return the ready-to-search engine."""
        analysis, plan = self._construct()
        return analysis, plan, self._engine(plan)

    def _construct(self) -> tuple[NetworkAnalysis, PipelinePlan]:
        """Analysis and Construction, which depend on the network alone."""
        return analyze_network(self.network), build_pipeline_plan(self.network)

    def _engine(self, plan: PipelinePlan) -> DseEngine:
        """The engine that searches this flow's target over ``plan``."""
        customization = (
            self.customization
            if self.customization is not None
            else Customization.uniform(plan.num_branches)
        )
        return DseEngine(
            plan=plan,
            budget=self.budget,
            customization=customization,
            quant=self.quant,
            frequency_mhz=self.frequency_mhz,
            alpha=self.alpha,
        )

    def _result(
        self, analysis: NetworkAnalysis, plan: PipelinePlan, dse: DseResult
    ) -> FcadResult:
        return FcadResult(
            network_name=self.network.name,
            analysis=analysis,
            plan=plan,
            dse=dse,
            budget=self.budget,
            quant=self.quant,
            frequency_mhz=self.frequency_mhz,
        )

    def run(
        self,
        iterations: int = 20,
        population: int = 200,
        seed: int | random.Random | None = 0,
        workers: int = 1,
        cache: "LocalEvalCache | None" = None,
        rerank_oracle: "MetricsOracle | str | None" = None,
        rerank_top_k: int = 4,
    ) -> FcadResult:
        """Execute Analysis, Construction and Optimization.

        The search runs in this process; ``workers`` must be 1 (a sweep
        runs its cases in parallel with :func:`run_sweep`). ``cache``
        passes in a (possibly warm)
        :class:`~repro.dse.cache.LocalEvalCache`; the default is a fresh
        one.

        The search maximizes the paper's Sec. VI-B1 fitness with the
        constructor's ``alpha``. ``rerank_oracle`` (``"sim"`` /
        ``"serving"`` / an oracle instance) re-measures the analytical
        top-``rerank_top_k`` candidates per generation with an expensive
        oracle and selects the final design by *its* scores: the paper
        fitness of simulated metrics, the SLO fitness of served ones. The
        defaults reproduce the paper's search bit for bit.
        """
        if not is_count(workers) or workers != 1:
            raise ValueError(
                f"workers must be 1, got {workers!r}: one search runs in one "
                f"process; run_sweep(..., workers=N) runs a sweep's cases in "
                f"parallel"
            )
        analysis, plan, engine = self.prepare()
        dse = engine.search(
            iterations=iterations,
            population=population,
            seed=seed,
            cache=cache,
            rerank_oracle=rerank_oracle,
            rerank_top_k=rerank_top_k,
        )
        return self._result(analysis, plan, dse)


def sweep_grid(
    networks: Iterable[NetworkGraph],
    devices: Iterable[FpgaDevice | AsicSpec | str],
    quants: Iterable[QuantScheme | str] = ("int8",),
    customization: Customization | None = None,
    frequency_mhz: float | None = None,
    alpha: float = 0.05,
) -> list[FCad]:
    """Build the cross product of a sweep as a list of flows.

    Device names are looked up in the FPGA database; pass
    :class:`AsicSpec` objects for ASIC targets. Each argument is read
    once, so any iterable works. Feed the result to :func:`run_sweep`.
    """
    devices = [
        get_device(device) if isinstance(device, str) else device
        for device in devices
    ]
    quants = list(quants)
    flows = []
    for network in networks:
        for device in devices:
            for quant in quants:
                flows.append(
                    FCad(
                        network=network,
                        device=device,
                        quant=quant,
                        customization=customization,
                        frequency_mhz=frequency_mhz,
                        alpha=alpha,
                    )
                )
    return flows


def run_sweep(
    flows: Sequence[FCad],
    iterations: int = 20,
    population: int = 200,
    seed: int | random.Random | None = 0,
    workers: int = 1,
    cache: "LocalEvalCache | None" = None,
    rerank_oracle: "MetricsOracle | str | None" = None,
    rerank_top_k: int = 4,
) -> tuple[FcadResult, ...]:
    """Explore a whole batch of flows in one call.

    Analysis and Construction run once per distinct network object, and
    every flow of that network shares their frozen products (its
    result's ``analysis`` and ``plan``); each flow still searches with
    its own engine. Every case draws from one evaluation cache, whose
    entries are per spec; cases with the same network, quantization and
    frequency share the Algorithm-2 ladders. Duplicate cases — same
    network, target, quantization, customization, ``alpha``, and seed —
    are searched exactly once. Results come back in input order, one per
    flow.
    ``cache`` passes in a :class:`~repro.dse.cache.LocalEvalCache`, e.g.
    one a previous sweep in this process filled; because cache entries
    are objective-independent metrics, a sweep under a new ``alpha``
    still hits an old sweep's entries. ``rerank_oracle`` /
    ``rerank_top_k`` apply to every case. ``workers`` > 1 runs the
    distinct cases on that many forked processes, with the serial
    sweep's results but for host timings, and then takes no ``cache``
    (see :meth:`~repro.dse.engine.DseEngine.search_many`).
    """
    flows = list(flows)
    # Keyed by identity: the flows keep every network alive meanwhile.
    constructed: dict[int, tuple[NetworkAnalysis, PipelinePlan]] = {}
    for flow in flows:
        if id(flow.network) not in constructed:
            constructed[id(flow.network)] = flow._construct()
    prepared = [constructed[id(flow.network)] for flow in flows]
    dse_results = DseEngine.search_many(
        [flow._engine(plan) for flow, (_, plan) in zip(flows, prepared)],
        iterations=iterations,
        population=population,
        seed=seed,
        workers=workers,
        cache=cache,
        rerank_oracle=rerank_oracle,
        rerank_top_k=rerank_top_k,
    )
    return tuple(
        flow._result(analysis, plan, dse)
        for flow, (analysis, plan), dse in zip(flows, prepared, dse_results)
    )
