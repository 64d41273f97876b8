"""The four benchmark workloads: inputs from a seed, the measured call, checks.

Each workload has three parts. ``setup`` runs once per set-up round and
returns the fixture (the serving workloads explore their designs here).
``run`` is the measured program call: it generates the inputs from the
seed and calls the program's public entry points. ``inspect`` runs after
the clock stops: it digests inputs and outputs and checks the outputs.

``repro`` is imported inside the functions, never at module level, so a
set-up round can import the program afresh and the traced run's wrappers
(see ``layers.py``) are the objects these calls reach.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

#: Result fields that hold host timings; everything else is simulated and
#: must repeat bit for bit at a seed.
_HOST_TIME_FIELDS = (
    "runtime_seconds",
    "eval_seconds",
    "cache_seconds",
    "overhead_seconds",
    "ladder_seconds",
    "growth_seconds",
    "measure_seconds",
)


@dataclass
class Outcome:
    """What one run produced, digested and checked (computed off the clock)."""

    operations: int  # searches, sweep cases or sessions
    failed: int  # operations that failed an output check
    items: int  # candidate evaluations (DSE) or simulated requests (serving)
    input_digest: str
    output_digest: str
    problems: list[str] = field(default_factory=list)
    sim: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "dse" or "serving"
    operations: int
    why: str
    setup: Callable[[], Any]
    run: Callable[[Any, int], Any]
    inspect: Callable[[Any, int], Outcome]
    inputs: Callable[[int], str]  # the digest of the inputs a seed gives


def digest(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def reset_process_state() -> None:
    """Cold Algorithm-2 tables before every run, as a user's process has."""
    from repro.dse.worker import clear_process_caches

    clear_process_caches()


# ---------------------------------------------------------------------------
# DSE
# ---------------------------------------------------------------------------
PAPER_SEARCHES = 3
PAPER_SIZE = dict(iterations=20, population=200)
SWEEP_DEVICES = ("Z7045", "ZU17EG", "ZU9CG", "KU115")
SWEEP_QUANTS = ("int8", "int16")
SWEEP_BATCHES = ((1, 1, 1), (2, 2, 2), (1, 2, 4))
SWEEP_SIZE = dict(iterations=5, population=40)


@dataclass(frozen=True)
class DseRun:
    params: dict
    results: tuple  # (DseResult, budget, priorities) per search or case


def _no_fixture() -> None:
    return None


def paper_params(seed: int) -> dict:
    """Seed 0 gives searches 0, 1, 2: exactly ``run_convergence``'s study."""
    seeds = [PAPER_SEARCHES * seed + i for i in range(PAPER_SEARCHES)]
    return dict(PAPER_SIZE, device="ZU9CG", quant="int8", seeds=seeds)


def sweep_params(seed: int) -> dict:
    return dict(
        SWEEP_SIZE,
        devices=SWEEP_DEVICES,
        quants=SWEEP_QUANTS,
        batches=SWEEP_BATCHES,
        seed=seed,
    )


def params_digest(params: dict) -> str:
    return digest(json.dumps(params, sort_keys=True))


def run_dse_paper(fixture: None, seed: int) -> DseRun:
    """``run_convergence`` (ZU9CG, int8, N=20, P=200) with seeded searches."""
    from repro.construction.reorg import build_pipeline_plan
    from repro.devices.fpga import get_device
    from repro.dse.engine import DseEngine
    from repro.dse.space import Customization
    from repro.experiments import paper_constants as paper
    from repro.models.codec_avatar import build_codec_avatar_decoder
    from repro.quant.schemes import get_scheme

    params = paper_params(seed)
    plan = build_pipeline_plan(build_codec_avatar_decoder())
    device = get_device(params["device"])
    customization = Customization(
        batch_sizes=paper.TABLE4_BATCH_SIZES, priorities=(1.0, 1.0, 1.0)
    )
    engines = [
        DseEngine(
            plan=plan,
            budget=device.budget(),
            customization=customization,
            quant=get_scheme(params["quant"]),
            frequency_mhz=device.default_frequency_mhz,
        )
        for _ in range(PAPER_SEARCHES)
    ]
    results = DseEngine.search_many(
        engines, **PAPER_SIZE, seeds=params["seeds"], heuristic_seed=False, workers=1
    )
    return DseRun(
        params,
        tuple((r, device.budget(), customization.priorities) for r in results),
    )


def sweep_flows():
    from repro.dse.space import Customization
    from repro.fcad.flow import sweep_grid
    from repro.models.codec_avatar import build_codec_avatar_decoder

    network = build_codec_avatar_decoder()
    flows = []
    for batches in SWEEP_BATCHES:
        flows += sweep_grid(
            networks=[network],
            devices=SWEEP_DEVICES,
            quants=SWEEP_QUANTS,
            customization=Customization(
                batch_sizes=batches, priorities=(1.0,) * len(batches)
            ),
        )
    return flows


def run_dse_sweep(fixture: None, seed: int) -> DseRun:
    """Table-4-style ``run_sweep``: 24 distinct specs at N=5, P=40."""
    from repro.fcad.flow import run_sweep

    flows = sweep_flows()
    results = run_sweep(flows, **SWEEP_SIZE, seed=seed, workers=1)
    return DseRun(
        sweep_params(seed),
        tuple(
            (r.dse, r.budget, flow.customization.priorities)
            for r, flow in zip(results, flows)
        ),
    )


def inspect_dse(run: DseRun, seed: int) -> Outcome:
    from repro.dse.objective import PaperObjective, penalized_score
    from repro.dse.result import result_to_dict

    problems = []
    failed = 0
    payload = []
    for index, (result, budget, priorities) in enumerate(run.results):
        rescored = penalized_score(PaperObjective(), result.best_metrics, priorities)
        bad = []
        if rescored != result.best_fitness:
            bad.append(f"rescored fitness {rescored!r} != best_fitness {result.best_fitness!r}")
        if not result.best_perf.fits(budget):
            bad.append("best design exceeds the device budget")
        if bad:
            failed += 1
            problems += [f"search {index}: {text}" for text in bad]
        record = result_to_dict(result)
        for name in _HOST_TIME_FIELDS:
            record.pop(name)
        payload.append(record)
    dse = [result for result, _, _ in run.results]
    size = run.params["iterations"] * run.params["population"]
    return Outcome(
        operations=len(run.results),
        failed=failed,
        items=size * len(run.results),
        input_digest=params_digest(run.params),
        output_digest=digest(json.dumps(payload, sort_keys=True)),
        problems=problems,
        sim={"best_fitness": sum(r.best_fitness for r in dse) / len(dse)},
        counters={
            "solves": sum(r.evaluations for r in dse),
            "ladder_s": sum(r.ladder_seconds for r in dse),
            "growth_s": sum(r.growth_seconds for r in dse),
            "measure_s": sum(r.measure_seconds for r in dse),
        },
    )


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
#: The 1M-avatar diurnal session (the serving bench's scale session).
DIURNAL_TRACE = dict(
    avatars=1_000_000,
    duration_s=120.0,
    shape="diurnal",
    avatar_fps=1.0 / 60.0,
    deadline_ms=200.0,
    jitter_ms=400.0,
)
DIURNAL_SEED_BASE = 42  # seed 0 reproduces the serving bench's session
CHAOS_TRACE = dict(
    avatars=18,
    duration_s=400.0,
    shape="steady",
    avatar_fps=30.0,
    deadline_tiers=(30.0, 60.0, 120.0),
    jitter_ms=10.0,
)
#: One clause of each fault kind, plus a second death: the session
#: retries, hedges, checks failover on every arrival and provisions three
#: replacements.
CHAOS_PLAN = (
    "die-at:latency/0:120000,crash-at:throughput/1:3000,"
    "die-at:throughput/4:250000,stall:throughput/2:2000:40,"
    "degrade:throughput/3:1000:1.5"
)


def explore(batch: int):
    """One reduced exploration (ZU9CG, int8, N=5, P=40): a served design."""
    from repro.devices.fpga import get_device
    from repro.dse.space import Customization
    from repro.fcad.flow import FCad
    from repro.models.zoo import get_model

    network = get_model("codec_avatar_decoder")
    branches = len(network.output_names())
    customization = None
    if batch > 1:
        customization = Customization(
            batch_sizes=(batch,) * branches, priorities=(1.0,) * branches
        )
    result = FCad(
        network=network,
        device=get_device("ZU9CG"),
        quant="int8",
        customization=customization,
    ).run(iterations=5, population=40, seed=0, workers=1)
    return result, result.frame_latency_profile(frames=8)


def diurnal_trace(seed: int):
    from repro.serving import make_trace

    return make_trace(**DIURNAL_TRACE, seed=DIURNAL_SEED_BASE + seed)


def chaos_trace(seed: int):
    from repro.serving import make_trace

    return make_trace(**CHAOS_TRACE, seed=seed)


def trace_digest(trace) -> str:
    inputs = hashlib.sha256()
    for column in (trace.arrival_ms, trace.avatar_id, trace.deadline_rel_ms):
        inputs.update(column.tobytes())
    return inputs.hexdigest()[:16]


def setup_diurnal():
    result, profile = explore(1)
    return result.serving_group(name="fleet", replicas=2, policy="edf", profile=profile)


def run_diurnal(group, seed: int):
    from repro.serving import AutoscalePolicy, serve_trace

    trace = diurnal_trace(seed)
    report = serve_trace(
        group,
        trace,
        admission=True,
        autoscale=AutoscalePolicy(
            check_interval_ms=1000.0,
            warmup_ms=5000.0,
            min_replicas=2,
            max_replicas=64,
        ),
    )
    return trace, report


def setup_chaos():
    from repro.serving import GroupSpec

    _, latency = explore(1)
    _, throughput = explore(2)
    return [
        GroupSpec(
            "latency", latency, replicas=2, policy="edf", batch_window_ms=0.0, max_batch=4
        ),
        GroupSpec(
            "throughput",
            throughput,
            replicas=6,
            policy="fifo",
            batch_window_ms=4.0,
            max_batch=8,
        ),
    ]


def run_chaos(groups, seed: int):
    from repro.serving import ChaosPlan, RecoveryPolicy, serve_trace

    trace = chaos_trace(seed)
    report = serve_trace(
        groups,
        trace,
        router="deadline",
        chaos=ChaosPlan.parse(CHAOS_PLAN),
        recovery=RecoveryPolicy(
            max_retries=2, hedge=True, breaker_threshold=2, replace_after_ms=500.0
        ),
    )
    return trace, report


def inspect_serving(session, seed: int) -> Outcome:
    from repro.serving.slo import report_to_json

    trace, report = session
    problems = []
    if report.completed + report.shed + report.failed != report.submitted:
        problems.append(
            f"completed {report.completed} + shed {report.shed} + failed "
            f"{report.failed} != submitted {report.submitted}"
        )
    if report.submitted != len(trace):
        problems.append(f"submitted {report.submitted} != trace length {len(trace)}")
    for group in report.groups:
        # A group's ``submitted`` excludes what admission refused there.
        if group.completed + group.shed + group.failed != group.offered:
            problems.append(
                f"group {group.name}: completed + shed + failed != submitted"
            )
    good = report.completed - report.deadline_misses
    return Outcome(
        operations=1,
        failed=1 if problems else 0,
        items=report.submitted,
        input_digest=trace_digest(trace),
        output_digest=digest(report_to_json(report)),
        problems=problems,
        sim={
            "sim_p99_ms": report.latency_p99_ms,
            "sim_goodput": good / report.submitted,
        },
        counters={
            "requests": report.submitted,
            "batches": report.batches,
            "mean_batch": report.mean_batch_size,
            "retries": report.retries,
            "hedges": report.hedges,
            "replicas_replaced": report.replicas_replaced,
            "scale_ups": report.scale_ups,
            "peak_replicas": report.peak_replicas,
        },
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dse-paper",
            "dse",
            PAPER_SEARCHES,
            "Sec. VII convergence study at paper size (N=20, P=200, 3 searches "
            "sharing a cache): scoring, cache and swarm weigh most",
            _no_fixture,
            run_dse_paper,
            inspect_dse,
            lambda seed: params_digest(paper_params(seed)),
        ),
        Workload(
            "dse-sweep",
            "dse",
            len(SWEEP_DEVICES) * len(SWEEP_QUANTS) * len(SWEEP_BATCHES),
            "24 distinct Table-4 specs at N=5, P=40: analysis, construction and "
            "cold Algorithm-2 solves weigh most",
            _no_fixture,
            run_dse_sweep,
            inspect_dse,
            lambda seed: params_digest(sweep_params(seed)),
        ),
        Workload(
            "serve-diurnal",
            "serving",
            1,
            "1M-avatar diurnal session on one EDF group: 1.1M admissions, about "
            "half shed, router bypassed",
            setup_diurnal,
            run_diurnal,
            inspect_serving,
            lambda seed: trace_digest(diurnal_trace(seed)),
        ),
        Workload(
            "serve-chaos",
            "serving",
            1,
            "two-group cluster under the deadline router with faults: routing, "
            "batching, hedging, retry and replacement, admission bypassed",
            setup_chaos,
            run_chaos,
            inspect_serving,
            lambda seed: trace_digest(chaos_trace(seed)),
        ),
    )
}
