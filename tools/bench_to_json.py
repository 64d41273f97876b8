#!/usr/bin/env python
"""Run a reduced benchmark suite and emit a machine-readable BENCH_*.json.

Two suites, one per CI smoke job, so the repo's performance trajectory is
comparable PR over PR:

- ``--suite dse`` (default) — the DSE convergence study at reduced size,
  serial vs parallel, written to ``BENCH_dse.json``. Exits nonzero if the
  parallel run is not bit-identical to the serial one, or if the serial
  run's per-search best fitness differs from the committed file's.
- ``--suite serving`` — the avatar serving layer: explore a design once,
  deploy simulated replicas, and serve the *same* mixed-deadline workload
  under FIFO and EDF batching, then push the event-heap engine through a
  million-avatar diurnal session with autoscaling. Written to
  ``BENCH_serving.json`` with p99 latency, deadline-miss rate, and
  throughput per policy plus the engine's scale numbers. Exits nonzero if
  two sessions at the same seed are not bit-identical (the virtual
  clock's determinism guarantee), if the heap engine's counters diverge
  from the coroutine scheduler's on the shared workload, or if the scale
  session blows its wall-time budget.

Run:  PYTHONPATH=src python tools/bench_to_json.py [--suite serving] [--out F]
(or from anywhere: the script puts ``src/`` on ``sys.path`` itself)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.convergence import ConvergenceResult, run_convergence  # noqa: E402


def physical_core_count() -> int | None:
    """Physical cores from /proc/cpuinfo (``None`` where unreadable).

    ``os.cpu_count()`` reports hyperthreads; the speedup gate's story
    ("parallel should beat serial on a multi-core box") is about real
    cores, so the payload records both.
    """
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    cores: set[tuple[str, str]] = set()
    physical_id = "0"
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            physical_id = value.strip()
        elif key == "core id":
            cores.add((physical_id, value.strip()))
    return len(cores) or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "physical_cores": physical_core_count(),
        # CI pins the parallel run's worker count through this variable;
        # recording it makes payloads from differently-pinned runners
        # distinguishable.
        "FCAD_BENCH_WORKERS": os.environ.get("FCAD_BENCH_WORKERS"),
    }


# ---------------------------------------------------------------------------
# suite: dse
# ---------------------------------------------------------------------------
#: How much slower than serial the parallel run may be before the gate
#: fails (only enforced on multi-core runners).
SPEEDUP_GATE_TOLERANCE = 1.10


def summarize(result: ConvergenceResult, wall_seconds: float) -> dict:
    return {
        "workers": result.workers,
        "wall_seconds": round(wall_seconds, 3),
        "best_fitness": result.best_fitness,
        "best_fitness_per_search": [s.best_fitness for s in result.searches],
        "avg_convergence_iteration": result.avg_iteration,
        "evaluations": result.total_evaluations,
        "cache_hits": result.total_cache_hits,
        # Headline rate: hits over lookups across the whole evaluation
        # data path (bucket-level result cache + Algorithm 2's stage
        # memo tables). The per-level rates sit next to it.
        "cache_hit_rate": round(result.combined_hit_rate, 4),
        "bucket_hit_rate": round(result.bucket_hit_rate, 4),
        "stage_hits": result.total_stage_hits,
        "stage_lookups": result.total_stage_lookups,
        "phases": {
            "eval_seconds": round(result.eval_seconds, 3),
            "cache_seconds": round(result.cache_seconds, 3),
            "pool_overhead_seconds": round(result.overhead_seconds, 3),
            # The batched kernel's share of eval_seconds, split by
            # Algorithm-2 phase (wall time inside the solving process).
            "ladder_seconds": round(result.ladder_seconds, 3),
            "growth_seconds": round(result.growth_seconds, 3),
            "measure_seconds": round(result.measure_seconds, 3),
        },
    }


#: Config keys that name the objective layer rather than the search size.
#: A baseline produced under a different objective/oracle measured a
#: different amount of work per generation, so its timings are not a
#: comparable trajectory — the gate is skipped instead of misfiring.
_OBJECTIVE_KEYS = ("objective", "rerank")


def load_baseline(
    path: Path, config: dict
) -> tuple[dict | None, str | None]:
    """The committed BENCH_dse.json, if it matches this run's config.

    Returns ``(baseline, objective_mismatch_reason)``: the baseline is
    ``None`` when there is nothing comparable; the reason is set (and the
    baseline still ``None``) when the only difference is the objective /
    re-rank oracle the baseline was produced under.
    """
    if not path.exists():
        return None, None
    try:
        baseline = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None, None
    if baseline.get("benchmark") != "dse_convergence":
        return None, None
    base_config = dict(baseline.get("config") or {})
    # Baselines from before the objective layer were all paper-objective.
    base_config.setdefault("objective", "paper")
    base_config.setdefault("rerank", "none")
    strip = lambda cfg: {  # noqa: E731
        k: v for k, v in cfg.items() if k not in _OBJECTIVE_KEYS
    }
    if strip(base_config) != strip(config):
        return None, None
    mismatch = [
        f"{key}={base_config[key]!r} (baseline) vs {config[key]!r} (this run)"
        for key in _OBJECTIVE_KEYS
        if base_config[key] != config[key]
    ]
    if mismatch:
        return None, (
            "baseline was produced under a different objective layer: "
            + ", ".join(mismatch)
        )
    return baseline, None


def _trend(label: str, old: float | None, new: float) -> str:
    if not old:
        return f"  {label}: {new} (no baseline)"
    change = 100.0 * (new - old) / old
    return f"  {label}: {old} -> {new} ({change:+.1f}%)"


def compare_to_baseline(
    baseline: dict | None, payload: dict, objective_note: str | None = None
) -> dict | None:
    """Print the perf trajectory vs the committed file; return the deltas."""
    if baseline is None:
        if objective_note is not None:
            print(f"perf trajectory: SKIPPED — {objective_note}")
        else:
            print(
                "no comparable committed BENCH_dse.json baseline "
                "(first run, or the reduced-size config changed)"
            )
        return None
    print("perf trajectory vs committed BENCH_dse.json:")
    rows = [
        (
            "serial wall s",
            baseline.get("serial", {}).get("wall_seconds"),
            payload["serial"]["wall_seconds"],
        ),
        (
            "parallel wall s",
            baseline.get("parallel", {}).get("wall_seconds"),
            payload["parallel"]["wall_seconds"],
        ),
        ("speedup", baseline.get("speedup"), payload["speedup"]),
        (
            "cache hit rate",
            baseline.get("parallel", {}).get("cache_hit_rate"),
            payload["parallel"]["cache_hit_rate"],
        ),
    ]
    deltas = {}
    for label, old, new in rows:
        print(_trend(label, old, new))
        key = label.replace(" ", "_")
        deltas[key] = {"baseline": old, "now": new}
    return deltas


#: Minimum speedup of the batched Algorithm-2 kernel over the scalar
#: solver on the committed microbenchmark config, and the stream size the
#: gate is measured at. The speedup comes from vectorization, not
#: parallelism, so the gate holds on single-core runners too.
KERNEL_SPEEDUP_GATE = 2.0
KERNEL_BUCKETS = 512


def run_kernel_section(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """The batched-kernel microbenchmark: identity and speedup gates.

    Replays a generation-shaped stream of budget buckets through the
    scalar solver and the batched kernel (``benchmarks/bench_inbranch``).
    Two hard gates: the solutions must be byte-for-byte identical, and
    the batched pass must beat the scalar loop by ``KERNEL_SPEEDUP_GATE``.
    """
    sys.path.insert(0, str(REPO / "benchmarks"))
    from bench_inbranch import run_microbench

    section = run_microbench(
        buckets_per_branch=KERNEL_BUCKETS,
        seed=0,
        device_name=args.device,
        quant_name=args.quant,
    )
    section["speedup_gate"] = KERNEL_SPEEDUP_GATE
    gates = []
    if not section["identical"]:
        gates.append(
            "batched kernel solutions are not byte-identical to the "
            "scalar solver's"
        )
    if not section["speedup"] or section["speedup"] < KERNEL_SPEEDUP_GATE:
        gates.append(
            f"batched kernel speedup {section['speedup']}x is below the "
            f"{KERNEL_SPEEDUP_GATE}x gate "
            f"(scalar {section['scalar_seconds']}s vs batched "
            f"{section['batched_seconds']}s)"
        )
    section["gates"] = gates
    return section, gates


def run_dse_suite(args: argparse.Namespace) -> int:
    run_kwargs = dict(
        device_name=args.device,
        quant_name=args.quant,
        searches=args.searches,
        iterations=args.iterations,
        population=args.population,
        objective=args.objective,
    )
    config = dict(run_kwargs, rerank="none")
    # Read the committed baseline before this run overwrites it.
    baseline, objective_note = load_baseline(Path(args.out), config)

    # Each measured run starts from cold process-local tables, so the
    # serial and parallel numbers are comparable.
    from repro.dse.worker import clear_process_caches

    clear_process_caches()
    started = time.perf_counter()
    serial = run_convergence(**run_kwargs, workers=1)
    serial_wall = time.perf_counter() - started

    clear_process_caches()
    started = time.perf_counter()
    parallel = run_convergence(**run_kwargs, workers=args.workers)
    parallel_wall = time.perf_counter() - started

    deterministic = [s.best_fitness for s in serial.searches] == [
        s.best_fitness for s in parallel.searches
    ]

    # Gates that cannot run on this machine/config land here as
    # machine-readable records instead of stringly-typed gate values.
    gate_skips: list[dict] = []
    multi_core = (os.cpu_count() or 1) > 1
    if objective_note is not None:
        gate = "skipped"
        gate_skips.append({"gate": "speedup", "reason": objective_note})
        print(f"speedup gate: SKIPPED — {objective_note}")
    elif not multi_core:
        gate = "skipped"
        reason = (
            "single-core runner, parallel wall time is expected to "
            "trail serial here"
        )
        gate_skips.append({"gate": "speedup", "reason": reason})
        print(f"speedup gate: SKIPPED — {reason}")
    elif parallel_wall <= serial_wall * SPEEDUP_GATE_TOLERANCE:
        gate = "passed"
    else:
        gate = "failed"

    kernel_section, kernel_gates = run_kernel_section(args)

    # The serial run must stay on the committed trajectory: same seeds,
    # same per-search best fitness as the baseline file.
    serial_fitness = [s.best_fitness for s in serial.searches]
    base_fitness = (baseline or {}).get("serial", {}).get(
        "best_fitness_per_search"
    )
    baseline_identical = (
        None if base_fitness is None else base_fitness == serial_fitness
    )
    if baseline_identical is None:
        gate_skips.append(
            {
                "gate": "baseline-identity",
                "reason": "no comparable committed baseline",
            }
        )

    payload = {
        "benchmark": "dse_convergence",
        "config": config,
        "environment": environment(),
        "serial": summarize(serial, serial_wall),
        "parallel": summarize(parallel, parallel_wall),
        "speedup": round(serial_wall / parallel_wall, 3)
        if parallel_wall > 0
        else None,
        "deterministic": deterministic,
        "speedup_gate": gate,
        "gate_skips": gate_skips,
        "kernel": kernel_section,
        "baseline_identical": baseline_identical,
    }
    payload["baseline_comparison"] = compare_to_baseline(
        baseline, payload, objective_note
    )
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    # Archive the rendered table next to the pytest-benchmark artifacts.
    out_dir = REPO / "benchmarks" / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "dse-convergence-smoke.txt").write_text(
        f"### DSE convergence smoke (reduced size)\n{parallel.render()}\n"
        f"serial {serial_wall:.2f}s -> parallel x{args.workers} "
        f"{parallel_wall:.2f}s (speedup {payload['speedup']}, "
        f"gate {gate})\n"
    )

    print(f"wrote {args.out}")
    print(
        f"serial {serial_wall:.2f}s, parallel x{args.workers} "
        f"{parallel_wall:.2f}s, speedup {payload['speedup']}, "
        f"cache hit rate {payload['parallel']['cache_hit_rate']:.1%}, "
        f"deterministic={deterministic}"
    )
    serial_phases = payload["serial"]["phases"]
    parallel_phases = payload["parallel"]["phases"]
    print(
        f"phases (serial): eval {serial_phases['eval_seconds']}s, cache "
        f"{serial_phases['cache_seconds']}s | (parallel): eval "
        f"{parallel_phases['eval_seconds']}s, cache "
        f"{parallel_phases['cache_seconds']}s, pool overhead "
        f"{parallel_phases['pool_overhead_seconds']}s"
    )
    kernel_phases = kernel_section["batched_phases"]
    print(
        f"kernel: scalar {kernel_section['scalar_seconds']}s -> batched "
        f"{kernel_section['batched_seconds']}s (x{kernel_section['speedup']},"
        f" gate x{KERNEL_SPEEDUP_GATE}) over "
        f"{kernel_section['buckets_per_branch']} buckets/branch; ladder "
        f"{kernel_phases['ladder_seconds']}s, growth "
        f"{kernel_phases['growth_seconds']}s, measure "
        f"{kernel_phases['measure_seconds']}s, "
        f"identical={kernel_section['identical']}"
    )
    print(f"baseline identity: {baseline_identical}")
    # Report every failed gate, so a machine-dependent speedup failure
    # never hides a correctness one.
    errors = []
    if not deterministic:
        errors.append("parallel search diverged from serial results")
    if gate == "failed":
        errors.append(
            f"speedup gate failed on a multi-core runner "
            f"({os.cpu_count()} cores): parallel {parallel_wall:.2f}s > "
            f"serial {serial_wall:.2f}s x {SPEEDUP_GATE_TOLERANCE}"
        )
    errors += [f"kernel gate failed: {failed}" for failed in kernel_gates]
    if baseline_identical is False:
        errors.append(
            f"baseline-identity gate failed: serial run diverged from the "
            f"committed baseline ({base_fitness} -> {serial_fitness})"
        )
    for error in errors:
        print(f"ERROR: {error}")
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# suite: dist
# ---------------------------------------------------------------------------
#: Wall-time ceiling for the sharded fleet sweep (seconds). The sweep is
#: tiny; the budget mostly bounds coordinator/worker plumbing overhead —
#: interpreter startup for the spawned workers dominates it.
DIST_WALL_BUDGET_S = 120.0

#: Devices the reduced fleet sweep shards across.
DIST_SWEEP_DEVICES = ("Z7045", "ZU9CG")


def _dist_result_fields(result) -> dict:
    return {
        "best_fitness": result.best_fitness,
        "history": list(result.history),
    }


def run_dist_suite(args: argparse.Namespace) -> int:
    """The distributed fleet runtime: identity, loss-lessness, reconnects.

    Four gates, all hard failures:

    - a sweep sharded across 2 spawned worker processes over loopback is
      bit-identical to solving the same cases serially in-process;
    - killing a worker mid-sweep (deterministic ``die-after-leases:1``
      fault) re-leases its shard and still merges bit-identically;
    - the whole fleet sweep stays inside its wall-time budget;
    - serving through ``RemoteTransport`` with a forced mid-session
      disconnect reconnects (``reconnects == 1``) and reports the same
      SLOs as in-process serving, bit for bit.
    """
    import dataclasses
    import threading

    from repro.dist.coordinator import FleetSpec, run_fleet_sweep
    from repro.dist.remote_transport import RemoteTransport, serve_replicas
    from repro.dse.engine import DseEngine
    from repro.faults import FaultInjector, FaultPlan
    from repro.fcad.flow import sweep_grid
    from repro.models.zoo import get_model
    from repro.serving import ReplicaPool, canned_workload, serve_workload

    network = get_model(args.model)
    flows = sweep_grid(
        networks=[network], devices=list(DIST_SWEEP_DEVICES), quants=["int8"]
    )
    engines = [flow.prepare()[2] for flow in flows]
    size = dict(iterations=args.iterations, population=args.population, seed=0)

    serial = DseEngine.search_many(engines, **size)

    def fleet_run(worker_faults=()):
        stats: dict[str, int] = {}
        started = time.perf_counter()
        results = run_fleet_sweep(
            engines,
            FleetSpec(
                workers=2,
                token="bench",
                timeout_s=DIST_WALL_BUDGET_S,
                worker_faults=worker_faults,
            ),
            **size,
            stats=stats,
        )
        return results, stats, time.perf_counter() - started

    clean, clean_stats, clean_wall = fleet_run()
    killed, killed_stats, killed_wall = fleet_run(
        worker_faults=("die-after-leases:1",)
    )

    def identical(results) -> bool:
        return all(
            fleet.best_fitness == base.best_fitness
            and fleet.best_config == base.best_config
            and fleet.history == base.history
            for fleet, base in zip(results, serial)
        )

    sharded_identical = identical(clean)
    killed_identical = identical(killed)

    # Remote serving with a forced mid-session disconnect.
    from repro.sim.runner import FrameLatencyProfile

    profile = FrameLatencyProfile(
        finish_ms=(8.0, 12.0, 16.0),
        first_frame_ms=8.0,
        steady_interval_ms=4.0,
        frequency_mhz=200.0,
    )
    workload = canned_workload(avatars=4, frames_per_avatar=6)
    inprocess = serve_workload(
        ReplicaPool(profile, replicas=2, max_batch=8), workload, policy="edf"
    )

    stop = threading.Event()
    ready = threading.Event()
    port_box: dict[str, int] = {}

    def on_ready(bound_port: int) -> None:
        port_box["port"] = bound_port
        ready.set()

    server = threading.Thread(
        target=serve_replicas,
        kwargs=dict(
            port=0,
            token="bench",
            fault=FaultInjector(FaultPlan(drop_conn_after_decodes=3)),
            ready=on_ready,
            stop=stop,
            announce=False,
        ),
        daemon=True,
    )
    server.start()
    ready.wait(10)
    transport = RemoteTransport(
        "127.0.0.1",
        port_box["port"],
        token="bench",
        backoff_s=0.01,
        backoff_max_s=0.05,
    )
    remote = serve_workload(
        ReplicaPool(profile, replicas=2, max_batch=8),
        workload,
        policy="edf",
        transport=transport,
    )
    stop.set()
    server.join(timeout=10)
    remote_identical = (
        dataclasses.replace(remote, reconnects=0) == inprocess
    )

    gates = []
    if not sharded_identical:
        gates.append("sharded sweep diverged from the serial results")
    if not killed_identical:
        gates.append("sweep with a killed worker diverged from serial")
    if killed_stats.get("releases", 0) < 1:
        gates.append(
            "the killed worker's shard was never re-leased "
            f"(stats: {killed_stats})"
        )
    if clean_wall >= DIST_WALL_BUDGET_S:
        gates.append(
            f"fleet sweep took {clean_wall:.1f}s "
            f"(budget {DIST_WALL_BUDGET_S:.0f}s)"
        )
    if transport.reconnects != 1:
        gates.append(
            f"forced disconnect produced {transport.reconnects} reconnects "
            f"(expected exactly 1)"
        )
    if not remote_identical:
        gates.append(
            "remote serving report diverged from in-process after the "
            "forced reconnect"
        )

    payload = {
        "benchmark": "distributed_fleet",
        "config": {
            "model": args.model,
            "devices": list(DIST_SWEEP_DEVICES),
            "quant": "int8",
            "iterations": args.iterations,
            "population": args.population,
            "workers": 2,
        },
        "environment": environment(),
        "serial": [_dist_result_fields(result) for result in serial],
        "fleet": {
            "wall_seconds": round(clean_wall, 3),
            "stats": clean_stats,
            "identical_to_serial": sharded_identical,
        },
        "fleet_with_killed_worker": {
            "wall_seconds": round(killed_wall, 3),
            "stats": killed_stats,
            "identical_to_serial": killed_identical,
        },
        "remote_serving": {
            "reconnects": transport.reconnects,
            "report_identical_modulo_reconnects": remote_identical,
            "completed": remote.completed,
            "deadline_misses": remote.deadline_misses,
        },
        "wall_budget_seconds": DIST_WALL_BUDGET_S,
        "gates": gates,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    out_dir = REPO / "benchmarks" / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "dist-smoke.txt").write_text(
        f"### Distributed fleet smoke (reduced size)\n"
        f"clean fleet: {clean_stats}\n"
        f"killed-worker fleet: {killed_stats}\n"
        f"remote serving reconnects: {transport.reconnects}\n"
    )

    print(f"wrote {args.out}")
    print(
        f"fleet sweep over {len(engines)} shards x 2 workers: "
        f"clean {clean_wall:.2f}s "
        f"({clean_stats['leases']} leases), killed-worker "
        f"{killed_wall:.2f}s ({killed_stats['releases']} re-leased), "
        f"identical={sharded_identical and killed_identical}"
    )
    print(
        f"remote serving: {transport.reconnects} reconnect(s), "
        f"identical={remote_identical}"
    )
    for gate in gates:
        print(f"ERROR: dist gate failed: {gate}")
    return 1 if gates else 0


# ---------------------------------------------------------------------------
# suite: serving
# ---------------------------------------------------------------------------
def summarize_serving(report) -> dict:
    payload = {
        "completed": report.completed,
        "latency_p50_ms": round(report.latency_p50_ms, 3),
        "latency_p95_ms": round(report.latency_p95_ms, 3),
        "latency_p99_ms": round(report.latency_p99_ms, 3),
        "latency_mean_ms": round(report.latency_mean_ms, 3),
        "deadline_misses": report.deadline_misses,
        "deadline_miss_rate": round(report.miss_rate, 4),
        "throughput_fps": round(report.throughput_fps, 2),
        "mean_batch_size": round(report.mean_batch_size, 3),
        "mean_utilization": round(report.mean_utilization, 4),
    }
    if report.router:
        payload["router"] = report.router
        payload["shed"] = report.shed
        payload["shed_rate"] = round(report.shed_rate, 4)
        payload["groups"] = {
            group.name: {
                "replicas": group.replicas,
                "policy": group.policy,
                "completed": group.completed,
                "shed": group.shed,
                "deadline_misses": group.deadline_misses,
                "miss_rate": round(group.miss_rate, 4),
                "latency_p99_ms": round(group.latency_p99_ms, 3),
            }
            for group in report.groups
        }
    return payload


#: Fixed total replica budget of the mixed-vs-homogeneous comparison.
CLUSTER_BUDGET = 6

#: Saturation of the cluster benchmark workload (offered / pool capacity).
#: Slightly past capacity on purpose: this is the regime the cluster
#: architecture exists for — EDF on a shared pool starts serving stale
#: deadlines, while tiering isolates the tight tier and shedding keeps
#: the accepted share inside its budgets.
CLUSTER_SATURATION = 1.05

#: Overload factor of the load-shedding session.
SHED_OVERLOAD = 1.5


def _cluster_workload(
    profile, saturation: float, seed: int = 0, budget: int = CLUSTER_BUDGET
):
    """The mixed-deadline cluster benchmark workload, sized off capacity.

    The tight tier budget sits between the latency group's and the
    throughput group's unloaded latencies (only the low-latency tier can
    honour it); tier count pins the tight fleet at 3 avatars so the
    one-replica latency tier stays inside its capacity while the
    throughput tier carries the overload.
    """
    import math

    from repro.serving import AvatarWorkload

    capacity_fps = budget * profile.steady_fps
    avatars = max(4, round(saturation * capacity_fps / 30.0))
    tight_ms = round(profile.first_frame_ms + 15.0, 1)
    tiers = (tight_ms,) + (2.0 * tight_ms,) * (math.ceil(avatars / 3) - 1)
    return AvatarWorkload(
        avatars=avatars,
        frames_per_avatar=60,
        frame_interval_ms=1000.0 / 30.0,
        deadline_ms=50.0,
        deadline_tiers=tiers,
        jitter_ms=8.0,
        seed=seed,
    )


def _cluster_groups(latency_profile, throughput_profile):
    from repro.serving import GroupSpec

    return [
        GroupSpec(
            "latency",
            latency_profile,
            replicas=1,
            policy="edf",
            batch_window_ms=0.0,
            max_batch=4,
        ),
        GroupSpec(
            "throughput",
            throughput_profile,
            replicas=CLUSTER_BUDGET - 1,
            policy="fifo",
            batch_window_ms=4.0,
            max_batch=8,
        ),
    ]


def run_cluster_section(latency_profile, throughput_profile) -> tuple[dict, list[str]]:
    """Mixed cluster vs best homogeneous pool at a fixed replica budget.

    Returns the JSON section plus a list of failed gates (empty = pass).
    """
    from repro.serving import (
        ReplicaPool,
        report_to_json,
        serve_cluster,
        serve_workload,
    )

    workload = _cluster_workload(latency_profile, CLUSTER_SATURATION)

    homogeneous = {}
    for design, profile in (
        ("latency", latency_profile),
        ("throughput", throughput_profile),
    ):
        for policy in ("fifo", "edf"):
            pool = ReplicaPool(
                profile, replicas=CLUSTER_BUDGET, max_batch=8
            )
            homogeneous[f"{design}/{policy}"] = serve_workload(
                pool, workload, policy=policy
            )
    best_name = min(homogeneous, key=lambda k: homogeneous[k].miss_rate)
    best = homogeneous[best_name]

    def mixed_session(wl, shed):
        return serve_cluster(
            _cluster_groups(latency_profile, throughput_profile),
            wl,
            router="deadline",
            admission=shed,
        )

    mixed = mixed_session(workload, shed=True)
    mixed_again = mixed_session(workload, shed=True)
    mixed_noshed = mixed_session(workload, shed=None)
    deterministic = report_to_json(mixed) == report_to_json(mixed_again)

    overload = _cluster_workload(latency_profile, SHED_OVERLOAD)
    over_shed = mixed_session(overload, shed=True)
    over_noshed = mixed_session(overload, shed=None)

    latency_group = next(
        group for group in mixed.groups if group.name == "latency"
    )
    p99_bound_ms = 2.0 * max(overload.deadline_tiers)

    gates = []
    if mixed.miss_rate >= best.miss_rate:
        gates.append(
            f"mixed cluster miss rate {mixed.miss_rate:.4f} is not below "
            f"the best homogeneous pool {best_name} ({best.miss_rate:.4f})"
        )
    if latency_group.miss_rate > 0.05:
        gates.append(
            f"deadline-tiered latency group missed "
            f"{latency_group.miss_rate:.1%} of its tight-budget frames"
        )
    if over_shed.latency_p99_ms > p99_bound_ms:
        gates.append(
            f"{SHED_OVERLOAD}x overload with shedding: accepted p99 "
            f"{over_shed.latency_p99_ms:.1f} ms exceeds the "
            f"{p99_bound_ms:.0f} ms bound"
        )
    if over_shed.shed_rate <= 0.0:
        gates.append("overload session shed nothing")
    if over_noshed.latency_p99_ms <= over_shed.latency_p99_ms:
        gates.append(
            "shedding did not improve accepted p99 at overload"
        )
    if not deterministic:
        gates.append("mixed-cluster sessions diverged at the same seed")

    section = {
        "replica_budget": CLUSTER_BUDGET,
        "saturation": CLUSTER_SATURATION,
        "workload": {
            "avatars": workload.avatars,
            "frames_per_avatar": workload.frames_per_avatar,
            "deadline_tiers_ms": [
                workload.deadline_tiers[0],
                workload.deadline_tiers[-1],
            ],
            "tight_avatars": sum(
                1
                for avatar in range(workload.avatars)
                if workload.deadline_for(avatar) == workload.deadline_tiers[0]
            ),
        },
        "homogeneous": {
            name: summarize_serving(report)
            for name, report in homogeneous.items()
        },
        "best_homogeneous": best_name,
        "mixed": summarize_serving(mixed),
        "mixed_no_shed": summarize_serving(mixed_noshed),
        "overload": {
            "factor": SHED_OVERLOAD,
            "avatars": overload.avatars,
            "p99_bound_ms": p99_bound_ms,
            "with_shedding": summarize_serving(over_shed),
            "without_shedding": summarize_serving(over_noshed),
        },
        "mixed_vs_best_homogeneous": {
            "miss_rate_delta": round(mixed.miss_rate - best.miss_rate, 4),
            "p99_delta_ms": round(
                mixed.latency_p99_ms - best.latency_p99_ms, 3
            ),
        },
        "deterministic": deterministic,
        "gates": gates,
    }
    return section, gates


#: The chaos benchmark: a five-replica cluster whose entire latency tier
#: (1 of 5 replicas — 20% of the fleet) dies mid-session, with no
#: admission control so the damage cannot hide behind shedding. The
#: shielded run (retries + failover + replacement) must hold its
#: combined deadline-miss + failure rate within 2x of the fault-free
#: run; the unshielded run (no retries, no replacement) eats the dead
#: replica's in-flight frames as failures and then runs the rest of the
#: session past capacity, so its misses grow without bound.
CHAOS_BUDGET = 5
CHAOS_SATURATION = 0.85
CHAOS_KILL = "die-at:latency/0:250"
CHAOS_REPLACE_AFTER_MS = 80.0
#: Absolute floor on the shielded bound so a fault-free run that misses
#: nothing does not demand a literally perfect faulty run.
CHAOS_DEGRADED_FLOOR = 0.02


def summarize_chaos(report) -> dict:
    payload = summarize_serving(report)
    payload.update(
        {
            "failed": report.failed,
            "failed_rate": round(report.failed_rate, 4),
            "retries": report.retries,
            "hedges": report.hedges,
            "failovers": report.failovers,
            "replicas_lost": report.replicas_lost,
            "replicas_replaced": report.replicas_replaced,
            "degraded_time_ms": round(report.degraded_time_ms, 3),
        }
    )
    return payload


def _chaos_groups(latency_profile, throughput_profile):
    from repro.serving import GroupSpec

    return [
        GroupSpec(
            "latency",
            latency_profile,
            replicas=1,
            policy="edf",
            batch_window_ms=0.0,
            max_batch=4,
        ),
        GroupSpec(
            "throughput",
            throughput_profile,
            replicas=CHAOS_BUDGET - 1,
            policy="fifo",
            batch_window_ms=4.0,
            max_batch=8,
        ),
    ]


def run_chaos_section(latency_profile, throughput_profile) -> tuple[dict, list[str]]:
    """Chaos resilience: 20% replica loss, shielded vs unshielded.

    Returns the JSON section plus a list of failed gates (empty = pass).
    """
    from repro.serving import (
        ChaosPlan,
        RecoveryPolicy,
        report_to_json,
        serve_cluster,
        serve_trace,
        trace_from_workload,
    )

    workload = _cluster_workload(
        latency_profile, CHAOS_SATURATION, budget=CHAOS_BUDGET
    )
    groups = _chaos_groups(latency_profile, throughput_profile)
    chaos = ChaosPlan.parse(CHAOS_KILL)
    shielded_policy = RecoveryPolicy(
        max_retries=2,
        breaker_threshold=1,
        replace_after_ms=CHAOS_REPLACE_AFTER_MS,
    )
    unshielded_policy = RecoveryPolicy(max_retries=0, breaker_threshold=0)

    def session(plan, recovery):
        return serve_cluster(
            groups,
            workload,
            router="deadline",
            chaos=plan,
            recovery=recovery,
        )

    fault_free = session(None, None)
    shielded = session(chaos, shielded_policy)
    shielded_again = session(chaos, shielded_policy)
    unshielded = session(chaos, unshielded_policy)
    heap = serve_trace(
        groups,
        trace_from_workload(workload),
        router="deadline",
        chaos=chaos,
        recovery=shielded_policy,
    )

    def degraded(report):
        return report.miss_rate + report.failed_rate

    bound = max(2.0 * degraded(fault_free), CHAOS_DEGRADED_FLOOR)
    deterministic = report_to_json(shielded) == report_to_json(shielded_again)
    counter_fields = (
        "submitted", "completed", "failed", "shed", "deadline_misses",
        "retries", "hedges", "failovers", "replicas_lost",
        "replicas_replaced",
    )
    engine_equivalent = all(
        getattr(heap, field) == getattr(shielded, field)
        for field in counter_fields
    )

    gates = []
    if degraded(shielded) > bound:
        gates.append(
            f"shielded run degraded to miss+fail {degraded(shielded):.4f} "
            f"at {1 / CHAOS_BUDGET:.0%} replica loss (bound {bound:.4f})"
        )
    if degraded(unshielded) <= degraded(shielded):
        gates.append(
            f"unshielded run (miss+fail {degraded(unshielded):.4f}) did "
            f"not collapse past the shielded run "
            f"({degraded(shielded):.4f}) — the recovery stack bought "
            f"nothing"
        )
    if unshielded.failed <= 0:
        gates.append("unshielded run failed no frames at 20% replica loss")
    if shielded.retries <= 0:
        gates.append("shielded run never retried a failed frame")
    if shielded.failovers <= 0:
        gates.append(
            "shielded run never failed traffic over to the surviving group"
        )
    if shielded.replicas_replaced <= 0:
        gates.append("shielded run never replaced its dead replica")
    if shielded.replicas_lost != 1:
        gates.append(
            f"shielded run lost {shielded.replicas_lost} replicas "
            f"(chaos plan kills exactly 1)"
        )
    for name, report in (
        ("fault-free", fault_free),
        ("shielded", shielded),
        ("unshielded", unshielded),
    ):
        if report.completed + report.shed + report.failed != report.submitted:
            gates.append(
                f"{name} chaos run lost frames "
                f"(completed + shed + failed != submitted)"
            )
    if not deterministic:
        gates.append("shielded chaos sessions diverged at the same seed")
    if not engine_equivalent:
        gates.append(
            "event-heap engine diverged from the coroutine scheduler "
            "under faults"
        )

    section = {
        "replica_budget": CHAOS_BUDGET,
        "saturation": CHAOS_SATURATION,
        "chaos": CHAOS_KILL,
        "replica_loss_fraction": round(1.0 / CHAOS_BUDGET, 2),
        "recovery": {
            "max_retries": shielded_policy.max_retries,
            "breaker_threshold": shielded_policy.breaker_threshold,
            "replace_after_ms": shielded_policy.replace_after_ms,
        },
        "fault_free": summarize_chaos(fault_free),
        "shielded": summarize_chaos(shielded),
        "unshielded": summarize_chaos(unshielded),
        "degraded_bound": round(bound, 4),
        "deterministic": deterministic,
        "engine_equivalent": engine_equivalent,
        "gates": gates,
    }
    return section, gates


#: Size of the event-heap engine's scale session: one million avatars on
#: a slow periodic refresh over a two-minute diurnal session — ~1.1M
#: requests, the population the engine exists to serve in one process.
ENGINE_AVATARS = 1_000_000
ENGINE_DURATION_S = 120.0
ENGINE_AVATAR_FPS = 1.0 / 60.0

#: The engine's wall-time budget for the full scale session (seconds) and
#: the floor on simulated requests per wall-clock second.
ENGINE_WALL_BUDGET_S = 60.0
ENGINE_THROUGHPUT_FLOOR = 30_000.0


def run_engine_section(result, profile) -> tuple[dict, list[str]]:
    """The event-heap engine at population scale, with autoscaling.

    Returns the JSON section plus a list of failed gates (empty = pass).
    """
    from repro.serving import AutoscalePolicy, make_trace, serve_trace
    from repro.serving.slo import report_to_json

    def session():
        started = time.perf_counter()
        trace = make_trace(
            ENGINE_AVATARS,
            ENGINE_DURATION_S,
            shape="diurnal",
            avatar_fps=ENGINE_AVATAR_FPS,
            deadline_ms=200.0,
            jitter_ms=400.0,
            seed=42,
        )
        report = serve_trace(
            result.serving_group(
                name="fleet", replicas=2, policy="edf", profile=profile
            ),
            trace,
            admission=True,
            autoscale=AutoscalePolicy(
                check_interval_ms=1000.0,
                warmup_ms=5000.0,
                min_replicas=2,
                max_replicas=64,
            ),
        )
        return report, time.perf_counter() - started

    report, wall = session()
    replay, _ = session()
    deterministic = report_to_json(report) == report_to_json(replay)
    rate = report.submitted / wall if wall > 0 else 0.0

    gates = []
    if report.submitted < 1_000_000:
        gates.append(
            f"scale session submitted only {report.submitted:,} requests "
            f"(needs >= 1,000,000)"
        )
    if wall >= ENGINE_WALL_BUDGET_S:
        gates.append(
            f"scale session took {wall:.1f}s "
            f"(budget {ENGINE_WALL_BUDGET_S:.0f}s)"
        )
    if rate < ENGINE_THROUGHPUT_FLOOR:
        gates.append(
            f"engine served {rate:,.0f} simulated req/s "
            f"(floor {ENGINE_THROUGHPUT_FLOOR:,.0f})"
        )
    if report.completed + report.shed != report.submitted:
        gates.append("scale session lost requests (completed + shed != submitted)")
    if report.scale_ups <= 0:
        gates.append("autoscaler never scaled up under the diurnal peak")
    if not deterministic:
        gates.append("engine sessions diverged at the same seed")

    section = {
        "avatars": ENGINE_AVATARS,
        "duration_s": ENGINE_DURATION_S,
        "shape": report.shape,
        "submitted": report.submitted,
        "completed": report.completed,
        "shed": report.shed,
        "deadline_misses": report.deadline_misses,
        "scale_ups": report.scale_ups,
        "scale_downs": report.scale_downs,
        "peak_replicas": report.peak_replicas,
        "wall_seconds": round(wall, 3),
        "simulated_requests_per_second": round(rate),
        "deterministic": deterministic,
        "gates": gates,
    }
    return section, gates


def run_serving_suite(args: argparse.Namespace) -> int:
    from repro.devices.fpga import get_device
    from repro.dse.space import Customization
    from repro.fcad.flow import FCad
    from repro.models.zoo import get_model
    from repro.serving import (
        GroupSpec,
        ReplicaPool,
        report_to_json,
        saturation_workload,
        serve_cluster,
        serve_workload,
    )

    network = get_model(args.model)
    result = FCad(
        network=network,
        device=get_device(args.device),
        quant=args.quant,
    ).run(
        iterations=args.iterations,
        population=args.population,
        seed=0,
        workers=1,
    )
    profile = result.frame_latency_profile(frames=8)

    # The throughput tier of the mixed cluster: the same flow under a
    # big-batch customization (the paper's knob that actually changes the
    # architecture — here per-branch batch 2, which doubles the cold fill
    # while holding the steady rate).
    branches = len(network.output_names())
    throughput_result = FCad(
        network=network,
        device=get_device(args.device),
        quant=args.quant,
        customization=Customization(
            batch_sizes=(2,) * branches, priorities=(1.0,) * branches
        ),
    ).run(
        iterations=args.iterations,
        population=args.population,
        seed=0,
        workers=1,
    )
    throughput_profile = throughput_result.frame_latency_profile(frames=8)

    workload = saturation_workload(
        profile,
        replicas=args.replicas,
        avatar_fps=args.avatar_fps,
        frames_per_avatar=args.frames,
    )
    avatars = workload.avatars

    def session(policy: str):
        pool = ReplicaPool(
            profile, replicas=args.replicas, max_batch=args.max_batch
        )
        started = time.perf_counter()
        report = serve_workload(pool, workload, policy=policy)
        return report, time.perf_counter() - started

    fifo, fifo_wall = session("fifo")
    edf, edf_wall = session("edf")
    edf_again, _ = session("edf")
    deterministic = report_to_json(edf) == report_to_json(edf_again)

    # A cluster of one in-process group must reproduce the plain
    # BatchScheduler path SLO for SLO (the refactor's identity guarantee).
    single_group = serve_cluster(
        [
            GroupSpec(
                "only",
                profile,
                replicas=args.replicas,
                policy="edf",
                batch_window_ms=2.0,
                max_batch=args.max_batch,
            )
        ],
        workload,
    )
    identity_fields = (
        "policy", "submitted", "completed", "duration_ms",
        "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
        "latency_mean_ms", "latency_max_ms", "queue_mean_ms",
        "deadline_misses", "batches", "mean_batch_size",
        "replica_utilization", "per_avatar_p99_ms",
    )
    single_group_identical = all(
        getattr(single_group, field) == getattr(edf, field)
        for field in identity_fields
    )

    cluster_section, cluster_gates = run_cluster_section(
        profile, throughput_profile
    )
    chaos_section, chaos_gates = run_chaos_section(
        profile, throughput_profile
    )

    # The event-heap engine must reproduce the coroutine scheduler's
    # counters on the suite's own workload before its scale numbers mean
    # anything.
    from repro.serving import serve_trace

    heap_edf = serve_trace(
        ReplicaPool(profile, replicas=args.replicas, max_batch=args.max_batch),
        workload,
        policy="edf",
    )
    equivalence_fields = (
        "submitted", "completed", "deadline_misses", "batches",
    )
    engine_equivalent = all(
        getattr(heap_edf, field) == getattr(edf, field)
        for field in equivalence_fields
    )

    engine_section, engine_gates = run_engine_section(result, profile)

    payload = {
        "benchmark": "avatar_serving",
        "config": {
            "model": args.model,
            "device": args.device,
            "quant": args.quant,
            "iterations": args.iterations,
            "population": args.population,
            "replicas": args.replicas,
            "max_batch": args.max_batch,
            "avatars": avatars,
            "frames_per_avatar": args.frames,
            "avatar_fps": args.avatar_fps,
            "deadline_tiers_ms": list(workload.deadline_tiers),
        },
        "environment": environment(),
        "design": {
            "steady_fps": round(result.fps, 2),
            "first_frame_ms": round(profile.first_frame_ms, 3),
            "steady_interval_ms": round(profile.steady_interval_ms, 3),
        },
        "throughput_design": {
            "steady_fps": round(throughput_result.fps, 2),
            "first_frame_ms": round(throughput_profile.first_frame_ms, 3),
            "steady_interval_ms": round(
                throughput_profile.steady_interval_ms, 3
            ),
        },
        "policies": {
            "fifo": summarize_serving(fifo),
            "edf": summarize_serving(edf),
        },
        "edf_vs_fifo": {
            "miss_rate_delta": round(edf.miss_rate - fifo.miss_rate, 4),
            "p99_delta_ms": round(
                edf.latency_p99_ms - fifo.latency_p99_ms, 3
            ),
        },
        "wall_seconds": {
            "fifo": round(fifo_wall, 3),
            "edf": round(edf_wall, 3),
        },
        "deterministic": deterministic,
        "single_group_cluster_identical": single_group_identical,
        "engine_equivalent": engine_equivalent,
        "cluster": cluster_section,
        "chaos": chaos_section,
        "engine": engine_section,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    out_dir = REPO / "benchmarks" / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "serving-smoke.txt").write_text(
        f"### Avatar serving smoke (reduced size)\n"
        f"{fifo.render()}\n\n{edf.render()}\n"
    )

    print(f"wrote {args.out}")
    print(
        f"{avatars} avatars on {args.replicas} replicas: "
        f"fifo miss {100 * fifo.miss_rate:.1f}% p99 "
        f"{fifo.latency_p99_ms:.1f} ms | edf miss "
        f"{100 * edf.miss_rate:.1f}% p99 {edf.latency_p99_ms:.1f} ms, "
        f"deterministic={deterministic}"
    )
    mixed = cluster_section["mixed"]
    best = cluster_section["homogeneous"][
        cluster_section["best_homogeneous"]
    ]
    over = cluster_section["overload"]
    print(
        f"cluster (budget {CLUSTER_BUDGET}, {CLUSTER_SATURATION}x): mixed "
        f"miss {100 * mixed['deadline_miss_rate']:.1f}% (shed "
        f"{100 * mixed['shed_rate']:.1f}%) vs best homogeneous "
        f"{cluster_section['best_homogeneous']} miss "
        f"{100 * best['deadline_miss_rate']:.1f}%"
    )
    print(
        f"overload ({SHED_OVERLOAD}x): shed p99 "
        f"{over['with_shedding']['latency_p99_ms']:.1f} ms (shed "
        f"{100 * over['with_shedding']['shed_rate']:.1f}%) vs no-shed p99 "
        f"{over['without_shedding']['latency_p99_ms']:.1f} ms, bound "
        f"{over['p99_bound_ms']:.0f} ms"
    )
    shielded = chaos_section["shielded"]
    unshielded = chaos_section["unshielded"]
    print(
        f"chaos ({CHAOS_KILL}, {1 / CHAOS_BUDGET:.0%} loss): shielded "
        f"miss+fail "
        f"{100 * (shielded['deadline_miss_rate'] + shielded['failed_rate']):.1f}% "
        f"(bound {100 * chaos_section['degraded_bound']:.1f}%) vs "
        f"unshielded "
        f"{100 * (unshielded['deadline_miss_rate'] + unshielded['failed_rate']):.1f}%, "
        f"retries {shielded['retries']}, failovers "
        f"{shielded['failovers']}, replaced {shielded['replicas_replaced']}"
    )
    print(
        f"engine: {engine_section['submitted']:,} requests over "
        f"{ENGINE_AVATARS:,} avatars in {engine_section['wall_seconds']}s "
        f"({engine_section['simulated_requests_per_second']:,} sim req/s), "
        f"peak {engine_section['peak_replicas']} replicas "
        f"(+{engine_section['scale_ups']}/-{engine_section['scale_downs']}), "
        f"deterministic={engine_section['deterministic']}"
    )
    if not deterministic:
        print("ERROR: serving sessions diverged at the same seed")
        return 1
    if not single_group_identical:
        print(
            "ERROR: single-group cluster diverged from the plain "
            "BatchScheduler path"
        )
        return 1
    if not engine_equivalent:
        print(
            "ERROR: event-heap engine diverged from the coroutine "
            "scheduler on the shared workload"
        )
        return 1
    if cluster_gates:
        for gate in cluster_gates:
            print(f"ERROR: cluster gate failed: {gate}")
        return 1
    if chaos_gates:
        for gate in chaos_gates:
            print(f"ERROR: chaos gate failed: {gate}")
        return 1
    if engine_gates:
        for gate in engine_gates:
            print(f"ERROR: engine gate failed: {gate}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        default="dse",
        choices=["dse", "serving", "dist"],
        help="which benchmark smoke to run (default: dse)",
    )
    parser.add_argument("--device", default="ZU9CG")
    parser.add_argument("--quant", default="int8")
    parser.add_argument(
        "--objective",
        default="paper",
        choices=["paper", "slo", "composite"],
        help="fitness objective for the DSE suite; recorded in the "
        "payload so trajectories under different objectives are never "
        "compared (default: paper)",
    )
    parser.add_argument("--searches", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--population", type=int, default=40)
    parser.add_argument(
        "--workers",
        type=int,
        default=int(
            os.environ.get("FCAD_BENCH_WORKERS")
            or max(1, min(4, os.cpu_count() or 1))
        ),
        help="workers for the parallel run (default: $FCAD_BENCH_WORKERS "
        "if set, else up to 4)",
    )
    # serving-suite knobs
    parser.add_argument("--model", default="codec_avatar_decoder")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--avatar-fps", type=float, default=30.0)
    parser.add_argument(
        "--out",
        help="output path (default: BENCH_dse.json / BENCH_serving.json)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = f"BENCH_{args.suite}.json"

    if args.suite == "serving":
        return run_serving_suite(args)
    if args.suite == "dist":
        return run_dist_suite(args)
    return run_dse_suite(args)


if __name__ == "__main__":
    sys.exit(main())
