"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the framework's whole surface:

- ``models`` / ``devices``      — list what the zoo and device DB offer;
- ``profile <model>``           — the Analysis step's tables;
- ``explore <model>``           — run the F-CAD flow, optionally saving a
  markdown design report and the found configuration as JSON; with
  ``--sweep`` it explores a whole device/precision grid in one batch;
- ``simulate <model>``          — cycle-accurate validation of a saved (or
  freshly explored) configuration, with an optional utilization timeline;
- ``serve [model]``             — deploy simulated replicas of the
  explored design(s) and serve a multi-avatar decode workload (FIFO /
  deadline-EDF / fair batching, optional ``--shape`` traffic and
  ``--autoscale``) with latency/deadline SLO reporting; with
  ``--cluster`` it serves a heterogeneous replica-group cluster
  (deadline-aware routing, optional load shedding); every replica
  serves in process;
- ``experiment <name>``         — regenerate one of the paper's tables or
  figures (or the ablations).

``<model>`` is a zoo name (``repro models``) or a path to a network JSON
file produced by :func:`repro.ir.graph_to_json`.

Each search runs in one process. ``repro explore --sweep ... --workers
N`` runs a sweep's distinct cases on N forked processes, with the serial
sweep's results.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from repro.analysis.analyzer import analyze_network
from repro.arch.serialize import config_from_json, config_to_json
from repro.devices.asic import AsicSpec
from repro.devices.fpga import get_device, list_devices
from repro.dse.objective import OBJECTIVES, RERANK_ORACLES
from repro.dse.space import Customization
from repro.fcad.flow import FCad
from repro.fcad.report import render_markdown_report
from repro.ir.graph import NetworkGraph
from repro.ir.serialize import graph_from_json
from repro.models.zoo import get_model, list_models
from repro.quant.schemes import get_scheme
from repro.serving.policies import list_policies
from repro.serving.router import list_routers
from repro.serving.traffic import list_shapes
from repro.sim.runner import simulate
from repro.sim.timeline import MIN_WIDTH as TIMELINE_MIN_WIDTH
from repro.sim.timeline import render_timeline


def _load_network(spec: str) -> NetworkGraph:
    """A zoo model name or a path to a serialized graph."""
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        return graph_from_json(path.read_text())
    return get_model(spec)


def _int_at_least(minimum: int, expected: str) -> Callable[[str], int]:
    """argparse type: an integer of at least ``minimum``, with a friendly
    error that names the ``expected`` value."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {value}"
            )
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_timeline_width = _int_at_least(
    TIMELINE_MIN_WIDTH, f"a width of at least {TIMELINE_MIN_WIDTH} columns"
)


def _float_in(
    is_valid: Callable[[float], bool], expected: str
) -> Callable[[str], float]:
    """argparse type: a number that passes ``is_valid``, with a friendly
    error that names the ``expected`` value."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            ) from None
        if not is_valid(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {value}"
            )
        return value

    return parse


_positive_float = _float_in(lambda value: 0 < value < math.inf, "a positive number")
_non_negative_float = _float_in(
    lambda value: 0 <= value < math.inf, "a finite non-negative number"
)


def _comma_list(item: Callable[[str], float]) -> Callable[[str], tuple]:
    """argparse type: a comma-separated list, each part parsed by ``item``."""
    return lambda text: tuple(map(item, text.split(",")))


def _parse_sweep_devices(text: str) -> list[str] | None:
    """Validate a ``--sweep`` device list; None (plus stderr) if malformed."""
    names = [name.strip() for name in text.split(",")]
    if not names or any(not name for name in names):
        print(
            f"error: --sweep expects a comma-separated device list, got "
            f"{text!r} (try: --sweep Z7045,ZU17EG,ZU9CG)",
            file=sys.stderr,
        )
        return None
    unknown = []
    for name in names:
        try:
            get_device(name)
        except KeyError:
            unknown.append(name)
    if unknown:
        known = ", ".join(d.name for d in list_devices())
        print(
            f"error: unknown device(s) in --sweep: {', '.join(unknown)}; "
            f"known devices: {known}",
            file=sys.stderr,
        )
        return None
    return names


def _parse_numbers(text: str, cast) -> tuple:
    return tuple(cast(part) for part in text.split(","))


#: Design presets for ``repro serve --cluster``. Each preset explores its
#: own design point — the per-branch batch size is the paper's customization
#: knob that actually changes the architecture — and carries the serving
#: defaults that fit it (a latency tier batches eagerly under EDF; a
#: big-batch tier coalesces frames under FIFO). ``base`` uses the CLI's own
#: ``--batch``/``--policy``/``--batch-window-ms`` settings.
CLUSTER_DESIGNS = {
    "base": {"batch": None, "policy": None, "window": None},
    "latency": {"batch": 1, "policy": "edf", "window": 0.0},
    "throughput": {"batch": 4, "policy": "fifo", "window": 4.0},
}


def _parse_cluster_spec(text: str) -> list[tuple[str, int, str | None]] | None:
    """Validate ``--cluster design:replicas[:policy],...``; None if malformed."""
    usage = "(try: --cluster latency:1,throughput:3)"
    entries: list[tuple[str, int, str | None]] = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if not fields or not fields[0] or len(fields) > 3:
            print(
                f"error: --cluster expects comma-separated "
                f"design:replicas[:policy] groups, got {text!r} {usage}",
                file=sys.stderr,
            )
            return None
        design = fields[0]
        if design not in CLUSTER_DESIGNS:
            known = ", ".join(sorted(CLUSTER_DESIGNS))
            print(
                f"error: unknown cluster design {design!r}; known designs: "
                f"{known}",
                file=sys.stderr,
            )
            return None
        replicas = 1
        if len(fields) >= 2:
            try:
                replicas = int(fields[1])
            except ValueError:
                replicas = 0
            if replicas < 1:
                print(
                    f"error: --cluster replica counts must be positive "
                    f"integers, got {fields[1]!r} in {part.strip()!r} {usage}",
                    file=sys.stderr,
                )
                return None
        policy = None
        if len(fields) == 3:
            policy = fields[2]
            if policy not in list_policies():
                known = ", ".join(list_policies())
                print(
                    f"error: unknown policy {policy!r} in --cluster group "
                    f"{part.strip()!r}; known policies: {known}",
                    file=sys.stderr,
                )
                return None
        entries.append((design, replicas, policy))
    return entries


def _customization(
    args: argparse.Namespace, num_branches: int
) -> Customization | None:
    """The ``--batch``/``--priority`` customization; None (plus stderr)
    when a list does not give one value per branch of the model."""
    for flag, values in (("--batch", args.batch), ("--priority", args.priority)):
        if values is not None and len(values) != num_branches:
            print(
                f"error: {flag} gives {len(values)} values, the model has "
                f"{num_branches} branches",
                file=sys.stderr,
            )
            return None
    return Customization(
        batch_sizes=args.batch or (1,) * num_branches,
        priorities=args.priority or (1.0,) * num_branches,
    )


def _add_target_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--device", default="ZU9CG", help="FPGA name (see `devices`)")
    parser.add_argument("--quant", default="int8", choices=["int8", "int16"])
    parser.add_argument(
        "--batch",
        type=_comma_list(_positive_int),
        help="per-branch batch sizes, e.g. 1,2,2",
    )
    parser.add_argument(
        "--priority",
        type=_comma_list(_non_negative_float),
        help="per-branch priorities, e.g. 1,1,2",
    )
    parser.add_argument("--iterations", type=_positive_int, default=10)
    parser.add_argument("--population", type=_positive_int, default=80)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--asic-macs",
        type=_positive_int,
        help="target an ASIC with this many MAC units instead of an FPGA",
    )
    parser.add_argument("--asic-sram-kb", type=_positive_int, default=4096)
    parser.add_argument(
        "--asic-bandwidth-gbps", type=_positive_float, default=25.6
    )


def _target(args: argparse.Namespace):
    if args.asic_macs:
        return AsicSpec(
            name="cli-asic",
            mac_units=args.asic_macs,
            onchip_buffer_kb=args.asic_sram_kb,
            bandwidth_gbps=args.asic_bandwidth_gbps,
        )
    return get_device(args.device)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def cmd_models(args: argparse.Namespace) -> int:
    """List every model in the zoo."""
    for name in list_models():
        print(name)
    return 0


def cmd_devices(args: argparse.Namespace) -> int:
    """List the FPGA device database."""
    for device in list_devices():
        print(
            f"{device.name:8s} {device.family:18s} {device.dsp:5d} DSP  "
            f"{device.bram_18k:5d} BRAM18K  {device.bandwidth_gbps:.1f} GB/s"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run the Analysis step and print its tables."""
    network = _load_network(args.model)
    print(analyze_network(network).render())
    return 0


def _sweep_summary(results) -> str:
    rows = []
    for result in results:
        perf = result.dse.best_perf
        rows.append(
            [
                result.network_name,
                f"{result.budget.compute}dsp",
                result.quant.name,
                f"{perf.fps:.1f}",
                "yes" if perf.fps >= 90.0 else "no",
                f"{100 * perf.overall_efficiency:.1f}",
                f"{perf.total_dsp}",
                f"{perf.total_bram}",
                f"{result.dse.runtime_seconds:.1f}",
                f"{100 * result.dse.cache_hit_rate:.0f}",
            ]
        )
    from repro.utils.tables import render_table

    return render_table(
        [
            "model", "budget", "quant", "FPS", "VR", "eff %",
            "DSP", "BRAM", "DSE s", "cache %",
        ],
        rows,
        title="Batch sweep results",
    )


@contextmanager
def _search_profiler(enabled: bool, out: str | None = None):
    """cProfile the wrapped search and print the top-20 cumulative hotspots.

    This is how perf work on the DSE should start: measure first. The
    table makes it obvious whether time goes to Algorithm-2 solves, cache
    bookkeeping, or objective scoring before anyone reaches for a fix.
    ``out`` additionally dumps the full raw :mod:`pstats` data to a file
    for offline digging (``python -m pstats <file>``, snakeviz, etc.).
    """
    if not enabled and out is None:
        yield
        return
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        if out is not None:
            stats.dump_stats(out)
            print(f"search profile written to {out}")
        if enabled:
            stats.sort_stats("cumulative").print_stats(20)
            print("\n--- search profile (top 20 by cumulative time) ---")
            print(stream.getvalue().rstrip())


def cmd_explore(args: argparse.Namespace) -> int:
    """Run the full F-CAD flow; optionally save config/report artifacts."""
    network = _load_network(args.model)
    customization = _customization(args, len(network.output_names()))
    if customization is None:
        return 2
    if args.workers > 1 and args.sweep is None:
        print(
            "error: --workers runs the cases of a --sweep in parallel; a "
            "single search runs in one process (try: --sweep Z7045,ZU9CG "
            f"--workers {args.workers})",
            file=sys.stderr,
        )
        return 2
    if args.workers > 1 and (args.profile or args.profile_out):
        print(
            "error: --profile profiles this process, and with --workers "
            "the searches run in others; profile the sweep with --workers 1",
            file=sys.stderr,
        )
        return 2
    if args.sweep is not None:
        from repro.fcad.flow import run_sweep, sweep_grid

        if args.asic_macs:
            print(
                "error: --sweep takes FPGA device names and cannot be "
                "combined with --asic-macs",
                file=sys.stderr,
            )
            return 2
        devices = _parse_sweep_devices(args.sweep)
        if devices is None:
            return 2
        quants = (
            [q.strip() for q in args.sweep_quants.split(",")]
            if args.sweep_quants
            else [args.quant]
        )
        with _search_profiler(args.profile, args.profile_out):
            results = run_sweep(
                sweep_grid(
                    networks=[network],
                    devices=devices,
                    quants=quants,
                    customization=customization,
                    alpha=args.alpha,
                ),
                iterations=args.iterations,
                population=args.population,
                seed=args.seed,
                workers=args.workers,
                objective=args.objective,
                rerank_oracle=args.rerank,
                rerank_top_k=args.rerank_top_k,
            )
        print(_sweep_summary(results))
        if args.save_config or args.report:
            print(
                "(--save-config/--report apply to single-case "
                "explore only)"
            )
        return 0
    flow = FCad(
        network=network,
        device=_target(args),
        quant=args.quant,
        customization=customization,
        alpha=args.alpha,
    )
    with _search_profiler(args.profile, args.profile_out):
        result = flow.run(
            iterations=args.iterations,
            population=args.population,
            seed=args.seed,
            objective=args.objective,
            rerank_oracle=args.rerank,
            rerank_top_k=args.rerank_top_k,
        )
    print(result.render())
    dse = result.dse
    print(
        f"DSE cache: {dse.cache_hits}/{dse.cache_lookups} bucket hits "
        f"({100 * dse.bucket_hit_rate:.0f}%), "
        f"{dse.stage_hits}/{dse.stage_lookups} stage-memo hits "
        f"({100 * dse.stage_hit_rate:.0f}%), "
        f"{dse.evaluations} Algorithm-2 solves"
    )
    print(
        f"DSE phases: eval {dse.eval_seconds:.2f}s, cache "
        f"{dse.cache_seconds:.2f}s"
    )
    print(
        f"objective: {dse.objective}; oracle stages: "
        + "; ".join(
            f"{s.name} {s.invocations} invocations "
            f"({s.cache_hits} cache hits)"
            for s in dse.oracle_stats
        )
    )
    metrics = dse.best_metrics
    if metrics is not None and metrics.p99_ms is not None:
        print(
            f"selected design under the canned serving workload: "
            f"p99 {metrics.p99_ms:.2f} ms, deadline-miss "
            f"{100 * (metrics.deadline_miss_rate or 0.0):.1f}%, "
            f"throughput {metrics.throughput_fps:.1f} FPS"
        )
    if args.save_config:
        Path(args.save_config).write_text(
            config_to_json(result.dse.best_config)
        )
        print(f"\nconfiguration written to {args.save_config}")
    if args.report:
        Path(args.report).write_text(render_markdown_report(result))
        print(f"design report written to {args.report}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Validate a configuration with the cycle-accurate simulator."""
    network = _load_network(args.model)
    from repro.construction.reorg import build_pipeline_plan

    plan = build_pipeline_plan(network)
    quant = get_scheme(args.quant)
    target = _target(args)
    if args.config:
        config = config_from_json(Path(args.config).read_text())
    else:
        customization = _customization(args, plan.num_branches)
        if customization is None:
            return 2
        result = FCad(
            network=network,
            device=target,
            quant=quant,
            customization=customization,
        ).run(
            iterations=args.iterations,
            population=args.population,
            seed=args.seed,
        )
        config = result.dse.best_config
    report = simulate(
        plan=plan,
        config=config,
        quant=quant,
        bandwidth_gbps=target.budget().bandwidth_gbps,
        frequency_mhz=target.default_frequency_mhz,
        frames=args.frames,
        warmup=max(1, args.frames // 4),
    )
    for idx, fps in enumerate(report.branch_fps):
        print(f"Br.{idx + 1}: {fps:.1f} FPS (steady state)")
    print(f"end-to-end over {args.frames} frames: {report.end_to_end_fps:.1f} FPS")
    print(f"whole-run efficiency: {100 * report.efficiency:.1f}%")
    if args.timeline:
        print()
        print(render_timeline(report.stats, width=args.timeline_width))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Explore design(s), deploy replicas, serve a multi-avatar workload."""
    from repro.serving import pool_from_result, report_to_json, serve_trace

    # Validate every workload knob before the (expensive) design search.
    cluster_spec = None
    if args.cluster is not None:
        cluster_spec = _parse_cluster_spec(args.cluster)
        if cluster_spec is None:
            return 2
    chaos = None
    if args.chaos is not None:
        from repro.serving import ChaosPlan

        try:
            chaos = ChaosPlan.parse(args.chaos)
        except ValueError as exc:
            print(f"error: bad --chaos spec: {exc}", file=sys.stderr)
            return 2
    if args.max_retries is not None and args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2
    recovery = None
    if (
        chaos is not None
        or args.hedge
        or args.max_retries is not None
        or args.replace_after_ms is not None
    ):
        from repro.serving import RecoveryPolicy

        defaults = RecoveryPolicy()
        recovery = RecoveryPolicy(
            max_retries=(
                defaults.max_retries
                if args.max_retries is None
                else args.max_retries
            ),
            hedge=args.hedge,
            replace_after_ms=args.replace_after_ms,
        )
    tiers: tuple[float, ...] = ()
    if args.deadline_tiers is not None:
        try:
            tiers = _parse_numbers(args.deadline_tiers, float)
        except ValueError:
            print(
                f"error: --deadline-tiers expects comma-separated numbers, "
                f"got {args.deadline_tiers!r} (try: --deadline-tiers 25,100)",
                file=sys.stderr,
            )
            return 2
        if not tiers or not all(0 < tier < math.inf for tier in tiers):
            print(
                "error: --deadline-tiers budgets must all be positive",
                file=sys.stderr,
            )
            return 2
    frame_interval_ms = 1000.0 / args.avatar_fps
    if not 0 <= args.jitter_ms < frame_interval_ms:
        print(
            f"error: --jitter-ms must be in [0, {frame_interval_ms:.1f}) — "
            f"less than one frame interval at {args.avatar_fps:g} FPS",
            file=sys.stderr,
        )
        return 2
    if not 0 <= args.batch_window_ms < math.inf:
        print(
            "error: --batch-window-ms must be a finite number >= 0",
            file=sys.stderr,
        )
        return 2
    if args.sim_frames < 2:
        print(
            "error: --sim-frames must be >= 2 (fill vs steady state needs "
            "at least two simulated frames)",
            file=sys.stderr,
        )
        return 2
    if args.shape and args.duration is None:
        print(
            "error: --shape sizes the session by time; add --duration",
            file=sys.stderr,
        )
        return 2
    if args.churn and args.shape != "steady":
        print(
            "error: --churn applies to --shape steady",
            file=sys.stderr,
        )
        return 2
    if not 0.0 <= args.churn <= 1.0:
        print("error: --churn must be in [0, 1]", file=sys.stderr)
        return 2

    frames_per_avatar = args.frames
    if args.duration is not None:
        from repro.serving.workload import frames_for_duration

        frames_per_avatar = frames_for_duration(
            args.duration, args.avatar_fps
        )

    network = _load_network(args.model)
    customization = _customization(args, len(network.output_names()))
    if customization is None:
        return 2

    if cluster_spec is None:
        result = FCad(
            network=network,
            device=_target(args),
            quant=args.quant,
            customization=customization,
        ).run(
            iterations=args.iterations,
            population=args.population,
            seed=args.seed,
        )
        profile = result.frame_latency_profile(frames=args.sim_frames)
        print(
            f"design: {result.fps:.1f} FPS steady decode rate; per replica: "
            f"first frame {profile.first_frame_ms:.2f} ms, then one per "
            f"{profile.steady_interval_ms:.2f} ms"
        )
        traffic = _serve_traffic(args, tiers, frames_per_avatar)
        autoscale = _serve_autoscale(args)
        if args.shed or autoscale is not None:
            # Admission control and autoscaling act on replica groups; a
            # single group of the explored design keeps the rest identical.
            report = serve_trace(
                result.serving_group(
                    replicas=args.replicas,
                    policy=args.policy,
                    batch_window_ms=args.batch_window_ms,
                    max_batch=args.max_batch,
                    profile=profile,
                ),
                traffic,
                admission=args.shed or None,
                autoscale=autoscale,
                chaos=chaos,
                recovery=recovery,
            )
        else:
            report = serve_trace(
                pool_from_result(
                    result,
                    replicas=args.replicas,
                    max_batch=args.max_batch,
                    profile=profile,
                ),
                traffic,
                policy=args.policy,
                batch_window_ms=args.batch_window_ms,
                max_batch=args.max_batch,
                chaos=chaos,
                recovery=recovery,
            )
    else:
        report = _cluster_session(
            args, network, customization, cluster_spec, tiers,
            frames_per_avatar, chaos, recovery,
        )
    print()
    print(report.render())
    if args.json:
        Path(args.json).write_text(report_to_json(report) + "\n")
        print(f"\nserving report written to {args.json}")
    return 0


def _serve_traffic(args: argparse.Namespace, tiers, frames_per_avatar: int):
    """The session's request stream: a traffic shape or steady avatars."""
    if args.shape:
        from repro.serving import make_trace

        params = {}
        if args.shape == "steady" and args.churn:
            params["churn"] = args.churn
        return make_trace(
            avatars=args.avatars,
            duration_s=args.duration,
            shape=args.shape,
            avatar_fps=args.avatar_fps,
            deadline_ms=args.deadline_ms,
            deadline_tiers=tiers,
            jitter_ms=args.jitter_ms,
            seed=args.seed,
            **params,
        )
    from repro.serving import AvatarWorkload

    return AvatarWorkload(
        avatars=args.avatars,
        frames_per_avatar=frames_per_avatar,
        frame_interval_ms=1000.0 / args.avatar_fps,
        deadline_ms=args.deadline_ms,
        deadline_tiers=tiers,
        jitter_ms=args.jitter_ms,
        seed=args.seed,
    )


def _serve_autoscale(args: argparse.Namespace):
    """The session's autoscaling policy, or ``None`` when off."""
    if not args.autoscale:
        return None
    from repro.serving import AutoscalePolicy

    return AutoscalePolicy(
        warmup_ms=args.autoscale_warmup_ms,
        max_replicas=args.autoscale_max,
    )


def _cluster_session(
    args: argparse.Namespace,
    network: NetworkGraph,
    customization: Customization,
    cluster_spec: list[tuple[str, int, str | None]],
    tiers: tuple[float, ...],
    frames_per_avatar: int,
    chaos=None,
    recovery=None,
):
    """Explore one design per cluster preset and serve the mixed cluster."""
    from repro.serving import serve_trace

    num_branches = len(customization.batch_sizes)
    results = {}
    for design, _, _ in cluster_spec:
        if design in results:
            continue
        preset = CLUSTER_DESIGNS[design]
        if preset["batch"] is None:
            design_customization = customization
        else:
            design_customization = Customization(
                batch_sizes=(preset["batch"],) * num_branches,
                priorities=(1.0,) * num_branches,
            )
        results[design] = FCad(
            network=network,
            device=_target(args),
            quant=args.quant,
            customization=design_customization,
        ).run(
            iterations=args.iterations,
            population=args.population,
            seed=args.seed,
        )
        print(
            f"design {design!r}: {results[design].fps:.1f} FPS steady "
            f"decode rate"
        )
    design_counts = {d: sum(1 for s in cluster_spec if s[0] == d) for d, _, _ in cluster_spec}
    groups = []
    for index, (design, replicas, policy) in enumerate(cluster_spec):
        preset = CLUSTER_DESIGNS[design]
        name = design if design_counts[design] == 1 else f"{design}{index}"
        groups.append(
            results[design].serving_group(
                name=name,
                replicas=replicas,
                policy=policy or preset["policy"] or args.policy,
                batch_window_ms=(
                    preset["window"]
                    if preset["window"] is not None
                    else args.batch_window_ms
                ),
                max_batch=args.max_batch,
                sim_frames=args.sim_frames,
            )
        )
    return serve_trace(
        groups,
        _serve_traffic(args, tiers, frames_per_avatar),
        router=args.router,
        admission=args.shed or None,
        autoscale=_serve_autoscale(args),
        chaos=chaos,
        recovery=recovery,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    """Explore a design and emit the HLS project skeleton."""
    network = _load_network(args.model)
    customization = _customization(args, len(network.output_names()))
    if customization is None:
        return 2
    flow = FCad(
        network=network,
        device=_target(args),
        quant=args.quant,
        customization=customization,
    )
    result = flow.run(
        iterations=args.iterations,
        population=args.population,
        seed=args.seed,
    )
    from repro.codegen.hls import generate_project

    written = generate_project(result.accelerator(), args.output)
    print(f"explored design: {result.fps:.1f} FPS, "
          f"{100 * result.efficiency:.1f}% efficiency")
    for path in written:
        print(f"  wrote {path}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate one of the paper's tables/figures or an ablation."""
    from repro import experiments

    runners = {
        "table1": experiments.run_table1,
        "table2": experiments.run_table2,
        "fig3": experiments.run_fig3,
        "fig67": experiments.run_fig67,
        "table4": experiments.run_table4,
        "table5": experiments.run_table5,
        "convergence": experiments.run_convergence,
        "family": experiments.run_decoder_family,
        "energy": experiments.run_energy_study,
        "ablation-parallelism": experiments.run_ablation_parallelism,
        "ablation-search": experiments.run_ablation_search,
        "ablation-alpha": experiments.run_ablation_alpha,
        "ablation-batch": experiments.run_ablation_batch,
    }
    result = runners[args.name]()
    print(result.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="F-CAD: explore hardware accelerators for codec avatar decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list zoo models").set_defaults(func=cmd_models)
    sub.add_parser("devices", help="list FPGA devices").set_defaults(func=cmd_devices)

    p = sub.add_parser("profile", help="profile a network (Analysis step)")
    p.add_argument("model")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "explore",
        help="run the F-CAD flow (single case or batch sweep)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "sweeps:\n"
            "  repro explore codec_avatar_decoder --sweep Z7045,ZU17EG,ZU9CG \\\n"
            "      --sweep-quants int8,int16\n"
            "      explore the whole device x precision grid in one batch;\n"
            "      duplicate cases are searched only once, and cases with\n"
            "      the same network, quantization and frequency share\n"
            "      Algorithm-2 ladders; --workers 2 runs the distinct\n"
            "      cases on 2 processes, with the same results\n"
            "objectives and staged re-ranking:\n"
            "  repro explore codec_avatar_decoder --objective slo \\\n"
            "      --rerank serving --rerank-top-k 4\n"
            "      score every candidate analytically, replay each\n"
            "      generation's top 4 through the serving layer, and pick\n"
            "      the design with the best p99/deadline-miss under load"
        ),
    )
    p.add_argument("model")
    _add_target_args(p)
    p.add_argument("--save-config", help="write the found config JSON here")
    p.add_argument("--report", help="write a markdown design report here")
    p.add_argument(
        "--sweep",
        help="comma-separated device list: explore every device in one "
        "batch",
    )
    p.add_argument(
        "--sweep-quants",
        help="comma-separated quant schemes for --sweep (default: --quant)",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="processes that run the distinct cases of a --sweep "
        "(default 1: one after another in this process)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the search and print the top-20 cumulative hotspots",
    )
    p.add_argument(
        "--profile-out",
        metavar="PATH",
        help="dump the full raw pstats profile of the search to this file "
        "(works with or without --profile)",
    )
    p.add_argument(
        "--objective",
        default="paper",
        choices=list(OBJECTIVES),
        help="fitness the search maximizes: the paper's Sec. VI-B1 "
        "weighted-FPS score, p99-under-load SLOs, or an equal blend",
    )
    p.add_argument(
        "--rerank",
        default="none",
        choices=list(RERANK_ORACLES),
        help="expensive oracle that re-measures each generation's "
        "analytical top-K candidates (cycle-accurate sim or a canned "
        "serving-workload replay) and selects the final design",
    )
    p.add_argument(
        "--rerank-top-k",
        type=_positive_int,
        default=4,
        help="candidates per generation the re-rank oracle re-measures",
    )
    p.add_argument(
        "--alpha",
        type=_positive_float,
        default=0.05,
        help="variance-penalty weight of the paper objective (and the "
        "SLO objective's analytical-stage proxy)",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("simulate", help="cycle-accurate validation")
    p.add_argument("model")
    _add_target_args(p)
    p.add_argument("--config", help="configuration JSON (default: explore first)")
    p.add_argument("--frames", type=_positive_int, default=8)
    p.add_argument("--timeline", action="store_true", help="print a Gantt timeline")
    p.add_argument("--timeline-width", type=_timeline_width, default=72)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "serve",
        help="serve a multi-avatar decode workload on simulated replicas",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "serving sessions:\n"
            "  repro serve --avatars 64 --replicas 4 --policy edf --seed 0\n"
            "      explore a design for the default decoder, deploy 4\n"
            "      simulated replicas, and serve 64 concurrent avatars under\n"
            "      earliest-deadline-first batching; runs on simulated time,\n"
            "      so the report is bit-identical across runs at one seed\n"
            "  repro serve --avatars 32 --replicas 2 --policy fair \\\n"
            "      --deadline-tiers 25,100 --json serving.json\n"
            "      mixed SLO tiers (speakers at 25 ms, listeners at 100 ms)\n"
            "      with per-avatar fairness; archive the SLO report as JSON\n"
            "heterogeneous clusters:\n"
            "  repro serve --cluster latency:1,throughput:3 \\\n"
            "      --router deadline --shed --deadline-tiers 20,60\n"
            "      explore a low-latency design (batch 1) and a big-batch\n"
            "      design (batch 4), deploy them as two replica groups,\n"
            "      route tight deadlines to the latency tier, and shed\n"
            "      requests that would miss their deadline anyway\n"
            "chaos engineering (deterministic fault injection):\n"
            "  repro serve --replicas 4 --chaos die-at:0:200,die-at:1:400 \\\n"
            "      --max-retries 2 --replace-after-ms 500 --seed 0\n"
            "      kill two replicas mid-session; in-flight frames retry\n"
            "      within their deadline budget, cold replacements heal\n"
            "      capacity, and the report counts every fault — the same\n"
            "      seed reproduces the same faulty run bit for bit\n"
            "large sessions:\n"
            "  repro serve --shape diurnal --avatars 100000 \\\n"
            "      --duration 60 --avatar-fps 1 --autoscale --shed\n"
            "      100k avatars joining and leaving over a diurnal cycle,\n"
            "      autoscaling the replica fleet as concurrency rises and\n"
            "      falls; the event-heap engine serves it in seconds"
        ),
    )
    p.add_argument(
        "model",
        nargs="?",
        default="codec_avatar_decoder",
        help="zoo model or network JSON (default: codec_avatar_decoder)",
    )
    _add_target_args(p)
    # A serving demo needs a plausible design, not the paper-size search.
    p.set_defaults(iterations=4, population=24)
    p.add_argument(
        "--avatars", type=_positive_int, default=16,
        help="concurrent avatar streams (default 16)",
    )
    p.add_argument(
        "--replicas", type=_positive_int, default=1,
        help="accelerator replicas to deploy (default 1; ignored with "
        "--cluster, where each group sets its own count)",
    )
    p.add_argument(
        "--policy", default="fifo", choices=list_policies(),
        help="batch selection policy (default fifo)",
    )
    p.add_argument(
        "--cluster",
        help="serve a heterogeneous cluster instead of one pool: "
        "comma-separated design:replicas[:policy] groups, designs from "
        f"{{{', '.join(sorted(CLUSTER_DESIGNS))}}} "
        "(e.g. latency:1,throughput:3)",
    )
    p.add_argument(
        "--router", default="deadline", choices=list_routers(),
        help="request routing across --cluster groups (default deadline)",
    )
    p.add_argument(
        "--shed", action="store_true",
        help="enable admission control: bounded queues plus "
        "predicted-deadline-miss load shedding (tracked as the shed_rate "
        "SLO); works with --cluster or on a single pool",
    )
    p.add_argument(
        "--chaos", metavar="SPEC",
        help="deterministic fault plan: comma-separated clauses "
        "crash-at:REP:N (crash serving its Nth batch), die-at:REP:T "
        "(dead from T ms), stall:REP:N:D (Nth batch +D ms, then "
        "recovers), degrade:REP:N:M (xM latency from batch N); REP is "
        "a replica index, GROUP/INDEX with --cluster "
        "(see docs/serving.md)",
    )
    p.add_argument(
        "--max-retries", type=int, metavar="N",
        help="re-enqueue a frame whose replica died up to N times "
        "within its original deadline (default 2; 0 fails on first "
        "fault)",
    )
    p.add_argument(
        "--hedge", action="store_true",
        help="duplicate a batch predicted to miss its deadline onto a "
        "free replica; first response wins, both occupancies charged",
    )
    p.add_argument(
        "--replace-after-ms", type=_positive_float, metavar="MS",
        help="provision a cold replacement replica this long after one "
        "dies (reuses the autoscale warm-up path; default: capacity "
        "stays lost)",
    )
    p.add_argument(
        "--frames", type=_positive_int, default=30,
        help="frames per avatar (default 30)",
    )
    p.add_argument(
        "--duration", type=_positive_float,
        help="serve this many seconds of traffic per avatar instead of "
        "a fixed --frames count",
    )
    p.add_argument(
        "--avatar-fps", type=_positive_float, default=30.0,
        help="per-avatar frame rate (default 30)",
    )
    p.add_argument(
        "--deadline-ms", type=_positive_float, default=50.0,
        help="decode deadline per frame, ms after arrival (default 50)",
    )
    p.add_argument(
        "--deadline-tiers",
        help="comma-separated per-avatar deadline budgets assigned "
        "round-robin, e.g. 25,100 (overrides --deadline-ms)",
    )
    p.add_argument(
        "--jitter-ms", type=float, default=0.0,
        help="uniform arrival jitter per frame, +/- ms (default 0)",
    )
    p.add_argument(
        "--batch-window-ms", type=float, default=2.0,
        help="how long a freed replica waits for co-arriving frames",
    )
    p.add_argument(
        "--max-batch", type=_positive_int,
        help="cap frames per dispatched batch (default: replica capacity)",
    )
    p.add_argument(
        "--sim-frames", type=_positive_int, default=8,
        help="cycle-accurate frames sampled for the latency model",
    )
    p.add_argument(
        "--shape", choices=list_shapes(),
        help="generate traffic from a named shape with session churn "
        "instead of steady per-avatar streams (needs --duration)",
    )
    p.add_argument(
        "--churn", type=float, default=0.0,
        help="fraction of avatars that join late / leave early "
        "(--shape steady only, default 0)",
    )
    p.add_argument(
        "--autoscale", action="store_true",
        help="autoscale each replica group from its offered load; "
        "--replicas and group counts become initial fleets",
    )
    p.add_argument(
        "--autoscale-max", type=_positive_int, default=64,
        help="autoscaling replica cap per group (default 64)",
    )
    p.add_argument(
        "--autoscale-warmup-ms", type=_positive_float, default=2000.0,
        help="provisioning delay before a scaled-up replica can serve; "
        "it then starts cold (default 2000 ms)",
    )
    p.add_argument("--json", help="write the serving report JSON here")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("generate", help="explore, then emit an HLS project")
    p.add_argument("model")
    _add_target_args(p)
    p.add_argument("--output", default="fcad_design", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument(
        "name",
        choices=[
            "table1", "table2", "fig3", "fig67", "table4", "table5",
            "convergence", "family", "energy", "ablation-parallelism",
            "ablation-search", "ablation-alpha", "ablation-batch",
        ],
    )
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
