"""Paper-size benchmark of design-space exploration and avatar serving.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload dse-paper --seed 0 --seconds 20 --trace 0

The run imports the program from ``src/`` and sets it up several times
(``setup_s`` is the median), then repeats the workload until ``--seconds``
have passed (``ref_wall_s`` is the median repetition). A fixed probe,
timed every 0.1 s while a set-up round or a repetition runs, scales each
of them to a reference host speed (see ``reference.py``). Every repetition
generates its inputs from ``--seed``, calls the program, and checks the
outputs off the clock. The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
one more repetition runs with the layer
wrappers of ``layers.py`` installed and the per-layer metrics are printed
instead, with a ledger whose rows add up to that repetition's wall time.
See ``README.md`` in this directory.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import LEDGER_ROWS, Tracer  # noqa: E402
from reference import NOMINAL_S, timed  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload, reset_process_state  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = HERE / "out"

#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 7
#: Measured repetitions per run at least, however long they take.
MIN_REPETITIONS = 3


class ProgramMissing(Exception):
    """The checkout holds no importable program under ``src/``."""


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, afresh.

    Every ``repro`` module is dropped first, so each set-up round pays the
    program's whole import, as a new process would (numpy stays loaded).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    repro = importlib.import_module("repro")
    importlib.import_module("repro.serving")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"repro imported from {repro.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def load_pins(workload: str) -> dict:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text()).get(workload, {})


class Session:
    """One run: set-up rounds, repetitions, and the counts of what failed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pin = load_pins(workload.name).get(str(seed))
        self.setups: list[float] = []  # scaled seconds
        self.walls: list[float] = []  # host seconds
        self.scaled_walls: list[float] = []
        self.probes = 0
        self.outcomes: list[Outcome] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fixture = None

    def set_up(self) -> None:
        def round_():
            import_program()
            return self.workload.setup()

        for index in range(SETUP_ROUNDS):
            # The first round also pays for this script's and numpy's imports.
            self.fixture, timing = timed(round_, PROCESS_STARTED if index == 0 else None)
            self.setups.append(timing.scaled_s)
            self.probes += timing.probes

    def repetition(self, tracer: Tracer | None = None) -> Outcome | None:
        """Run the workload once; ``None`` if the program raised.

        Untraced, the repetition's host and scaled seconds are recorded.
        """
        reset_process_state()
        gc.collect()
        program = lambda: self.workload.run(self.fixture, self.seed)  # noqa: E731
        self.attempted += self.workload.operations
        try:
            if tracer is None:
                raw, timing = timed(program)
            else:
                tracer.install()
                try:
                    raw = tracer.measure(program)
                finally:
                    tracer.uninstall()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += self.workload.operations
            self.problems.append("the program raised (traceback on stderr)")
            return None
        outcome = self.workload.inspect(raw, self.seed)
        if self.outcomes and outcome.output_digest != self.outcomes[0].output_digest:
            outcome.problems.append("output digest differs from the run's first repetition")
        if self.pin is not None:
            for side in ("input", "output"):
                if getattr(outcome, f"{side}_digest") != self.pin[side]:
                    outcome.problems.append(f"{side} digest differs from the pinned one")
        failed = outcome.failed
        if outcome.problems and not failed:
            failed = outcome.operations
        self.failed += failed
        self.problems += outcome.problems
        self.outcomes.append(outcome)
        if tracer is None:
            self.walls.append(timing.host_s)
            self.scaled_walls.append(timing.scaled_s)
            self.probes += timing.probes
        return outcome

    def measure(self, seconds: float) -> None:
        """Repeat until the next repetition would end past ``seconds``."""
        deadline = time.perf_counter() + seconds
        for repetitions in itertools.count(1):
            self.repetition()
            typical = statistics.median(self.walls) if self.walls else 0.0
            if repetitions >= MIN_REPETITIONS and time.perf_counter() + typical > deadline:
                return

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted


def end_to_end(session: Session) -> dict:
    wall = statistics.median(session.scaled_walls)
    return {
        "setup_s": (statistics.median(session.setups), "s"),
        "ref_wall_s": (wall, "s"),
        "ref_items_per_s": (session.outcomes[0].items / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (session.success_rate, "share"),
    }


def per_layer(session: Session, tracer: Tracer, outcome: Outcome) -> dict:
    ledger = tracer.ledger()
    stat = tracer.stat
    counters = outcome.counters
    candidates = stat("dse.keys").calls
    lookups = stat("dse.cache.get").calls
    admissions = stat("admission").calls
    requests = counters.get("requests", 0)
    metrics = {row: (value, "s") for row, value in ledger.items()}
    metrics.update(
        {
            "dse.keys.calls": (candidates, "count"),
            "dse.cache.lookups": (lookups, "count"),
            "dse.cache.hit_rate": (stat("dse.cache.get").hits / lookups if lookups else 0.0,
                                   "share"),
            "dse.kernel.calls": (stat("dse.kernel").calls, "count"),
            "dse.kernel.buckets": (stat("dse.kernel").hits, "count"),
            "dse.kernel.ladder_s": (counters.get("ladder_s", 0.0), "s"),
            "dse.kernel.growth_s": (counters.get("growth_s", 0.0), "s"),
            "dse.kernel.measure_s": (counters.get("measure_s", 0.0), "s"),
            "dse.score.calls": (stat("dse.score").calls, "count"),
            "dse.solves_per_candidate": (
                counters.get("solves", 0) / candidates if candidates else 0.0, "ratio"),
            "dse.bucket_tuple_repeat_share": (
                tracer.repeated_tuples / candidates if candidates else 0.0, "share"),
            "traffic.requests": (requests, "count"),
            "admission.calls": (admissions, "count"),
            "admission.shed_share": (
                stat("admission").hits / admissions if admissions else 0.0, "share"),
            "router.calls": (stat("router").calls, "count"),
            "failover.calls": (stat("failover").calls, "count"),
            "replica.calls": (stat("replica").calls, "count"),
            "engine.host_us_per_request": (
                1e6 * ledger["engine.self_s"] / requests if requests else 0.0, "us"),
        }
    )
    for name in ("batches", "retries", "hedges", "replicas_replaced", "scale_ups",
                 "peak_replicas"):
        metrics[f"engine.{name}"] = (counters.get(name, 0), "count")
    metrics["engine.mean_batch"] = (counters.get("mean_batch", 0.0), "frames")
    metrics["ledger.wall_s"] = (tracer.wall_s, "s")
    metrics["trace.overhead_s"] = (tracer.wall_s - statistics.median(session.walls), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def write_spans(session: Session, tracer: Tracer) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{session.workload.name}-seed{session.seed}.json"
    path.write_text(json.dumps({"run": tracer.run_id, "spans": tracer.spans}) + "\n")
    return path


def fmt(value: float) -> str:
    return f"{value:>16,}" if isinstance(value, int) else f"{value:>16.6g}"


def print_report(session: Session, metrics: dict, traced: bool) -> None:
    workload = session.workload
    print(f"workload {workload.name} seed {session.seed}: {workload.why}")
    print("environment " + json.dumps(environment()))
    print(
        f"{len(session.walls)} repetitions, {SETUP_ROUNDS} set-up rounds; "
        f"{session.attempted} operations, {session.failed} failed"
    )
    print("repetition walls (host s): " + " ".join(f"{wall:.3f}" for wall in session.walls)
          + f"; median {statistics.median(session.walls):.3f}")
    print(f"repetition walls (scaled to a {1e3 * NOMINAL_S:g} ms probe, s): "
          + " ".join(f"{wall:.3f}" for wall in session.scaled_walls)
          + f"; {session.probes} probes")
    last = session.outcomes[-1] if session.outcomes else None
    if last is not None:
        print(f"input digest {last.input_digest}, output digest {last.output_digest}"
              + ("" if session.pin is None else " (pinned for this seed)"))
    if not traced:
        # Per-family names for the folded metrics, plus the simulated values.
        named = {
            "setup_s": metrics["setup_s"],
            "ref_wall_s": metrics["ref_wall_s"],
            ("ref_candidates_per_s" if workload.family == "dse" else "ref_requests_per_s"):
                metrics["ref_items_per_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
            "error_rate": (1.0 - session.success_rate, "share"),
        }
        if last is not None:
            units = {"best_fitness": "fitness", "sim_p99_ms": "ms", "sim_goodput": "share"}
            named.update({k: (v, units[k]) for k, v in last.sim.items()})
        for name, (value, unit) in named.items():
            print(f"  {name:<28} {fmt(value)} {unit}")
    else:
        total = 0.0
        print("ledger (traced repetition, self seconds):")
        for row in LEDGER_ROWS:
            total += metrics[row][0]
            print(f"  {row:<28} {metrics[row][0]:>12.4f} s")
        print(f"  {'sum':<28} {total:>12.4f} s = ledger.wall_s "
              f"{metrics['ledger.wall_s'][0]:.4f} s")
        for name, (value, unit) in metrics.items():
            if name not in LEDGER_ROWS:
                print(f"  {name:<28} {fmt(value)} {unit}")
    for problem in dict.fromkeys(session.problems):
        print(f"CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (numpy trace seeds are unsigned)")

    session = Session(WORKLOADS[args.workload], args.seed)
    try:
        session.set_up()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session.measure(args.seconds)
    if not session.walls:
        print("error: every repetition raised; no timing to report", file=sys.stderr)
        return 1

    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        outcome = session.repetition(tracer)
        if not tracer.restored():
            session.problems.append("a traced attribute was not restored")
            session.failed += session.workload.operations
        if outcome is None:
            print("error: the traced repetition raised", file=sys.stderr)
            return 1
        metrics = per_layer(session, tracer, outcome)
        print(f"spans written to {write_spans(session, tracer).relative_to(ROOT)}")
    else:
        metrics = end_to_end(session)

    print_report(session, metrics, traced=bool(args.trace))
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
