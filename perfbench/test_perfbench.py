"""Tests of the benchmark itself: wrappers, seeds, digests and the ledger.

Run from the root of the checkout (not part of the tier-1 suite)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import reference
from layers import LEDGER_ROWS, PROBES, Tracer
from workloads import WORKLOADS, DseRun, inspect_dse

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def program():
    bench.import_program()


def probe_sites() -> dict:
    """Every ``(owner, attribute) -> object`` the tracer must wrap."""
    sites = {}
    for probe in PROBES:
        module = importlib.import_module(probe.module)
        owner_name, _, name = probe.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            sites[(owner, name)] = vars(owner)[name]
            continue
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                for attr, value in vars(mod).items():
                    if value is original:
                        sites[(mod, attr)] = value
    return sites


def all_original(sites: dict) -> bool:
    return all(vars(owner)[name] is value for (owner, name), value in sites.items())


def tiny_program(seed: int = 0):
    """A small search plus a small two-group session with admission."""
    from repro.devices.fpga import get_device
    from repro.fcad.flow import FCad
    from repro.models.zoo import get_model
    from repro.serving import GroupSpec, make_trace, serve_trace
    from repro.sim.runner import FrameLatencyProfile

    flow = FCad(network=get_model("tiny_yolo"), device=get_device("Z7045"), quant="int8")
    _, _, engine = flow.prepare()
    result = engine.search(iterations=2, population=8, seed=seed)
    profile = FrameLatencyProfile(
        finish_ms=(8.0, 12.0, 16.0),
        first_frame_ms=8.0,
        steady_interval_ms=4.0,
        frequency_mhz=200.0,
    )
    groups = [
        GroupSpec("fast", profile, replicas=1, policy="edf", max_batch=2),
        GroupSpec("bulk", profile, replicas=2, policy="fifo", max_batch=4),
    ]
    trace = make_trace(40, 2.0, avatar_fps=30.0, deadline_tiers=(20.0, 60.0), seed=seed)
    report = serve_trace(groups, trace, router="deadline", admission=True)
    run = DseRun(
        {"iterations": 2, "population": 8, "seed": seed},
        ((result, flow.budget, engine.customization.priorities),),
    )
    return run, report


def test_wrappers_are_installed_only_in_the_traced_run():
    sites = probe_sites()
    assert all_original(sites)
    seen = {}

    def program():
        seen["wrapped"] = not any(
            vars(owner)[name] is value for (owner, name), value in sites.items()
        )
        return tiny_program()

    tiny_program()  # untraced: the program runs on the original objects
    assert all_original(sites)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.measure(program)
    finally:
        tracer.uninstall()
    assert seen["wrapped"]
    assert tracer.patched_sites == len(sites)
    assert tracer.restored()
    assert all_original(sites)


def test_ledger_adds_up_to_the_traced_wall_time():
    tracer = Tracer()
    tracer.install()
    try:
        run, report = tracer.measure(tiny_program)
    finally:
        tracer.uninstall()
    ledger = tracer.ledger()
    assert list(ledger) == list(LEDGER_ROWS)
    assert sum(ledger.values()) == pytest.approx(tracer.wall_s, rel=1e-9)
    assert all(value >= 0.0 for value in ledger.values())
    assert tracer.stat("dse.kernel").hits == run.results[0][0].evaluations
    assert tracer.stat("admission").calls == report.submitted
    assert tracer.stat("admission").hits == report.shed
    assert tracer.stat("router").calls == report.submitted
    assert tracer.stat("dse.score").calls == tracer.stat("dse.keys").calls == 2 * 8
    spans = {span["id"]: span for span in tracer.spans}
    assert [span["name"] for span in spans.values()].count("session") == 1
    assert [span["name"] for span in spans.values()].count("generation") == 2
    for span in spans.values():
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start_s"] <= span["start_s"] <= span["end_s"] <= parent["end_s"]


def test_scale_divides_each_stretch_by_the_probes_near_it():
    nominal = reference.NOMINAL_S
    # Four stretches of 1 s around probes at 1.0-1.1 s, 2.1-2.2 s and 3.2-3.3 s.
    marks = [(1.0, 1.1, nominal), (2.1, 2.2, nominal), (3.2, 3.3, 2 * nominal)]
    timing = reference.scale(0.0, 4.3, marks)
    assert timing.host_s == pytest.approx(4.0)
    assert timing.probes == 3
    # Only the last stretch has the slow probe in the middle of those near it.
    assert timing.scaled_s == pytest.approx(3.0 + 1 / 1.5)
    # One slow probe among nominal ones leaves every stretch unscaled.
    marks = [(float(k), k + 0.1, nominal * (9 if k == 3 else 1)) for k in range(1, 7)]
    assert reference.scale(0.0, 7.0, marks).scaled_s == pytest.approx(6.4)


def test_timed_probes_during_the_call_and_stops_the_timer():
    import signal
    import time

    def call():
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
        return "done"

    result, timing = reference.timed(call)
    assert result == "done"
    assert timing.probes >= 2
    assert timing.host_s < 0.35
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_inspect_rejects_a_wrong_fitness():
    import dataclasses

    run, _ = tiny_program()
    result, budget, priorities = run.results[0]
    assert inspect_dse(run, 0).failed == 0
    broken = dataclasses.replace(result, best_fitness=result.best_fitness + 1.0)
    outcome = inspect_dse(DseRun(run.params, ((broken, budget, priorities),)), 0)
    assert outcome.failed == 1 and outcome.problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_the_input_digest(name):
    inputs = WORKLOADS[name].inputs
    assert inputs(0) == inputs(0)
    assert inputs(0) != inputs(1)
    pins = bench.load_pins(name)
    for seed in ("0", "1"):
        assert pins[seed]["input"] == inputs(int(seed))


@pytest.mark.parametrize("name", ["dse-paper", "serve-chaos"])
def test_traced_and_untraced_runs_give_the_pinned_outputs(name):
    session = bench.Session(WORKLOADS[name], 0)
    session.set_up()
    assert session.pin is not None
    session.repetition()
    tracer = Tracer()
    session.repetition(tracer)
    assert tracer.restored()
    assert session.problems == []
    untraced, traced = session.outcomes
    assert untraced.output_digest == traced.output_digest == session.pin["output"]


def run_cli(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse-paper",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_declared_metric(trace):
    done = run_cli(HERE.parent, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "out", ".pytest_cache"))
    done = run_cli(tmp_path, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
