"""The CI workflow parses cleanly: no repeated keys, every job can run."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO = Path(__file__).resolve().parents[1]
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

#: A repo script named in a ``run:`` step, e.g. ``perfbench/run.py``.
SCRIPT = re.compile(
    r"(?<![\w/.-])((?:tools|benchmarks|examples|perfbench|tests)/[\w/.-]*\.py)\b"
)


#: A ``python -m repro`` command line; its arguments run to the end of the
#: line or to the first ``|``, ``>``, ``;`` or ``&&``.
REPRO_COMMAND = re.compile(r"\bpython3? -m repro(?=\s|$)([^|>;&\n]*)")


class UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that refuses a mapping with a repeated key.

    Plain PyYAML keeps the last value of a repeated key without a word, so
    a job whose ``name``/``runs-on``/``steps`` appear twice silently loses
    the first set of steps.
    """


def _construct_unique_mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping",
                node.start_mark,
                f"found duplicate key {key!r}",
                key_node.start_mark,
            )
        seen.add(key)
    return loader.construct_mapping(node, deep=deep)


UniqueKeyLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_unique_mapping
)


def load_workflow() -> dict:
    return yaml.load(WORKFLOW.read_text(), Loader=UniqueKeyLoader)


def test_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'name'"):
        yaml.load("job:\n  name: a\n  name: b\n", Loader=UniqueKeyLoader)


def test_workflow_has_no_duplicate_keys():
    load_workflow()


def test_every_job_has_runs_on_and_steps():
    jobs = load_workflow()["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert "runs-on" in job, f"job {name!r} has no runs-on"
        assert job.get("steps"), f"job {name!r} has no steps"


def test_perfbench_smoke_job_checks_pinned_dse_runs():
    job = load_workflow()["jobs"]["perfbench-smoke"]
    setup = next(step for step in job["steps"] if "setup-python" in step.get("uses", ""))
    # The pins come from Python 3.11; another version may not reproduce them.
    assert setup["with"]["python-version"] == "3.11"
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert any("pytest perfbench" in run for run in runs)
    bench_runs = [run for run in runs if "perfbench/run.py" in run]
    untraced = [run for run in bench_runs if "--trace 0" in run]
    traced = [run for run in bench_runs if "--trace 1" in run]
    assert sorted(untraced + traced) == sorted(bench_runs)
    # Every workload at pinned seeds 0 and 19.
    expected = {
        "dse-paper": ["0", "19"],
        "dse-sweep": ["0", "19"],
        "serve-diurnal": ["0", "19"],
        "serve-chaos": ["0", "19"],
    }
    for workload, seeds in expected.items():
        steps = [run for run in untraced if f"--workload {workload}" in run]
        assert sorted(
            run.split("--seed ")[1].split()[0] for run in steps
        ) == seeds
    # Exactly three traced runs at seed 0: their outputs must equal the
    # untraced repetitions' and their probes must all be restored. In
    # dse-sweep the cases share Algorithm-2 ladders, which are then built
    # under the wrapped kernel; in serve-diurnal admission reads a table,
    # and the wrapped admit must still be called once per arrival.
    assert sorted(
        run.split("--workload ")[1].split("--trace")[0] for run in traced
    ) == [
        "dse-paper --seed 0 --seconds 1 ",
        "dse-sweep --seed 0 --seconds 1 ",
        "serve-diurnal --seed 0 --seconds 1 ",
    ]
    for run in bench_runs:
        # Each check reads the JSON its own run wrote.
        log = run.split("| tee ")[1].split()[0]
        assert run.splitlines()[-1].startswith(f"tail -n 1 {log} |")
        assert "['correct'] is True" in run.splitlines()[-1]
    logs = [run.split("| tee ")[1].split()[0] for run in bench_runs]
    assert len(set(logs)) == len(logs)


def repro_commands() -> list[tuple[str, list[str]]]:
    """(step name, argv) of every ``python -m repro`` command a step runs."""
    return [
        (step["name"], shlex.split(args))
        for job in load_workflow()["jobs"].values()
        for step in job["steps"]
        for args in REPRO_COMMAND.findall(step.get("run", "").replace("\\\n", " "))
    ]


def test_only_sweep_explore_steps_pass_workers():
    """``--workers`` counts the processes of a pooled ``repro explore
    --sweep``; no other command takes it."""
    pooled = [(name, argv) for name, argv in repro_commands() if "--workers" in argv]
    assert pooled
    for name, argv in pooled:
        assert argv[0] == "explore" and "--sweep" in argv, name
    for job in load_workflow()["jobs"].values():
        for step in job["steps"]:
            if "--workers" in step.get("run", ""):
                assert "python -m repro explore" in step["run"], step["name"]


def test_every_file_a_step_runs_exists():
    scripts = {
        path
        for job in load_workflow()["jobs"].values()
        for step in job["steps"]
        for path in SCRIPT.findall(step.get("run", ""))
    }
    assert "perfbench/run.py" in scripts and "examples/quickstart.py" in scripts
    missing = sorted(path for path in scripts if not (REPO / path).is_file())
    assert not missing, f"CI steps run files that do not exist: {missing}"


def test_every_repro_command_parses():
    """Each ``python -m repro`` command a step runs parses with today's CLI."""
    from repro.cli import build_parser

    commands = repro_commands()
    # The regex finds every job's commands: the search, validation,
    # serving and experiment subcommands all appear.
    assert len(commands) >= 9
    assert {argv[0] for _, argv in commands} >= {
        "explore", "simulate", "serve", "experiment"
    }
    parser = build_parser()
    for name, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"step {name!r} runs `repro {shlex.join(argv)}`, which does not parse")
