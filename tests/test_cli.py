"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dse.worker import clear_process_caches
from repro.ir.serialize import graph_to_json
from tests.conftest import make_tiny_decoder


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestListing:
    def test_models(self, capsys):
        out = run_cli(capsys, "models")
        assert "codec_avatar_decoder" in out
        assert "vgg16" in out

    def test_devices(self, capsys):
        out = run_cli(capsys, "devices")
        assert "ZU9CG" in out and "2520" in out


class TestProfile:
    def test_zoo_model(self, capsys):
        out = run_cli(capsys, "profile", "alexnet")
        assert "Branch profile" in out

    def test_json_model(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(graph_to_json(make_tiny_decoder()))
        out = run_cli(capsys, "profile", str(path))
        assert "tiny_decoder" in out

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            main(["profile", "resnet152"])


class TestExplore:
    def test_explore_with_artifacts(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        report_path = tmp_path / "report.md"
        out = run_cli(
            capsys,
            "explore",
            "tiny_yolo",
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "10",
            "--save-config", str(config_path),
            "--report", str(report_path),
        )
        assert "F-CAD generated accelerator" in out
        payload = json.loads(config_path.read_text())
        assert payload["branches"]
        assert report_path.read_text().startswith("# F-CAD design report")

    def test_explore_with_customization(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(graph_to_json(make_tiny_decoder()))
        out = run_cli(
            capsys,
            "explore",
            str(path),
            "--device", "Z7045",
            "--batch", "1,2",
            "--priority", "1,2",
            "--iterations", "2",
            "--population", "10",
        )
        assert "Br.2" in out

    def test_explore_sweep(self, capsys):
        out = run_cli(
            capsys,
            "explore",
            "tiny_yolo",
            "--sweep", "Z7045,ZU17EG",
            "--iterations", "2",
            "--population", "8",
        )
        assert "Batch sweep results" in out
        # One row per device in the grid.
        assert out.count("tiny_yolo") >= 2

    def test_explore_asic(self, capsys):
        out = run_cli(
            capsys,
            "explore",
            "alexnet",
            "--asic-macs", "512",
            "--iterations", "2",
            "--population", "10",
        )
        assert "512" in out

    def test_explore_reports_objective_and_oracle_stats(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(graph_to_json(make_tiny_decoder()))
        out = run_cli(
            capsys,
            "explore",
            str(path),
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
        )
        assert "objective: paper(alpha=0.05)" in out
        assert "analytical" in out

    def test_explore_alpha_flag(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(graph_to_json(make_tiny_decoder()))
        out = run_cli(
            capsys,
            "explore",
            str(path),
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
            "--alpha", "0.5",
        )
        assert "objective: paper(alpha=0.5)" in out

    def test_explore_slo_rerank_serving(self, capsys, tmp_path):
        """A seeded --rerank serving search scores by SLO, completes and
        reports per-stage oracle invocation counts plus replayed SLOs."""
        path = tmp_path / "net.json"
        path.write_text(graph_to_json(make_tiny_decoder()))
        out = run_cli(
            capsys,
            "explore",
            str(path),
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
            "--seed", "0",
            "--rerank", "serving",
            "--rerank-top-k", "2",
        )
        assert "objective: slo(" in out
        assert "oracle stages:" in out
        assert "serving" in out and "invocations" in out
        assert "p99" in out and "deadline-miss" in out

    def test_explore_rerank_sim_scores_by_paper(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(graph_to_json(make_tiny_decoder()))
        out = run_cli(
            capsys,
            "explore",
            str(path),
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
            "--rerank", "sim",
            "--rerank-top-k", "2",
        )
        assert "objective: paper(alpha=0.05)" in out
        assert "sim" in out and "invocations" in out

    def test_explore_sweep_with_rerank(self, capsys):
        out = run_cli(
            capsys,
            "explore",
            "tiny_yolo",
            "--sweep", "Z7045,ZU17EG",
            "--iterations", "2",
            "--population", "8",
            "--rerank", "sim",
            "--rerank-top-k", "1",
        )
        assert "Batch sweep results" in out

    def test_objective_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "tiny_yolo", "--objective", "slo"])
        assert excinfo.value.code == 2
        assert "--objective" in capsys.readouterr().err


#: Every command that explores a design takes --batch and --priority.
SEARCH_COMMANDS = ["explore", "simulate", "serve", "generate"]


def refuse_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("explored before refusing the flag")

    monkeypatch.setattr("repro.cli.FCad", no_search)


class TestValidation:
    @pytest.mark.parametrize("command", SEARCH_COMMANDS)
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--batch", "1,1,x"], "positive integer, got 'x'"),
            (["--batch", "0,1,1"], "positive integer, got 0"),
            (["--batch", "1,,2"], "positive integer, got ''"),
            (["--priority=-1,1,1"], "finite non-negative number, got -1.0"),
            (["--priority", "nan,1,1"], "finite non-negative number, got nan"),
            (["--priority", "inf,1,1"], "finite non-negative number, got inf"),
            (["--priority", "1,one,1"], "finite non-negative number, got 'one'"),
        ],
    )
    def test_malformed_customization_lists_rejected(
        self, capsys, monkeypatch, command, argv, message
    ):
        refuse_search(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "codec_avatar_decoder", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", SEARCH_COMMANDS)
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--batch", "1,2"], "--batch gives 2 values"),
            (["--priority", "1,1,1,1"], "--priority gives 4 values"),
            (["--batch", "1,2,2", "--priority", "1,1"], "--priority gives 2 values"),
        ],
    )
    def test_customization_must_cover_every_branch(
        self, capsys, monkeypatch, command, argv, message
    ):
        refuse_search(monkeypatch)
        assert main([command, "codec_avatar_decoder", *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and "the model has 3 branches" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_iterations_population_must_be_positive(self, capsys, value):
        for flag in ("--iterations", "--population"):
            with pytest.raises(SystemExit):
                main(["explore", "tiny_yolo", flag, value])
            assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan-ish", "nan", "inf"])
    def test_alpha_rejects_nonpositive_values(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "tiny_yolo", "--alpha", value])
        assert excinfo.value.code == 2
        assert "positive number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--asic-bandwidth-gbps", "nan", "positive number"),
            ("--asic-bandwidth-gbps", "inf", "positive number"),
            ("--asic-bandwidth-gbps", "0", "positive number"),
            ("--asic-macs", "0", "positive integer"),
            ("--asic-macs", "-5", "positive integer"),
            ("--asic-sram-kb", "0", "positive integer"),
        ],
    )
    def test_asic_flags_reject_bad_values(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "tiny_yolo", "--asic-macs", "1024", flag, value])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_rerank_rejects_unknown_oracles(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "tiny_yolo", "--rerank", "quantum"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("sweep", ["", "Z7045,,ZU17EG", ","])
    def test_sweep_rejects_malformed_lists(self, capsys, sweep):
        assert main(["explore", "tiny_yolo", "--sweep", sweep]) == 2
        err = capsys.readouterr().err
        assert "comma-separated device list" in err

    def test_sweep_rejects_unknown_devices(self, capsys):
        assert main(["explore", "tiny_yolo", "--sweep", "Z7045,ZU99"]) == 2
        err = capsys.readouterr().err
        assert "unknown device(s)" in err and "ZU99" in err

    def test_serve_rejects_non_finite_chaos_numbers(self, capsys, monkeypatch):
        refuse_search(monkeypatch)
        assert main(["serve", "--chaos", "crash-at:0:inf"]) == 2
        err = capsys.readouterr().err
        assert "bad --chaos spec" in err and "'crash-at:0:inf'" in err

    def test_explore_surfaces_cache_stats(self, capsys):
        out = run_cli(
            capsys,
            "explore",
            "tiny_yolo",
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
        )
        assert "DSE cache:" in out
        assert "Algorithm-2 solves" in out
        assert "stage-memo hits" in out
        assert "DSE phases:" in out

    def test_explore_profile_prints_hotspots(self, capsys):
        out = run_cli(
            capsys,
            "explore",
            "tiny_yolo",
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
            "--profile",
        )
        assert "search profile (top 20 by cumulative time)" in out
        assert "cumtime" in out  # pstats table actually rendered

    @pytest.mark.parametrize(
        "argv, removed",
        [
            (["explore", "tiny_yolo", "--cache-file", "dse.sqlite"],
             "--cache-file"),
            (["serve", "--transport", "socket"], "--transport"),
            (["serve", "--transport-token", "t"], "--transport-token"),
            (["serve", "--transport-timeout", "5"], "--transport-timeout"),
            (["fleet", "replicas", "--listen", "127.0.0.1:0"], "'fleet'"),
            (["fleet", "coordinator", "--sweep", "Z7045"], "'fleet'"),
        ],
    )
    def test_removed_flags_fail_loudly(
        self, capsys, monkeypatch, argv, removed
    ):
        # Every replica runs in this process, and a sweep's cases run on
        # explore's --workers pool: a script still naming a cache file, a
        # wire transport or the fleet is refused before any design search,
        # not quietly served in process.
        refuse_search(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert removed in capsys.readouterr().err


class TestServe:
    SERVE = [
        "serve",
        "--device", "Z7045",
        "--iterations", "2",
        "--population", "8",
        "--avatars", "4",
        "--replicas", "2",
        "--frames", "5",
        "--sim-frames", "4",
    ]

    def test_serve_defaults_to_decoder(self, capsys):
        out = run_cli(capsys, *self.SERVE, "--policy", "edf")
        assert "Serving report (edf)" in out
        assert "deadline misses" in out

    def test_serve_bit_identical_across_runs(self, capsys):
        first = run_cli(capsys, *self.SERVE, "--policy", "edf", "--seed", "0")
        second = run_cli(capsys, *self.SERVE, "--policy", "edf", "--seed", "0")
        assert first == second

    def test_serve_writes_json(self, capsys, tmp_path):
        from repro.serving import report_from_json

        path = tmp_path / "serving.json"
        run_cli(
            capsys,
            *self.SERVE,
            "--policy", "fair",
            "--deadline-tiers", "25,100",
            "--json", str(path),
        )
        report = report_from_json(path.read_text())
        assert report.policy == "fair"
        assert report.completed == 4 * 5

    def test_serve_rejects_bad_avatars(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--avatars", "0"])
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("tiers", ["25,abc", "", "25,-5", "0", "25,nan", "inf"])
    def test_serve_rejects_bad_deadline_tiers(self, capsys, tiers):
        # Validated before the design search runs, with a friendly error.
        assert main(["serve", "--deadline-tiers", tiers]) == 2
        assert "--deadline-tiers" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["-5", "nan", "inf"])
    def test_serve_rejects_bad_batch_window(self, capsys, window):
        assert main(["serve", "--batch-window-ms", window]) == 2
        assert "--batch-window-ms" in capsys.readouterr().err

    def test_serve_rejects_oversized_jitter(self, capsys):
        assert main(["serve", "--jitter-ms", "40"]) == 2
        assert "frame interval" in capsys.readouterr().err

    def test_serve_rejects_bad_replicas_and_duration(self, capsys):
        # Same friendly errors explore's --iterations/--population have.
        with pytest.raises(SystemExit):
            main(["serve", "--replicas", "0"])
        assert "positive integer" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["serve", "--duration", "-1"])
        assert "positive number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("warp:1", "unknown cluster design"),
            ("latency:0", "positive integers"),
            ("latency:1:lifo", "known policies"),
            ("latency:1:edf:extra", "design:replicas"),
        ],
    )
    def test_serve_rejects_bad_cluster_specs(self, capsys, spec, message):
        # Validated before any design search runs.
        assert main(["serve", "--cluster", spec]) == 2
        assert message in capsys.readouterr().err

    def test_serve_chaos_session_counts_faults(self, capsys, tmp_path):
        from repro.serving import report_from_json

        path = tmp_path / "chaos.json"
        out = run_cli(
            capsys,
            *self.SERVE,
            "--chaos", "die-at:0:40",
            "--max-retries", "1",
            "--replace-after-ms", "100",
            "--json", str(path),
        )
        assert "replicas lost/replaced" in out
        report = report_from_json(path.read_text())
        assert report.replicas_lost == 1
        assert report.replicas_replaced == 1
        assert (
            report.completed + report.shed + report.failed
            == report.submitted
        )

    def test_serve_single_design_reports_one_group(self, capsys, tmp_path):
        # Without --cluster the explored design serves as the one group
        # base, whose slice holds every frame of the session.
        from repro.serving import report_from_json

        path = tmp_path / "single.json"
        run_cli(
            capsys,
            *self.SERVE,
            "--policy", "edf",
            "--chaos", "crash-at:0:1",
            "--json", str(path),
        )
        report = report_from_json(path.read_text())
        (group,) = report.groups
        assert (group.name, group.policy, group.replicas) == ("base", "edf", 2)
        assert report.policy == "edf"
        for name in ("completed", "shed", "failed", "retries"):
            assert getattr(group, name) == getattr(report, name), name
        assert report.retries > 0

    def test_serve_single_design_is_the_base_cluster(self, capsys, tmp_path):
        # One design is the one-group cluster base:<--replicas>: the
        # same session, the same JSON, byte for byte.
        argv = [*self.SERVE, "--policy", "edf", "--chaos", "crash-at:0:1"]
        plain, cluster = tmp_path / "plain.json", tmp_path / "cluster.json"
        out = run_cli(capsys, *argv, "--json", str(plain))
        run_cli(capsys, *argv, "--cluster", "base:2", "--json", str(cluster))
        assert plain.read_bytes() == cluster.read_bytes()
        # The design line keeps the per-replica latency model.
        assert "design 'base':" in out and "per replica: first frame" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--chaos", "explode:0:1"], "bad --chaos spec"),
            (["--chaos", "crash-at:0:0"], "positive integer"),
            (["--max-retries", "-1"], "--max-retries"),
        ],
    )
    def test_serve_rejects_bad_chaos_flags(self, capsys, argv, message):
        # Validated before any design search runs.
        assert main(["serve", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_serve_mixed_cluster_with_shedding(self, capsys, tmp_path):
        from repro.serving import report_from_json

        path = tmp_path / "cluster.json"
        out = run_cli(
            capsys,
            "serve",
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
            "--avatars", "6",
            "--frames", "5",
            "--sim-frames", "4",
            "--cluster", "latency:1,throughput:2",
            "--router", "deadline",
            "--shed",
            "--deadline-tiers", "20,60",
            "--json", str(path),
        )
        assert "design 'latency'" in out and "design 'throughput'" in out
        assert "Serving report (cluster(deadline))" in out
        assert "group latency" in out and "group throughput" in out
        report = report_from_json(path.read_text())
        assert report.router == "deadline"
        assert {group.name for group in report.groups} == {
            "latency", "throughput",
        }
        assert report.completed + report.shed == report.submitted

    def test_serve_shed_without_cluster_is_honoured(self, capsys):
        # --shed on a single pool must actually enable admission control
        # (the report shows the shed SLO), not be silently dropped.
        out = run_cli(
            capsys,
            "serve",
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
            "--avatars", "12",
            "--frames", "8",
            "--sim-frames", "4",
            "--replicas", "1",
            "--deadline-ms", "30",
            "--shed",
        )
        assert "shed" in out
        # The one group sheds but never routes: a shed row, no router row.
        labels = {line.split("|")[0].strip() for line in out.splitlines()}
        assert "shed" in labels and "router" not in labels

    def test_serve_shaped_autoscaled_session(self, capsys, tmp_path):
        # --shape, --autoscale and --shed all reach the one engine; the
        # lax deadline lets some frames past admission.
        from repro.serving import report_from_json

        path = tmp_path / "shaped.json"
        run_cli(
            capsys,
            "serve",
            "--device", "Z7045",
            "--iterations", "2",
            "--population", "8",
            "--sim-frames", "4",
            "--shape", "flash",
            "--duration", "2",
            "--autoscale",
            "--shed",
            "--deadline-ms", "200",
            "--json", str(path),
        )
        report = report_from_json(path.read_text())
        assert [group.transport for group in report.groups] == ["inprocess"]
        assert report.completed > 0 and report.scale_ups > 0
        assert (
            report.completed + report.shed + report.failed
            == report.submitted
        )

    def test_serve_duration_sets_frame_count(self, capsys):
        out = run_cli(
            capsys,
            *self.SERVE,
            "--duration", "0.2",
            "--policy", "edf",
        )
        # 0.2 s at 30 FPS -> 6 frames per avatar, 4 avatars.
        assert "24/24 frames" in out


class TestSimulate:
    def test_simulate_saved_config(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        run_cli(
            capsys,
            "explore",
            "alexnet",
            "--device", "KU115",
            "--iterations", "2",
            "--population", "10",
            "--save-config", str(config_path),
        )
        out = run_cli(
            capsys,
            "simulate",
            "alexnet",
            "--device", "KU115",
            "--config", str(config_path),
            "--frames", "4",
            "--timeline",
            "--timeline-width", "40",
        )
        assert "steady state" in out
        assert "timeline:" in out

    def test_simulate_explores_when_no_config(self, capsys):
        out = run_cli(
            capsys,
            "simulate",
            "alexnet",
            "--device", "KU115",
            "--frames", "4",
            "--iterations", "2",
            "--population", "10",
        )
        assert "end-to-end" in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--frames", "0", "positive integer"),
            ("--frames", "-3", "positive integer"),
            ("--timeline-width", "7", "at least 8 columns"),
            ("--timeline-width", "-1", "at least 8 columns"),
            ("--timeline-width", "wide", "at least 8 columns"),
        ],
    )
    def test_simulate_rejects_bad_flags_before_exploring(
        self, capsys, monkeypatch, flag, value, message
    ):
        refuse_search(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "tiny_yolo", flag, value])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_simulate_accepts_the_narrowest_timeline(self, capsys):
        out = run_cli(
            capsys,
            "simulate",
            "tiny_yolo",
            "--device", "Z7045",
            "--frames", "1",
            "--iterations", "1",
            "--population", "4",
            "--timeline",
            "--timeline-width", "8",
        )
        assert "timeline:" in out


class TestExploreWorkers:
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_workers_must_be_positive(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "tiny_yolo", "--sweep", "Z7045", "--workers", value])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_workers_need_a_sweep(self, capsys, monkeypatch):
        refuse_search(monkeypatch)
        assert main(["explore", "tiny_yolo", "--workers", "2"]) == 2
        assert "--sweep" in capsys.readouterr().err

    def test_one_worker_needs_no_sweep(self, capsys):
        out = run_cli(
            capsys, "explore", "tiny_yolo", "--device", "Z7045", "--workers", "1",
            "--iterations", "2", "--population", "8",
        )
        assert "F-CAD generated accelerator" in out

    @pytest.mark.parametrize(
        "flags", [["--profile"], ["--profile-out", "sweep.pstats"]]
    )
    def test_pooled_sweep_refuses_to_profile(self, capsys, monkeypatch, flags):
        # The profile would show this process waiting on its workers.
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before refusing the flags")

        monkeypatch.setattr("repro.fcad.flow.run_sweep", no_sweep)
        argv = ["explore", "tiny_yolo", "--sweep", "Z7045", "--workers", "2"]
        assert main([*argv, *flags]) == 2
        assert "--workers 1" in capsys.readouterr().err

    def test_pooled_sweep_prints_the_serial_table(self, capsys):
        argv = [
            "explore", "tiny_yolo", "--sweep", "Z7045,ZU17EG,Z7045",
            "--iterations", "2", "--population", "8",
        ]

        def rows(out):
            # Every column but the host-timed "DSE s", the next to last.
            cells = [
                [cell.strip() for cell in line.split("|")]
                for line in out.splitlines()
                if line.startswith("tiny_yolo")
            ]
            return [row[:-2] + row[-1:] for row in cells]

        # Both sweeps start from cold Algorithm-2 tables, so "cache %",
        # which counts stage-memo hits, compares too.
        clear_process_caches()
        serial = rows(run_cli(capsys, *argv))
        assert len(serial) == 3
        clear_process_caches()
        assert rows(run_cli(capsys, *argv, "--workers", "2")) == serial


class TestExperimentCommand:
    def test_table1(self, capsys):
        out = run_cli(capsys, "experiment", "table1")
        assert "Table I" in out

    def test_fig3(self, capsys):
        out = run_cli(capsys, "experiment", "fig3")
        assert "DNNBuilder" in out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestGenerate:
    def test_generate_hls_project(self, capsys, tmp_path):
        out = run_cli(
            capsys,
            "generate",
            "alexnet",
            "--device", "KU115",
            "--iterations", "2",
            "--population", "10",
            "--output", str(tmp_path / "design"),
        )
        assert "explored design" in out
        top = (tmp_path / "design" / "fcad_top.cpp").read_text()
        assert "#pragma HLS DATAFLOW" in top
        assert (tmp_path / "design" / "design.json").exists()
