"""The distributed fleet runtime: wire, auth, faults, and the sweep plane.

The load-bearing property is the last class: a sweep sharded across
workers — including workers that die mid-sweep, workers that never
heartbeat, and coordinators restarted from a checkpoint — returns results
bit-identical to solving every case serially. Everything above it tests
the pieces that property rests on (exact float framing, authenticated
handshakes, deterministic fault injection).
"""

from __future__ import annotations

import random
import socket
import subprocess
import threading
import time
from unittest import mock

import pytest

from repro.devices.fpga import get_device
from repro.dist.coordinator import (
    FleetSpec,
    SweepCase,
    SweepCoordinator,
    run_fleet_sweep,
)
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    AuthError,
    ProtocolError,
    auth_mac,
    client_handshake,
    server_handshake,
)
from repro.dist.wire import (
    LineSocket,
    decode_message,
    encode_message,
    pack_blob,
    unpack_blob,
)
from repro.dist.worker import FleetWorker, run_worker
from repro.dse.cache import LocalEvalCache
from repro.dse.engine import DseEngine
from repro.dse.objective import resolve_oracle
from repro.dse.result import result_to_dict
from repro.dse.space import Customization
from repro.dse.worker import clear_process_caches
from repro.faults import FAULT_ENV, FaultInjector, FaultPlan
from repro.quant.schemes import INT8
from tests.conftest import HOST_TIME_KEYS, make_tiny_decoder


# ---------------------------------------------------------------------------
# wire framing
# ---------------------------------------------------------------------------
class TestWire:
    def test_floats_round_trip_exactly(self):
        # json's shortest-repr floats are lossless.
        values = [0.1 + 0.2, 1e-300, 7.3 / 3.0, -0.0, 123456.789012345]
        message = decode_message(encode_message({"v": values}))
        assert message["v"] == values

    def test_single_line_framing(self):
        encoded = encode_message({"a": 1, "b": "text"})
        assert "\n" not in encoded
        assert decode_message(encoded) == {"a": 1, "b": "text"}

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            decode_message("[1, 2, 3]")

    def test_blob_round_trip(self):
        payload = (("digest", 3, (10, 20)), {"fps": 71.5, "cfg": (1, 2)})
        assert unpack_blob(pack_blob(payload)) == payload


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_and_round_trip(self):
        plan = FaultPlan.parse("die-after-leases:1")
        assert plan.die_after_leases == 1
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_empty_spec_is_no_faults(self):
        assert FaultPlan.parse("") == FaultPlan()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="known faults"):
            FaultPlan.parse("segfault:1")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            FaultPlan.parse("die-after-leases:lots")

    @pytest.mark.parametrize(
        "spec",
        [
            "drop-every:2",
            "delay-ms:5",
            "drop-conn-after-decodes:1",
            "kill-server-after-decodes:1",
        ],
    )
    def test_removed_faults_rejected(self, spec):
        # These armed the wire and the replica server, both gone: a plan
        # still naming one fails instead of running unfaulted.
        with pytest.raises(ValueError, match="known faults: die-after-leases$"):
            FaultPlan.parse(spec)

    def test_plan_from_env(self, monkeypatch):
        # How a spawned worker learns its plan.
        monkeypatch.setenv(FAULT_ENV, "die-after-leases:2")
        assert FaultPlan.from_env() == FaultPlan(die_after_leases=2)
        monkeypatch.delenv(FAULT_ENV)
        assert FaultPlan.from_env() == FaultPlan()

    def test_injector_is_counter_based(self):
        injector = FaultInjector(FaultPlan(die_after_leases=2))
        assert not injector.should_die_on_lease()
        assert injector.should_die_on_lease()


# ---------------------------------------------------------------------------
# the auth handshake
# ---------------------------------------------------------------------------
def _handshake(server_token: str, client_token: str):
    """Run both handshake halves over a socketpair; return (fate, fate)."""
    left, right = socket.socketpair()
    server_conn, client_conn = LineSocket(left), LineSocket(right)
    outcome: dict[str, object] = {}

    def serve() -> None:
        try:
            outcome["hello"] = server_handshake(server_conn, server_token)
        except ProtocolError as exc:
            outcome["server_error"] = exc

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        welcome = client_handshake(client_conn, client_token, role="worker")
        outcome["welcome"] = welcome
    except ProtocolError as exc:
        outcome["client_error"] = exc
    thread.join(timeout=5)
    server_conn.close()
    client_conn.close()
    return outcome


class TestHandshake:
    def test_matching_tokens_welcome(self):
        outcome = _handshake("secret", "secret")
        assert outcome["welcome"]["type"] == "welcome"
        assert outcome["hello"]["role"] == "worker"

    def test_wrong_token_rejected_both_sides(self):
        outcome = _handshake("secret", "WRONG")
        assert isinstance(outcome["client_error"], AuthError)
        assert isinstance(outcome["server_error"], AuthError)

    def test_version_mismatch_rejected_before_payload(self):
        left, right = socket.socketpair()
        server_conn, client_conn = LineSocket(left), LineSocket(right)
        thread = threading.Thread(
            target=lambda: pytest.raises(
                ProtocolError, server_handshake, server_conn, ""
            )
        )
        thread.start()
        client_conn.send(
            {"type": "hello", "version": PROTOCOL_VERSION + 1, "role": "w"}
        )
        reply = client_conn.recv()
        thread.join(timeout=5)
        server_conn.close()
        client_conn.close()
        assert reply["type"] == "error"
        assert "version" in reply["error"]

    def test_mac_binds_nonce_and_version(self):
        assert auth_mac("tok", "a") != auth_mac("tok", "b")
        assert auth_mac("tok", "a") != auth_mac("other", "a")


# ---------------------------------------------------------------------------
# the sweep control plane
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def engines():
    from repro.construction.reorg import build_pipeline_plan

    plan = build_pipeline_plan(make_tiny_decoder())
    return [
        DseEngine(
            plan=plan,
            budget=get_device(device).budget(),
            customization=Customization.uniform(plan.num_branches),
            quant=INT8,
        )
        for device in ("Z7045", "ZU9CG")
    ]


def make_case(engine, iterations=2, population=10, seed=13):
    return SweepCase(
        engine=engine,
        iterations=iterations,
        population=population,
        seed=seed,
        heuristic_seed=True,
        objective=engine.resolved_objective(None),
        rerank_oracle=resolve_oracle(engine.rerank_oracle),
        rerank_top_k=engine.rerank_top_k,
    )


#: Serializes the thread workers' solves: they share this process's
#: Algorithm-2 tables and ladders, which are not thread-safe (a real
#: fleet worker is a process of its own).
_SOLVE_LOCK = threading.Lock()
_RUN_CASE = SweepCase.run


def _run_case_alone(case, cache):
    with _SOLVE_LOCK:
        return _RUN_CASE(case, cache)


def drive_fleet(cases, spec, workers=2, faults=()):
    """Serve ``cases`` with in-process worker threads; return (results, coord).

    Thread workers exercise the full wire protocol over loopback without
    the interpreter-startup cost of subprocess workers (the spawned-worker
    path is covered once, in ``test_search_many_fleet_end_to_end``). They
    start from cold Algorithm-2 tables, as a spawned worker does, and
    take turns solving. A faulted worker runs until its fault fires
    before the next worker starts: a tiny case solves in milliseconds, so
    a healthy worker started beside it could take every shard first and
    the fault would never fire.
    """
    assert spec.workers == 0, "drive_fleet supplies its own workers"
    with mock.patch.object(SweepCase, "run", _run_case_alone):
        return _drive_fleet(cases, spec, workers, faults)


def _drive_fleet(cases, spec, workers, faults):
    clear_process_caches()
    coordinator = SweepCoordinator(cases, spec)
    box: dict[str, object] = {}
    server = threading.Thread(
        target=lambda: box.update(results=coordinator.serve()), daemon=True
    )
    server.start()
    for _ in range(500):
        if coordinator.port is not None:
            break
        time.sleep(0.01)
    assert coordinator.port is not None, "coordinator never bound its port"
    threads = []
    for index in range(workers):
        fault = None
        if index < len(faults) and faults[index]:
            fault = FaultInjector(FaultPlan.parse(faults[index]))
        thread = threading.Thread(
            target=run_worker,
            args=(spec.host, coordinator.port),
            kwargs=dict(token=spec.token, fault=fault),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
        if fault is not None:
            thread.join(timeout=10)
    server.join(timeout=120)
    assert not server.is_alive(), f"sweep never drained: {coordinator.stats}"
    for thread in threads:
        thread.join(timeout=10)
    return box["results"], coordinator


def assert_same_result(actual, expected):
    """The whole record, accounting included; only host timings may differ."""

    def record(result):
        return {
            key: value
            for key, value in result_to_dict(result).items()
            if key not in HOST_TIME_KEYS
        }

    assert record(actual) == record(expected)


class TestFleetSweep:
    @pytest.fixture(scope="class")
    def serial(self, engines):
        """The ground truth: every case solved in-process from cold
        Algorithm-2 tables, as in a fresh process."""
        results = []
        for engine in engines:
            clear_process_caches()
            results.append(make_case(engine).run(LocalEvalCache()))
        return results

    def test_two_workers_bit_identical_to_serial(self, engines, serial):
        cases = [make_case(engine) for engine in engines]
        spec = FleetSpec(workers=0, token="t", timeout_s=60.0)
        results, coordinator = drive_fleet(cases, spec, workers=2)
        for fleet_result, serial_result in zip(results, serial):
            assert_same_result(fleet_result, serial_result)
        assert coordinator.stats["shards"] == 2
        assert coordinator.stats["workers"] >= 2

    def test_a_worker_solves_every_lease_against_one_cache(
        self, engines, serial
    ):
        """Only cases and results cross the wire: a lone worker keeps one
        process-local cache across its leases, and the results stay the
        serial ones."""
        caches = []

        def recording_run(case, cache):
            caches.append(cache)
            return _run_case_alone(case, cache)

        cases = [make_case(engine) for engine in engines]
        spec = FleetSpec(workers=0, token="t", timeout_s=60.0)
        with mock.patch.object(SweepCase, "run", recording_run):
            results, _ = _drive_fleet(cases, spec, workers=1, faults=())
        assert len(caches) == len(cases)
        assert all(cache is caches[0] for cache in caches)
        assert isinstance(caches[0], LocalEvalCache) and len(caches[0]) > 0
        for fleet_result, serial_result in zip(results, serial):
            assert_same_result(fleet_result, serial_result)

    def test_killed_worker_shard_is_releases_and_lossless(
        self, engines, serial
    ):
        """A worker dying after its first lease loses time, not results."""
        cases = [make_case(engine) for engine in engines]
        spec = FleetSpec(workers=0, token="t", timeout_s=60.0)
        results, coordinator = drive_fleet(
            cases, spec, workers=2, faults=("die-after-leases:1",)
        )
        for fleet_result, serial_result in zip(results, serial):
            assert_same_result(fleet_result, serial_result)
        assert coordinator.stats["releases"] >= 1
        assert coordinator.stats["leases"] >= len(cases) + 1

    def test_heartbeat_timeout_releases_a_stalled_workers_shard(
        self, engines, serial
    ):
        """A worker that stops heartbeating loses its lease to the monitor.

        The stalled client holds its connection open (so the EOF fast
        path never fires) but sends no heartbeats; only the lease-timeout
        monitor can reclaim the shard.
        """
        cases = [make_case(engines[0])]
        spec = FleetSpec(
            workers=0, token="t", lease_timeout_s=0.5, timeout_s=60.0
        )
        clear_process_caches()
        coordinator = SweepCoordinator(cases, spec)
        box: dict[str, object] = {}
        server = threading.Thread(
            target=lambda: box.update(results=coordinator.serve()),
            daemon=True,
        )
        server.start()
        for _ in range(500):
            if coordinator.port is not None:
                break
            time.sleep(0.01)
        staller = LineSocket.connect("127.0.0.1", coordinator.port)
        try:
            client_handshake(staller, "t", role="worker")
            worker_id = staller.request({"type": "register"})["worker"]
            lease = staller.request(
                {"type": "lease_request", "worker": worker_id}
            )
            assert lease["type"] == "lease"
            # ...and then silence: no heartbeats, no result.
            worker = threading.Thread(
                target=run_worker,
                args=("127.0.0.1", coordinator.port),
                kwargs=dict(token="t"),
                daemon=True,
            )
            worker.start()
            server.join(timeout=60)
            assert not server.is_alive(), (
                f"stalled lease never re-leased: {coordinator.stats}"
            )
            worker.join(timeout=10)
        finally:
            staller.close()
        assert coordinator.stats["releases"] >= 1
        assert coordinator.stats["worker_deaths"] >= 1
        assert_same_result(box["results"][0], serial[0])

    def test_checkpoint_resume_skips_solved_shards(
        self, engines, serial, tmp_path
    ):
        checkpoint = tmp_path / "sweep.ckpt"
        cases = [make_case(engine) for engine in engines]
        spec = FleetSpec(
            workers=0, token="t", checkpoint=checkpoint, timeout_s=60.0
        )
        drive_fleet(cases, spec, workers=2)
        assert checkpoint.exists()

        # A restarted coordinator with the same sweep needs no workers at
        # all: every shard is already in the checkpoint.
        resumed = SweepCoordinator(
            [make_case(engine) for engine in engines], spec
        )
        assert resumed.stats["resumed"] == len(cases)
        results = resumed.serve()
        for fleet_result, serial_result in zip(results, serial):
            assert_same_result(fleet_result, serial_result)

    def test_checkpoint_for_a_different_sweep_is_ignored(
        self, engines, tmp_path
    ):
        checkpoint = tmp_path / "sweep.ckpt"
        cases = [make_case(engine) for engine in engines]
        spec = FleetSpec(
            workers=0, token="t", checkpoint=checkpoint, timeout_s=60.0
        )
        drive_fleet(cases, spec, workers=1)
        other = SweepCoordinator(
            [make_case(engine, seed=99) for engine in engines], spec
        )
        assert other.stats["resumed"] == 0

    def test_negative_worker_count_rejected(self):
        """A negative count would spawn nobody and wait out the timeout."""
        with pytest.raises(ValueError, match="workers must be >= 0"):
            FleetSpec(workers=-1)
        assert FleetSpec(workers=0).workers == 0  # workers join from outside

    @pytest.mark.parametrize("workers", [2.5, True, float("nan"), "2"])
    def test_non_integer_worker_count_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            FleetSpec(workers=workers)

    def test_numpy_worker_count_stored_as_int(self):
        import numpy as np

        spec = FleetSpec(workers=np.int64(3))
        assert spec.workers == 3 and type(spec.workers) is int

    @pytest.mark.parametrize(
        "field",
        ["lease_timeout_s", "heartbeat_interval_s", "monitor_interval_s",
         "timeout_s"],
    )
    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_durations_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            FleetSpec(workers=0, **{field: value})

    def test_resumed_sweep_spawns_no_worker(
        self, engines, tmp_path, monkeypatch
    ):
        """A coordinator whose checkpoint holds every shard starts no
        process, instead of waiting out idle workers."""
        checkpoint = tmp_path / "sweep.ckpt"
        cases = [make_case(engine) for engine in engines]
        drive_fleet(
            cases,
            FleetSpec(
                workers=0, token="t", checkpoint=checkpoint, timeout_s=60.0
            ),
            workers=2,
        )
        spawned = []
        real_popen = subprocess.Popen

        def counting_popen(*args, **kwargs):
            spawned.append(args)
            return real_popen(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", counting_popen)
        stats: dict = {}
        results = run_fleet_sweep(
            engines,
            FleetSpec(
                workers=2, token="t", checkpoint=checkpoint, timeout_s=60.0
            ),
            iterations=2,
            population=10,
            seed=13,
            stats=stats,
        )
        assert spawned == []
        assert stats["resumed"] == len(cases)
        assert len(results) == len(cases)

    def test_spawns_at_most_one_worker_per_pending_shard(
        self, engines, monkeypatch
    ):
        """Workers beyond the pending shards would only idle until the
        run ends."""
        spawned = []

        class Exited:
            def poll(self):
                return 0

            def wait(self, timeout=None):
                return 0

        def fake_popen(*args, **kwargs):
            spawned.append(args)
            return Exited()

        monkeypatch.setattr(subprocess, "Popen", fake_popen)
        coordinator = SweepCoordinator(
            [make_case(engine) for engine in engines],
            FleetSpec(workers=5, token="t", timeout_s=60.0),
        )
        with pytest.raises(RuntimeError, match="workers exited"):
            coordinator.serve()
        assert len(spawned) == len(engines)

    def test_failed_spawn_stops_started_workers_and_serving(
        self, engines, monkeypatch
    ):
        """A worker that cannot start fails the run at once, and takes the
        workers already started, the listener and the coordinator's
        threads down with it."""
        started = []

        class Running:
            terminated = False

            def poll(self):
                return 0 if self.terminated else None

            def terminate(self):
                self.terminated = True

            def wait(self, timeout=None):
                return 0

        def failing_popen(*args, **kwargs):
            if started:
                raise OSError("cannot start a worker")
            started.append(Running())
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", failing_popen)
        before = set(threading.enumerate())
        coordinator = SweepCoordinator(
            [make_case(engine) for engine in engines],
            FleetSpec(workers=2, token="t", timeout_s=60.0),
        )
        with pytest.raises(OSError, match="cannot start a worker"):
            coordinator.serve()
        assert started[0].terminated
        assert [
            thread for thread in threading.enumerate()
            if thread not in before
            and thread.name.endswith(("(_accept_loop)", "(_monitor)"))
        ] == []
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(
                ("127.0.0.1", coordinator.port), timeout=1.0
            ).close()

    def test_unreachable_coordinator_costs_one_dial_budget(
        self, monkeypatch
    ):
        """A worker that never connects gives up after ``connect_retries``
        attempts, not that many squared."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # Nothing listens on ``port`` now: every attempt is refused.
        attempts = []
        real_connect = LineSocket.connect

        def counting_connect(host, port, *args, **kwargs):
            attempts.append(port)
            return real_connect(host, port, *args, **kwargs)

        monkeypatch.setattr(
            LineSocket, "connect", staticmethod(counting_connect)
        )
        worker = FleetWorker(
            "127.0.0.1", port, token="t", connect_retries=3,
            backoff_s=0.001, backoff_max_s=0.001,
        )
        with pytest.raises(RuntimeError, match="after 3 attempts"):
            worker.run()
        assert attempts == [port] * 3

    def test_fleet_sweep_rejects_live_rng_seeds(self, engines):
        with pytest.raises(ValueError, match="integer"):
            run_fleet_sweep(
                engines, FleetSpec(workers=0), seed=random.Random(3)
            )

    def test_search_many_fleet_end_to_end(self, engines, serial):
        """``search_many(fleet=...)`` with spawned subprocess workers.

        The one test on the full production path: coordinator-spawned
        worker subprocesses and dedup (the repeated engine shares a
        shard).
        """
        results = DseEngine.search_many(
            [engines[0], engines[1], engines[0]],
            iterations=2,
            population=10,
            seed=13,
            fleet=FleetSpec(workers=2, token="t", timeout_s=120.0),
        )
        assert len(results) == 3
        assert results[0] is results[2] or (
            results[0].best_config == results[2].best_config
            and results[0].history == results[2].history
        )
        for fleet_result, serial_result in zip(results[:2], serial):
            assert_same_result(fleet_result, serial_result)

    def test_search_many_fleet_rejects_a_cache(self, engines):
        """A fleet's workers cannot fill the caller's cache: fail loudly
        instead of handing it back empty."""
        with pytest.raises(ValueError, match="takes no cache"):
            DseEngine.search_many(
                engines,
                iterations=2,
                population=10,
                cache=LocalEvalCache(),
                fleet=FleetSpec(workers=0),
            )
