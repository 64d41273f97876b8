"""The distributed fleet runtime: wire, auth, faults, and the sweep plane.

The load-bearing property is the last class: a sweep sharded across
workers — including workers that die mid-sweep, workers that never
heartbeat, and coordinators restarted from a checkpoint — returns results
bit-identical to solving every case serially. Everything above it tests
the pieces that property rests on (exact float framing, authenticated
handshakes, deterministic fault injection, crash-consistent cache files).
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time

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
from repro.dist.worker import run_worker
from repro.dse.cache import FileEvalCache, LocalEvalCache
from repro.dse.engine import DseEngine
from repro.dse.objective import resolve_oracle
from repro.dse.space import Customization
from repro.faults import FaultInjector, FaultPlan
from repro.quant.schemes import INT8
from tests.conftest import make_tiny_decoder


# ---------------------------------------------------------------------------
# wire framing
# ---------------------------------------------------------------------------
class TestWire:
    def test_floats_round_trip_exactly(self):
        # json's shortest-repr floats are lossless — the reason a remote
        # solve can be bit-identical to a local one.
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
        plan = FaultPlan.parse("die-after-leases:1,drop-every:3")
        assert plan.die_after_leases == 1
        assert plan.drop_every == 3
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_empty_spec_is_no_faults(self):
        assert FaultPlan.parse("") == FaultPlan()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="known faults"):
            FaultPlan.parse("segfault:1")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            FaultPlan.parse("drop-every:lots")

    def test_injector_is_counter_based(self):
        injector = FaultInjector(FaultPlan(die_after_leases=2))
        assert not injector.should_die_on_lease()
        assert injector.should_die_on_lease()
        server = FaultInjector(FaultPlan(drop_conn_after_decodes=2))
        assert [server.after_decode() for _ in range(3)] == [
            "ok", "drop-conn", "ok",
        ]


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
# FileEvalCache crash consistency
# ---------------------------------------------------------------------------
class TestFileCacheCrashConsistency:
    def test_kill_mid_flush_is_all_or_nothing(self, tmp_path):
        """A process hard-killed mid-flush never tears the cache file.

        The child commits a baseline batch, then arms a SQLite progress
        handler that ``os._exit``s the process partway through the next
        flush's transaction. On reopen the journal rolls the partial
        transaction back: every baseline entry survives and the doomed
        batch is absent *in its entirety* — never a partial batch.
        """
        path = tmp_path / "crash.sqlite"
        script = (
            "import os\n"
            "from repro.dse.cache import FileEvalCache\n"
            f"cache = FileEvalCache({str(path)!r})\n"
            "for i in range(5):\n"
            "    cache.put(('baseline', i), list(range(50)))\n"
            "cache.flush()\n"
            "for i in range(200):\n"
            "    cache.put(('doomed', i), list(range(200)))\n"
            "cache._conn.set_progress_handler(lambda: os._exit(17), 20)\n"
            "cache.flush()\n"
            "os._exit(0)\n"
        )
        import repro

        from pathlib import Path as _Path

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (
                str(_Path(repro.__file__).resolve().parents[1]),
                env.get("PYTHONPATH"),
            )
            if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60
        )
        assert proc.returncode == 17, "the child must die mid-flush"
        with FileEvalCache(path) as survivor:
            entries = dict(survivor.items())
        baseline = [k for k in entries if k[0] == "baseline"]
        doomed = [k for k in entries if k[0] == "doomed"]
        assert len(baseline) == 5  # earlier flushes fully intact
        assert len(doomed) in (0, 200)  # atomic: all or nothing
        assert len(doomed) == 0  # ...and the kill really preempted commit


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


def drive_fleet(cases, spec, workers=2, faults=()):
    """Serve ``cases`` with in-process worker threads; return (results, coord).

    Thread workers exercise the full wire protocol over loopback without
    the interpreter-startup cost of subprocess workers (the spawned-worker
    path is covered once, in ``test_search_many_fleet_end_to_end``).
    """
    assert spec.workers == 0, "drive_fleet supplies its own workers"
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
    server.join(timeout=120)
    assert not server.is_alive(), f"sweep never drained: {coordinator.stats}"
    for thread in threads:
        thread.join(timeout=10)
    return box["results"], coordinator


def assert_same_result(actual, expected):
    assert actual.best_fitness == expected.best_fitness
    assert actual.best_config == expected.best_config
    assert actual.history == expected.history


class TestFleetSweep:
    @pytest.fixture(scope="class")
    def serial(self, engines):
        """The ground truth: every case solved in-process."""
        return [make_case(engine).run(LocalEvalCache()) for engine in engines]

    def test_two_workers_bit_identical_to_serial(self, engines, serial):
        cases = [make_case(engine) for engine in engines]
        spec = FleetSpec(workers=0, token="t", timeout_s=60.0)
        results, coordinator = drive_fleet(cases, spec, workers=2)
        for fleet_result, serial_result in zip(results, serial):
            assert_same_result(fleet_result, serial_result)
        assert coordinator.stats["shards"] == 2
        assert coordinator.stats["workers"] >= 2
        assert coordinator.stats["cache_entries"] > 0

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
                {"type": "lease_request", "worker": worker_id, "cache_seq": 0}
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

    def test_fleet_sweep_rejects_live_rng_seeds(self, engines):
        with pytest.raises(ValueError, match="integer"):
            run_fleet_sweep(
                engines, FleetSpec(workers=0), seed=random.Random(3)
            )

    def test_search_many_fleet_end_to_end(self, engines, serial):
        """``search_many(fleet=...)`` with spawned subprocess workers.

        The one test on the full production path: coordinator-spawned
        worker subprocesses, dedup (the repeated engine shares a shard),
        and warming the caller's cache.
        """
        cache = LocalEvalCache()
        results = DseEngine.search_many(
            [engines[0], engines[1], engines[0]],
            iterations=2,
            population=10,
            seed=13,
            cache=cache,
            fleet=FleetSpec(workers=2, token="t", timeout_s=120.0),
        )
        assert len(results) == 3
        assert results[0] is results[2] or (
            results[0].best_config == results[2].best_config
            and results[0].history == results[2].history
        )
        for fleet_result, serial_result in zip(results[:2], serial):
            assert_same_result(fleet_result, serial_result)
        assert len(cache) > 0  # the fleet warmed the caller's cache
