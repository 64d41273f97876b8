"""The fleet worker: lease a shard, solve it, ship the result home.

A :class:`FleetWorker` keeps two connections to the coordinator:

- the **main** connection runs the lease loop — request a lease, solve
  the case with a :class:`~repro.dse.cache.DeltaEvalCache` over a local
  base warmed by the coordinator's cache log, submit the result plus the
  delta entries;
- the **heartbeat** connection pings on a fixed interval from its own
  thread, so a minutes-long Algorithm-2 solve cannot be mistaken for a
  dead worker.

Both connections reconnect with exponential backoff + jitter. If the
main connection drops after a shard was solved but before the submission
was acknowledged, the worker resubmits after reconnecting — the
coordinator's first-writer-wins merge makes that idempotent. A worker
that cannot reach the coordinator past its retry budget gives up with an
error; it never hangs.

``spawned_main`` is the entry point coordinator-spawned subprocesses run
(connection target, token, and fault plan arrive via environment
variables — see :data:`repro.faults.FAULT_ENV`).
"""

from __future__ import annotations

import os
import random
import time

from repro.dist.protocol import ProtocolError, client_handshake
from repro.dist.wire import LineSocket, WireClosed, pack_blob, unpack_blob
from repro.dse.cache import DeltaEvalCache, LocalEvalCache
from repro.faults import FaultInjector, FaultPlan


class FleetWorker:
    """One worker process (or thread, in tests) serving a coordinator."""

    def __init__(
        self,
        host: str,
        port: int,
        token: str = "",
        fault: FaultInjector | None = None,
        connect_retries: int = 8,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        rng: random.Random | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.fault = fault or FaultInjector(FaultPlan.from_env())
        self.connect_retries = connect_retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._rng = rng or random.Random(0)
        self._conn: LineSocket | None = None
        self._heartbeat: "_HeartbeatThread | None" = None
        self.worker_id: int | None = None
        #: Shards this worker solved (observability + test assertions).
        self.solved: list[int] = []

    # -- connection management ------------------------------------------
    def _dial(self, role: str, extra: dict | None = None) -> LineSocket:
        last_error: Exception | None = None
        for attempt in range(self.connect_retries):
            if attempt:
                delay = min(
                    self.backoff_s * (2 ** (attempt - 1)), self.backoff_max_s
                )
                time.sleep(delay * (1.0 + 0.25 * self._rng.random()))
            try:
                conn = LineSocket.connect(self.host, self.port)
            except OSError as exc:
                last_error = exc
                continue
            try:
                client_handshake(conn, self.token, role=role, extra=extra)
                return conn
            except (OSError, ProtocolError, ValueError) as exc:
                conn.close()
                if isinstance(exc, ProtocolError):
                    raise  # bad token / wrong version: retrying cannot help
                last_error = exc
        raise RuntimeError(
            f"coordinator {self.host}:{self.port} unreachable after "
            f"{self.connect_retries} attempts: {last_error}"
        )

    def _connect(self) -> None:
        """(Re)establish the main connection, register, start heartbeats."""
        self._disconnect()
        self._conn = self._dial("worker")
        registered = self._conn.request({"type": "register"})
        if registered.get("type") != "registered":
            raise RuntimeError(f"registration refused: {registered!r}")
        self.worker_id = int(registered["worker"])
        interval = float(registered.get("heartbeat_interval_s", 0.5))
        self._heartbeat = _HeartbeatThread(self, interval)
        self._heartbeat.start()

    def _disconnect(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.stop()
            self._heartbeat = None
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- the lease loop ---------------------------------------------------
    def run(self) -> int:
        """Serve until the coordinator reports the sweep drained."""
        base = LocalEvalCache()
        cache_seq = 0
        pending_submission: dict | None = None
        failures = 0
        ever_connected = False
        try:
            while True:
                try:
                    if self._conn is None:
                        self._connect()
                        ever_connected = True
                    assert self._conn is not None
                    if pending_submission is not None:
                        pending_submission["worker"] = self.worker_id
                        self._conn.request(pending_submission)
                        pending_submission = None
                    reply = self._conn.request(
                        {
                            "type": "lease_request",
                            "worker": self.worker_id,
                            "cache_seq": cache_seq,
                        }
                    )
                    failures = 0
                except (OSError, WireClosed, ValueError, RuntimeError):
                    self._disconnect()
                    failures += 1
                    if failures >= 2 and ever_connected and pending_submission is None:
                        # The coordinator we once served is gone and we
                        # owe it nothing: the sweep drained (or the run
                        # was abandoned). Either way, done here.
                        return 0
                    if failures > self.connect_retries:
                        raise
                    continue
                kind = reply.get("type")
                if kind == "drained":
                    return 0
                if kind == "wait":
                    time.sleep(float(reply.get("poll_s", 0.1)))
                    continue
                if kind != "lease":
                    raise RuntimeError(f"unexpected coordinator reply: {reply!r}")
                for blob in reply.get("cache", ()):
                    key, value = unpack_blob(blob)
                    if base.get(key) is None:
                        base.put(key, value)
                cache_seq = int(reply.get("cache_seq", cache_seq))
                if self.fault.should_die_on_lease():
                    # Simulated crash: vanish without submitting. The
                    # coordinator sees EOF and re-leases the shard.
                    self._disconnect()
                    return 1
                shard = int(reply["shard"])
                case = unpack_blob(reply["case"])
                delta = DeltaEvalCache(base)
                result = case.run(delta)
                entries = delta.new_entries()
                for key, value in entries:
                    if base.get(key) is None:
                        base.put(key, value)
                self.solved.append(shard)
                pending_submission = {
                    "type": "result",
                    "worker": self.worker_id,
                    "shard": shard,
                    "result": pack_blob(result),
                    "cache": [pack_blob(entry) for entry in entries],
                }
        finally:
            if self._conn is not None:
                try:
                    self._conn.send({"type": "close"})
                except (OSError, ValueError):
                    pass
            self._disconnect()


class _HeartbeatThread:
    """Pings the coordinator from a dedicated connection."""

    def __init__(self, worker: FleetWorker, interval_s: float) -> None:
        import threading

        self._worker = worker
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        try:
            conn = self._worker._dial(
                "heartbeat", extra={"worker": self._worker.worker_id}
            )
        except (RuntimeError, ProtocolError, OSError):
            return  # no heartbeats: the lease deadline takes over
        try:
            while not self._stop.wait(self._interval_s):
                reply = conn.request(
                    {"type": "ping", "worker": self._worker.worker_id}
                )
                if reply.get("type") != "pong":
                    return
        except (OSError, ValueError, WireClosed):
            return  # main loop notices and reconnects; we just exit
        finally:
            conn.close()


def run_worker(
    host: str,
    port: int,
    token: str = "",
    fault: FaultInjector | None = None,
) -> int:
    """Convenience wrapper: build a :class:`FleetWorker` and run it."""
    return FleetWorker(host, port, token=token, fault=fault).run()


def spawned_main() -> int:
    """Entry point for coordinator-spawned worker subprocesses."""
    target = os.environ.get("REPRO_FLEET_CONNECT", "")
    host, _, port_text = target.partition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(f"bad REPRO_FLEET_CONNECT: {target!r}")
    token = os.environ.get("REPRO_FLEET_TOKEN", "")
    return run_worker(host, int(port_text), token=token)


__all__ = ["FleetWorker", "run_worker", "spawned_main"]
