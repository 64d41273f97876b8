"""The sweep control plane: lease shards to workers, merge deterministically.

A :class:`SweepCoordinator` owns a sweep — the distinct
:class:`~repro.dse.engine.SweepCase` searches that
:func:`~repro.dse.engine.plan_sweep` planned, each a *pure function* of
its fields — and serves them as shards to fleet workers over the
line-JSON wire:

- **Leases with deadlines.** A worker asks for work, gets one shard and
  a lease. Heartbeats (on a separate connection, so a long Algorithm-2
  solve never starves them) renew the lease; a missed deadline or a
  dropped connection releases the shard back to the pending queue, where
  the next idle worker picks it up. Losing a worker loses time, never
  results.
- **Deterministic merge.** Results are keyed by *shard index* and
  reassembled in case order, never arrival order. Because each shard is
  a pure function of its case, re-leased shards and duplicate
  submissions (first writer wins — later copies are bit-identical by
  construction) cannot change any result: a fleet sweep is bit-identical
  to ``search_many`` serially at the same seed. Each worker solves its
  shards against one process-local evaluation cache; nothing else
  crosses the wire.
- **Checkpoints.** Each completed shard is appended to an atomically
  replaced checkpoint file (temp + ``os.replace``); a restarted
  coordinator with the same sweep fingerprint resumes from it without
  re-solving.

:func:`run_fleet_sweep` is the high-level entry —
``DseEngine.search_many(fleet=...)`` hands its planned cases to it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import random
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.dist.protocol import TOKEN_ENV, ProtocolError, server_handshake
from repro.dist.wire import LineSocket, pack_blob, unpack_blob
from repro.faults import FAULT_ENV
from repro.utils.checks import is_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.engine import SweepCase
    from repro.dse.result import DseResult


@dataclass
class FleetSpec:
    """How to run a sweep as a fleet instead of in-process."""

    #: Local worker subprocesses the coordinator spawns for the run (0
    #: means workers join from outside — other machines, test threads).
    workers: int = 2
    host: str = "127.0.0.1"
    #: 0 picks a free port (read it back from ``SweepCoordinator.port``).
    port: int = 0
    #: Shared secret for the HMAC handshake ("" disables auth — loopback
    #: smoke runs only; anything remote should set one).
    token: str = ""
    #: A leased shard whose worker has not heartbeat for this long is
    #: declared orphaned and re-leased.
    lease_timeout_s: float = 15.0
    heartbeat_interval_s: float = 0.5
    #: How often the coordinator scans for orphaned leases. Worst-case
    #: death detection is ``lease_timeout_s + monitor_interval_s`` after
    #: the last heartbeat (see docs/distributed.md).
    monitor_interval_s: float = 0.25
    #: Checkpoint file for resumable coordinators (None = not persisted).
    checkpoint: str | Path | None = None
    #: Hard wall-time ceiling for the whole sweep.
    timeout_s: float = 600.0
    #: Fault spec per spawned-worker index (test hook; see
    #: :class:`~repro.faults.FaultPlan`). Shorter than ``workers``
    #: means the remaining workers run clean.
    worker_faults: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not is_count(self.workers, minimum=0):
            raise ValueError(
                f"workers must be >= 0 and an integer (0: workers join "
                f"from outside), got {self.workers!r}"
            )
        # A numpy integer is a valid count; store it as a plain int.
        self.workers = int(self.workers)
        for name in (
            "lease_timeout_s",
            "heartbeat_interval_s",
            "monitor_interval_s",
            "timeout_s",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be a finite number > 0, got {value!r}"
                )


@dataclass
class _Lease:
    worker: int
    deadline: float


class SweepCoordinator:
    """Serves one sweep to a fleet of workers; see the module docstring."""

    def __init__(self, cases: Sequence["SweepCase"], spec: FleetSpec) -> None:
        self.cases = list(cases)
        if any(isinstance(case.seed, random.Random) for case in self.cases):
            raise ValueError(
                "fleet sweeps need integer (or None) seeds: a live "
                "random.Random carries hidden state that cannot be "
                "shipped to a worker deterministically"
            )
        self.spec = spec
        self.fingerprint = hashlib.sha1(
            pickle.dumps([case.key() for case in self.cases])
        ).hexdigest()
        self.port: int | None = None
        self.stats: dict[str, int] = {
            "shards": len(self.cases),
            "leases": 0,
            "releases": 0,
            "workers": 0,
            "worker_deaths": 0,
            "duplicate_results": 0,
            "resumed": 0,
        }
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: deque[int] = deque(range(len(self.cases)))
        self._leases: dict[int, _Lease] = {}
        self._done: dict[int, str] = {}  # shard -> result blob
        self._last_beat: dict[int, float] = {}  # worker -> monotonic time
        self._next_worker = 0
        self._live_workers = 0
        self._stop = threading.Event()
        self._load_checkpoint()

    # -- checkpointing ---------------------------------------------------
    def _load_checkpoint(self) -> None:
        path = self.spec.checkpoint
        if path is None or not Path(path).exists():
            return
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return  # unreadable checkpoint: start over, do not crash
        if payload.get("fingerprint") != self.fingerprint:
            return  # different sweep: ignore
        for shard_text, blob in payload.get("done", {}).items():
            shard = int(shard_text)
            if 0 <= shard < len(self.cases):
                self._done[shard] = blob
        self._pending = deque(
            i for i in range(len(self.cases)) if i not in self._done
        )
        self.stats["resumed"] = len(self._done)

    def _write_checkpoint_locked(self) -> None:
        path = self.spec.checkpoint
        if path is None:
            return
        path = Path(path)
        payload = {
            "version": 1,
            "fingerprint": self.fingerprint,
            "shards": len(self.cases),
            "done": {str(shard): blob for shard, blob in self._done.items()},
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)  # atomic: readers see old or new, never half

    # -- worker bookkeeping ---------------------------------------------
    def _release_worker_shards_locked(self, worker: int, why: str) -> None:
        orphaned = sorted(
            shard
            for shard, lease in self._leases.items()
            if lease.worker == worker
        )
        for shard in orphaned:
            del self._leases[shard]
            self._pending.appendleft(shard)
            self.stats["releases"] += 1
        if orphaned:
            self._cond.notify_all()

    def _monitor(self) -> None:
        """Re-lease shards whose worker stopped heartbeating."""
        while not self._stop.wait(self.spec.monitor_interval_s):
            now = time.monotonic()
            with self._lock:
                expired = sorted(
                    shard
                    for shard, lease in self._leases.items()
                    if max(
                        lease.deadline,
                        self._last_beat.get(lease.worker, 0.0)
                        + self.spec.lease_timeout_s,
                    )
                    < now
                )
                for shard in expired:
                    worker = self._leases.pop(shard).worker
                    self._pending.appendleft(shard)
                    self.stats["releases"] += 1
                    self.stats["worker_deaths"] += 1
                    self._last_beat.pop(worker, None)
                if expired:
                    self._cond.notify_all()

    # -- the wire protocol ----------------------------------------------
    def _handle_message(self, message: dict) -> dict | None:
        kind = message.get("type")
        now = time.monotonic()
        with self._lock:
            if kind == "register":
                worker = self._next_worker
                self._next_worker += 1
                self.stats["workers"] += 1
                self._last_beat[worker] = now
                return {
                    "type": "registered",
                    "worker": worker,
                    "heartbeat_interval_s": self.spec.heartbeat_interval_s,
                    "shards": len(self.cases),
                }
            worker = int(message.get("worker", -1))
            self._last_beat[worker] = now
            if kind == "ping":
                for lease in self._leases.values():
                    if lease.worker == worker:
                        lease.deadline = now + self.spec.lease_timeout_s
                return {"type": "pong"}
            if kind == "lease_request":
                if len(self._done) == len(self.cases):
                    return {"type": "drained"}
                if not self._pending:
                    return {"type": "wait", "poll_s": 0.1}
                shard = self._pending.popleft()
                self._leases[shard] = _Lease(
                    worker=worker, deadline=now + self.spec.lease_timeout_s
                )
                self.stats["leases"] += 1
                return {
                    "type": "lease",
                    "shard": shard,
                    "case": pack_blob(self.cases[shard]),
                    "deadline_s": self.spec.lease_timeout_s,
                }
            if kind == "result":
                shard = int(message["shard"])
                self._leases.pop(shard, None)
                if shard in self._done:
                    # A re-leased shard finished twice. Both copies are
                    # bit-identical (pure function of the case); keep the
                    # first so the merge never depends on arrival order.
                    self.stats["duplicate_results"] += 1
                else:
                    self._done[shard] = message["result"]
                    self._write_checkpoint_locked()
                self._cond.notify_all()
                return {"type": "ack", "done": len(self._done)}
        return {"type": "error", "error": f"bad request: {kind!r}"}

    def _handle_connection(self, raw: socket.socket) -> None:
        conn = LineSocket(raw)
        worker: int | None = None
        role = "worker"
        try:
            hello = server_handshake(conn, self.spec.token)
            role = str(hello.get("role", "worker"))
            if role == "worker":
                with self._lock:
                    self._live_workers += 1
            while not self._stop.is_set():
                message = conn.recv()
                if message is None or message.get("type") == "close":
                    break
                if message.get("type") == "register":
                    reply = self._handle_message(message)
                    worker = reply["worker"]
                    conn.send(reply)
                    continue
                conn.send(self._handle_message(message))
        except (ProtocolError, OSError, ValueError, KeyError):
            pass  # torn or hostile connection: release and move on
        finally:
            conn.close()
            with self._lock:
                if role == "worker":
                    self._live_workers -= 1
                    self._cond.notify_all()
                if worker is not None:
                    # EOF from a worker's main connection is the fastest
                    # death signal — re-lease immediately, don't wait for
                    # the heartbeat timeout.
                    self._release_worker_shards_locked(worker, "disconnect")

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                raw, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._handle_connection, args=(raw,), daemon=True
            ).start()
        listener.close()

    # -- worker processes ------------------------------------------------
    def _spawn_workers(self, procs: list[subprocess.Popen]) -> None:
        """Start one worker per pending shard, up to ``spec.workers``,
        appending each to ``procs`` as it starts (so the caller can reap
        every one even if a later start fails). A fully resumed sweep
        starts none."""
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        for index in range(min(self.spec.workers, len(self._pending))):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src_root, env.get("PYTHONPATH")) if p
            )
            env["REPRO_FLEET_CONNECT"] = f"{self.spec.host}:{self.port}"
            env[TOKEN_ENV] = self.spec.token
            env.pop(FAULT_ENV, None)
            if index < len(self.spec.worker_faults):
                fault = self.spec.worker_faults[index]
                if fault:
                    env[FAULT_ENV] = fault
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        "from repro.dist.worker import spawned_main; "
                        "raise SystemExit(spawned_main())",
                    ],
                    env=env,
                )
            )

    # -- the run ----------------------------------------------------------
    def serve(self) -> list["DseResult"]:
        """Run the sweep to completion; returns results in case order."""
        listener = socket.create_server((self.spec.host, self.spec.port))
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        threads = [
            threading.Thread(
                target=self._accept_loop, args=(listener,), daemon=True
            ),
            threading.Thread(target=self._monitor, daemon=True),
        ]
        for thread in threads:
            thread.start()
        procs: list[subprocess.Popen] = []
        deadline = time.monotonic() + self.spec.timeout_s
        try:
            self._spawn_workers(procs)
            with self._cond:
                while len(self._done) < len(self.cases):
                    self._cond.wait(timeout=0.2)
                    if len(self._done) == len(self.cases):
                        break
                    if procs and all(p.poll() is not None for p in procs):
                        if self._live_workers == 0:
                            raise RuntimeError(
                                "all spawned fleet workers exited with "
                                f"{len(self.cases) - len(self._done)} shards "
                                f"unsolved (stats: {self.stats})"
                            )
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"fleet sweep timed out after "
                            f"{self.spec.timeout_s:.0f}s "
                            f"({len(self._done)}/{len(self.cases)} shards, "
                            f"stats: {self.stats})"
                        )
            # Linger briefly so connected workers hear "drained" and exit
            # cleanly instead of finding a closed port on their next ask.
            with self._cond:
                grace = time.monotonic() + 5.0
                while self._live_workers > 0 and time.monotonic() < grace:
                    self._cond.wait(timeout=0.1)
        finally:
            self._stop.set()
            for proc in procs:
                # Every shard is merged (or the run failed): a worker
                # still running is idle or still dialing and owes nothing.
                if proc.poll() is None:
                    proc.terminate()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for thread in threads:
                thread.join(timeout=5.0)
        return [unpack_blob(self._done[i]) for i in range(len(self.cases))]


def run_fleet_sweep(
    cases: Sequence["SweepCase"],
    fleet: FleetSpec,
    stats: dict | None = None,
) -> list["DseResult"]:
    """Solve a sweep's planned cases on a worker fleet, in case order.

    ``stats``, when given, is filled with the coordinator's counters
    (leases, releases, worker deaths, ...).
    """
    coordinator = SweepCoordinator(cases, fleet)
    results = coordinator.serve()
    if stats is not None:
        stats.update(coordinator.stats)
    return results


__all__ = ["FleetSpec", "SweepCoordinator", "run_fleet_sweep"]
