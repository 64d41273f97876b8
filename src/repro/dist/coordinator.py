"""The sweep control plane: lease shards to workers, merge deterministically.

A :class:`SweepCoordinator` owns a sweep — a list of :class:`SweepCase`
shards, each a full DSE search that is a *pure function* of its fields —
and serves them to fleet workers over the line-JSON wire:

- **Leases with deadlines.** A worker asks for work, gets one shard and
  a lease. Heartbeats (on a separate connection, so a long Algorithm-2
  solve never starves them) renew the lease; a missed deadline or a
  dropped connection releases the shard back to the pending queue, where
  the next idle worker picks it up. Losing a worker loses time, never
  results.
- **Live cache deltas.** Workers ship their
  :class:`~repro.dse.cache.DeltaEvalCache` entries home with each
  result; the coordinator appends them to a log and forwards unseen
  entries with every lease, so all workers warm each other exactly the
  way ``search_many`` warms successive cases in-process.
- **Deterministic merge.** Results are keyed by *shard index* and
  reassembled in case order, never arrival order. Because each shard is
  a pure function of its case, re-leased shards, duplicate submissions
  (first writer wins — later copies are bit-identical by construction),
  and cache warmth cannot change any result: a fleet sweep is
  bit-identical to ``search_many`` serially at the same seed.
- **Checkpoints.** Each completed shard is appended to an atomically
  replaced checkpoint file (temp + ``os.replace``); a restarted
  coordinator with the same sweep fingerprint resumes from it without
  re-solving.

:func:`run_fleet_sweep` is the high-level entry —
``DseEngine.search_many(fleet=...)`` delegates here.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.dist.protocol import ProtocolError, server_handshake
from repro.dist.wire import LineSocket, pack_blob, unpack_blob
from repro.faults import FAULT_ENV
from repro.utils.rng import seed_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.cache import EvalCache
    from repro.dse.engine import DseEngine
    from repro.dse.result import DseResult


@dataclass(frozen=True)
class SweepCase:
    """One shard: everything a worker needs to solve it, picklable.

    ``objective`` / ``rerank_oracle`` are *resolved* instances so the
    worker runs exactly the configuration the dedup key was computed
    from. Fleet parallelism is across shards: each shard is one search,
    run in one worker process.
    """

    engine: "DseEngine"
    iterations: int
    population: int
    seed: int | None
    heuristic_seed: bool
    objective: object
    rerank_oracle: object | None
    rerank_top_k: int | None

    def key(self) -> tuple:
        """Mirror of the ``search_many`` dedup key."""
        return (
            self.engine.spec.digest,
            self.iterations,
            self.population,
            seed_fingerprint(self.seed),
            self.heuristic_seed,
            self.objective.key,
            self.rerank_oracle.key if self.rerank_oracle is not None else None,
            self.rerank_top_k if self.rerank_oracle is not None else None,
        )

    def run(self, cache) -> "DseResult":
        return self.engine.search(
            iterations=self.iterations,
            population=self.population,
            seed=self.seed,
            heuristic_seed=self.heuristic_seed,
            cache=cache,
            objective=self.objective,
            rerank_oracle=(
                self.rerank_oracle if self.rerank_oracle is not None else "none"
            ),
            rerank_top_k=self.rerank_top_k,
        )


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
        if self.workers < 0:
            raise ValueError(
                f"workers must be >= 0 (0: workers join from outside), "
                f"got {self.workers}"
            )


@dataclass
class _Lease:
    worker: int
    deadline: float


class SweepCoordinator:
    """Serves one sweep to a fleet of workers; see the module docstring."""

    def __init__(self, cases: Sequence[SweepCase], spec: FleetSpec) -> None:
        self.cases = list(cases)
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
            "cache_entries": 0,
            "resumed": 0,
        }
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: deque[int] = deque(range(len(self.cases)))
        self._leases: dict[int, _Lease] = {}
        self._done: dict[int, str] = {}  # shard -> result blob
        self._last_beat: dict[int, float] = {}  # worker -> monotonic time
        self._cache_log: list[str] = []  # packed (key, value) blobs
        self._cache_keys: set = set()
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
                seen = int(message.get("cache_seq", 0))
                return {
                    "type": "lease",
                    "shard": shard,
                    "case": pack_blob(self.cases[shard]),
                    "cache": self._cache_log[seen:],
                    "cache_seq": len(self._cache_log),
                    "deadline_s": self.spec.lease_timeout_s,
                }
            if kind == "result":
                shard = int(message["shard"])
                self._leases.pop(shard, None)
                for blob in message.get("cache", ()):
                    key, _ = unpack_blob(blob)
                    if key not in self._cache_keys:
                        self._cache_keys.add(key)
                        self._cache_log.append(blob)
                        self.stats["cache_entries"] += 1
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
    def _spawn_workers(self) -> list[subprocess.Popen]:
        import repro

        procs: list[subprocess.Popen] = []
        src_root = str(Path(repro.__file__).resolve().parents[1])
        for index in range(self.spec.workers):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src_root, env.get("PYTHONPATH")) if p
            )
            env["REPRO_FLEET_CONNECT"] = f"{self.spec.host}:{self.port}"
            env["REPRO_FLEET_TOKEN"] = self.spec.token
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
        return procs

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
        procs = self._spawn_workers() if self.spec.workers > 0 else []
        deadline = time.monotonic() + self.spec.timeout_s
        try:
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
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for thread in threads:
                thread.join(timeout=5.0)
        return [unpack_blob(self._done[i]) for i in range(len(self.cases))]

    def cache_entries(self) -> list[tuple]:
        """All (key, value) eval-cache entries the fleet produced."""
        with self._lock:
            return [unpack_blob(blob) for blob in self._cache_log]


def run_fleet_sweep(
    engines: Sequence["DseEngine"],
    fleet: FleetSpec,
    iterations: int = 20,
    population: int = 200,
    seed: int | None = 0,
    seeds: Sequence[int | None] | None = None,
    heuristic_seed: bool = True,
    cache: "EvalCache | None" = None,
    objective=None,
    rerank_oracle=None,
    rerank_top_k: int | None = None,
    stats: dict | None = None,
) -> tuple["DseResult", ...]:
    """``search_many`` across a worker fleet — same dedup, same results.

    Unique cases become shards; duplicates share one shard's result,
    exactly mirroring the in-process dedup. The caller's ``cache`` is
    warmed with every entry the fleet produced (and flushed if it is
    file-backed), so a following local run starts hot. ``stats``, when
    given, is filled with the coordinator's counters (leases, releases,
    worker deaths, ...).
    """
    import random as _random

    from repro.dse.objective import resolve_oracle

    engines = list(engines)
    if seeds is None:
        seeds = [seed] * len(engines)
    elif len(seeds) != len(engines):
        raise ValueError(f"got {len(seeds)} seeds for {len(engines)} engines")
    for case_seed in seeds:
        if isinstance(case_seed, _random.Random):
            raise ValueError(
                "fleet sweeps need integer (or None) seeds: a live "
                "random.Random carries hidden state that cannot be "
                "shipped to a worker deterministically"
            )

    cases: list[SweepCase] = []
    case_index: dict[tuple, int] = {}
    placement: list[int] = []  # input index -> shard index
    for engine, case_seed in zip(engines, seeds):
        case = SweepCase(
            engine=engine,
            iterations=iterations,
            population=population,
            seed=case_seed,
            heuristic_seed=heuristic_seed,
            objective=engine.resolved_objective(objective),
            rerank_oracle=resolve_oracle(
                rerank_oracle if rerank_oracle is not None else engine.rerank_oracle
            ),
            rerank_top_k=(
                rerank_top_k if rerank_top_k is not None else engine.rerank_top_k
            ),
        )
        key = case.key() if seed_fingerprint(case_seed) is not None else None
        if key is not None and key in case_index:
            placement.append(case_index[key])
            continue
        if key is not None:
            case_index[key] = len(cases)
        placement.append(len(cases))
        cases.append(case)

    coordinator = SweepCoordinator(cases, fleet)
    results = coordinator.serve()
    if stats is not None:
        stats.update(coordinator.stats)
    if cache is not None:
        for key, value in coordinator.cache_entries():
            if cache.get(key) is None:
                cache.put(key, value)
        flush = getattr(cache, "flush", None)
        if callable(flush):
            flush()
    return tuple(results[shard] for shard in placement)


__all__ = ["FleetSpec", "SweepCase", "SweepCoordinator", "run_fleet_sweep"]
