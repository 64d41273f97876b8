"""Serving replicas on a persistent remote host.

:class:`RemoteTransport` implements the
:class:`~repro.serving.transport.ReplicaTransport` protocol against a
long-lived replica server (:func:`serve_replicas`) reached by
``host:port`` — the fleet counterpart of ``SocketTransport``'s child
subprocess. Differences that matter:

- **The server outlives connections.** State is keyed by a *session id*
  the client picks at ``open``: per-replica warm-window state plus a
  reply cache keyed by message id. A client that reconnects mid-session
  resumes the same session and *resubmits* its in-flight request; if the
  server already computed it, the cached reply is returned — so a forced
  disconnect/reconnect yields a bit-identical serving report.
- **Connect/retry with exponential backoff + jitter.** Transient network
  failures retry up to ``max_retries`` times; only then does ``decode``
  raise :class:`RemoteReplicaError`, which the serving engine turns into
  a replica failure — the frames retry or count as failed, the session
  never hangs.
- **Health is observable.** ``transport.health`` walks
  ``idle -> connected -> reconnecting -> connected`` (or ``failed``) and
  ``transport.reconnects`` counts successful re-dials; both surface into
  :class:`~repro.serving.slo.GroupReport` / ``ServingReport``.
"""

from __future__ import annotations

import random
import secrets
import socket
import threading
import time
from collections import OrderedDict

from repro.dist.protocol import (
    MessageIds,
    ProtocolError,
    client_handshake,
    server_handshake,
)
from repro.dist.wire import LineSocket, WireClosed
from repro.faults import FaultInjector, FaultPlan
from repro.serving.replica import Replica
from repro.sim.runner import FrameLatencyProfile


class RemoteReplicaError(RuntimeError):
    """A remote replica is unreachable past the retry budget."""


def profile_to_wire(profile: FrameLatencyProfile) -> dict:
    return {
        "finish_ms": list(profile.finish_ms),
        "first_frame_ms": profile.first_frame_ms,
        "steady_interval_ms": profile.steady_interval_ms,
        "frequency_mhz": profile.frequency_mhz,
    }


def profile_from_wire(raw: dict) -> FrameLatencyProfile:
    return FrameLatencyProfile(
        finish_ms=tuple(raw["finish_ms"]),
        first_frame_ms=raw["first_frame_ms"],
        steady_interval_ms=raw["steady_interval_ms"],
        frequency_mhz=raw["frequency_mhz"],
    )


class RemoteTransport:
    """Replicas served by a persistent ``host:port`` replica server."""

    name = "remote"

    def __init__(
        self,
        host: str,
        port: int,
        token: str = "",
        timeout_s: float = 30.0,
        max_retries: int = 5,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        max_resubmits: int = 8,
        rng: random.Random | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.max_resubmits = max_resubmits
        #: ``idle`` -> ``connected`` -> ``reconnecting`` -> ... ->
        #: ``closed`` (clean) or ``failed`` (retry budget exhausted).
        self.health = "idle"
        #: Successful re-dials after a dropped connection.
        self.reconnects = 0
        self._rng = rng or random.Random(0)
        self._ids = MessageIds()
        self._conn: LineSocket | None = None
        self._session_id: str | None = None
        self._profile: FrameLatencyProfile | None = None
        self._max_batch = 0

    # -- connection management ------------------------------------------
    def _dial(self) -> LineSocket:
        """Connect + authenticate + resume the session, with backoff."""
        assert self._profile is not None and self._session_id is not None
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                delay = min(
                    self.backoff_s * (2 ** (attempt - 1)),
                    self.backoff_max_s,
                )
                time.sleep(delay * (1.0 + 0.25 * self._rng.random()))
            try:
                conn = LineSocket.connect(
                    self.host, self.port, timeout_s=self.timeout_s
                )
            except OSError as exc:
                last_error = exc
                continue
            try:
                client_handshake(
                    conn,
                    self.token,
                    role="replica-client",
                    extra={
                        "session": self._session_id,
                        "profile": profile_to_wire(self._profile),
                        "max_batch": self._max_batch,
                    },
                )
                return conn
            except (OSError, ProtocolError, ValueError) as exc:
                conn.close()
                if isinstance(exc, ProtocolError):
                    raise  # auth/version refusals will not heal on retry
                last_error = exc
        self.health = "failed"
        raise RemoteReplicaError(
            f"replica server {self.host}:{self.port} unreachable after "
            f"{self.max_retries} attempts: {last_error}"
        )

    def open(self, profile: FrameLatencyProfile, max_batch: int) -> None:
        self._profile = profile
        self._max_batch = max_batch
        self._session_id = secrets.token_hex(8)
        self._conn = self._dial()
        self.health = "connected"

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send({"type": "close"})
            except (OSError, ValueError):
                pass
            self._conn.close()
            self._conn = None
        if self.health != "failed":
            self.health = "closed"

    def ping(self) -> bool:
        """Liveness probe outside the decode path."""
        if self._conn is None:
            return False
        try:
            reply = self._conn.request(
                {"type": "ping", "id": self._ids.next()}
            )
            return reply.get("type") == "pong"
        except (OSError, ValueError, WireClosed):
            return False

    # -- the transport protocol -----------------------------------------
    def decode(
        self, replica: Replica, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        assert self._conn is not None, "transport not opened"
        message = {
            "type": "decode",
            "id": self._ids.next(),
            "replica": replica.replica_id,
            "start_ms": start_ms,
            "batch": batch,
        }
        for _ in range(self.max_resubmits):
            try:
                reply = self._conn.request(message)
            except (OSError, ValueError, WireClosed):
                # Dropped connection: re-dial and resubmit the same
                # message id — the server's reply cache makes it
                # idempotent. _dial raises RemoteReplicaError once the
                # retry budget is spent, which fails the batch loudly.
                self.health = "reconnecting"
                self._conn.close()
                self._conn = self._dial()
                self.health = "connected"
                self.reconnects += 1
                continue
            if reply.get("type") == "error":
                raise RemoteReplicaError(
                    f"replica server: {reply.get('error')}"
                )
            finishes = tuple(reply["finish_ms"])
            replica.record_service(start_ms, finishes)
            return finishes
        self.health = "failed"
        raise RemoteReplicaError(
            f"decode resubmitted {self.max_resubmits} times without an "
            f"answer from {self.host}:{self.port}"
        )


# ---------------------------------------------------------------------------
# the server side (repro fleet replicas)
# ---------------------------------------------------------------------------
class _Session:
    """Authoritative per-session replica state + reply cache."""

    #: Replies kept for resubmission after reconnects. A window this
    #: deep outlasts any plausible in-flight set (one per replica).
    REPLY_CACHE = 4096

    def __init__(self, profile: FrameLatencyProfile, max_batch: int) -> None:
        self.profile = profile
        self.max_batch = max_batch
        self.replicas: dict[int, Replica] = {}
        self.replies: OrderedDict[int, list[float]] = OrderedDict()

    def decode(self, message: dict) -> list[float]:
        mid = int(message["id"])
        cached = self.replies.get(mid)
        if cached is not None:  # resubmission after a reconnect
            return cached
        replica_id = int(message["replica"])
        replica = self.replicas.get(replica_id)
        if replica is None:
            replica = self.replicas[replica_id] = Replica(
                replica_id=replica_id,
                latency=self.profile,
                max_batch=self.max_batch,
            )
        finishes = list(
            replica.service_times(message["start_ms"], int(message["batch"]))
        )
        self.replies[mid] = finishes
        while len(self.replies) > self.REPLY_CACHE:
            self.replies.popitem(last=False)
        return finishes


def serve_replicas(
    host: str = "127.0.0.1",
    port: int = 0,
    token: str = "",
    fault: FaultInjector | None = None,
    ready: "callable | None" = None,
    stop: threading.Event | None = None,
    announce: bool = True,
) -> int:
    """Serve replica sessions until ``stop`` is set (or the fault kills us).

    Accepts any number of sequential/concurrent client connections;
    session state survives disconnects, which is what makes client-side
    resubmission idempotent. Prints the bound port on stdout (CLI
    contract, same as ``SocketTransport``'s child server) and also hands
    it to ``ready`` when given (thread-friendly for tests).
    """
    fault = fault or FaultInjector(FaultPlan.from_env())
    stop = stop or threading.Event()
    listener = socket.create_server((host, port))
    listener.settimeout(0.2)
    bound_port = listener.getsockname()[1]
    if announce:
        print(bound_port, flush=True)
    if ready is not None:
        ready(bound_port)
    sessions: dict[str, _Session] = {}
    lock = threading.Lock()
    live_conns: list[LineSocket] = []

    def handle(raw: socket.socket) -> None:
        conn = LineSocket(raw)
        with lock:
            live_conns.append(conn)
        try:
            hello = server_handshake(conn, token)
            session_key = str(hello.get("session", ""))
            with lock:
                session = sessions.get(session_key)
                if session is None:
                    session = sessions[session_key] = _Session(
                        profile_from_wire(hello["profile"]),
                        int(hello["max_batch"]),
                    )
            while not stop.is_set():
                message = conn.recv()
                if message is None or message.get("type") == "close":
                    break
                kind = message.get("type")
                if kind == "ping":
                    conn.send({"type": "pong", "id": message.get("id")})
                    continue
                if kind != "decode":
                    conn.send(
                        {"type": "error", "error": f"bad request: {kind!r}"}
                    )
                    continue
                with lock:
                    finishes = session.decode(message)
                    verdict = fault.after_decode()
                if verdict == "kill":
                    stop.set()
                    break  # reply never sent; listener closes too
                if verdict == "drop-conn":
                    break  # computed + cached, but the reply is lost
                conn.send({"type": "result", "id": message["id"], "finish_ms": finishes})
        except (ProtocolError, OSError, ValueError, KeyError):
            pass  # bad client or torn connection: drop it, keep serving
        finally:
            conn.close()
            with lock:
                if conn in live_conns:
                    live_conns.remove(conn)

    try:
        while not stop.is_set():
            try:
                raw, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=handle, args=(raw,), daemon=True).start()
    finally:
        listener.close()
        with lock:
            for conn in list(live_conns):
                conn.close()
    return 0


__all__ = [
    "RemoteReplicaError",
    "RemoteTransport",
    "profile_from_wire",
    "profile_to_wire",
    "serve_replicas",
]
