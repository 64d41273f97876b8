"""Replica dispatch behind a protocol: in-process, subprocess, or remote.

The serving engine never computes service times itself — it hands a
batch to a :class:`ReplicaTransport` and gets back per-frame completion
times. That seam is what makes *remote* replicas a deployment choice
instead of a rewrite of the serving layer:

- :class:`InProcessTransport` (the default) calls
  :meth:`~repro.serving.replica.Replica.service_times` directly;
- :class:`SocketTransport` serves the replicas from a subprocess over a
  local TCP socket (``python -m repro.serving.transport`` is the server).
  The server owns the authoritative replica state (warm windows); the
  client mirrors the accounting on its proxy replicas so utilization
  reporting still works locally. The round-trip is a synchronous,
  newline-delimited JSON exchange: the session waits (in wall time, not
  session time) until the answer arrives, so it stays deterministic.
- :class:`~repro.dist.remote_transport.RemoteTransport` (name
  ``remote:HOST:PORT``) points the same protocol at a *persistent*
  replica server on another host, adding auth, reconnection, and request
  resubmission — see :mod:`repro.dist.remote_transport`.

Framing lives in :mod:`repro.dist.wire` — the repo's one wire format —
and round-trips floats exactly (``json`` uses shortest-repr floats), so a
socket-served session computes the same finish times the in-process path
would.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.dist.wire import LineSocket, WireClosed
from repro.serving.replica import Replica
from repro.sim.runner import FrameLatencyProfile

#: What a transport's ``decode`` raises when its replica cannot answer
#: (a dead subprocess, a torn or timed-out socket, a remote server past
#: its reconnect budget, a malformed reply). The engine fails the replica
#: on these; anything else is a bug and propagates.
TRANSPORT_ERRORS = (OSError, RuntimeError, ValueError)


@runtime_checkable
class ReplicaTransport(Protocol):
    """How a dispatched batch reaches a replica and comes back timed."""

    name: str

    def open(self, profile: FrameLatencyProfile, max_batch: int) -> None:
        """Start a serving session for replicas of ``profile`` that take
        at most ``max_batch`` frames per batch (spawn servers etc.)."""
        ...

    def close(self) -> None:
        """Tear the session down (kill servers, close sockets)."""
        ...

    def decode(
        self, replica: Replica, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        """Serve ``batch`` frames on ``replica`` from ``start_ms``."""
        ...


class InProcessTransport:
    """The replica object itself computes service times."""

    name = "inprocess"

    def open(  # noqa: ARG002 - protocol
        self, profile: FrameLatencyProfile, max_batch: int
    ) -> None:
        return None

    def close(self) -> None:
        return None

    def decode(
        self, replica: Replica, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        return replica.service_times(start_ms, batch)


class SocketTransport:
    """Replicas served by a subprocess over a localhost TCP socket.

    ``open`` spawns ``python -m repro.serving.transport``, reads the port
    the server bound, connects, and sends a handshake carrying the
    replicas' latency profile and batch capacity. Every ``decode`` is one
    request/response line pair. The subprocess holds the authoritative
    per-replica warm-window state; the local proxy replica only mirrors
    accounting from the returned finish times.
    """

    name = "socket"

    def __init__(self, timeout_s: float = 30.0) -> None:
        self.timeout_s = timeout_s
        self._proc: subprocess.Popen | None = None
        self._conn: LineSocket | None = None

    def open(self, profile: FrameLatencyProfile, max_batch: int) -> None:
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        # -c (not -m): runpy re-executing an already-imported submodule
        # would warn about unpredictable double execution in the child.
        self._proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.serving.transport import serve; "
                "raise SystemExit(serve())",
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        assert self._proc.stdout is not None
        port_line = self._proc.stdout.readline().strip()
        if not port_line.isdigit():
            raise RuntimeError(
                f"replica server failed to start (got {port_line!r})"
            )
        self._conn = LineSocket.connect(
            "127.0.0.1", int(port_line), timeout_s=self.timeout_s
        )
        self._conn.send(
            {
                "op": "handshake",
                "profile": {
                    "finish_ms": list(profile.finish_ms),
                    "first_frame_ms": profile.first_frame_ms,
                    "steady_interval_ms": profile.steady_interval_ms,
                    "frequency_mhz": profile.frequency_mhz,
                },
                "max_batch": max_batch,
            }
        )

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send({"op": "close"})
            except (OSError, ValueError):
                pass
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            try:
                self._proc.wait(timeout=self.timeout_s)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            if self._proc.stdout is not None:
                self._proc.stdout.close()
            self._proc = None

    def decode(
        self, replica: Replica, start_ms: float, batch: int
    ) -> tuple[float, ...]:
        assert self._conn is not None, "transport not opened"
        try:
            reply = self._conn.request(
                {
                    "op": "decode",
                    "replica": replica.replica_id,
                    "start_ms": start_ms,
                    "batch": batch,
                }
            )
        except WireClosed as exc:
            raise RuntimeError("replica server exited mid-session") from exc
        if "error" in reply:
            raise RuntimeError(f"replica server: {reply['error']}")
        finishes = tuple(reply["finish_ms"])
        replica.record_service(start_ms, finishes)
        return finishes


#: Transport names accepted by :func:`get_transport` (and ``--transport``).
#: ``remote:HOST:PORT`` — not listed because it carries an address — is
#: also accepted and builds a :class:`~repro.dist.remote_transport.RemoteTransport`.
TRANSPORTS = ("inprocess", "socket")

#: Environment variable ``remote:`` transports read their auth token from.
REMOTE_TOKEN_ENV = "REPRO_FLEET_TOKEN"


def parse_remote_spec(name: str) -> tuple[str, int]:
    """Split ``remote:HOST:PORT`` into a validated ``(host, port)``."""
    _, _, address = name.partition(":")
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit() or not 0 < int(port_text) < 65536:
        raise ValueError(
            f"bad remote transport {name!r}: expected remote:HOST:PORT "
            f"with a port in 1..65535"
        )
    return host, int(port_text)


def require_fleet_token(context: str) -> str:
    """The fleet auth token from the environment, or a friendly error.

    Everything that talks to a remote replica or fleet endpoint
    (``remote:HOST:PORT`` transports, ``repro fleet worker|replicas``)
    authenticates with the shared secret in :data:`REMOTE_TOKEN_ENV`.
    Checking it up front turns a confusing mid-session auth failure into
    an immediate, actionable message.
    """
    token = os.environ.get(REMOTE_TOKEN_ENV, "")
    if not token:
        raise RuntimeError(
            f"{context} needs the fleet auth token: set {REMOTE_TOKEN_ENV} "
            f"to the shared secret the replica server was started with "
            f"(e.g. export {REMOTE_TOKEN_ENV}=...)"
        )
    return token


def get_transport(
    name: str | ReplicaTransport, timeout_s: float | None = None
) -> ReplicaTransport:
    """Look a transport up by name (or pass an instance through).

    ``timeout_s`` bounds how long the socket/remote transports wait on
    the wire (connection setup and each decode round-trip); ``None``
    keeps each transport's default. In-process serving has no wire and
    ignores it.
    """
    if not isinstance(name, str):
        return name
    if name == "inprocess":
        return InProcessTransport()
    if name == "socket":
        if timeout_s is not None:
            return SocketTransport(timeout_s=timeout_s)
        return SocketTransport()
    if name.startswith("remote:"):
        from repro.dist.remote_transport import RemoteTransport

        host, port = parse_remote_spec(name)
        token = require_fleet_token(f"transport {name!r}")
        if timeout_s is not None:
            return RemoteTransport(host, port, token=token, timeout_s=timeout_s)
        return RemoteTransport(host, port, token=token)
    known = ", ".join(TRANSPORTS + ("remote:HOST:PORT",))
    raise KeyError(
        f"unknown replica transport {name!r}; known transports: {known}"
    )


def list_transports() -> list[str]:
    return list(TRANSPORTS)


# ---------------------------------------------------------------------------
# the server side (python -m repro.serving.transport)
# ---------------------------------------------------------------------------
def serve(host: str = "127.0.0.1") -> int:
    """Serve one client connection; prints the bound port on stdout."""
    listener = socket.create_server((host, 0))
    print(listener.getsockname()[1], flush=True)
    raw, _ = listener.accept()
    listener.close()
    conn = LineSocket(raw)
    profile: FrameLatencyProfile | None = None
    max_batch = 8
    replicas: dict[int, Replica] = {}
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            op = message.get("op")
            if op == "close":
                break
            if op == "handshake":
                raw_profile = message["profile"]
                profile = FrameLatencyProfile(
                    finish_ms=tuple(raw_profile["finish_ms"]),
                    first_frame_ms=raw_profile["first_frame_ms"],
                    steady_interval_ms=raw_profile["steady_interval_ms"],
                    frequency_mhz=raw_profile["frequency_mhz"],
                )
                max_batch = int(message["max_batch"])
                replicas.clear()
                continue
            if op != "decode" or profile is None:
                conn.send({"error": f"bad request: {message!r}"})
                continue
            replica_id = int(message["replica"])
            replica = replicas.get(replica_id)
            if replica is None:
                replica = replicas[replica_id] = Replica(
                    replica_id=replica_id,
                    latency=profile,
                    max_batch=max_batch,
                )
            finishes = replica.service_times(
                message["start_ms"], int(message["batch"])
            )
            conn.send({"finish_ms": list(finishes)})
    finally:
        conn.close()
    return 0


__all__ = [
    "InProcessTransport",
    "REMOTE_TOKEN_ENV",
    "ReplicaTransport",
    "SocketTransport",
    "TRANSPORTS",
    "TRANSPORT_ERRORS",
    "get_transport",
    "list_transports",
    "parse_remote_spec",
    "require_fleet_token",
    "serve",
]


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(serve())
