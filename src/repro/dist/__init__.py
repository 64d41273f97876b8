"""Distributed fleet runtime shared by DSE sweeps and serving clusters.

One wire format, one auth handshake, one fault model — used by three
clients:

- :mod:`repro.dist.wire` / :mod:`repro.dist.protocol` — newline-delimited
  JSON framing with message ids, a shared-secret HMAC handshake, and
  heartbeat/ping messages. ``SocketTransport`` speaks the same framing.
- :mod:`repro.dist.coordinator` / :mod:`repro.dist.worker` — the sweep
  control plane: a coordinator leases sweep shards to workers with
  deadlines, streams eval-cache deltas between them, re-leases shards
  whose worker died, and checkpoints progress for resumable runs.
- :mod:`repro.dist.remote_transport` — a
  :class:`~repro.serving.transport.ReplicaTransport` against a persistent
  remote replica server, with reconnection, request resubmission, and
  per-replica health surfaced into the serving report.

See ``docs/distributed.md`` for topology, lease/heartbeat semantics, and
the determinism guarantees.
"""

from repro.dist.coordinator import FleetSpec, SweepCoordinator, run_fleet_sweep
from repro.dist.protocol import PROTOCOL_VERSION, AuthError, ProtocolError
from repro.dist.remote_transport import (
    RemoteReplicaError,
    RemoteTransport,
    serve_replicas,
)
from repro.dist.wire import LineSocket, WireClosed, pack_blob, unpack_blob
from repro.dist.worker import FleetWorker, run_worker
from repro.faults import FaultInjector, FaultPlan

__all__ = [
    "PROTOCOL_VERSION",
    "AuthError",
    "FaultInjector",
    "FaultPlan",
    "FleetSpec",
    "FleetWorker",
    "LineSocket",
    "ProtocolError",
    "RemoteReplicaError",
    "RemoteTransport",
    "SweepCoordinator",
    "WireClosed",
    "pack_blob",
    "unpack_blob",
    "run_fleet_sweep",
    "run_worker",
    "serve_replicas",
]
