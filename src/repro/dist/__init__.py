"""Distributed fleet runtime for DSE sweeps.

One wire format, one auth handshake, one fault model:

- :mod:`repro.dist.wire` / :mod:`repro.dist.protocol` — newline-delimited
  JSON framing, a shared-secret HMAC handshake, and heartbeat/ping
  messages.
- :mod:`repro.dist.coordinator` / :mod:`repro.dist.worker` — the sweep
  control plane: a coordinator leases sweep shards to workers with
  deadlines, re-leases shards whose worker died, and checkpoints progress
  for resumable runs. Each worker solves its shards against its own
  process-local evaluation cache.

See ``docs/distributed.md`` for topology, lease/heartbeat semantics, and
the determinism guarantees.
"""

from repro.dist.coordinator import FleetSpec, SweepCoordinator, run_fleet_sweep
from repro.dist.protocol import PROTOCOL_VERSION, AuthError, ProtocolError
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
    "SweepCoordinator",
    "WireClosed",
    "pack_blob",
    "unpack_blob",
    "run_fleet_sweep",
    "run_worker",
]
