"""RemoteTransport: persistent replica server, reconnection, loud failure.

The contract under test: serving through ``remote:HOST:PORT`` is
bit-identical to in-process serving — including across a forced
disconnect/reconnect, because the server's per-session reply cache makes
resubmission idempotent — and an unrecoverably dead server surfaces as
*replica-level* faults: the session completes with the unserved frames
counted ``failed`` and the replicas marked lost, never a hang and never
a silently dropped frame.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager

import pytest

from repro.dist.protocol import AuthError
from repro.dist.remote_transport import (
    RemoteTransport,
    profile_from_wire,
    profile_to_wire,
    serve_replicas,
)
from repro.faults import FaultInjector, FaultPlan
from repro.serving import (
    ReplicaPool,
    canned_workload,
    get_transport,
    serve_trace,
)
from repro.serving.transport import REMOTE_TOKEN_ENV, parse_remote_spec
from repro.sim.runner import FrameLatencyProfile

PROFILE = FrameLatencyProfile(
    finish_ms=(8.0, 12.0, 16.0),
    first_frame_ms=8.0,
    steady_interval_ms=4.0,
    frequency_mhz=200.0,
)


@contextmanager
def replica_server(token: str = "t", fault: FaultInjector | None = None):
    stop = threading.Event()
    ready = threading.Event()
    box: dict[str, int] = {}

    def on_ready(port: int) -> None:
        box["port"] = port
        ready.set()

    thread = threading.Thread(
        target=serve_replicas,
        kwargs=dict(
            port=0,
            token=token,
            fault=fault,
            ready=on_ready,
            stop=stop,
            announce=False,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(5), "replica server never bound its port"
    try:
        yield box["port"]
    finally:
        stop.set()
        thread.join(timeout=5)


def remote_report(port: int, token: str = "t", **transport_kwargs):
    transport = RemoteTransport(
        "127.0.0.1",
        port,
        token=token,
        backoff_s=0.01,
        backoff_max_s=0.05,
        **transport_kwargs,
    )
    report = serve_trace(
        ReplicaPool(PROFILE, replicas=2, max_batch=8),
        canned_workload(avatars=4, frames_per_avatar=6),
        policy="edf",
        transport=transport,
    )
    return report, transport


@pytest.fixture(scope="module")
def inprocess_report():
    return serve_trace(
        ReplicaPool(PROFILE, replicas=2, max_batch=8),
        canned_workload(avatars=4, frames_per_avatar=6),
        policy="edf",
    )


class TestRemoteServing:
    def test_remote_matches_inprocess_bit_for_bit(self, inprocess_report):
        with replica_server() as port:
            report, transport = remote_report(port)
        assert report == inprocess_report
        assert transport.reconnects == 0
        assert transport.health == "closed"

    def test_forced_disconnect_reconnects_and_stays_identical(
        self, inprocess_report
    ):
        """The server drops the connection mid-session; the report doesn't
        change — resubmission hits the server's reply cache."""
        fault = FaultInjector(FaultPlan(drop_conn_after_decodes=3))
        with replica_server(fault=fault) as port:
            report, transport = remote_report(port)
        assert transport.reconnects == 1
        assert report.reconnects == 1  # surfaced into the report
        assert dataclasses.replace(report, reconnects=0) == inprocess_report

    def test_dead_server_fails_frames_not_session(self):
        """A server gone past its reconnect budget is a replica fault:
        the session still completes, every unserved frame resolves as
        ``failed``, and the lost replicas land in the report."""
        fault = FaultInjector(FaultPlan(kill_server_after_decodes=2))
        with replica_server(fault=fault) as port:
            report, _ = remote_report(port, max_retries=2)
        assert report.failed > 0
        assert report.replicas_lost == 2  # both proxies hit the dead server
        assert report.completed + report.failed == report.submitted
        assert any("dead" in g.health for g in report.groups) or not report.groups

    def test_wrong_token_is_an_auth_error(self):
        with replica_server(token="right") as port:
            with pytest.raises(AuthError):
                remote_report(port, token="wrong")


class TestRemoteTransportLookup:
    def test_get_transport_builds_remote_from_spec(self, monkeypatch):
        monkeypatch.setenv(REMOTE_TOKEN_ENV, "sekrit")
        transport = get_transport("remote:replicahost:7100")
        assert isinstance(transport, RemoteTransport)
        assert (transport.host, transport.port) == ("replicahost", 7100)
        assert transport.token == "sekrit"

    def test_instances_pass_through(self):
        transport = RemoteTransport("h", 1)
        assert get_transport(transport) is transport

    @pytest.mark.parametrize(
        "spec", ["remote:", "remote:nohost", "remote:h:0", "remote:h:99999"]
    )
    def test_malformed_remote_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="remote:HOST:PORT"):
            parse_remote_spec(spec)

    def test_unknown_transport_mentions_remote(self):
        with pytest.raises(KeyError, match="remote:HOST:PORT"):
            get_transport("carrier-pigeon")

    def test_profile_wire_round_trip(self):
        assert profile_from_wire(profile_to_wire(PROFILE)) == PROFILE
