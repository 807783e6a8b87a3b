"""The serving edges' constructor surface: the kept options, the deleted
ones refused, the constants that replaced them at their old values, and
the constants that never were options (the client's decoded-body budget)
at theirs.

Replication, RPC and telemetry keep only the options a deployment sets;
every other interval, window and bound is a module constant read at
use, so a test shortens it with ``monkeypatch.setattr``.
"""

from __future__ import annotations

import inspect
import socket

import pytest

import repro.replication.replica as replica_module
import repro.replication.router as router_module
import repro.replication.shipper as shipper_module
import repro.rpc.client as client_module
import repro.rpc.server as server_module
from repro import net
from repro.observability import ClusterTelemetry, TelemetryServer, exposition
from repro.replication import (
    LogShipper,
    ReplicaService,
    ReplicaSet,
    TcpTransport,
    TransportClosed,
)
from repro.rpc import AsyncRpcClient, RpcClient, RpcServer
from repro.service import KokoService

KEPT = {
    LogShipper: ["service"],
    ReplicaService: ["transport", "name", "service_kwargs"],
    ReplicaSet: ["primary", "replicas", "max_lag_bytes"],
    RpcServer: [
        "node",
        "host",
        "port",
        "auth_token",
        "allow_unauthenticated",
        "admission",
        "default_deadline",
        "max_workers",
        "name",
    ],
    RpcClient: [
        "host",
        "port",
        "auth_token",
        "client_id",
        "timeout",
        "trace_sample_rate",
    ],
    TelemetryServer: [
        "node",
        "host",
        "port",
        "name",
        "max_lag_bytes",
        "cluster",
        "rpc_server",
    ],
    ClusterTelemetry: ["primary", "shipper", "max_lag_bytes"],
}

#: ``(class, deleted option, a value a caller once passed)``; the
#: leading ``None`` / address arguments are never reached
DELETED = [
    (LogShipper, (None,), "poll_interval", 0.01),
    (LogShipper, (None,), "heartbeat_interval", 0.05),
    (LogShipper, (None,), "batch_max_records", 16),
    (LogShipper, (None,), "batch_max_bytes", 1024),
    (LogShipper, (None,), "stall_timeout", 0.4),
    (LogShipper, (None,), "bootstrap_timeout", 0.05),
    (LogShipper, (None,), "subscribe_timeout", 1.0),
    (ReplicaSet, (None,), "failover_seconds", 0.05),
    (ReplicaSet, (None,), "suspend_seconds", 0.05),
    (RpcServer, (None,), "max_frame_bytes", 1 << 20),
    (RpcServer, (None,), "idle_timeout", 0.5),
    (RpcServer, (None,), "handshake_timeout", 0.5),
    (RpcClient, ("127.0.0.1", 1), "default_deadline", 0.15),
    (TelemetryServer, (None,), "checkpoint_wedge_seconds", 0.05),
    (TelemetryServer, (None,), "wal_stall_seconds", 0.05),
    (ClusterTelemetry, (None,), "poll_interval", 0.05),
    (ClusterTelemetry, (None,), "scrape_timeout", 0.5),
]

FORMER_DEFAULTS = [
    (shipper_module, "POLL_SECONDS", 0.02),
    (shipper_module, "HEARTBEAT_SECONDS", 0.5),
    (shipper_module, "BATCH_MAX_RECORDS", 256),
    (shipper_module, "BATCH_MAX_BYTES", 4 * 1024 * 1024),
    (shipper_module, "STALL_SECONDS", 60.0),
    (shipper_module, "SUBSCRIBE_SECONDS", 30.0),
    (shipper_module, "BOOTSTRAP_SECONDS", 600.0),
    (replica_module, "ACK_EVERY_RECORDS", 64),
    (router_module, "FAILOVER_SECONDS", 5.0),
    (router_module, "SUSPEND_SECONDS", 1.0),
    (net, "MAX_FRAME_BYTES", 64 * 1024 * 1024),
    (server_module, "IDLE_SECONDS", 300.0),
    (server_module, "HANDSHAKE_SECONDS", 5.0),
    (client_module, "BODY_MEMO_BYTES", 8 * 1024 * 1024),
    (exposition, "CHECKPOINT_WEDGE_SECONDS", 300.0),
    (exposition, "WAL_STALL_SECONDS", 60.0),
    (exposition, "CLUSTER_POLL_SECONDS", 1.0),
    (exposition, "SCRAPE_TIMEOUT_SECONDS", 2.0),
]


@pytest.mark.parametrize("cls", list(KEPT), ids=lambda cls: cls.__name__)
def test_constructor_keeps_only_the_options_a_deployment_sets(cls):
    assert list(inspect.signature(cls.__init__).parameters)[1:] == KEPT[cls]


@pytest.mark.parametrize(
    ("cls", "args", "option", "value"),
    DELETED,
    ids=[f"{cls.__name__}.{option}" for cls, _, option, _ in DELETED],
)
def test_deleted_option_is_refused(cls, args, option, value):
    with pytest.raises(TypeError, match=option):
        cls(*args, **{option: value})


def test_replica_refuses_the_deleted_ack_option(tmp_path):
    """``ReplicaService`` forwards unknown keywords to its inner service,
    which refuses ``ack_every_records``; the transport is closed."""
    with KokoService(storage_dir=tmp_path / "svc") as primary:
        shipper = LogShipper(primary)
        primary_end, replica_end = map(TcpTransport, socket.socketpair())
        shipper.serve(primary_end)
        try:
            with pytest.raises(TypeError, match="ack_every_records"):
                ReplicaService(replica_end, ack_every_records=1)
            with pytest.raises(TransportClosed):
                replica_end.send(("ack", None))
        finally:
            shipper.close()


def test_query_batch_and_the_clients_lost_their_worker_and_deadline_options():
    assert list(inspect.signature(KokoService.query_batch).parameters)[1:] == [
        "queries",
        "threshold_override",
        "keep_all_scores",
    ]
    with KokoService(use_default_vectors=False) as service:
        with pytest.raises(TypeError, match="max_workers"):
            service.query_batch([], max_workers=2)
    assert not hasattr(AsyncRpcClient(None, None), "default_deadline")


@pytest.mark.parametrize(
    ("module", "name", "value"),
    FORMER_DEFAULTS,
    ids=[name for _, name, _ in FORMER_DEFAULTS],
)
def test_each_constant_keeps_the_former_default(module, name, value):
    assert getattr(module, name) == value
