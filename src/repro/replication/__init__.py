"""Read replication: WAL log shipping, follower catch-up, replica routing.

The scale-out read path over the durability subsystem:

* **shipping** (:mod:`.shipper`) — a primary-side
  :class:`~repro.replication.shipper.LogShipper` streams snapshot
  bootstrap + WAL tail to any number of followers, coordinating with
  checkpoint rotation through WAL retention pins;
* **transport** — :class:`~repro.net.TcpTransport`, the framed TCP
  channel of :mod:`repro.net`: ``send(message)``, ``recv(timeout)``
  (``None`` when nothing arrived in time) and ``close()``, a broken
  channel raising :class:`~repro.net.TransportClosed`;
* **replicas** (:mod:`.replica`) — a
  :class:`~repro.replication.replica.ReplicaService` restores the
  shipped snapshot, tails the log through the service's existing splice
  path (zero re-annotation) and serves read-only queries with a tracked
  replication lag;
* **routing** (:mod:`.router`) — a
  :class:`~repro.replication.router.ReplicaSet` fans ``query()`` across
  primary + replicas with read-your-writes offset tokens, bounded
  staleness and failover.
"""

from ..net import TcpTransport, TransportClosed, connect_tcp
from ..persistence import WalPosition
from .replica import ReplicaService
from .router import ReplicaSet, ReplicaSetStats
from .shipper import LogShipper, ShipperSession

__all__ = [
    "LogShipper",
    "ReplicaService",
    "ReplicaSet",
    "ReplicaSetStats",
    "ShipperSession",
    "TcpTransport",
    "TransportClosed",
    "WalPosition",
    "connect_tcp",
]
