"""The in-process message transport for log shipping.

Replication messages are small Python tuples (plus snapshot byte blobs);
a transport moves them between a primary-side shipper session and one
follower, in order, full-duplex.  :class:`InProcessTransport` is a pair
of queues, for replicas living in the same process (tests, benchmarks,
embedded read scaling); :class:`~repro.net.TcpTransport` moves the same
messages over TCP (see :mod:`repro.net`, which also states the trust
model of a shipping port).

Both expose the same three calls: ``send(message)``,
``recv(timeout) -> message | None`` (``None`` = nothing arrived in time)
and ``close()``.  A closed or broken channel raises
:class:`~repro.net.TransportClosed` from either call, which the shipper
and replica treat as the end of the session.
"""

from __future__ import annotations

import queue
import threading

from ..net import TransportClosed

__all__ = ["InProcessTransport"]

#: sentinel a closing end pushes so a blocked reader wakes immediately
_CLOSED = object()


class InProcessTransport:
    """One end of an in-memory duplex message pipe.

    Build both ends with :meth:`pair`; messages put into one end come out
    of the other in order.  ``close()`` on either end wakes and closes
    both.
    """

    def __init__(
        self, outbox: "queue.Queue", inbox: "queue.Queue", name: str = "in-process"
    ) -> None:
        self._outbox = outbox
        self._inbox = inbox
        self._closed = threading.Event()
        self.name = name

    @classmethod
    def pair(cls) -> tuple["InProcessTransport", "InProcessTransport"]:
        """A connected ``(primary_end, replica_end)`` transport pair."""
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        primary = cls(a_to_b, b_to_a, name="in-process/primary")
        replica = cls(b_to_a, a_to_b, name="in-process/replica")
        # closing either end must wake the other's blocked recv
        primary._peer = replica  # type: ignore[attr-defined]
        replica._peer = primary  # type: ignore[attr-defined]
        return primary, replica

    def send(self, message) -> None:
        """Enqueue one message for the peer."""
        if self._closed.is_set():
            raise TransportClosed(f"{self.name} transport is closed")
        self._outbox.put(message)

    def recv(self, timeout: float | None = None):
        """The next message, or ``None`` after *timeout* seconds of silence."""
        if self._closed.is_set() and self._inbox.empty():
            raise TransportClosed(f"{self.name} transport is closed")
        try:
            message = self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None
        if message is _CLOSED:
            self._closed.set()
            raise TransportClosed(f"{self.name} transport is closed")
        return message

    def close(self) -> None:
        """Close both ends (idempotent); blocked receivers wake with
        :class:`TransportClosed`."""
        if self._closed.is_set():
            return
        self._closed.set()
        peer = getattr(self, "_peer", None)
        if peer is not None:
            peer._closed.set()
        # wake both directions
        self._outbox.put(_CLOSED)
        self._inbox.put(_CLOSED)
