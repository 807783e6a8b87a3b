"""Checkpoint policy + background scheduler for durable services.

A checkpoint folds the WAL into a new snapshot: the log stays short, and
recovery time stays proportional to the write traffic since the last
checkpoint rather than to the corpus size.  So does the checkpoint
itself: a snapshot shares every unchanged corpus segment and index file
with its predecessor by name, so a checkpoint pickles only the documents
spliced since the previous one and encodes only the columns of shards
whose generation moved (see :mod:`repro.persistence.snapshot`).  The
policy is threshold-based (operations logged, WAL bytes, seconds elapsed
— whichever trips first), mirroring the update-log/checkpoint split of
HTAP designs.

The scheduler is a daemon thread that polls the policy; the snapshot
capture itself runs under the service's meta lock plus per-shard *read*
locks, so checkpointing stalls writers briefly but never blocks readers;
the files are written after both are released.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

__all__ = ["CheckpointPolicy", "CheckpointScheduler"]


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to fold the WAL into a fresh snapshot.

    Any ``None`` threshold is disabled; a checkpoint is due when **any**
    enabled threshold is reached.  The defaults favour bounded recovery
    time over write amplification: every 256 logged operations, or 8 MiB
    of WAL, or 5 minutes — whichever comes first.
    """

    min_ops: int | None = 256
    min_bytes: int | None = 8 * 1024 * 1024
    min_seconds: float | None = 300.0

    def due(self, ops: int, wal_bytes: int, seconds: float) -> bool:
        """True when the write traffic since the last checkpoint trips a threshold."""
        if ops <= 0:
            return False  # nothing to fold; an empty checkpoint helps nobody
        if self.min_ops is not None and ops >= self.min_ops:
            return True
        if self.min_bytes is not None and wal_bytes >= self.min_bytes:
            return True
        if self.min_seconds is not None and seconds >= self.min_seconds:
            return True
        return False

    @classmethod
    def disabled(cls) -> "CheckpointPolicy":
        """Never checkpoint automatically (explicit ``checkpoint()`` only)."""
        return cls(min_ops=None, min_bytes=None, min_seconds=None)


class CheckpointScheduler:
    """Daemon thread that periodically offers the service a checkpoint.

    The callback decides (against the policy) and performs the checkpoint;
    the scheduler only provides the heartbeat, so all locking stays inside
    the service.
    """

    def __init__(self, callback: Callable[[], None], poll_seconds: float = 0.2) -> None:
        self._callback = callback
        self._poll_seconds = poll_seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="koko-checkpoint", daemon=True
        )

    def start(self) -> None:
        """Start the daemon heartbeat thread."""
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._poll_seconds):
            try:
                self._callback()
            except Exception:  # pragma: no cover - keep the heartbeat alive
                # A failed background checkpoint must not kill the scheduler;
                # the next heartbeat (or an explicit checkpoint()) retries.
                pass

    def stop(self) -> None:
        """Signal the heartbeat to exit and join it (idempotent)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
