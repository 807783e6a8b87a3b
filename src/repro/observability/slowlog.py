"""Ring-buffered slow-operation log with a bounded JSON-lines sink.

Operations whose wall time crosses the service's ``slow_query_ms`` /
``slow_ingest_ms`` thresholds are summarised into one structured dict
(query hash, per-stage timings, shard, cache outcomes, WAL frame size —
plus the full span tree when the operation happened to be traced) and
:meth:`SlowOpLog.record`-ed here.  The most recent entries stay in an
in-memory ring (``service.recent_slow_ops()``); when a ``path`` is
given, every entry is also appended to that file as one JSON line, ready
for ``jq`` or log shipping.

The file sink is size-capped: when appending an entry would push the
file past ``max_file_bytes``, the file is rotated to ``<path>.1``
(replacing any previous rotation) and a fresh ``<path>`` is started —
so a long-lived service keeps at most two generations (~2x the cap) of
slow-op history on disk instead of growing without bound.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque

__all__ = ["SlowOpLog"]

#: default size cap of the JSON-lines sink before rotation (16 MiB)
DEFAULT_MAX_FILE_BYTES = 16 * 1024 * 1024


class SlowOpLog:
    """Thread-safe ring buffer of slow-op entries + bounded file sink.

    ``max_file_bytes`` caps the JSON-lines file: crossing it rotates
    ``path`` to ``path.1`` (one rotation generation is kept).
    """

    def __init__(
        self,
        capacity: int = 256,
        path: str | None = None,
        max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"slow-op log capacity must be positive, got {capacity}")
        if max_file_bytes <= 0:
            raise ValueError(f"max_file_bytes must be positive, got {max_file_bytes}")
        self._lock = threading.Lock()
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._path = str(path) if path is not None else None
        self._max_file_bytes = max_file_bytes
        self._file = None
        self._file_bytes = 0
        if self._path is not None:
            self._file = open(self._path, "a", encoding="utf-8")
            try:
                self._file_bytes = os.path.getsize(self._path)
            except OSError:  # pragma: no cover - freshly opened, unlikely
                self._file_bytes = 0

    def record(self, entry: dict) -> None:
        """Append *entry* to the ring (and the file sink, flushed).

        The sink write is rotation-aware: when this entry would push the
        file past ``max_file_bytes``, the current file becomes
        ``<path>.1`` first and the entry starts the fresh file.
        """
        line = None
        if self._file is not None:
            # serialise outside the lock; entries are built JSON-safe
            line = json.dumps(entry, sort_keys=False, default=str)
        with self._lock:
            self._entries.append(entry)
            if self._file is not None and line is not None:
                payload = line + "\n"
                size = len(payload.encode("utf-8"))
                if self._file_bytes > 0 and self._file_bytes + size > self._max_file_bytes:
                    self._rotate_locked()
                self._file.write(payload)
                self._file.flush()
                self._file_bytes += size

    def _rotate_locked(self) -> None:
        """Rotate ``path`` to ``path.1`` and reopen a fresh sink (lock held)."""
        self._file.flush()
        self._file.close()
        try:
            os.replace(self._path, self._path + ".1")
        except OSError:  # pragma: no cover - e.g. the file was removed
            pass
        self._file = open(self._path, "a", encoding="utf-8")
        self._file_bytes = 0

    def recent(self, limit: int | None = None) -> list[dict]:
        """The most recent entries, newest first."""
        with self._lock:
            entries = list(self._entries)
        entries.reverse()
        if limit is not None:
            entries = entries[:limit]
        return entries

    def clear(self) -> None:
        """Drop the in-memory ring (the file sink is left as-is)."""
        with self._lock:
            self._entries.clear()

    def close(self) -> None:
        """Flush and close the file sink (the ring stays readable)."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
