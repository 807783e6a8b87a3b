"""Durability for the serving layer: snapshots, write-ahead log, recovery.

The subsystem splits durable state the way HTAP engines do:

* **snapshots** — the corpus as immutable per-shard segments that later
  snapshots share (a checkpoint writes only the documents added since the
  previous one).  Indexes are derived data and are not stored: a restore
  rebuilds each shard's from its documents with the ingest splice.  The
  bytes on disk are also the replica-bootstrap payload, and a store of
  another layout version is refused (:class:`LayoutVersionError`), never
  partially read;
* **write-ahead log** — write-optimised: every ``add``/``remove`` appended
  with CRC framing and fsync before it touches memory, rotated at each
  checkpoint;
* **recovery** — latest valid snapshot + WAL tail replay, tolerating a torn
  final record, so ``KokoService.open(path)`` restarts warm with identical
  query results and zero re-annotation.
"""

from .checkpoint import CheckpointPolicy, CheckpointScheduler
from .layout import LAYOUT_VERSION, StorageLayout
from .recovery import RecoveredState, RecoveryManager
from .snapshot import (
    LayoutVersionError,
    ShardSegments,
    SnapshotState,
    load_snapshot,
    prune_segments,
    read_snapshot_payloads,
    state_from_payloads,
    write_snapshot,
)
from .wal import (
    OP_ADD,
    OP_REMOVE,
    CommitTicket,
    FrameScan,
    ReplayResult,
    WalCursor,
    WalPosition,
    WalRecord,
    WalWriter,
    WriteAheadLog,
    read_frames,
    read_records,
)

__all__ = [
    "CheckpointPolicy",
    "CheckpointScheduler",
    "CommitTicket",
    "FrameScan",
    "LAYOUT_VERSION",
    "LayoutVersionError",
    "OP_ADD",
    "OP_REMOVE",
    "RecoveredState",
    "RecoveryManager",
    "ReplayResult",
    "ShardSegments",
    "SnapshotState",
    "StorageLayout",
    "WalCursor",
    "WalPosition",
    "WalRecord",
    "WalWriter",
    "WriteAheadLog",
    "load_snapshot",
    "prune_segments",
    "read_frames",
    "read_records",
    "read_snapshot_payloads",
    "state_from_payloads",
    "write_snapshot",
]
