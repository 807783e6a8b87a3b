"""Crash recovery: latest valid snapshot + WAL tail replay.

The recovery sequence (the write path in reverse):

1. Resolve the newest **valid** snapshot by a newest-first scan, so a
   crash mid-snapshot (torn directory, bad digest) falls back to the
   previous durable checkpoint.  A snapshot of another layout version is
   not a corrupt one: recovery raises instead of falling back past it.
   Recovery also raises, touching nothing, when the fallback cannot be
   complete: snapshots exist but none loads (the two retained ones share
   segments, so one bad shared file sinks both), or the WAL no longer
   starts right after the base it falls back to.
2. Replay every WAL segment newer than that snapshot, in segment order,
   stopping at the first torn or corrupt frame: the state recovered is
   exactly the longest durable prefix of the operation history.
3. Hand the service a truncation point for the active segment, so new
   appends continue cleanly after the tear instead of burying good records
   behind a corrupt frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PersistenceError
from .layout import StorageLayout
from .snapshot import LayoutVersionError, SnapshotState, load_snapshot
from .wal import ReplayResult, WalRecord, read_records

__all__ = ["RecoveredState", "RecoveryManager"]


@dataclass
class RecoveredState:
    """What :meth:`RecoveryManager.recover` hands back to the service."""

    #: restored snapshot, or None when no valid snapshot exists (fresh
    #: directory, or a crash before the first checkpoint)
    snapshot: SnapshotState | None
    #: WAL operations to re-apply on top of the snapshot, in log order
    operations: list[WalRecord] = field(default_factory=list)
    #: segment the reopened service must append to
    active_segment_id: int = 1
    #: byte length of that segment's valid prefix (truncate before append),
    #: or None when the segment does not exist yet
    active_segment_valid_bytes: int | None = None
    #: True when a torn tail was discarded during replay
    torn_tail: bool = False
    segments_replayed: int = 0

    @property
    def checkpoint_id(self) -> int:
        """Id of the restored checkpoint (0 = booted from an empty base)."""
        return self.snapshot.checkpoint_id if self.snapshot else 0


class RecoveryManager:
    """Restores the durable state of one service directory."""

    def __init__(self, layout: StorageLayout) -> None:
        self.layout = layout

    def recover(self) -> RecoveredState:
        """Load the latest valid snapshot and replay the WAL tail.

        Raises :class:`~repro.persistence.snapshot.LayoutVersionError`, and
        touches nothing on disk, on a snapshot of another layout version:
        the WAL it covers is already pruned, so booting from what is left
        would serve a subset of the documents.  Raises
        :class:`PersistenceError`, touching nothing, for the same reason
        when snapshots exist but none loads, or when the WAL segment right
        after the base recovery falls back to is gone.
        """
        # Newest-first: a fully-valid snapshot always beats an older one
        # (and a stale CURRENT pointer).  load_snapshot digests each file
        # from the bytes it is about to decode, so selection and loading
        # cost one read, and a corrupt candidate just drops to the next.
        snapshot_ids = self.layout.snapshot_ids()
        snapshot = None
        for checkpoint_id in reversed(snapshot_ids):
            try:
                snapshot = load_snapshot(self.layout, checkpoint_id)
                break
            except LayoutVersionError:
                raise
            except PersistenceError:
                continue
        if snapshot_ids and snapshot is None:
            raise PersistenceError(
                f"none of the snapshots {snapshot_ids} under "
                f"{self.layout.snapshots_dir} loads, and the WAL they cover is "
                "pruned: refusing to boot from what is left"
            )
        recovered = RecoveredState(snapshot=snapshot)
        base = snapshot.checkpoint_id if snapshot is not None else 0

        segment_ids = [s for s in self.layout.wal_segment_ids() if s > base]
        # Below the newest snapshot, or with none but a log, only the WAL
        # holds the operations since the base: it must start right after.
        falls_back = snapshot is not None and base < snapshot_ids[-1]
        if (falls_back or (snapshot is None and segment_ids)) and (
            base + 1 not in segment_ids
        ):
            raise PersistenceError(
                f"recovery falls back to checkpoint {base}, but WAL segment "
                f"{base + 1} is gone: refusing to boot from what is left"
            )
        last_result: ReplayResult | None = None
        last_segment = base
        for segment_id in sorted(segment_ids):
            result = read_records(self.layout.wal_path(segment_id))
            recovered.operations.extend(result.records)
            recovered.segments_replayed += 1
            last_result = result
            last_segment = segment_id
            if result.torn:
                recovered.torn_tail = True
                # Anything past a tear is of uncertain order; in normal
                # operation a tear only ever happens in the final segment,
                # so later segments here mean external corruption — drop
                # them rather than replay history out of order.
                for later in sorted(segment_ids):
                    if later > segment_id:
                        try:
                            self.layout.wal_path(later).unlink()
                        except OSError:  # pragma: no cover - best-effort
                            pass
                break

        if last_result is None:
            recovered.active_segment_id = base + 1
            recovered.active_segment_valid_bytes = None
        else:
            recovered.active_segment_id = last_segment
            recovered.active_segment_valid_bytes = last_result.valid_bytes
        return recovered

    @staticmethod
    def operations_of(records: list[WalRecord]) -> dict[str, int]:
        """Tally of replayed operations by kind (for stats/logging)."""
        counts: dict[str, int] = {}
        for record in records:
            counts[record.op] = counts.get(record.op, 0) + 1
        return counts
