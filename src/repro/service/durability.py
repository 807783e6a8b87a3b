"""The durable half of :class:`~repro.service.service.KokoService`.

Recovery at construction, checkpoints (explicit, background and the final
one at ``close()``), snapshot capture and adoption, and the WAL retention
pins of log shipping.  :class:`Durability` is a mixin of ``KokoService``:
it works on the service's shards, ingest state, generation stamps and
stats, and owns only the durability handles (layout, WAL, checkpoint
scheduler and lock, the pins, and what the latest snapshot holds).

A checkpoint, step by step::

    drain barrier up (IngestState.drained: claimed writes finish, new wait)
      rotate the WAL; per shard, under its read lock: the document list,
      and to_arrays() only if its generation moved since its columns
      were last written
    barrier down — writers proceed
    write_snapshot: per shard, one segment with the documents the latest
      snapshot does not hold (merged when the binary counter says so),
      tombstones for the ones it holds that are gone; every other file
      is named again
    repoint CURRENT · prune snapshots, unreferenced files, covered WAL

The write costs what changed since the previous checkpoint, not the corpus:
each document is pickled once in its lifetime.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from ..errors import PersistenceError, ServiceError
from ..persistence import (
    CheckpointPolicy,
    CheckpointScheduler,
    RecoveredState,
    RecoveryManager,
    ShardSegments,
    SnapshotState,
    StorageLayout,
    WalPosition,
    WriteAheadLog,
    prune_segments,
    write_snapshot,
)

__all__ = ["Durability"]


class Durability:
    """Mixin: the durability lifecycle of a :class:`KokoService`."""

    def _init_durability(
        self,
        storage_dir: str | Path | None,
        checkpoint_policy: CheckpointPolicy | None,
        wal_sync: bool,
        sync_interval: float,
    ) -> RecoveredState | None:
        """Set the durability handles and recover *storage_dir*, if any.

        Runs before the shards exist: a recovered snapshot's shard count
        and name define the topology the service then builds.
        """
        self._layout: StorageLayout | None = None
        self._wal: WriteAheadLog | None = None
        self._checkpoint_scheduler: CheckpointScheduler | None = None
        self._checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        self._checkpoint_lock = threading.Lock()
        self._checkpoint_id = 0
        self._last_checkpoint_monotonic = time.monotonic()
        self._wal_sync = wal_sync
        self._wal_sync_interval = sync_interval
        # WAL retention pins (log shipping): callables returning the lowest
        # segment id a subscriber still needs, or None when idle
        self._wal_pins: list = []
        # what the latest durable snapshot holds, per shard: the next
        # checkpoint writes only the difference
        self._segments: list[ShardSegments] = []
        if storage_dir is None:
            return None
        self._layout = StorageLayout(storage_dir)
        self._layout.initialise()
        return RecoveryManager(self._layout).recover()

    def _adopt_snapshot(self, snapshot: SnapshotState) -> None:
        """Attach a restored snapshot's documents and counters to the shards.

        Shared by on-disk recovery and the replication bootstrap: the
        index sets were already installed at construction; this wires the
        documents, routing table, sid counter and generation stamps.
        """
        for shard_id, shard in enumerate(self._shards):
            documents = snapshot.documents_by_shard[shard_id]
            shard.adopt(documents)
            for document in documents:
                self._ingest.live[document.doc_id] = shard_id
        self._ingest.next_sid = snapshot.next_sid
        self._generations = list(snapshot.generations)
        self._checkpoint_id = snapshot.checkpoint_id

    def _finish_recovery(self, recovered: RecoveredState, poll_seconds: float) -> None:
        """Adopt the snapshot, replay the WAL tail, open the WAL, start checkpoints."""
        assert self._layout is not None
        self._segments = [ShardSegments() for _ in self._shards]
        if recovered.snapshot is not None:
            self._adopt_snapshot(recovered.snapshot)
            self._segments = recovered.snapshot.segments
        for record in recovered.operations:
            self._apply_record(record)
        self._wal = WriteAheadLog(
            self._layout,
            recovered.active_segment_id,
            sync=self._wal_sync,
            truncate_to=recovered.active_segment_valid_bytes,
            sync_interval=self._wal_sync_interval,
            on_fsync=self.stats.record_wal_fsync,
        )
        # Replayed operations are only durable in the WAL tail; fold them
        # into a checkpoint so the next restart is one load.  A directory
        # with no snapshot and nothing to replay (brand new, or a crash
        # before the first bootstrap completed) gets a bootstrap snapshot
        # that pins the shard topology.
        if recovered.operations:
            self.checkpoint()
        elif recovered.snapshot is None:
            self._write_bootstrap_snapshot()
        self._checkpoint_scheduler = CheckpointScheduler(
            self._maybe_checkpoint, poll_seconds=poll_seconds
        )
        self._checkpoint_scheduler.start()

    def _write_bootstrap_snapshot(self) -> None:
        """Persist the empty topology (shard count, name) as checkpoint 0."""
        assert self._layout is not None
        state = self._capture_snapshot_state(checkpoint_id=0)
        write_snapshot(self._layout, state)
        self._layout.write_current(0)
        self._segments = state.segments

    def _capture_snapshot_state(self, checkpoint_id: int) -> SnapshotState:
        """Capture every shard under its read lock (readers unaffected).

        A shard's columns are captured only when its generation moved
        since they were last written; otherwise the writer names the
        stored file again.
        """
        index_arrays: list[dict | None] = []
        documents_by_shard = []
        build_seconds: list[float] = []
        for shard, stored in zip(self._shards, self._segments):
            with shard.lock.read_locked():
                current = stored.has_columns(self._generations[shard.shard_id])
                index_arrays.append(None if current else shard.indexes.to_arrays())
                documents_by_shard.append(list(shard.corpus.documents))
                build_seconds.append(shard.indexes.build_seconds)
        return SnapshotState(
            checkpoint_id=checkpoint_id,
            name=self.name,
            num_shards=len(self._shards),
            next_sid=self._ingest.next_sid,
            generations=list(self._generations),
            documents_by_shard=documents_by_shard,
            build_seconds_by_shard=build_seconds,
            index_arrays=index_arrays,
            segments=list(self._segments),
        )

    def checkpoint(self) -> int | None:
        """Fold the write-ahead log into a fresh snapshot.

        Raises the ingest drain barrier (staged ingests that already
        reserved ids finish; new claims wait), rotates the WAL, captures
        every shard under its *read* lock (readers keep running), writes
        the versioned snapshot — only the documents and columns that
        changed since the previous one — atomically repoints ``CURRENT``
        and prunes superseded snapshots, files and segments.  Returns the
        new checkpoint id, or ``None`` when nothing was logged since the
        last checkpoint.

        Raises :class:`ServiceError` on a memory-only service.
        """
        if self._wal is None or self._layout is None:
            raise ServiceError("service has no storage_dir to checkpoint into")
        started = time.perf_counter()
        # the in-progress gauge brackets the whole attempt (including the
        # drain wait), so a wedged checkpointer is visible from outside
        self.stats.record_checkpoint_started()
        try:
            with self._checkpoint_lock:
                # Drain: a staged write may have appended to the WAL but not
                # yet applied; rotating under it would strand a logged
                # operation in a segment the checkpoint claims to cover.
                with self._ingest.drained() as ingest:
                    if ingest.uncheckpointed_ops == 0:
                        return None
                    sealed = self._wal.rotate()
                    state = self._capture_snapshot_state(checkpoint_id=sealed)
                    ingest.uncheckpointed_ops = 0
                    self._last_checkpoint_monotonic = time.monotonic()
                # File writes happen outside the meta lock: the captured state
                # is immutable (column arrays are replaced, never written in
                # place; documents are never mutated after ingest), so
                # writers proceed while we fsync.
                try:
                    write_snapshot(self._layout, state)
                except PersistenceError:
                    # a file the latest snapshot shares failed to read back,
                    # or a shard's order is no longer its segments' order
                    # plus an appended tail: stop building on that snapshot,
                    # so the next checkpoint writes every shard afresh
                    # instead of failing the same way
                    self._segments = [ShardSegments() for _ in self._shards]
                    raise
                self._layout.write_current(sealed)
                self._segments = state.segments
                self._layout.prune(sealed, wal_keep_from=self._wal_pin_floor())
                prune_segments(self._layout)
                self._checkpoint_id = sealed
            self.stats.record_checkpoint(time.perf_counter() - started, sealed)
            return sealed
        finally:
            self.stats.record_checkpoint_finished()

    def _maybe_checkpoint(self) -> None:
        """Background heartbeat: checkpoint when the policy says it is due."""
        if self._closed or self._wal is None:
            return
        elapsed = time.monotonic() - self._last_checkpoint_monotonic
        if self._checkpoint_policy.due(
            self._ingest.uncheckpointed_ops, self._wal.active_bytes, elapsed
        ):
            try:
                self.checkpoint()
            except Exception as exc:
                # The WAL stays the source of durability; surface the
                # failure in the stats instead of dying silently (the next
                # heartbeat, or an explicit checkpoint(), retries).
                self.stats.record_checkpoint_failure(repr(exc))

    def _close_durability(self) -> None:
        """Stop checkpointing, drain claimed writes, fold a final checkpoint.

        Writes that claimed before ``close`` set ``_closed`` must reach
        the WAL and splice before the WAL (and the pools) go away; new
        claims already raise, so the in-flight count only falls.
        """
        if self._checkpoint_scheduler is not None:
            self._checkpoint_scheduler.stop()
            self._checkpoint_scheduler = None
        with self._ingest.drained():
            pass
        if self._wal is not None:
            try:
                if self._ingest.uncheckpointed_ops:
                    self.checkpoint()
            finally:
                self._wal.close()
                self._wal = None

    @property
    def storage_dir(self) -> Path | None:
        """Root of the durability layout, or None for a memory-only service."""
        return self._layout.root if self._layout is not None else None

    @property
    def checkpoint_id(self) -> int:
        """Id of the latest durable checkpoint (0 until the first one)."""
        return self._checkpoint_id

    # ------------------------------------------------------------------
    # replication hooks (see repro.replication)
    # ------------------------------------------------------------------
    def wal_position(self) -> WalPosition | None:
        """The durable end of the write-ahead log, or None when memory-only.

        Monotonic across rotations, so it works as a *read-your-writes*
        token: a position captured after :meth:`add_document` returns
        covers that document (the record was fsynced before the return),
        and a replica whose applied position is ``>=`` the token has the
        write.
        """
        wal = self._wal
        return wal.durable_position() if wal is not None else None

    def register_wal_pin(self, pin) -> None:
        """Register a WAL retention pin (a log-shipping subscriber).

        *pin* is a callable returning the lowest WAL segment id the
        subscriber still needs, or ``None`` when it needs nothing.
        Checkpoints keep every segment at or above the lowest pinned id
        when pruning, so a follower tailing segment *N* never has it
        folded away mid-read.
        """
        with self._ingest.lock:
            self._wal_pins.append(pin)

    def unregister_wal_pin(self, pin) -> None:
        """Drop a previously registered retention pin (idempotent)."""
        with self._ingest.lock:
            if pin in self._wal_pins:
                self._wal_pins.remove(pin)

    def _wal_pin_floor(self) -> int | None:
        """The lowest WAL segment id any registered pin still needs."""
        with self._ingest.lock:
            pins = list(self._wal_pins)
        floors = []
        for pin in pins:
            try:
                floor = pin()
            except Exception:  # pragma: no cover - defensive: a dying
                continue  # subscriber must not wedge checkpoints
            if floor is not None:
                floors.append(floor)
        return min(floors, default=None)
