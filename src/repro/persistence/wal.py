"""Append-only write-ahead log with CRC framing, group commit and torn-tail recovery.

Every corpus mutation of a durable service is logged **before** it is
applied in memory, in the classic HTAP shape (an update log decoupled from
the read-optimised state): an ``add`` record carries the fully annotated
:class:`~repro.nlp.types.Document` so replay never re-runs NLP annotation,
and a ``remove`` record carries the document id.

Frame format (little-endian)::

    +----------+----------+-------------------+
    | len: u32 | crc: u32 | payload (pickled) |
    +----------+----------+-------------------+

``crc`` is the zlib CRC-32 of the payload.  A crash can tear at most the
final frame (appends are sequential and fsynced per commit batch);
:func:`read_records` stops at the first truncated or corrupt frame and
reports how many bytes were valid, so recovery can truncate the torn tail
and keep appending to the same segment.

**Group commit.**  :meth:`WalWriter.append` is thread-safe and coalesces
concurrent durability waits into one ``fsync``: each appender writes its
frame into the OS buffer under the writer mutex, then either becomes the
*sync leader* (performs the fsync covering every frame buffered so far) or
waits on a condition variable until a leader's fsync covers its frame.  One
disk flush therefore commits a whole batch of records — the durability
guarantee per record is unchanged (``append`` returns only once the record
is on disk), but N concurrent writers share ~1 fsync instead of paying N.
The leader flushes at once: a batch is whatever was buffered while the
previous fsync was in flight.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..errors import PersistenceError
from ..nlp.types import Document
from ..observability.tracing import Span, TraceContext
from .layout import fsync_dir as _fsync_dir

__all__ = [
    "OP_ADD",
    "OP_REMOVE",
    "CommitTicket",
    "FrameScan",
    "ReplayResult",
    "WalCursor",
    "WalPosition",
    "WalRecord",
    "WalWriter",
    "WriteAheadLog",
    "encode_frame",
    "read_frames",
    "read_records",
]

_HEADER = struct.Struct("<II")

OP_ADD = "add"
OP_REMOVE = "remove"


@dataclass(frozen=True)
class WalRecord:
    """One logged corpus mutation.

    ``trace`` is optional distributed-tracing metadata: the
    :class:`~repro.observability.tracing.TraceContext` of the ingest
    that produced the record.  Payloads ship to replicas verbatim, so a
    carried context lets the shipper's ship span and the replica's apply
    span join the originating trace.  Untraced records keep the 3-tuple
    payload format (and :meth:`from_payload` accepts both shapes).  The
    document pickles as annotation columns
    (:meth:`~repro.nlp.types.Sentence.__reduce__`); a record of the
    object-graph sentences before ``LAYOUT_VERSION`` 4 raises
    :class:`pickle.UnpicklingError` on decode.
    """

    op: str
    doc_id: str
    document: Document | None = None  # annotated payload for OP_ADD
    trace: TraceContext | None = None  # propagated ingest trace context

    def to_payload(self) -> bytes:
        """Serialise this record to the frame payload bytes."""
        if self.trace is None:
            fields: tuple = (self.op, self.doc_id, self.document)
        else:
            fields = (self.op, self.doc_id, self.document, self.trace)
        return pickle.dumps(fields, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        """Inverse of :meth:`to_payload` (3- and 4-tuple payloads)."""
        fields = pickle.loads(payload)
        op, doc_id, document = fields[:3]
        trace = fields[3] if len(fields) > 3 else None
        if not isinstance(trace, TraceContext):
            trace = None
        return cls(op=op, doc_id=doc_id, document=document, trace=trace)


def encode_frame(payload: bytes) -> bytes:
    """One CRC-framed record, ready to append."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True, order=True)
class WalPosition:
    """A point in the log's history: ``(segment_id, byte_offset)``.

    Segment ids increase monotonically across rotations and offsets grow
    within a segment, so tuple ordering gives a total order over the whole
    log history — positions work as replication offsets and as the
    read-your-writes tokens the replica router compares.
    """

    segment_id: int
    offset: int

    def __str__(self) -> str:
        return f"{self.segment_id}:{self.offset}"


@dataclass
class FrameScan:
    """Outcome of scanning raw frames from one segment (see :func:`read_frames`)."""

    #: ``(end_offset, payload)`` per whole frame, in log order; the payload
    #: is the pickled record bytes, untouched (re-shippable verbatim)
    frames: list[tuple[int, bytes]]
    #: byte offset just past the last whole frame (resume point)
    end_offset: int
    #: True when trailing bytes formed no complete valid frame — on a live
    #: segment that just means the writer is mid-append (retry later); on a
    #: sealed segment it means corruption
    partial_tail: bool


def read_frames(
    path: str | Path, start_offset: int = 0, max_bytes: int | None = None
) -> FrameScan:
    """Scan whole CRC-valid frames from byte *start_offset* of one segment.

    The log's one frame scanner (:func:`read_records` decodes what it
    returns).  Payloads come back raw, each tagged with the byte offset
    just past its frame, so a log shipper can forward bytes verbatim and
    resume from any reported offset.  Stops at the first incomplete or
    CRC-invalid frame (``partial_tail``), or once more than *max_bytes* of
    payload have been collected.
    """
    path = Path(path)
    frames: list[tuple[int, bytes]] = []
    offset = start_offset
    collected = 0
    partial = False
    with path.open("rb") as handle:
        handle.seek(start_offset)
        while True:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                partial = bool(header)
                break
            length, crc = _HEADER.unpack(header)
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                partial = True
                break
            offset += _HEADER.size + length
            frames.append((offset, payload))
            collected += length
            if max_bytes is not None and collected >= max_bytes:
                break
    return FrameScan(frames=frames, end_offset=offset, partial_tail=partial)


class WalCursor:
    """A read-only cursor over a layout's WAL, tolerant of live appends,
    rotation, and sealed-segment boundaries.

    The shipping primitive: positioned at a :class:`WalPosition`, each
    :meth:`poll` returns the whole frames that became readable past the
    cursor — following the active segment's growing tail, and crossing into
    segment ``N+1`` once segment ``N`` is sealed (rotation creates the next
    segment only *after* the sealed one is complete, so observing the
    ``N+1`` file proves ``N`` will grow no further).  The caller owns
    keeping the segments alive: a primary prunes shipped-from segments only
    past every cursor's pinned floor (see ``KokoService.register_wal_pin``).
    """

    def __init__(self, layout, position: WalPosition) -> None:
        self._layout = layout
        self._segment_id = position.segment_id
        self._offset = position.offset

    @property
    def position(self) -> WalPosition:
        """The cursor's current resume point."""
        return WalPosition(self._segment_id, self._offset)

    def _next_segment_exists(self) -> bool:
        return self._layout.wal_path(self._segment_id + 1).exists()

    def poll(
        self,
        max_records: int | None = None,
        max_bytes: int | None = None,
        up_to: WalPosition | None = None,
    ) -> list[tuple[WalPosition, bytes]]:
        """Whole frames available past the cursor, advancing it.

        Returns ``(position, payload)`` pairs where *position* is the log
        position just past that frame (what a follower acks after applying
        it).  An empty list means the cursor is caught up with the durable
        tail for now.  ``up_to`` bounds the read to positions at or before
        it — a shipping primary passes its **durable** end so followers
        never receive a flushed-but-unsynced record that a crash could
        still discard (a follower ahead of durability could diverge from
        the recovered log).  Raises :class:`PersistenceError` when the
        cursor's segment was pruned out from under it (the follower must
        re-bootstrap from a snapshot) or a **sealed** segment ends in a
        corrupt frame.
        """
        out: list[tuple[WalPosition, bytes]] = []
        budget = max_bytes
        while max_records is None or len(out) < max_records:
            path = self._layout.wal_path(self._segment_id)
            if not path.exists():
                newer = [
                    s
                    for s in self._layout.wal_segment_ids()
                    if s > self._segment_id
                ]
                if newer:
                    raise PersistenceError(
                        f"WAL segment {self._segment_id} was pruned under the "
                        f"cursor (oldest remaining: {min(newer)}); re-bootstrap"
                    )
                return out  # segment not created yet: caught up
            scan = read_frames(path, self._offset, max_bytes=budget)
            for end_offset, payload in scan.frames:
                position = WalPosition(self._segment_id, end_offset)
                if up_to is not None and position > up_to:
                    return out  # past the durability horizon: stop here
                self._offset = end_offset
                out.append((position, payload))
                if budget is not None:
                    budget -= len(payload)
                if (max_records is not None and len(out) >= max_records) or (
                    budget is not None and budget <= 0
                ):
                    return out
            if not self._next_segment_exists():
                return out  # live tail of the active segment
            if scan.partial_tail:
                # The next segment appeared, so this one is sealed — but the
                # seal may have landed after our read.  One re-scan settles
                # it: still-partial bytes in a sealed segment are corruption.
                rescan = read_frames(path, self._offset, max_bytes=budget)
                if rescan.partial_tail and not rescan.frames:
                    raise PersistenceError(
                        f"sealed WAL segment {self._segment_id} ends in a "
                        f"corrupt frame at offset {self._offset}"
                    )
                continue  # pick the re-scanned frames up next iteration
            self._segment_id += 1
            self._offset = 0
        return out


@dataclass
class ReplayResult:
    """Outcome of scanning one WAL segment."""

    records: list[WalRecord]
    valid_bytes: int
    torn: bool  # a truncated or corrupt frame ended the scan early


def read_records(path: str | Path) -> ReplayResult:
    """Scan one segment, tolerating a torn final frame.

    :func:`read_frames` plus a decode step: returns every record of the
    longest valid prefix.  ``torn`` is True when trailing bytes had to be
    discarded (truncated header, truncated payload, CRC mismatch, or a
    frame that does not decode) — the durable prefix property crash
    recovery relies on.
    With group commit a crash between the buffered append and the batch
    fsync can lose several trailing records at once; they are still a
    *suffix*, so the prefix property is unaffected.
    """
    scan = read_frames(path)
    records: list[WalRecord] = []
    valid = 0
    for end_offset, payload in scan.frames:
        try:
            records.append(WalRecord.from_payload(payload))
        except Exception:
            # a CRC-valid frame that does not decode ends the prefix too
            return ReplayResult(records=records, valid_bytes=valid, torn=True)
        valid = end_offset
    return ReplayResult(records=records, valid_bytes=valid, torn=scan.partial_tail)


class WalWriter:
    """Thread-safe framed appends to one segment file, with group commit.

    Concurrent ``append`` calls serialise their buffered writes under a
    mutex (frames never interleave), then share fsyncs through the
    leader/follower protocol described in the module docstring.

    Parameters
    ----------
    path:
        Segment file; created (with parents) when missing.
    truncate_to:
        Discard bytes past this offset before appending (recovery hands the
        valid-prefix length here to drop a torn tail).
    on_fsync:
        Callback invoked after each fsync with the number of records the
        flush made durable (the group-commit batch size).
    """

    def __init__(
        self,
        path: str | Path,
        truncate_to: int | None = None,
        on_fsync: Callable[[int], None] | None = None,
    ):
        self.path = Path(path)
        self.on_fsync = on_fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if truncate_to is not None and self.path.exists():
            with self.path.open("r+b") as handle:
                handle.truncate(truncate_to)
        self._handle: io.BufferedWriter | None = self.path.open("ab")
        self._bytes_written = self.path.stat().st_size
        # group-commit state: _write_lock orders buffered frame writes;
        # _sync_cond hands out sync leadership and publishes durability
        self._write_lock = threading.Lock()
        self._sync_cond = threading.Condition()
        self._synced_bytes = self._bytes_written  # pre-existing prefix is durable
        self._unsynced_records = 0
        self._leader_active = False
        self._failed = False

    @property
    def size_bytes(self) -> int:
        """Current segment size (durable prefix plus buffered frames)."""
        return self._bytes_written

    @property
    def synced_bytes(self) -> int:
        """Length of the segment prefix an fsync has made durable."""
        with self._sync_cond:
            return self._synced_bytes

    def append(self, record: WalRecord, trace: Span | None = None) -> int:
        """Frame, append and make one record durable.

        Returns the frame size in bytes.  Thread-safe: concurrent appends
        keep frames whole and share fsyncs via group commit; the call
        returns only once the record is covered by an fsync.  With ``trace``
        given, the buffered write and the group-commit durability wait are
        recorded as ``wal_append`` / ``fsync_wait`` child spans, splitting
        serialisation cost from commit latency.

        A failed buffered write (ENOSPC, I/O error) must not leave a
        partial frame mid-segment: later successful appends would land
        *after* the garbage, and recovery — which stops at the first
        corrupt frame — would silently drop them.  On failure the segment
        is truncated back to the last good frame boundary before the error
        propagates; if even that fails the writer declares itself closed so
        every further append fails loudly instead of corrupting the log.
        A failed *fsync* poisons the writer and truncates the segment back
        to its last durable boundary: durability can no longer be promised,
        every append waiting on the discarded suffix raises, and the log
        keeps only what was acknowledged.
        """
        frame_bytes, ticket = self.append_pipelined(record, trace=trace)
        wait_started = time.perf_counter() if trace is not None else 0.0
        ticket.wait()
        if trace is not None:
            trace.record("fsync_wait", time.perf_counter() - wait_started)
        return frame_bytes

    def append_pipelined(
        self, record: WalRecord, trace: Span | None = None
    ) -> tuple[int, "CommitTicket"]:
        """Buffered append that returns **before** the fsync, with a ticket.

        The pipelined-ack primitive: the frame reaches the OS buffer (so
        log order is fixed) and the caller gets a :class:`CommitTicket`
        whose :meth:`CommitTicket.wait` drives the group commit covering
        this frame.  The waiter itself becomes the sync leader when none is
        active, so durability needs no background flusher — whoever first
        cares about the commit pays (and shares) the fsync.  Returns
        ``(frame_bytes, ticket)``.
        """
        started = time.perf_counter() if trace is not None else 0.0
        frame = encode_frame(record.to_payload())
        target = self._buffered_append(frame)
        if trace is not None:
            trace.record(
                "wal_append", time.perf_counter() - started, bytes=len(frame)
            )
        return len(frame), CommitTicket(self, target)

    def _buffered_append(self, frame: bytes) -> int:
        """Write one frame into the OS buffer under the mutex; returns the
        byte offset an fsync must reach to cover it (see :meth:`append` for
        the partial-frame failure contract)."""
        with self._write_lock:
            if self._handle is None or self._failed:
                raise PersistenceError(f"WAL segment {self.path} is closed")
            try:
                self._handle.write(frame)
                self._handle.flush()
            except Exception:
                self._rewind_to_last_good_frame()
                raise
            self._bytes_written += len(frame)
            self._unsynced_records += 1
            return self._bytes_written

    def flush(self) -> None:
        """Block until every frame appended before this call is durable.

        A no-op for cleanly closed writers (close fsyncs).  Raises
        :class:`PersistenceError` when the writer is poisoned.
        """
        with self._write_lock:
            target = self._bytes_written
        self._await_durable(target)

    def _await_durable(self, target: int) -> None:
        """Block until an fsync covers byte offset *target* (group commit).

        The first waiter whose frames are not yet durable becomes the sync
        leader and flushes for everyone buffered so far; the rest wait on
        the condition variable.  Because a waiter's own write always
        precedes its leadership claim, one leader round always covers the
        leader's record — followers re-check and take over leadership if
        their frames arrived after the in-flight flush point.
        """
        while True:
            with self._sync_cond:
                if self._synced_bytes >= target:
                    return
                if self._failed:
                    raise PersistenceError(
                        f"WAL segment {self.path} failed to fsync; record durability unknown"
                    )
                if not self._leader_active:
                    self._leader_active = True
                    break
                self._sync_cond.wait()
        # --- we are the sync leader for this batch
        try:
            with self._write_lock:
                if self._handle is None:
                    raise PersistenceError(f"WAL segment {self.path} is closed")
                end = self._bytes_written
                batch = self._unsynced_records
                self._unsynced_records = 0
                # dup the fd: a concurrent failed append may close/reopen
                # the handle (rewind) while we fsync outside the lock; the
                # dup keeps referencing the same open file description, so
                # the flush is neither lost nor aimed at a recycled fd
                fileno = os.dup(self._handle.fileno())
            try:
                os.fsync(fileno)
            finally:
                os.close(fileno)
        except BaseException:
            # BaseException on purpose: a KeyboardInterrupt mid-fsync must
            # still relinquish leadership and wake the followers, or they
            # wait on the condition forever.
            self._fail_and_discard_unsynced_tail()
            raise
        with self._sync_cond:
            self._synced_bytes = max(self._synced_bytes, end)
            self._leader_active = False
            self._sync_cond.notify_all()
        if batch and self.on_fsync is not None:
            self.on_fsync(batch)

    def _fail_and_discard_unsynced_tail(self) -> None:
        """Poison the writer after a failed fsync and truncate the segment
        back to its last durable boundary.

        Every append waiting on that suffix is about to raise (poisoned),
        so nothing truncated was ever acknowledged — keeping the frames
        would instead let a later restart replay operations whose callers
        saw a failure.  Best-effort: if even the truncate fails, the
        unacknowledged tail may survive to be replayed.
        """
        with self._write_lock:
            self._failed = True
            if self._handle is not None:
                try:
                    self._handle.close()
                except Exception:
                    pass
                self._handle = None
            try:
                with self.path.open("r+b") as handle:
                    handle.truncate(self._synced_bytes)
                self._bytes_written = self._synced_bytes
            except Exception:
                pass
        with self._sync_cond:
            self._leader_active = False
            self._sync_cond.notify_all()

    def _rewind_to_last_good_frame(self) -> None:
        """Discard a partial frame after a failed append (see :meth:`append`)."""
        try:
            self._handle.close()  # drops any buffered partial bytes
        except Exception:
            pass
        try:
            with self.path.open("r+b") as handle:
                handle.truncate(self._bytes_written)
            self._handle = self.path.open("ab")
        except Exception:
            self._handle = None  # segment unusable; appends now raise

    def close(self) -> None:
        """Flush, fsync and close the segment (idempotent)."""
        with self._write_lock:
            if self._handle is None:
                return
            self._handle.flush()
            os.fsync(self._handle.fileno())
            end = self._bytes_written
            batch = self._unsynced_records
            self._unsynced_records = 0
            self._handle.close()
            self._handle = None
        with self._sync_cond:
            self._synced_bytes = max(self._synced_bytes, end)
            self._sync_cond.notify_all()
        if batch and self.on_fsync is not None:
            self.on_fsync(batch)


class CommitTicket:
    """A claim on the durability of one pipelined WAL append.

    Handed out by :meth:`WalWriter.append_pipelined` (and surfaced by the
    service's ``wait_durable=False`` ingest path as the *commit future*):
    the record is already in log order and visible to queries, but may not
    yet have been fsynced.  :meth:`wait` blocks until a group commit covers
    the record — the waiter becomes the sync leader when none is active, so
    waiting *drives* the flush rather than hoping for one.
    """

    __slots__ = ("_writer", "_target")

    def __init__(self, writer: WalWriter, target: int) -> None:
        self._writer = writer
        self._target = target

    @property
    def durable(self) -> bool:
        """True once an fsync covers the record (no blocking)."""
        return self._writer.synced_bytes >= self._target

    def wait(self) -> None:
        """Block until the record is durable, driving the fsync if needed.

        Raises :class:`PersistenceError` when the writer was poisoned by a
        failed fsync — the record's durability can no longer be promised.
        """
        self._writer._await_durable(self._target)


class WriteAheadLog:
    """The service-facing WAL: an active segment plus rotation at checkpoint.

    Thread-safe for concurrent :meth:`append` (group commit happens inside
    the active :class:`WalWriter`); :meth:`rotate` and :meth:`close` must
    only run while no append is in flight — the service guarantees that by
    draining in-flight ingests under its checkpoint barrier.
    """

    def __init__(
        self,
        layout,
        segment_id: int,
        truncate_to: int | None = None,
        on_fsync: Callable[[int], None] | None = None,
    ) -> None:
        self._layout = layout
        self.segment_id = segment_id
        self._on_fsync = on_fsync
        # guards segment_id and _writer together, which rotate() replaces
        self._segment_lock = threading.Lock()
        self._writer = WalWriter(
            layout.wal_path(segment_id), truncate_to=truncate_to, on_fsync=on_fsync
        )
        # make the segment's dirent durable, not just its contents — a lost
        # dirent after a crash would strand fsynced records in limbo
        _fsync_dir(layout.wal_dir)

    @property
    def active_bytes(self) -> int:
        """Byte size of the active segment."""
        return self._writer.size_bytes

    def durable_position(self) -> WalPosition:
        """The durable end of the log: active segment + fsynced prefix length.

        Everything at or before this position survives a crash; it is the
        honest value for replication offset tokens.  Safe against a
        concurrent :meth:`rotate` (shipper threads read this while
        checkpoints rotate): the segment id and writer are read under the
        same lock rotation updates them under, so the offset always belongs
        to the reported segment.
        """
        with self._segment_lock:
            segment_id = self.segment_id
            writer = self._writer
        return WalPosition(segment_id, writer.synced_bytes)

    def append(self, record: WalRecord, trace: Span | None = None) -> int:
        """Append one record to the active segment; returns the frame size.

        Safe to call from many threads at once; returns only when the
        record is durable (see :meth:`WalWriter.append`).  ``trace`` is
        forwarded to the writer for ``wal_append``/``fsync_wait`` spans.
        """
        return self._writer.append(record, trace=trace)

    def append_pipelined(
        self, record: WalRecord, trace: Span | None = None
    ) -> tuple[int, CommitTicket]:
        """Append without waiting for the fsync; returns ``(bytes, ticket)``.

        The pipelined-ack path (see :meth:`WalWriter.append_pipelined`):
        log order is fixed when this returns, durability arrives when the
        ticket is waited on (or any later group commit covers the frame).
        """
        return self._writer.append_pipelined(record, trace=trace)

    def flush_durable(self) -> WalPosition:
        """Make every record appended before this call durable.

        Drives a group commit over the active segment's buffered tail
        (records from already-rotated segments were fsynced when their
        segment sealed) and returns the durable end of the log.
        """
        with self._segment_lock:
            writer = self._writer
        writer.flush()
        return self.durable_position()

    def rotate(self) -> int:
        """Close the active segment and open the next one.

        Returns the id of the segment that was just sealed — the checkpoint
        id whose snapshot covers every record up to this point.  Callers
        must ensure no append is in flight.
        """
        sealed = self.segment_id
        self._writer.close()
        successor = WalWriter(self._layout.wal_path(sealed + 1), on_fsync=self._on_fsync)
        with self._segment_lock:  # paired with durable_position's read
            self.segment_id = sealed + 1
            self._writer = successor
        _fsync_dir(self._layout.wal_dir)
        return sealed

    def close(self) -> None:
        """Flush and close the active segment."""
        self._writer.close()
