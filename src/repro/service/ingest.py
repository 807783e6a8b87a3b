"""The ingest protocol: every corpus write is one claim → commit/abort round.

:class:`IngestState` owns everything the meta lock guards — the routing
table of live documents, the sentence-id counter and its reservations, the
ids that are mid-add or mid-remove, FIFO byte-budget admission, the count
of in-flight writes and the checkpoint drain barrier.  A write travels as
a list of :class:`WriteOp` records whose ``progress`` field says how far
each one got, so a failure can be undone exactly as far as it went.

``KokoService._write`` drives the stages between :meth:`IngestState.claim`
and :meth:`IngestState.commit` (annotate, log, apply) with the lock
released; recovery replay and replica apply go through the same claim and
commit with ``replayed`` ops.  The apply stage splices into a
:class:`Shard` under its write lock; a pipelined write returns an
:class:`IngestAck`.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import ServiceError
from ..indexing.koko_index import KokoIndexSet
from ..nlp.types import Corpus, Document, Sentence
from ..observability.tracing import TraceContext
from ..persistence import OP_ADD, OP_REMOVE, CommitTicket, WalRecord
from .locks import ReadWriteLock

__all__ = ["APPLIED", "CLAIMED", "LOGGED", "IngestAck", "IngestState", "Shard", "WriteOp"]

CLAIMED = "claimed"  # id and sid range held; nothing else may touch the id
LOGGED = "logged"  # its record is in the write-ahead log
APPLIED = "applied"  # its shard's postings reflect it


@dataclass
class WriteOp:
    """One add or remove on its way through the staged write path."""

    kind: str  # OP_ADD or OP_REMOVE
    doc_id: str | None  # None on an add: the claim assigns a fresh id
    text: str | None = None  # raw text still to annotate
    document: Document | None = None  # given (pre-annotated add) or filled in
    first_sid: int | None = None  # requested sid base; None = next free range
    reserve: int = 0  # width of the sid range to claim
    nbytes: int = 0  # text bytes charged against the admission budget
    replayed: bool = False  # already in a log (recovery, replica): history wins
    base_sid: int = 0  # the claimed range's first sid
    reservation: tuple[int, int] | None = None  # consumed reserve_sids range
    shard_id: int = -1
    frame_bytes: int = 0  # size of the logged frame
    progress: str | None = None  # CLAIMED → LOGGED → APPLIED

    def record(self, trace: TraceContext | None = None) -> WalRecord:
        """The write-ahead record that makes this op durable."""
        document = self.document if self.kind == OP_ADD else None
        return WalRecord(self.kind, self.doc_id, document=document, trace=trace)

    def inverse(self) -> "WriteOp":
        """The op that undoes this one: a remove for an add and vice versa."""
        return WriteOp(
            OP_REMOVE if self.kind == OP_ADD else OP_ADD,
            self.doc_id,
            document=self.document,
            shard_id=self.shard_id,
        )


class IngestState:
    """What the meta lock guards, behind ``claim`` / ``commit`` / ``abort``.

    ``live`` (doc id → shard), ``next_sid``, ``inflight_bytes`` and
    ``uncheckpointed_ops`` may be read by the owning service; every
    mutation goes through the methods here, under :attr:`lock`.  One
    ``claim`` call is one in-flight unit however many ops it carries, and
    must be matched by exactly one ``commit`` or ``abort`` of the same ops.
    """

    def __init__(
        self,
        max_inflight_bytes: int | None,
        ensure_open: Callable[[], None],
        on_admission_wait: Callable[[], None],
    ) -> None:
        self.lock = threading.Lock()
        self._cond = threading.Condition(self.lock)
        self._ensure_open = ensure_open
        self._on_admission_wait = on_admission_wait
        self.live: dict[str, int] = {}
        self.next_sid = 0
        self._reservations: dict[int, int] = {}  # base sid -> reserved count
        self._adding: set[str] = set()
        self._removing: set[str] = set()
        self._admission: deque = deque()  # FIFO claim tickets
        self._max_inflight_bytes = max_inflight_bytes
        self.inflight_bytes = 0
        self._inflight = 0
        self._barrier = 0
        # ops logged since the last checkpoint (drives the checkpoint policy)
        self.uncheckpointed_ops = 0

    def reserve_sids(self, count: int) -> int:
        """Set aside *count* sentence ids (at least one); returns the base."""
        with self.lock:
            self._ensure_open()
            base = self.next_sid
            self.next_sid += max(count, 1)
            self._reservations[base] = count
            return base

    def claim(self, ops: list[WriteOp]) -> None:
        """Admit *ops* and claim their ids and sid ranges in one lock round.

        Blocks while a checkpoint drain barrier is up, while an earlier
        claim is still waiting (admission is FIFO, so a large blocked
        write is never starved by smaller ones slipping into the
        headroom), or — with a byte budget — while admitting the ops'
        total ``nbytes`` would push the in-flight bytes over it.  A write
        larger than the whole budget is still admitted once nothing else
        is in flight, so no input can deadlock the pipeline; removes and
        pre-annotated adds carry zero bytes.  All-or-nothing: when any op
        is rejected, the ones claimed before it are released again.
        """
        total = sum(op.nbytes for op in ops)
        with self._cond:
            ticket = object()
            self._admission.append(ticket)
            try:
                waited = False
                while True:
                    over_budget = (
                        self._max_inflight_bytes is not None
                        and self.inflight_bytes > 0
                        and self.inflight_bytes + total > self._max_inflight_bytes
                    )
                    if (
                        not self._barrier
                        and self._admission[0] is ticket
                        and not over_budget
                    ):
                        break
                    if not self._barrier and not waited:
                        waited = True
                        self._on_admission_wait()
                    self._cond.wait()
            finally:
                # admitted (or raising): stop gating the claims behind us.
                # The rest of the claim runs without releasing the lock, so
                # dropping the ticket here cannot let anyone overtake.
                self._admission.remove(ticket)
                self._cond.notify_all()
            self._ensure_open()
            try:
                for op in ops:
                    self._claim_one(op)
            except BaseException:
                self._release(ops)
                raise
            self._inflight += 1
            self.inflight_bytes += total

    def _claim_one(self, op: WriteOp) -> None:
        """Validate one op against the live state and mark it claimed."""
        if op.kind == OP_REMOVE:
            if op.doc_id in self._adding:
                raise ServiceError(f"document id {op.doc_id!r} is still being ingested")
            if op.doc_id in self._removing:
                raise ServiceError(
                    f"document id {op.doc_id!r} is already being removed"
                )
            if op.doc_id not in self.live:
                raise ServiceError(f"unknown document id {op.doc_id!r}")
            op.shard_id = self.live[op.doc_id]
            self._removing.add(op.doc_id)
            op.progress = CLAIMED
            return
        if op.doc_id is None:
            op.doc_id = self._fresh_doc_id()
        elif op.doc_id in self.live or op.doc_id in self._adding:
            raise ServiceError(f"document id {op.doc_id!r} already ingested")
        if op.document is not None and len(op.document):
            # a pre-annotated document brings its own sids: claim their span
            sids = [sentence.sid for sentence in op.document]
            op.first_sid, op.reserve = min(sids), max(sids) - min(sids) + 1
        if op.first_sid is None:
            op.base_sid = self.next_sid
            self.next_sid += op.reserve
        else:
            reserved = self._reservations.get(op.first_sid)
            if reserved is not None:
                if reserved < op.reserve:
                    # leave the reservation intact: the caller can retry
                    # with a correctly sized range
                    raise ServiceError(
                        f"sid range at {op.first_sid} reserved {reserved} ids "
                        f"but the document needs {op.reserve} (size "
                        f"reservations with tokenizer.split_sentences)"
                    )
                del self._reservations[op.first_sid]
                op.reservation = (op.first_sid, reserved)
            elif op.first_sid >= self.next_sid or op.replayed:
                # a replayed log may order documents differently from the
                # sids their writers reserved, so history is never stale
                self.next_sid = max(self.next_sid, op.first_sid + op.reserve)
            else:
                raise ServiceError(
                    f"sid {op.first_sid} of document {op.doc_id!r} is neither "
                    f"a reserved range nor fresh (next sid is {self.next_sid})"
                )
            op.base_sid = op.first_sid
        # marking as we go keeps later ops of the same claim (and
        # _fresh_doc_id) from colliding with this one
        self._adding.add(op.doc_id)
        op.progress = CLAIMED

    def _fresh_doc_id(self) -> str:
        """A doc id that is neither live nor mid-add (lock held)."""
        candidate = f"doc{len(self.live) + len(self._adding)}"
        while candidate in self.live or candidate in self._adding:
            candidate = candidate + "_"
        return candidate

    def _release(self, ops: list[WriteOp]) -> None:
        """Drop the claims of *ops* (lock held); unclaimed ops are skipped."""
        for op in ops:
            if op.progress is not None:
                (self._removing if op.kind == OP_REMOVE else self._adding).discard(
                    op.doc_id
                )
        self._cond.notify_all()

    def _finish(self, ops: list[WriteOp]) -> None:
        """End one in-flight unit (lock held): claims, bytes, drain count."""
        self._release(ops)
        self.inflight_bytes -= sum(op.nbytes for op in ops)
        self._inflight -= 1

    def commit(self, ops: list[WriteOp]) -> None:
        """Publish applied *ops* in one lock round: adds become live and
        routed, removes disappear, waiting claims and checkpoints wake."""
        with self._cond:
            for op in ops:
                if op.kind == OP_ADD:
                    self.live[op.doc_id] = op.shard_id
                else:
                    self.live.pop(op.doc_id, None)
            self.uncheckpointed_ops += len(ops)
            self._finish(ops)

    def abort(self, ops: list[WriteOp]) -> None:
        """Release failed *ops* in one lock round.

        A consumed :meth:`reserve_sids` range is restored so the caller
        can retry with the same planned ``first_sid``, and so is the span a
        pre-annotated add claimed fresh: its sids are fixed in the
        document, so only a reservation lets the same document retry.  A
        raw-text add's fresh range simply leaks (a harmless gap — sids only
        need to be unique).  Every op that reached the log counts twice
        toward the checkpoint policy: its record and the inverse record
        that cancels it.
        """
        with self._cond:
            for op in ops:
                if op.reservation is not None:
                    self._reservations.setdefault(*op.reservation)
                elif (
                    op.kind == OP_ADD and op.text is None and op.reserve and not op.replayed
                ):
                    self._reservations.setdefault(op.base_sid, op.reserve)
                if op.progress in (LOGGED, APPLIED):
                    self.uncheckpointed_ops += 2
            self._finish(ops)

    @contextmanager
    def drained(self) -> Iterator["IngestState"]:
        """Hold the lock with no write in flight (checkpoint, close).

        Raises the drain barrier — claimed writes finish, new claims wait
        — and yields once the in-flight count reaches zero, so the body
        never sees an op that is logged but not yet applied.
        """
        with self._cond:
            self._barrier += 1
            try:
                while self._inflight:
                    self._cond.wait()
                yield self
            finally:
                self._barrier -= 1
                self._cond.notify_all()


@dataclass
class IngestAck:
    """The pipelined-ack return of ``add_document(wait_durable=False)``.

    The document is already spliced and visible to queries; the *commit
    future* — durability — is the attached :class:`CommitTicket`.  A crash
    before :meth:`wait_durable` returns may lose the operation (it is in
    WAL order but possibly not yet fsynced); everything the default
    ``wait_durable=True`` path promises is restored by waiting.
    """

    document: Document
    ticket: CommitTicket | None  # None on a memory-only service

    @property
    def durable(self) -> bool:
        """True once the logged record is covered by an fsync (no blocking)."""
        return self.ticket is None or self.ticket.durable

    def wait_durable(self) -> Document:
        """Block until the ingest is durable; returns the document."""
        if self.ticket is not None:
            self.ticket.wait()
        return self.document


class Shard:
    """One partition: its own corpus slice, index set and RW lock.

    *by_sid* is the service-wide ``sid → (document, sentence)`` map; a
    shard writes its own documents' entries, under its write lock.

    :attr:`changes` logs the shard's latest writes, oldest first, as
    ``(generation, added, document)``: the generation the write moved the
    shard to, whether it added or removed, and the document itself.  It
    is what lets the read path patch a partial result cached at an older
    generation instead of recomputing it (:meth:`changes_since`).  The
    log holds at most as many entries as the shard has live documents, so
    it costs no more than the documents themselves; a partial older than
    its first entry is recomputed in full.
    """

    def __init__(
        self,
        shard_id: int,
        name: str,
        indexes: KokoIndexSet,
        by_sid: dict[int, tuple[Document, Sentence]],
    ) -> None:
        self.shard_id = shard_id
        self.corpus = Corpus(name=name)
        self.indexes = indexes
        self.lock = ReadWriteLock()
        self.documents: dict[str, Document] = {}
        self.changes: deque[tuple[int, bool, Document]] = deque()
        self._by_sid = by_sid

    def splice(self, document: Document) -> None:
        """Wire one annotated document into this shard (write lock held)."""
        self.corpus.documents.append(document)
        self.documents[document.doc_id] = document
        self.indexes.add_document(document)
        self._locate(document)

    def unsplice(self, document: Document) -> None:
        """Un-wire one document from this shard (write lock held)."""
        self.corpus.documents.remove(document)
        del self.documents[document.doc_id]
        self.indexes.remove_document(document)
        for sentence in document:
            self._by_sid.pop(sentence.sid, None)

    def record(self, generation: int, added: bool, document: Document) -> None:
        """Log one applied write that moved the shard to *generation*.

        Called under the write lock, beside the generation bump; trims the
        log to the live document count (each entry leaves once, so a write
        costs O(1) amortised).
        """
        changes = self.changes
        changes.append((generation, added, document))
        while len(changes) > len(self.documents):
            changes.popleft()

    def changes_since(self, generation: int) -> list[tuple[bool, Document]] | None:
        """The writes after *generation*, oldest first, as ``(added, document)``.

        ``None`` when the log no longer reaches back that far (or never
        did: a restored shard starts with an empty log).  Read it under
        the read lock, with *generation* below the current one.
        """
        changes = self.changes
        if not changes or changes[0][0] > generation + 1:
            return None
        window = []
        for entry in reversed(changes):
            if entry[0] <= generation:
                break
            window.append(entry[1:])
        window.reverse()
        return window

    def adopt(self, documents: list[Document]) -> None:
        """Attach a restored snapshot's documents to this empty shard.

        The indexes are rebuilt from them by :meth:`KokoIndexSet.build`,
        the same splice every write, WAL replay and replica apply runs.
        """
        for document in documents:
            self.corpus.documents.append(document)
            self.documents[document.doc_id] = document
            self._locate(document)
        self.indexes.build(self.corpus)

    def _locate(self, document: Document) -> None:
        """Make *document*'s sentences loadable by sid."""
        for sentence in document:
            self._by_sid[sentence.sid] = (document, sentence)
