"""The staged concurrent ingest pipeline: off-lock annotation, parallel splice.

The load-bearing properties:

* multi-threaded writers across shards produce **sid-stable results
  identical to serial ingest** when sid ranges are pre-planned (the
  ``first_sid`` reservation API), and a consistent, reference-identical
  corpus even when sids are assigned by arrival order;
* the doc-id claim is race-free (exactly one of N concurrent writers of
  the same id wins);
* checkpoints drain in-flight staged ingests, so a warm restart after
  heavy concurrent ingest is tuple-identical.
"""

from __future__ import annotations

import itertools
import random
import shutil
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.koko.engine import KokoEngine, compile_query
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus
from repro.persistence import CheckpointPolicy, WriteAheadLog
from repro.replication import LogShipper, ReplicaService, connect_tcp
from repro.service import KokoService
from repro.service.service import _Shard

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

ALL_ENTITIES_QUERY = 'extract e:Entity from "svc" if ()'

BASE_TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo. The pie shop was crowded.",
    "The barista in Osaka served a delicious espresso.",
]
TEXTS = [BASE_TEXTS[i % len(BASE_TEXTS)] for i in range(18)]


def as_rows(result):
    """Full ordered tuple content, scores included (byte-identical check)."""
    return [(t.doc_id, t.sid, t.values, t.scores) for t in result]


def plan_sids(service: KokoService, pipeline: Pipeline, texts) -> list[int]:
    """Pre-reserve every document's sid range in deterministic (serial) order."""
    return [
        service.reserve_sids(len(pipeline.tokenizer.split_sentences(text)))
        for text in texts
    ]


# ----------------------------------------------------------------------
# sid-stable concurrency (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4])
def test_concurrent_ingest_is_tuple_identical_to_serial(shards, pipeline, run_threads):
    """4 writers with pre-planned sid ranges == serial ingest, bit for bit."""
    with KokoService(shards=shards) as serial:
        for index, text in enumerate(TEXTS):
            serial.add_document(text, f"doc{index}")
        expected = {q: as_rows(serial.query(q)) for q in (ENTITY_QUERY, CITY_QUERY)}
        expected_sid = serial.next_sid()

    with KokoService(shards=shards) as concurrent:
        bases = plan_sids(concurrent, pipeline, TEXTS)
        order = list(range(len(TEXTS)))
        random.Random(7).shuffle(order)

        def work(thread_index: int) -> None:
            for position in order:
                if position % 4 == thread_index:
                    concurrent.add_document(
                        TEXTS[position],
                        f"doc{position}",
                        first_sid=bases[position],
                    )

        run_threads(4, work)
        assert len(concurrent) == len(TEXTS)
        assert concurrent.next_sid() == expected_sid
        for query, rows in expected.items():
            assert as_rows(concurrent.query(query)) == rows


def test_concurrent_ingest_without_planned_sids_is_consistent(run_threads):
    """Arrival-order sid assignment still yields a reference-identical corpus."""
    with KokoService(shards=4) as service:
        ingested: dict[str, object] = {}
        lock = threading.Lock()

        def work(thread_index: int) -> None:
            for position in range(len(TEXTS)):
                if position % 4 == thread_index:
                    document = service.add_document(TEXTS[position], f"doc{position}")
                    with lock:
                        ingested[document.doc_id] = document

        run_threads(4, work)
        assert len(service) == len(TEXTS)
        assert sorted(service.document_ids()) == sorted(ingested)
        # sids are globally unique across all concurrent reservations
        sids = [s.sid for d in ingested.values() for s in d]
        assert len(sids) == len(set(sids))
        # results match an unsharded engine over the same documents
        documents = sorted(ingested.values(), key=lambda d: d.sentences[0].sid)
        engine = KokoEngine(Corpus(name="reference", documents=documents))
        for query in (ENTITY_QUERY, CITY_QUERY):
            assert as_rows(service.query(query)) == as_rows(engine.execute(query))


def test_duplicate_doc_id_race_admits_exactly_one_writer(run_threads):
    with KokoService(shards=2) as service:
        outcomes: list[str] = []
        lock = threading.Lock()

        def work(thread_index: int) -> None:
            try:
                service.add_document(BASE_TEXTS[0], "contested")
            except ServiceError:
                with lock:
                    outcomes.append("rejected")
            else:
                with lock:
                    outcomes.append("won")

        run_threads(6, work)
        assert outcomes.count("won") == 1
        assert outcomes.count("rejected") == 5
        assert service.document_ids() == ["contested"]


def test_stale_first_sid_is_rejected():
    with KokoService() as service:
        service.add_document(BASE_TEXTS[0], "doc0")
        with pytest.raises(ServiceError):
            service.add_document(BASE_TEXTS[1], "doc1", first_sid=0)
        # an explicit fresh reservation works and advances the counter
        base = service.next_sid() + 10
        service.add_document(BASE_TEXTS[1], "doc1", first_sid=base)
        assert service.next_sid() > base


# ----------------------------------------------------------------------
# annotation pools
# ----------------------------------------------------------------------
def test_thread_annotation_pool_matches_inline():
    with KokoService(shards=2, annotation_workers=2) as pooled:
        for index, text in enumerate(BASE_TEXTS):
            pooled.add_document(text, f"doc{index}")
        with KokoService(shards=2) as inline:
            for index, text in enumerate(BASE_TEXTS):
                inline.add_document(text, f"doc{index}")
            for query in (ENTITY_QUERY, CITY_QUERY):
                assert as_rows(pooled.query(query)) == as_rows(inline.query(query))


def test_process_annotation_pool_matches_inline():
    with KokoService(annotation_workers=2, annotation_processes=True) as pooled:
        for index, text in enumerate(BASE_TEXTS[:3]):
            pooled.add_document(text, f"doc{index}")
        with KokoService() as inline:
            for index, text in enumerate(BASE_TEXTS[:3]):
                inline.add_document(text, f"doc{index}")
            assert as_rows(pooled.query(ENTITY_QUERY)) == as_rows(
                inline.query(ENTITY_QUERY)
            )


# ----------------------------------------------------------------------
# checkpoints drain staged ingests; warm restart stays identical
# ----------------------------------------------------------------------
def test_checkpoint_during_concurrent_ingest_recovers_identically(tmp_path, run_threads):
    path = tmp_path / "svc"
    service = KokoService(
        shards=4, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    checkpoint_errors: list[BaseException] = []
    done = threading.Event()

    def checkpointer() -> None:
        while not done.is_set():
            try:
                service.checkpoint()
            except BaseException as exc:  # pragma: no cover - surfaced below
                checkpoint_errors.append(exc)
                return

    snapshotter = threading.Thread(target=checkpointer)
    snapshotter.start()
    try:
        def work(thread_index: int) -> None:
            for position in range(len(TEXTS)):
                if position % 4 == thread_index:
                    service.add_document(TEXTS[position], f"doc{position}")

        run_threads(4, work)
    finally:
        done.set()
        snapshotter.join()
    assert not checkpoint_errors
    assert len(service) == len(TEXTS)
    expected = as_rows(service.query(ENTITY_QUERY))
    service.close()

    reopened = KokoService.open(path)
    try:
        assert len(reopened) == len(TEXTS)
        assert as_rows(reopened.query(ENTITY_QUERY)) == expected
    finally:
        reopened.close()


def test_removal_of_inflight_document_is_rejected():
    """A document mid-ingest is invisible to removal until it commits."""
    with KokoService() as service:
        release = threading.Event()
        entered = threading.Event()

        class SlowPipeline(Pipeline):
            def annotate(self, *args, **kwargs):
                entered.set()
                assert release.wait(5.0)
                return super().annotate(*args, **kwargs)

        service.pipeline = SlowPipeline()
        writer = threading.Thread(
            target=service.add_document, args=(BASE_TEXTS[0], "slow")
        )
        writer.start()
        try:
            assert entered.wait(5.0)
            with pytest.raises(ServiceError, match="still being ingested"):
                service.remove_document("slow")
            assert "slow" not in service.document_ids()
        finally:
            release.set()
            writer.join()
        assert "slow" in service.document_ids()
        service.remove_document("slow")


def test_failed_splice_after_wal_append_does_not_resurrect(tmp_path, monkeypatch):
    """A WAL-logged add whose splice fails is compensated in the log, so
    replay nets to nothing and a retried id replays cleanly."""
    path = tmp_path / "svc"
    service = KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    try:
        service.add_document(BASE_TEXTS[0], "good")

        def exploding(shard, document):
            raise RuntimeError("splice blew up")

        with monkeypatch.context() as patched:
            patched.setattr(_Shard, "splice", exploding)
            with pytest.raises(RuntimeError):
                service.add_document(BASE_TEXTS[1], "broken")
        assert sorted(service.document_ids()) == ["good"]
        # the same id can be retried — and the WAL now holds
        # [add good, add broken, remove broken, add broken]
        service.add_document(BASE_TEXTS[1], "broken")
        # replay that exact log (no clean-close checkpoint folding)
        crash_dir = tmp_path / "crashed"
        shutil.copytree(path, crash_dir)
    finally:
        service.close()
    reopened = KokoService.open(crash_dir)
    try:
        assert sorted(reopened.document_ids()) == ["broken", "good"]
        assert as_rows(reopened.query(ENTITY_QUERY)) is not None
    finally:
        reopened.close()


def test_failed_bulk_chunk_leaves_no_orphan_postings(tmp_path, monkeypatch):
    """A chunk whose splice fails on a later shard un-splices the shards
    that already succeeded: no document the service disowns stays
    query-visible, and a retried id is not in its shard twice."""
    path = tmp_path / "svc"
    service = KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    try:
        original = _Shard.splice

        def failing_on_shard_1(shard, document):
            if shard.shard_id == 1:
                raise RuntimeError("splice blew up")
            original(shard, document)

        ids = [f"d{index}" for index in range(8)]
        assert {service.shard_of(doc_id) for doc_id in ids} == {0, 1}
        with monkeypatch.context() as patched:
            patched.setattr(_Shard, "splice", failing_on_shard_1)
            with pytest.raises(RuntimeError):
                service.add_documents(TEXTS[:8], ids)
        assert service.document_ids() == [] and len(service) == 0
        assert as_rows(service.query(ALL_ENTITIES_QUERY)) == []
        service.add_document(TEXTS[0], "d0")
        held = [d.doc_id for corpus in service.corpora for d in corpus.documents]
        assert held == ["d0"]
        shutil.copytree(path, tmp_path / "crashed")
    finally:
        service.close()
    with KokoService.open(tmp_path / "crashed") as reopened:
        assert reopened.document_ids() == ["d0"]


# ----------------------------------------------------------------------
# one failure table: every entry point x every stage a write can die in
# ----------------------------------------------------------------------
def _fail_nth_call(monkeypatch, owner, names, nth):
    """Make the *nth* call (0-based, counted across *names*) raise, once."""
    calls = itertools.count()
    fired = []

    def wrap(original):
        def wrapper(*args, **kwargs):
            if not fired and next(calls) == nth:
                fired.append(True)
                raise RuntimeError("injected failure")
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    return fired


CHUNK = 8
WRITE_FAILURES = [
    (entry, stage)
    for entry, stages in (
        ("add_document", ("annotate", "wal", "apply_first")),
        ("add_document_pipelined", ("annotate", "wal", "apply_first")),
        ("add_documents", ("annotate", "wal", "apply_first", "apply_later")),
        ("remove_document", ("wal", "apply_first")),
        ("add_annotated_document", ("wal", "apply_first")),
    )
    for stage in stages
]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("entry,stage", WRITE_FAILURES)
def test_failed_write_is_undone_everywhere(
    tmp_path, monkeypatch, pipeline, listen_ready, entry, stage, shards
):
    """After a write dies in any stage, the routing table, the shards, the
    query results, a crash-copy reopen and a TCP replica all agree with a
    fresh engine over the surviving documents — and the same ids retry."""
    path = tmp_path / "svc"
    service = KokoService(
        shards=shards, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    shipper = replica = None
    try:
        surviving = {
            f"seed{index}": service.add_document(text, f"seed{index}")
            for index, text in enumerate(BASE_TEXTS[:4])
        }
        victims = [f"victim{index}" for index in range(CHUNK)]
        base = service.reserve_sids(
            len(pipeline.tokenizer.split_sentences(BASE_TEXTS[4]))
        )

        def write() -> dict:
            """Run the entry point; returns how the survivors change."""
            if entry == "add_document":
                doc = service.add_document(BASE_TEXTS[4], "victim0", first_sid=base)
            elif entry == "add_document_pipelined":
                doc = service.add_document(
                    BASE_TEXTS[4], "victim0", first_sid=base, wait_durable=False
                ).wait_durable()
            elif entry == "add_documents":
                docs = service.add_documents(TEXTS[:CHUNK], victims, batch_size=CHUNK)
                return {d.doc_id: d for d in docs}
            elif entry == "remove_document":
                return {service.remove_document("seed1").doc_id: None}
            else:
                doc = service.add_annotated_document(
                    pipeline.annotate(
                        BASE_TEXTS[4], doc_id="victim0", first_sid=service.next_sid()
                    )
                )
            return {doc.doc_id: doc}

        ops = CHUNK if entry == "add_documents" else 1
        owner, names, nth = {
            "annotate": (Pipeline, ["annotate"], ops - 1),
            "wal": (WriteAheadLog, ["append", "append_pipelined"], ops // 2),
            "apply_first": (_Shard, ["splice", "unsplice"], 0),
            "apply_later": (_Shard, ["splice", "unsplice"], ops - 1),
        }[stage]

        def check(node) -> None:
            documents = sorted(surviving.values(), key=lambda d: d.sentences[0].sid)
            engine = KokoEngine(Corpus(name="reference", documents=documents))
            assert sorted(node.document_ids()) == sorted(surviving)
            for query in (ENTITY_QUERY, ALL_ENTITIES_QUERY):
                assert as_rows(node.query(query)) == as_rows(engine.execute(query))

        with monkeypatch.context() as patched:
            fired = _fail_nth_call(patched, owner, names, nth)
            with pytest.raises(RuntimeError, match="injected failure"):
                write()
            assert fired
        held = [d.doc_id for corpus in service.corpora for d in corpus.documents]
        assert sorted(held) == sorted(surviving)
        assert service.inflight_ingest_bytes == 0
        check(service)
        shutil.copytree(path, tmp_path / "crashed")
        with KokoService.open(tmp_path / "crashed") as reopened:
            check(reopened)
        shipper = LogShipper(service)
        host, port = listen_ready(*shipper.listen())
        replica = ReplicaService(connect_tcp(host, port), name="follower")
        assert replica.wait_caught_up(service.wal_position())
        check(replica)

        # the retry consumes the same ids (and the restored sid reservation)
        for doc_id, document in write().items():
            if document is None:
                del surviving[doc_id]
            else:
                surviving[doc_id] = document
        if entry.startswith("add_document") and entry != "add_documents":
            assert surviving["victim0"].sentences[0].sid == base
        check(service)
        assert replica.wait_caught_up(service.wal_position())
        check(replica)
    finally:
        if replica is not None:
            replica.close()
        if shipper is not None:
            shipper.close()
        service.close()


def test_close_drains_inflight_staged_ingest(tmp_path):
    """close() waits for a claimed ingest to finish instead of closing the
    WAL underneath it."""
    service = KokoService(
        storage_dir=tmp_path / "svc",
        checkpoint_policy=CheckpointPolicy.disabled(),
    )
    release = threading.Event()
    entered = threading.Event()

    class SlowPipeline(Pipeline):
        def annotate(self, *args, **kwargs):
            entered.set()
            assert release.wait(5.0)
            return super().annotate(*args, **kwargs)

    service.pipeline = SlowPipeline()
    outcome: list[object] = []

    def writer() -> None:
        try:
            outcome.append(service.add_document(BASE_TEXTS[0], "slow"))
        except BaseException as exc:  # pragma: no cover - asserted below
            outcome.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    assert entered.wait(5.0)
    closer = threading.Thread(target=service.close)
    closer.start()
    release.set()
    thread.join()
    closer.join()
    assert not isinstance(outcome[0], BaseException)
    reopened = KokoService.open(tmp_path / "svc")
    try:
        assert reopened.document_ids() == ["slow"]
    finally:
        reopened.close()


def test_aborted_ingest_restores_consumed_reservation():
    """A transient failure after the claim gives the planned sid range back."""
    with KokoService() as service:
        base = service.reserve_sids(1)
        blowups = [RuntimeError("annotation worker died")]

        class FlakyPipeline(Pipeline):
            def annotate(self, *args, **kwargs):
                if blowups:
                    raise blowups.pop()
                return super().annotate(*args, **kwargs)

        service.pipeline = FlakyPipeline()
        with pytest.raises(RuntimeError):
            service.add_document("Anna ate a pie.", "doc0", first_sid=base)
        # the retry consumes the restored reservation deterministically
        document = service.add_document("Anna ate a pie.", "doc0", first_sid=base)
        assert document.sentences[0].sid == base


def test_failed_pre_annotated_add_retries_with_the_same_sids(
    tmp_path, monkeypatch, pipeline
):
    """A pre-annotated add that dies in its splice hands its sid span back,
    so the very same document retries (it used to fail with "neither a
    reserved range nor fresh" and needed re-annotating)."""
    path = tmp_path / "svc"
    with KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    ) as service:
        service.add_document(BASE_TEXTS[0], "doc0")
        document = pipeline.annotate(
            BASE_TEXTS[4], doc_id="pre", first_sid=service.next_sid()
        )
        sids = [sentence.sid for sentence in document]
        with monkeypatch.context() as patched:
            _fail_nth_call(patched, _Shard, ["splice"], 0)
            with pytest.raises(RuntimeError, match="injected failure"):
                service.add_annotated_document(document)
        # a raw add in between takes fresh sids past the handed-back span
        later = service.add_document(BASE_TEXTS[1], "doc1")
        assert later.sentences[0].sid > sids[-1]
        assert service.add_annotated_document(document) is document
        shard = service.corpora[service.shard_of("pre")]
        assert [s.sid for s in shard.documents[-1]] == sids
        expected = as_rows(service.query(ENTITY_QUERY))
    with KokoService.open(path) as reopened:  # the log replays add, remove, add
        assert as_rows(reopened.query(ENTITY_QUERY)) == expected


def test_concurrent_writers_annotate_together_and_share_fsyncs(
    tmp_path, monkeypatch, run_threads
):
    """Why concurrent ingest scales: four writers are inside annotation at
    once (a four-party barrier in ``annotate`` would time out otherwise),
    and their WAL records share fsyncs — fewer flushes than records."""
    import repro.persistence.wal as wal_module

    together = threading.Barrier(4, timeout=10.0)

    class MeetingPipeline(Pipeline):
        def annotate(self, *args, **kwargs):
            together.wait()
            return super().annotate(*args, **kwargs)

    real_fsync = wal_module.os.fsync

    def slow_fsync(fd):
        time.sleep(0.003)
        real_fsync(fd)

    monkeypatch.setattr(wal_module.os, "fsync", slow_fsync)
    with KokoService(
        shards=4,
        storage_dir=tmp_path / "svc",
        checkpoint_policy=CheckpointPolicy.disabled(),
        pipeline=MeetingPipeline(),
        sync_interval=0.002,
    ) as service:
        def work(index: int) -> None:
            for n in range(3):
                service.add_document(TEXTS[index * 3 + n], f"w{index}-{n}")

        run_threads(4, work)
        assert len(service) == 12
        assert service.metrics.get("koko_wal_records_synced_total").value == 12
        assert service.metrics.get("koko_wal_fsyncs_total").value < 12


def test_queries_are_served_while_a_write_annotates_or_fsyncs(tmp_path, monkeypatch):
    """Readers never wait for a writer's annotation or WAL flush on the
    same shard: only the splice takes the shard's write lock."""
    import repro.persistence.wal as wal_module

    service = KokoService(
        shards=1, storage_dir=tmp_path / "svc", checkpoint_policy=CheckpointPolicy.disabled()
    )
    try:
        service.add_document(BASE_TEXTS[1], "doc0")
        expected = as_rows(service.query(ENTITY_QUERY))
        for owner, name in ((Pipeline, "annotate"), (wal_module.os, "fsync")):
            parked, release = threading.Event(), threading.Event()
            original = getattr(owner, name)

            def parking(*args, original=original, parked=parked, release=release, **kw):
                parked.set()
                assert release.wait(10.0)
                return original(*args, **kw)

            with monkeypatch.context() as patched:
                patched.setattr(owner, name, parking)
                writer = threading.Thread(
                    target=service.add_document, args=(BASE_TEXTS[3], f"w-{name}")
                )
                writer.start()
                try:
                    assert parked.wait(10.0)
                    # a compiled plan skips the result cache: a real shard read
                    assert as_rows(service.query(compile_query(ENTITY_QUERY))) == expected
                finally:
                    release.set()
                    writer.join(10.0)
            expected = as_rows(service.query(ENTITY_QUERY))
        assert sorted(service.document_ids()) == ["doc0", "w-annotate", "w-fsync"]
    finally:
        service.close()


def test_undersized_reservation_is_rejected_but_kept():
    with KokoService() as service:
        base = service.reserve_sids(1)
        two_sentence = "Anna ate a pie. Paolo ate a croissant."
        with pytest.raises(ServiceError, match="reserved 1 ids"):
            service.add_document(two_sentence, "doc0", first_sid=base)
        # the reservation survives the failed attempt and still works for
        # a document it can hold
        service.add_document("Anna ate a pie.", "doc0", first_sid=base)
        assert service.document_ids() == ["doc0"]
