"""The read path runs one pipeline pass per query, on the request thread.

The stage pipeline is GIL-bound, so neither a per-query shard thread pool
nor one pipeline run per shard bought anything but overhead.  These tests
pin the replacement: the shards a query has to compute are read-locked in
shard-id order and every stage runs once over their union, on the
caller's thread, for every shard count, on primaries and replicas — with
the trace tree, deadlines and tuple identity it had before.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import DeadlineExceeded
from repro.koko import stages
from repro.koko.engine import KokoEngine
from repro.nlp.types import Corpus
from repro.replication import LogShipper, ReplicaService, TcpTransport
from repro.service import KokoService
from repro.service.locks import ReadWriteLock
from repro.service.read import ReadPath

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
CITY_QUERY = (
    'extract a:GPE from "input.txt" if () satisfying a '
    '(a SimilarTo "city" {1.0}) with threshold 0.3'
)

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
    "The barista in Osaka served a delicious espresso.",
]


def as_rows(result):
    return [(t.doc_id, t.sid, t.values, t.scores) for t in result]


def shard_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("koko-shard")]


@pytest.fixture
def thread_spy(monkeypatch):
    """Record ``threading.get_ident()`` in every pipeline pass and stage run."""
    seen: list[tuple[str, int]] = []

    def spied(label, original):
        def wrapper(self, *args, **kwargs):
            seen.append((label, threading.get_ident()))
            return original(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(ReadPath, "_run_pass", spied("pass", ReadPath._run_pass))
    for stage in stages.DEFAULT_STAGES:
        cls = type(stage)
        monkeypatch.setattr(cls, "run", spied(cls.name, cls.run))
    return seen


def assert_one_pass_on_this_thread(seen) -> None:
    labels = [label for label, _ in seen]
    assert labels.count("pass") == 1
    for stage in stages.DEFAULT_STAGES:
        assert labels.count(stage.name) == 1
    assert {ident for _, ident in seen} == {threading.get_ident()}


def test_one_pass_and_each_stage_run_once_on_the_calling_thread(thread_spy):
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        assert len({service.shard_of(f"doc{i}") for i in range(len(TEXTS))}) > 1
        thread_spy.clear()
        result = service.query(ENTITY_QUERY)
        assert len(result) > 0
        assert_one_pass_on_this_thread(thread_spy)
        assert shard_threads() == []
    assert shard_threads() == []


def test_replica_queries_run_on_the_calling_thread_too(tmp_path, thread_spy):
    with KokoService(shards=4, storage_dir=tmp_path / "svc") as primary:
        for index, text in enumerate(TEXTS):
            primary.add_document(text, f"doc{index}")
        shipper = LogShipper(primary)
        primary_end, replica_end = map(TcpTransport, socket.socketpair())
        shipper.serve(primary_end)
        replica = ReplicaService(replica_end)
        try:
            assert replica.wait_caught_up(primary.wal_position())
            thread_spy.clear()
            rows = as_rows(replica.query(ENTITY_QUERY))
            assert_one_pass_on_this_thread(thread_spy)
            assert rows == as_rows(primary.query(ENTITY_QUERY))
            assert shard_threads() == []
        finally:
            replica.close()
            shipper.close()
    assert shard_threads() == []


@pytest.mark.parametrize("shards", [1, 4])
def test_explain_lists_the_shards_in_order_under_the_fanout(shards):
    with KokoService(shards=shards) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        service.query(CITY_QUERY)  # warm partials: explain must not use them
        explained = service.query(CITY_QUERY, explain=True)
        fanout = explained.trace.find("shard_fanout")
        assert fanout.attributes == {
            "shards": shards, "executed": shards, "reused": 0, "patched": 0
        }
        assert [child.name for child in fanout.children] == ["pass"]
        one_pass = fanout.children[0]
        assert one_pass.attributes["shard_ids"] == list(range(shards))
        assert [child.name for child in one_pass.children] == [
            stage.name for stage in stages.DEFAULT_STAGES
        ]
        assert explained.trace.find("merge") is not None
        assert as_rows(explained) == as_rows(service.query(CITY_QUERY))


def test_a_pass_read_locks_exactly_its_shards_in_shard_order(monkeypatch):
    with KokoService(shards=4, trace_sample_rate=0.0) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        shard_of_lock = {id(shard.lock): shard.shard_id for shard in service._shards}
        taken: list[int] = []
        passes: list[list[int]] = []
        acquire, run_pass = ReadWriteLock.acquire_read, ReadPath._run_pass

        def spied(lock):
            taken.append(shard_of_lock[id(lock)])
            return acquire(lock)

        def spied_pass(self, shard_ids, *args, **kwargs):
            passes.append(list(shard_ids))
            return run_pass(self, shard_ids, *args, **kwargs)

        monkeypatch.setattr(ReadWriteLock, "acquire_read", spied)
        monkeypatch.setattr(ReadPath, "_run_pass", spied_pass)
        patched = service.metrics.get("koko_shard_partials_patched_total")
        service.query(ENTITY_QUERY)
        assert taken == [0, 1, 2, 3]
        assert passes == [[0, 1, 2, 3]]
        # two writes to two shards: a repeat locks just those two, in order,
        # and patches both parts in one pass over the two new documents
        written = sorted({service.shard_of("late-a"), service.shard_of("late-z")})
        service.add_document("Anna ate a delicious pie in Osaka.", "late-a")
        service.add_document("Paolo ate a delicious tart in Kyoto.", "late-z")
        taken.clear()
        service.query(ENTITY_QUERY)
        assert taken == written
        assert passes[1:] == [written]
        assert patched.value == len(written)
        # a removal: its shard is still read-locked once, but runs no pass
        service.remove_document("late-a")
        taken.clear()
        service.query(ENTITY_QUERY)
        assert taken == [service.shard_of("late-a")]
        assert passes[2:] == []
        assert patched.value == len(written) + 1


def test_deadline_expiring_during_a_stage_stops_the_rest_of_the_pass(monkeypatch):
    with KokoService(shards=4) as service:
        mirror = [service.add_document(text, f"doc{i}") for i, text in enumerate(TEXTS)]
        ran: list[str] = []
        deadline = time.monotonic() + 60.0
        for stage in stages.DEFAULT_STAGES:
            cls, original = type(stage), type(stage).run

            def spied(self, ctx, _original=original):
                ran.append(self.name)
                _original(self, ctx)
                if self.name == "dpli":
                    # the budget runs out while DPLI is running
                    monkeypatch.setattr(time, "monotonic", lambda: deadline + 1.0)

            monkeypatch.setattr(cls, "run", spied)
        with pytest.raises(DeadlineExceeded):
            service.query(ENTITY_QUERY, deadline=deadline)
        assert ran == ["normalize", "dpli"]  # load, extract, aggregate never start
        monkeypatch.undo()
        computed = service.metrics.get("koko_shard_partials_computed_total")
        assert computed.value == 0  # the abandoned pass cached nothing
        reference = KokoEngine(Corpus(name="reference", documents=mirror))
        assert as_rows(service.query(ENTITY_QUERY)) == as_rows(
            reference.execute(ENTITY_QUERY)
        )


def test_concurrent_readers_beside_a_writer_stay_engine_identical():
    with KokoService(shards=4) as service:
        mirror = [service.add_document(text, f"seed{i}") for i, text in enumerate(TEXTS)]
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader(query):
            while not stop.is_set():
                try:
                    service.query(query)
                except BaseException as exc:  # surfaced below
                    errors.append(exc)
                    return

        readers = [
            threading.Thread(target=reader, args=(query,))
            for query in (ENTITY_QUERY, CITY_QUERY)
        ]
        for thread in readers:
            thread.start()
        try:
            for index in range(12):
                mirror.append(
                    service.add_document(
                        f"Anna ate a delicious pie number {index} in Osaka.", f"extra{index}"
                    )
                )
            removed = service.remove_document("extra3")
            mirror = [d for d in mirror if d.doc_id != removed.doc_id]
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        assert shard_threads() == []
        engine = KokoEngine(Corpus(name="reference", documents=mirror))
        for query in (ENTITY_QUERY, CITY_QUERY):
            assert as_rows(service.query(query)) == as_rows(engine.execute(query))
