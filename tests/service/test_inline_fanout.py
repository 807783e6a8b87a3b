"""The read path runs a query's shard slices on the request thread.

The stage pipeline is GIL-bound, so a per-query shard thread pool only
bought context switches.  These tests pin the replacement: one plain loop,
on the caller's thread, for every shard count, on primaries and replicas —
with the trace tree, deadlines and tuple identity it had before.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeadlineExceeded
from repro.koko import stages
from repro.koko.engine import KokoEngine
from repro.nlp.types import Corpus
from repro.replication import InProcessTransport, LogShipper, ReplicaService
from repro.service import KokoService

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
    """Record ``threading.get_ident()`` in every shard slice and stage run."""
    seen: list[tuple[str, int]] = []

    def spied(label, original):
        def wrapper(self, *args, **kwargs):
            seen.append((label, threading.get_ident()))
            return original(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        KokoService, "_execute_shard", spied("shard", KokoService._execute_shard)
    )
    for stage in stages.DEFAULT_STAGES:
        cls = type(stage)
        monkeypatch.setattr(cls, "run", spied(cls.name, cls.run))
    return seen


def assert_all_on_this_thread(seen, shards: int) -> None:
    labels = [label for label, _ in seen]
    assert labels.count("shard") == shards
    for stage in stages.DEFAULT_STAGES:
        assert labels.count(stage.name) == shards
    assert {ident for _, ident in seen} == {threading.get_ident()}


def test_every_shard_slice_and_stage_runs_on_the_calling_thread(thread_spy):
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        thread_spy.clear()
        result = service.query(ENTITY_QUERY)
        assert len(result) > 0
        assert_all_on_this_thread(thread_spy, shards=4)
        assert shard_threads() == []
    assert shard_threads() == []


def test_replica_queries_run_on_the_calling_thread_too(tmp_path, thread_spy):
    with KokoService(shards=4, storage_dir=tmp_path / "svc") as primary:
        for index, text in enumerate(TEXTS):
            primary.add_document(text, f"doc{index}")
        shipper = LogShipper(primary)
        primary_end, replica_end = InProcessTransport.pair()
        shipper.serve(primary_end)
        replica = ReplicaService(replica_end)
        try:
            assert replica.wait_caught_up(primary.wal_position())
            thread_spy.clear()
            rows = as_rows(replica.query(ENTITY_QUERY))
            assert_all_on_this_thread(thread_spy, shards=4)
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
        explained = service.query(CITY_QUERY, explain=True)
        fanout = explained.trace.find("shard_fanout")
        assert fanout.attributes["shards"] == shards
        assert [child.name for child in fanout.children] == [
            f"shard{i}" for i in range(shards)
        ]
        assert explained.trace.find("merge") is not None
        assert as_rows(explained) == as_rows(service.query(CITY_QUERY))


def test_deadline_expiring_after_the_first_shard_stops_the_rest(monkeypatch):
    with KokoService(shards=4) as service:
        mirror = [service.add_document(text, f"doc{i}") for i, text in enumerate(TEXTS)]
        ran: list[int] = []
        execute = KokoEngine.execute
        deadline = time.monotonic() + 60.0

        def slow_first(self, *args, **kwargs):
            ran.append(1)
            result = execute(self, *args, **kwargs)
            # the budget runs out while the first shard is being scanned
            monkeypatch.setattr(time, "monotonic", lambda: deadline + 1.0)
            return result

        monkeypatch.setattr(KokoEngine, "execute", slow_first)
        with pytest.raises(DeadlineExceeded):
            service.query(ENTITY_QUERY, deadline=deadline)
        assert ran == [1]
        monkeypatch.undo()
        # the abandoned query cached nothing it could not finish
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
