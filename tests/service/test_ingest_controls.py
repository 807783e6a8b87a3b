"""Staged removes, ingest backpressure and per-shard cache counters."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceError
from repro.nlp.pipeline import Pipeline
from repro.persistence import CheckpointPolicy, WriteAheadLog
from repro.service import KokoService
from repro.service.service import _Shard

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
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


# ----------------------------------------------------------------------
# staged removes: claim -> log off-lock -> apply
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4])
def test_concurrent_staged_removes_and_adds_stay_consistent(
    tmp_path, shards, run_threads
):
    service = KokoService(shards=shards, storage_dir=tmp_path / "svc")
    for index, text in enumerate(TEXTS):
        service.add_document(text, f"doc{index}")

    def work(thread_index: int) -> None:
        if thread_index < 3:
            service.remove_document(f"doc{thread_index}")
        else:
            service.add_document(TEXTS[thread_index], f"extra{thread_index}")

    run_threads(6, work)
    expected_ids = sorted(
        [f"doc{i}" for i in range(3, 6)] + [f"extra{i}" for i in range(3, 6)]
    )
    assert sorted(service.document_ids()) == expected_ids
    expected = as_rows(service.query(ENTITY_QUERY))
    service.close()

    reopened = KokoService.open(tmp_path / "svc")
    try:
        assert sorted(reopened.document_ids()) == expected_ids
        assert as_rows(reopened.query(ENTITY_QUERY)) == expected
    finally:
        reopened.close()


def test_staged_remove_is_durable_before_visible(tmp_path):
    """A remove survives a crash that strikes right after the call returns:
    the record was fsynced off-lock before the un-splice."""
    service = KokoService(
        shards=2,
        storage_dir=tmp_path / "svc",
        checkpoint_policy=CheckpointPolicy.disabled(),
    )
    for index, text in enumerate(TEXTS[:3]):
        service.add_document(text, f"doc{index}")
    service.remove_document("doc1")
    expected = as_rows(service.query(ENTITY_QUERY))
    del service  # crash: no close, no checkpoint — the WAL is everything

    recovered = KokoService.open(tmp_path / "svc")
    try:
        assert sorted(recovered.document_ids()) == ["doc0", "doc2"]
        assert as_rows(recovered.query(ENTITY_QUERY)) == expected
    finally:
        recovered.close()


def test_remove_conflicts_are_rejected():
    with KokoService(shards=2) as service:
        service.add_document(TEXTS[0], "doc0")
        with pytest.raises(ServiceError, match="unknown"):
            service.remove_document("ghost")
        service.remove_document("doc0")
        with pytest.raises(ServiceError, match="unknown"):
            service.remove_document("doc0")


PARKABLE_STAGES = {
    "annotate": (Pipeline, ["annotate"]),
    "log": (WriteAheadLog, ["append", "append_pipelined"]),
    "apply": (_Shard, ["splice", "unsplice"]),
}


@pytest.mark.parametrize(
    "entry,stage",
    [
        (entry, stage)
        for entry, stages in (
            ("add_document", ("annotate", "log", "apply")),
            ("add_document_pipelined", ("annotate", "log", "apply")),
            ("add_documents", ("annotate", "log", "apply")),
            ("remove_document", ("log", "apply")),
            ("add_annotated_document", ("log", "apply")),
        )
        for stage in stages
    ],
)
def test_no_write_holds_the_meta_lock_off_its_claim_and_commit(
    tmp_path, monkeypatch, pipeline, entry, stage
):
    """While any entry point is parked inside annotation, the WAL append
    (however long its group commit lingers) or a shard write lock, an
    unrelated metadata operation — a sid reservation — goes through."""
    service = KokoService(
        shards=2,
        storage_dir=tmp_path / "svc",
        checkpoint_policy=CheckpointPolicy.disabled(),
    )
    parked, release = threading.Event(), threading.Event()
    try:
        service.add_document(TEXTS[0], "doc0")
        annotated = pipeline.annotate(
            TEXTS[1], doc_id="pre", first_sid=service.next_sid()
        )
        write = {
            "add_document": lambda: service.add_document(TEXTS[1], "new"),
            "add_document_pipelined": lambda: service.add_document(
                TEXTS[1], "new", wait_durable=False
            ),
            "add_documents": lambda: service.add_documents(TEXTS[1:4]),
            "remove_document": lambda: service.remove_document("doc0"),
            "add_annotated_document": lambda: service.add_annotated_document(
                annotated
            ),
        }[entry]

        def park_then(original):
            def wrapper(*args, **kwargs):
                parked.set()
                assert release.wait(10.0)
                return original(*args, **kwargs)

            return wrapper

        owner, names = PARKABLE_STAGES[stage]
        for name in names:
            monkeypatch.setattr(owner, name, park_then(getattr(owner, name)))
        writer = threading.Thread(target=write)
        writer.start()
        assert parked.wait(10.0)
        reserver = threading.Thread(target=service.reserve_sids, args=(1,))
        reserver.start()
        reserver.join(2.0)
        held = reserver.is_alive()
        release.set()
        writer.join(10.0)
        reserver.join(10.0)
        assert not held, f"{entry} held the meta lock through its {stage} stage"
    finally:
        release.set()
        service.close()


def test_remove_of_mid_ingest_document_still_raises():
    class SlowPipeline(Pipeline):
        def annotate(self, *args, **kwargs):
            time.sleep(0.15)
            return super().annotate(*args, **kwargs)

    with KokoService(shards=1, pipeline=SlowPipeline()) as service:
        adder = threading.Thread(
            target=service.add_document, args=(TEXTS[0], "doc0")
        )
        adder.start()
        time.sleep(0.05)  # the add is annotating: claimed but not committed
        with pytest.raises(ServiceError, match="still being ingested"):
            service.remove_document("doc0")
        adder.join()
        service.remove_document("doc0")  # fine once committed


# ----------------------------------------------------------------------
# backpressure: max_inflight_ingest_bytes
# ----------------------------------------------------------------------
def test_backpressure_blocks_runaway_producers_and_drains(run_threads):
    class SlowPipeline(Pipeline):
        def annotate(self, *args, **kwargs):
            time.sleep(0.05)
            return super().annotate(*args, **kwargs)

    bound = len(TEXTS[0].encode()) + 10  # roughly one document in flight
    with KokoService(
        shards=2, pipeline=SlowPipeline(), max_inflight_ingest_bytes=bound
    ) as service:

        def work(index: int) -> None:
            service.add_document(TEXTS[index], f"doc{index}")

        run_threads(4, work)
        assert len(service) == 4
        assert service.inflight_ingest_bytes == 0  # fully drained
        assert service.stats.ingest_backpressure_waits > 0
        assert service.stats.snapshot()["ingest_backpressure_waits"] > 0


def test_oversized_document_is_admitted_alone():
    with KokoService(shards=1, max_inflight_ingest_bytes=8) as service:
        document = service.add_document(TEXTS[0], "huge")  # > bound, no deadlock
        assert document.doc_id == "huge"
        assert service.inflight_ingest_bytes == 0


def test_backpressure_rejects_nonpositive_bound():
    with pytest.raises(ServiceError, match="max_inflight_ingest_bytes"):
        KokoService(max_inflight_ingest_bytes=0)


def test_backpressure_admission_is_fifo_no_overtaking():
    """A large document blocked on the byte budget must not be overtaken
    by smaller claims arriving behind it — without FIFO ordering it could
    starve forever behind a stream of small admitted documents."""
    release = threading.Event()

    class GatedPipeline(Pipeline):
        def annotate(self, text, **kwargs):
            if kwargs.get("doc_id") == "holder":
                release.wait(10.0)  # keep the budget occupied
            return super().annotate(text, **kwargs)

    holder, big, small = TEXTS[0], TEXTS[1], TEXTS[2]
    holder_bytes = len(holder.encode())
    assert len(big.encode()) > len(small.encode()) + 1
    bound = holder_bytes + len(small.encode()) + 1  # small fits, big does not
    service = KokoService(
        shards=1, pipeline=GatedPipeline(), max_inflight_ingest_bytes=bound
    )
    threads = []
    try:
        threads.append(
            threading.Thread(target=service.add_document, args=(holder, "holder"))
        )
        threads[-1].start()
        deadline = time.monotonic() + 5.0
        while (
            service.inflight_ingest_bytes < holder_bytes
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)

        threads.append(
            threading.Thread(target=service.add_document, args=(big, "big"))
        )
        threads[-1].start()  # blocks: holder + big exceeds the bound
        while (
            service.stats.ingest_backpressure_waits < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)

        threads.append(
            threading.Thread(target=service.add_document, args=(small, "small"))
        )
        threads[-1].start()  # fits the headroom, but must queue behind big
        time.sleep(0.2)
        assert "small" not in service.document_ids()  # no overtaking
    finally:
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
    try:
        assert sorted(service.document_ids()) == ["big", "holder", "small"]
        assert service.inflight_ingest_bytes == 0
    finally:
        service.close()


def test_stale_cache_entry_is_counted_exactly_once():
    """Racing (or repeated) lookups of one stale entry must record one
    stale eviction, not one per looker."""
    from repro.service.cache import ResultCache

    evictions = []
    cache = ResultCache(capacity=4, on_evict=evictions.append)
    cache.put("q", 1, "value")
    assert cache.get("q", 2) is None  # stale: evicted and counted
    assert cache.get("q", 2) is None  # already gone: plain miss
    assert evictions == [True]


# ----------------------------------------------------------------------
# per-shard result-cache counters
# ----------------------------------------------------------------------
def test_per_shard_cache_counters_track_hits_misses_and_stale_evictions():
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS[:4]):
            service.add_document(text, f"doc{index}")
        service.query(ENTITY_QUERY)  # 4 partial misses (computed)
        target = service.shard_of(service.add_document(TEXTS[4], "docX").doc_id)
        service.query(ENTITY_QUERY)  # 3 reused, 1 recomputed (stale evicted)

        breakdown = service.stats.shard_cache_breakdown()
        assert sum(b["misses"] for b in breakdown.values()) == 5
        assert sum(b["hits"] for b in breakdown.values()) == 3
        assert breakdown[target]["stale_evictions"] == 1
        assert breakdown[target]["misses"] == 2
        for shard, counters in breakdown.items():
            if shard != target:
                assert counters["stale_evictions"] == 0
        snapshot = service.stats.snapshot()
        assert snapshot["per_shard_result_cache"] == breakdown


def test_per_shard_cache_lru_evictions_are_counted():
    with KokoService(shards=2, result_cache_size=1) as service:
        for index, text in enumerate(TEXTS[:2]):
            service.add_document(text, f"doc{index}")
        queries = [ENTITY_QUERY, ENTITY_QUERY + " "]  # two distinct cache keys
        for query in queries:
            service.query(query)
        for query in queries:  # each re-execution evicts the other's entry
            service.query(query)
        breakdown = service.stats.shard_cache_breakdown()
        assert sum(b["lru_evictions"] for b in breakdown.values()) > 0


def test_full_result_cache_evictions_are_counted():
    with KokoService(shards=1, result_cache_size=1) as service:
        service.add_document(TEXTS[0], "doc0")
        service.query(ENTITY_QUERY)
        service.add_document(TEXTS[1], "doc1")  # bumps the generation
        service.query(ENTITY_QUERY)  # stale entry evicted on sight
        assert service.stats.result_cache_stale_evictions == 1
        service.query(ENTITY_QUERY + " ")  # overflows capacity 1
        assert service.stats.result_cache_lru_evictions >= 1
