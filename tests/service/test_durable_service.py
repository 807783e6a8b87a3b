"""Durable KokoService: warm restart, crash recovery, checkpoints, stamps.

The acceptance property: ``KokoService.open(path)`` after ``close()`` — and
after a simulated crash with a torn WAL tail — yields tuple-for-tuple
identical query results to the original live service, with **zero**
re-annotation on the warm path.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import PersistenceError, ServiceError
from repro.persistence import CheckpointPolicy, StorageLayout
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


class ExplodingPipeline:
    """A pipeline stand-in proving the warm path never re-annotates."""

    def annotate(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("warm restart must not re-run NLP annotation")


def populated_service(path, shards, texts=TEXTS):
    service = KokoService(shards=shards, storage_dir=path)
    for index, text in enumerate(texts):
        service.add_document(text, f"doc{index}")
    return service


# ----------------------------------------------------------------------
# warm restart after a clean close (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4])
def test_reopen_after_close_is_tuple_identical(tmp_path, shards):
    service = populated_service(tmp_path / "svc", shards)
    service.remove_document("doc2")
    expected = {q: as_rows(service.query(q)) for q in (ENTITY_QUERY, CITY_QUERY)}
    expected_len = len(service)
    expected_generations = service.generations
    expected_sid = service.next_sid()
    service.close()

    reopened = KokoService.open(tmp_path / "svc", pipeline=ExplodingPipeline())
    try:
        assert reopened.shard_count == shards
        assert len(reopened) == expected_len
        assert reopened.generations == expected_generations
        assert reopened.next_sid() == expected_sid
        for query, rows in expected.items():
            assert as_rows(reopened.query(query)) == rows
            assert as_rows(
                reopened.query(query, threshold_override=0.0, keep_all_scores=True)
            ) == as_rows(
                reopened.query(query, threshold_override=0.0, keep_all_scores=True)
            )
        # clean close folded everything into the snapshot: nothing replayed
        assert reopened.stats.replayed_wal_records == 0
        assert not reopened.stats.recovered_torn_tail
        assert reopened.stats.recovered_documents == expected_len
    finally:
        reopened.close()


def test_reopened_service_keeps_serving_and_ingesting(tmp_path):
    service = populated_service(tmp_path / "svc", 4, TEXTS[:4])
    service.close()

    reopened = KokoService.open(tmp_path / "svc")
    reopened.add_document(TEXTS[4], "doc4")
    reopened.remove_document("doc0")
    expected = as_rows(reopened.query(ENTITY_QUERY))
    reopened.close()

    third = KokoService.open(tmp_path / "svc", pipeline=ExplodingPipeline())
    try:
        assert as_rows(third.query(ENTITY_QUERY)) == expected
        assert sorted(third.document_ids()) == ["doc1", "doc2", "doc3", "doc4"]
    finally:
        third.close()


# ----------------------------------------------------------------------
# crash recovery (kill-point: torn WAL tail)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4])
def test_crash_with_torn_wal_tail_recovers_durable_prefix(tmp_path, shards):
    path = tmp_path / "svc"
    # disable auto-checkpointing so every ingest lives only in the WAL
    service = KokoService(
        shards=shards, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    for index, text in enumerate(TEXTS):
        service.add_document(text, f"doc{index}")

    # reference: the state without the final (about-to-be-torn) document
    reference = KokoService(shards=shards)
    for index, text in enumerate(TEXTS[:-1]):
        reference.add_document(text, f"doc{index}")
    expected = as_rows(reference.query(ENTITY_QUERY))
    reference.close()

    # simulated crash: no close(); tear the last WAL record mid-payload
    layout = StorageLayout(path)
    segment = layout.wal_path(layout.wal_segment_ids()[-1])
    with segment.open("r+b") as handle:
        handle.truncate(segment.stat().st_size - 11)
    del service

    recovered = KokoService.open(path, pipeline=ExplodingPipeline())
    try:
        assert recovered.stats.recovered_torn_tail
        assert recovered.stats.replayed_wal_records == len(TEXTS) - 1
        assert len(recovered) == len(TEXTS) - 1
        assert as_rows(recovered.query(ENTITY_QUERY)) == expected
    finally:
        recovered.close()


def test_crash_recovery_replays_on_top_of_latest_checkpoint(tmp_path):
    path = tmp_path / "svc"
    service = KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    for index, text in enumerate(TEXTS[:3]):
        service.add_document(text, f"doc{index}")
    assert service.checkpoint() is not None  # snapshot covers doc0..doc2
    service.add_document(TEXTS[3], "doc3")  # WAL-tail only
    service.remove_document("doc1")  # WAL-tail only
    expected = as_rows(service.query(ENTITY_QUERY))
    expected_ids = sorted(service.document_ids())
    del service  # crash: neither close nor another checkpoint

    recovered = KokoService.open(path, pipeline=ExplodingPipeline())
    try:
        assert sorted(recovered.document_ids()) == expected_ids
        assert recovered.stats.replayed_wal_records == 2
        assert as_rows(recovered.query(ENTITY_QUERY)) == expected
    finally:
        recovered.close()


def test_recovery_survives_a_corrupt_latest_snapshot(tmp_path):
    """A crash mid-snapshot falls back to the previous checkpoint + WAL."""
    path = tmp_path / "svc"
    service = KokoService(
        shards=1, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    service.add_document(TEXTS[0], "doc0")
    expected = as_rows(service.query(ENTITY_QUERY))
    service.checkpoint()
    del service

    layout = StorageLayout(path)
    latest = layout.snapshot_ids()[-1]
    manifest = json.loads((layout.snapshot_dir(latest) / "manifest.json").read_text())
    # the newest checkpoint's own segment (its predecessor does not share it)
    corpus_file = layout.snapshots_dir / manifest["shards"][0]["segments"][-1]["file"]
    corpus_file.write_bytes(corpus_file.read_bytes()[:-3])  # digest mismatch

    recovered = KokoService.open(path, pipeline=ExplodingPipeline())
    try:
        assert as_rows(recovered.query(ENTITY_QUERY)) == expected
        assert len(recovered) == 1
    finally:
        recovered.close()


# ----------------------------------------------------------------------
# lifecycle: idempotent close, context-managed final checkpoint
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_flushes_a_final_checkpoint(tmp_path):
    path = tmp_path / "svc"
    with KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    ) as service:
        for index, text in enumerate(TEXTS[:3]):
            service.add_document(text, f"doc{index}")
        assert service.checkpoint_id == 0  # nothing folded yet
    # __exit__ flushed the final checkpoint: nothing is left to replay
    # (the sealed segment may be retained as the fallback snapshot's log)
    from repro.persistence import read_records

    layout = StorageLayout(path)
    current = layout.read_current()
    assert current is not None and current > 0
    for segment in layout.wal_segment_ids():
        if segment > current:
            assert read_records(layout.wal_path(segment)).records == []

    service.close()  # second close is a no-op
    service.close()
    with pytest.raises(ServiceError):
        service.add_document("too late", "late")


def test_checkpoint_on_memory_only_service_raises(tmp_path):
    with KokoService() as service:
        with pytest.raises(ServiceError):
            service.checkpoint()
        assert service.storage_dir is None


def test_background_checkpoint_policy_triggers(tmp_path):
    import time

    path = tmp_path / "svc"
    with KokoService(
        shards=1,
        storage_dir=path,
        checkpoint_policy=CheckpointPolicy(min_ops=2, min_bytes=None, min_seconds=None),
        checkpoint_poll_seconds=0.02,
    ) as service:
        service.add_document(TEXTS[0], "doc0")
        service.add_document(TEXTS[1], "doc1")
        deadline = time.monotonic() + 5.0
        while service.checkpoint_id == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.checkpoint_id > 0
        assert service.stats.checkpoints_completed >= 1


def test_explicit_checkpoint_is_a_noop_when_clean(tmp_path):
    with KokoService(shards=1, storage_dir=tmp_path / "svc") as service:
        service.add_document(TEXTS[0], "doc0")
        first = service.checkpoint()
        assert first is not None
        assert service.checkpoint() is None  # nothing new logged


def test_shard_count_conflict_is_rejected(tmp_path):
    path = tmp_path / "svc"
    populated_service(path, 4, TEXTS[:2]).close()
    with pytest.raises(ServiceError, match="shard"):
        KokoService(shards=2, storage_dir=path)
    # unspecified shard count adopts the persisted topology
    reopened = KokoService.open(path)
    try:
        assert reopened.shard_count == 4
    finally:
        reopened.close()


def test_newest_valid_snapshot_wins_over_stale_current_pointer(tmp_path):
    """A crash after the snapshot fsync but before CURRENT moves must not
    resurrect the older checkpoint (nor break subsequent checkpoints)."""
    path = tmp_path / "svc"
    service = KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    service.add_document(TEXTS[0], "doc0")
    sealed = service.checkpoint()
    expected = as_rows(service.query(ENTITY_QUERY))
    del service

    layout = StorageLayout(path)
    layout.write_current(sealed - 1)  # CURRENT update "lost" in the crash

    recovered = KokoService.open(path)
    try:
        assert recovered.stats.replayed_wal_records == 0  # nothing to replay
        assert recovered.checkpoint_id == sealed  # newest valid snapshot won
        assert as_rows(recovered.query(ENTITY_QUERY)) == expected
        recovered.add_document(TEXTS[1], "doc1")
        assert recovered.checkpoint() is not None  # checkpointing still works
    finally:
        recovered.close()


def test_refolding_over_a_corrupt_snapshot_directory_succeeds(tmp_path):
    """Recovery that re-seals an already-materialised checkpoint id must
    replace the (necessarily invalid) leftover directory, not crash."""
    path = tmp_path / "svc"
    service = KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    service.add_document(TEXTS[0], "doc0")
    sealed = service.checkpoint()
    expected = as_rows(service.query(ENTITY_QUERY))
    del service

    layout = StorageLayout(path)
    # corrupt the newest snapshot and drop the rotated (empty) tail segment,
    # as if the crash also lost its dirent — recovery then replays the sealed
    # segment and folds it back into the same checkpoint id
    (layout.snapshot_dir(sealed) / "manifest.json").write_text("{", encoding="utf-8")
    for segment in layout.wal_segment_ids():
        if segment > sealed:
            layout.wal_path(segment).unlink()

    recovered = KokoService.open(path, pipeline=ExplodingPipeline())
    try:
        assert recovered.stats.replayed_wal_records == 1
        assert as_rows(recovered.query(ENTITY_QUERY)) == expected
        assert recovered.checkpoint_id == sealed  # refolded over the wreck
    finally:
        recovered.close()
    reopened = KokoService.open(path, pipeline=ExplodingPipeline())
    try:
        assert as_rows(reopened.query(ENTITY_QUERY)) == expected
    finally:
        reopened.close()


def test_initialised_but_unbootstrapped_directory_gets_bootstrapped(tmp_path):
    """A crash between directory init and the first snapshot self-heals."""
    layout = StorageLayout(tmp_path / "svc")
    layout.initialise()  # simulated crash: skeleton exists, no snapshot, no WAL
    service = KokoService.open(tmp_path / "svc", shards=4)
    try:
        assert layout.read_current() == 0  # bootstrap pinned the topology
    finally:
        service.close()
    reopened = KokoService.open(tmp_path / "svc")
    try:
        assert reopened.shard_count == 4
    finally:
        reopened.close()


def test_wal_sync_false_still_recovers_after_clean_close(tmp_path):
    service = KokoService(
        shards=2,
        storage_dir=tmp_path / "svc",
        wal_sync=False,
        checkpoint_policy=CheckpointPolicy.disabled(),
    )
    service.add_document(TEXTS[0], "doc0")
    expected = as_rows(service.query(ENTITY_QUERY))
    assert service._wal.sync is False  # the knob actually reaches the log
    service.close()
    reopened = KokoService.open(tmp_path / "svc", pipeline=ExplodingPipeline())
    try:
        assert as_rows(reopened.query(ENTITY_QUERY)) == expected
    finally:
        reopened.close()


def test_wal_replay_rejects_inconsistent_records(tmp_path):
    """A remove of an unknown document in the log means corruption: fail loudly."""
    from repro.persistence import OP_REMOVE, WalRecord, WalWriter

    layout = StorageLayout(tmp_path / "svc")
    layout.initialise()
    writer = WalWriter(layout.wal_path(1))
    writer.append(WalRecord(op=OP_REMOVE, doc_id="ghost"))
    writer.close()
    with pytest.raises(PersistenceError):
        KokoService.open(tmp_path / "svc")


# ----------------------------------------------------------------------
# per-shard generation stamps (satellite)
# ----------------------------------------------------------------------
def test_ingest_bumps_exactly_one_shard_generation():
    with KokoService(shards=4) as service:
        assert service.generations == (0, 0, 0, 0)
        document = service.add_document(TEXTS[0], "doc0")
        target = service.shard_of(document.doc_id)
        expected = [0, 0, 0, 0]
        expected[target] = 1
        assert service.generations == tuple(expected)
        service.remove_document("doc0")
        expected[target] = 2
        assert service.generations == tuple(expected)
        assert service.generation == 2


def test_single_shard_ingest_reuses_other_shards_partials():
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS[:4]):
            service.add_document(text, f"doc{index}")
        first = service.query(ENTITY_QUERY)
        assert service.stats.shard_partials_computed == 4
        assert service.stats.shard_partials_reused == 0

        service.add_document(TEXTS[4], "docX")  # touches exactly one shard
        second = service.query(ENTITY_QUERY)
        assert second is not first  # full result was invalidated...
        assert service.stats.shard_partials_reused == 3  # ...but 3 shards reused
        assert service.stats.shard_partials_computed == 5

        third = service.query(ENTITY_QUERY)  # untouched stamp vector: full hit
        assert third is second
        assert service.stats.result_cache_hits == 1


def test_partial_reuse_matches_full_execution():
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        baseline = as_rows(service.query(ENTITY_QUERY))
        service.remove_document("doc5")
        with KokoService(shards=4) as fresh:
            for index, text in enumerate(TEXTS[:5]):
                fresh.add_document(text, f"doc{index}")
            assert as_rows(service.query(ENTITY_QUERY)) == as_rows(
                fresh.query(ENTITY_QUERY)
            )
        assert service.stats.shard_partials_reused > 0
        assert baseline != as_rows(service.query(ENTITY_QUERY))


def test_generation_stamps_are_persisted(tmp_path):
    service = populated_service(tmp_path / "svc", 4, TEXTS[:4])
    service.remove_document("doc1")
    stamps = service.generations
    service.close()
    reopened = KokoService.open(tmp_path / "svc")
    try:
        assert reopened.generations == stamps
    finally:
        reopened.close()
