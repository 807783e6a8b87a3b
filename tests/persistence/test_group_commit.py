"""Group commit in the write-ahead log: batching, durability, crash prefix.

The load-bearing properties:

* concurrent appends are all durable and frame-atomic (no interleaving);
* batching actually happens — N concurrent durability waits share fewer
  than N fsyncs;
* a crash **between the buffered batch append and its fsync** loses only
  a suffix: recovery yields a clean prefix of the operation history, at
  the WAL level and end-to-end through ``KokoService``;
* a failed fsync poisons the writer instead of silently dropping the
  durability guarantee.
"""

from __future__ import annotations

import os
import shutil

import pytest

import repro.persistence.wal as wal_module
from repro.errors import PersistenceError
from repro.persistence import (
    CheckpointPolicy,
    StorageLayout,
    WalRecord,
    WalWriter,
    WriteAheadLog,
    read_records,
)
from repro.service import KokoService

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
    "The barista in Osaka served a delicious espresso.",
]

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)


def record(index: int) -> WalRecord:
    return WalRecord(op="remove", doc_id=f"doc{index}")


def layout_at(path) -> StorageLayout:
    layout = StorageLayout(path)
    layout.initialise()
    return layout


# ----------------------------------------------------------------------
# concurrent appends: durability and frame atomicity
# ----------------------------------------------------------------------
def test_concurrent_appends_are_all_durable_and_frame_atomic(tmp_path, run_threads):
    wal = WriteAheadLog(layout_at(tmp_path), segment_id=1)
    per_thread, threads = 25, 4

    def work(index):
        for i in range(per_thread):
            wal.append(record(index * per_thread + i))

    run_threads(threads, work)
    wal.close()
    replay = read_records(tmp_path / "wal" / "wal-0000000001.log")
    assert not replay.torn
    assert len(replay.records) == per_thread * threads
    assert sorted(r.doc_id for r in replay.records) == sorted(
        f"doc{i}" for i in range(per_thread * threads)
    )
    assert wal.records_appended == per_thread * threads
    assert wal.records_synced == per_thread * threads
    # every record durable, but batches shared fsyncs
    assert wal.fsyncs_performed <= wal.records_synced


def test_slow_fsync_coalesces_batches(tmp_path, monkeypatch, run_threads):
    """With a slow disk, concurrent waiters pile into the leader's batch."""
    real_fsync = os.fsync

    def slow_fsync(fd):
        import time

        time.sleep(0.002)
        real_fsync(fd)

    monkeypatch.setattr(wal_module.os, "fsync", slow_fsync)
    wal = WriteAheadLog(layout_at(tmp_path), segment_id=1)
    per_thread, threads = 10, 8

    def work(index):
        for i in range(per_thread):
            wal.append(record(index * per_thread + i))

    run_threads(threads, work)
    wal.close()
    assert wal.records_synced == per_thread * threads
    assert wal.fsyncs_saved > 0
    assert wal.max_batch_records >= 2
    assert wal.fsyncs_performed < per_thread * threads


def test_a_lone_writer_fsyncs_every_append(tmp_path):
    wal = WriteAheadLog(layout_at(tmp_path), segment_id=1)
    for index in range(5):
        wal.append(record(index))
        # nothing else is in flight, so each append pays its own fsync
        assert wal.records_synced == index + 1
        assert wal.fsyncs_performed == index + 1
    wal.close()
    assert len(read_records(tmp_path / "wal" / "wal-0000000001.log").records) == 5


def test_on_fsync_batches_sum_to_records(tmp_path, run_threads):
    batches = []
    wal = WriteAheadLog(layout_at(tmp_path), segment_id=1, on_fsync=batches.append)
    run_threads(4, lambda index: wal.append(record(index)))
    wal.close()
    assert sum(batches) == 4
    assert all(batch >= 1 for batch in batches)


# ----------------------------------------------------------------------
# crash between batch append and fsync → recovery to a prefix
# ----------------------------------------------------------------------
def test_crash_between_batch_append_and_fsync_recovers_prefix(tmp_path, monkeypatch, run_threads):
    """Records buffered but not yet fsynced are a *suffix*; losing them
    leaves the longest durable prefix intact."""
    path = tmp_path / "seg.log"
    writer = WalWriter(path)
    for index in range(6):
        writer.append(record(index))
    durable_bytes = writer.size_bytes

    # the batch after this point is appended but never reaches the platter
    monkeypatch.setattr(wal_module.os, "fsync", lambda fd: None)
    run_threads(4, lambda index: writer.append(record(100 + index)))
    assert writer.size_bytes > durable_bytes

    # simulate the power cut: everything past the last real fsync vanishes,
    # possibly tearing mid-frame
    crashed = tmp_path / "crashed.log"
    shutil.copyfile(path, crashed)
    with crashed.open("r+b") as handle:
        handle.truncate(durable_bytes + 5)  # mid-header of the torn record

    replay = read_records(crashed)
    assert replay.torn
    assert replay.valid_bytes == durable_bytes
    assert [r.doc_id for r in replay.records] == [f"doc{i}" for i in range(6)]


def test_service_group_commit_crash_recovers_to_prefix(tmp_path, monkeypatch, run_threads):
    """End to end: a service killed between a group-commit batch append and
    its fsync reopens with exactly the documents durable before the batch."""
    path = tmp_path / "svc"
    service = KokoService(
        shards=2, storage_dir=path, checkpoint_policy=CheckpointPolicy.disabled()
    )
    for index, text in enumerate(TEXTS[:4]):
        service.add_document(text, f"doc{index}")
    layout = StorageLayout(path)
    active = layout.wal_path(max(layout.wal_segment_ids()))
    durable_bytes = active.stat().st_size

    # fsync stops reaching the disk: the next adds are buffered only
    monkeypatch.setattr(wal_module.os, "fsync", lambda fd: None)
    run_threads(
        2, lambda index: service.add_document(TEXTS[4 + index], f"burst{index}")
    )
    assert active.stat().st_size > durable_bytes

    # "kill -9": copy the directory and cut the WAL at the durable boundary
    # (+ a few bytes of torn frame), as a power cut would leave it
    crash_dir = tmp_path / "crashed"
    shutil.copytree(path, crash_dir)
    crashed_wal = crash_dir / "wal" / active.name
    with crashed_wal.open("r+b") as handle:
        handle.truncate(durable_bytes + 11)
    monkeypatch.undo()
    service.close()

    recovered = KokoService.open(crash_dir)
    try:
        assert sorted(recovered.document_ids()) == [f"doc{i}" for i in range(4)]
        assert recovered.metrics.get("koko_recovered_torn_tail").value
        assert recovered.query(ENTITY_QUERY) is not None
        # the recovered service keeps ingesting cleanly after the tear
        recovered.add_document(TEXTS[4], "after-crash")
        assert "after-crash" in recovered.document_ids()
    finally:
        recovered.close()


# ----------------------------------------------------------------------
# fsync failure poisons the writer
# ----------------------------------------------------------------------
def test_failed_fsync_poisons_writer_and_discards_unacked_tail(tmp_path, monkeypatch):
    writer = WalWriter(tmp_path / "seg.log")
    writer.append(record(0))

    def broken_fsync(fd):
        raise OSError("disk on fire")

    monkeypatch.setattr(wal_module.os, "fsync", broken_fsync)
    with pytest.raises(OSError):
        writer.append(record(1))
    monkeypatch.undo()
    # durability can no longer be promised: the writer refuses further work
    with pytest.raises(PersistenceError):
        writer.append(record(2))
    # and the unacknowledged frame was truncated away — a restart replays
    # only what append() acknowledged
    replay = read_records(tmp_path / "seg.log")
    assert not replay.torn
    assert [r.doc_id for r in replay.records] == ["doc0"]


def test_zero_width_reservations_keep_distinct_bases():
    with KokoService() as service:
        empty = service.reserve_sids(0)
        following = service.reserve_sids(2)
        assert empty != following
        service.add_document("", "empty-doc", first_sid=empty)
        service.add_document("Anna ate a pie. Paolo ate too.", "full", first_sid=following)
        assert sorted(service.document_ids()) == ["empty-doc", "full"]
