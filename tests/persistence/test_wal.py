"""WAL framing, fsync append, torn-tail scanning and rotation."""

from __future__ import annotations

import struct

import pytest

from repro.errors import PersistenceError
from repro.persistence import (
    OP_ADD,
    OP_REMOVE,
    StorageLayout,
    WalRecord,
    WalWriter,
    WriteAheadLog,
    read_records,
)
from repro.persistence.wal import encode_frame
from repro.nlp.pipeline import Pipeline
from repro.observability.tracing import Span


@pytest.fixture()
def annotated():
    return Pipeline().annotate("Anna ate a delicious pie in Tokyo.", doc_id="d0")


def write_records(path, records):
    writer = WalWriter(path)
    for record in records:
        writer.append(record)
    writer.close()


def test_append_and_read_round_trip(tmp_path, annotated):
    records = [
        WalRecord(op=OP_ADD, doc_id="d0", document=annotated),
        WalRecord(op=OP_REMOVE, doc_id="d0"),
        WalRecord(op=OP_ADD, doc_id="d1", document=annotated),
    ]
    path = tmp_path / "wal.log"
    write_records(path, records)

    result = read_records(path)
    assert not result.torn
    assert result.valid_bytes == path.stat().st_size
    assert [(r.op, r.doc_id) for r in result.records] == [
        (OP_ADD, "d0"),
        (OP_REMOVE, "d0"),
        (OP_ADD, "d1"),
    ]
    # the annotated payload survives byte-exactly at the annotation level
    restored = result.records[0].document
    assert [s.sid for s in restored] == [s.sid for s in annotated]
    assert [[t.text for t in s] for s in restored] == [
        [t.text for t in s] for s in annotated
    ]
    assert [[t.pos for t in s] for s in restored] == [
        [t.pos for t in s] for s in annotated
    ]


@pytest.mark.parametrize("cut", [1, 3, 7])
def test_truncated_payload_is_a_torn_tail(tmp_path, annotated, cut):
    path = tmp_path / "wal.log"
    write_records(
        path,
        [
            WalRecord(op=OP_ADD, doc_id="d0", document=annotated),
            WalRecord(op=OP_REMOVE, doc_id="d0"),
        ],
    )
    size = path.stat().st_size
    with path.open("r+b") as handle:
        handle.truncate(size - cut)

    result = read_records(path)
    assert result.torn
    assert [(r.op, r.doc_id) for r in result.records] == [(OP_ADD, "d0")]
    assert result.valid_bytes < size - cut  # tear starts at the last frame


def test_truncated_header_is_a_torn_tail(tmp_path):
    path = tmp_path / "wal.log"
    write_records(path, [WalRecord(op=OP_REMOVE, doc_id="d0")])
    first = path.stat().st_size
    with path.open("ab") as handle:
        handle.write(b"\x05\x00")  # half a header
    result = read_records(path)
    assert result.torn
    assert result.valid_bytes == first
    assert len(result.records) == 1


def test_crc_mismatch_is_a_torn_tail(tmp_path):
    path = tmp_path / "wal.log"
    write_records(
        path,
        [WalRecord(op=OP_REMOVE, doc_id="first"), WalRecord(op=OP_REMOVE, doc_id="second")],
    )
    first_frame = len(encode_frame(WalRecord(op=OP_REMOVE, doc_id="first").to_payload()))
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a payload byte of the second frame
    path.write_bytes(bytes(data))

    result = read_records(path)
    assert result.torn
    assert [r.doc_id for r in result.records] == ["first"]
    assert result.valid_bytes == first_frame


def test_crc_valid_frame_that_does_not_decode_is_a_torn_tail(tmp_path):
    path = tmp_path / "wal.log"
    write_records(path, [WalRecord(op=OP_REMOVE, doc_id="first")])
    first_frame = path.stat().st_size
    with path.open("ab") as handle:
        handle.write(encode_frame(b"not a record"))
        handle.write(encode_frame(WalRecord(op=OP_REMOVE, doc_id="after").to_payload()))

    result = read_records(path)
    assert result.torn
    assert [r.doc_id for r in result.records] == ["first"]
    assert result.valid_bytes == first_frame


def test_append_is_durable_on_return_and_traces_both_steps(tmp_path):
    writer = WalWriter(tmp_path / "wal.log")
    trace = Span("ingest")
    frame_bytes = writer.append(WalRecord(op=OP_REMOVE, doc_id="d0"), trace=trace)
    assert frame_bytes == writer.size_bytes == writer.synced_bytes
    assert [child.name for child in trace.children] == ["wal_append", "fsync_wait"]
    writer.close()


def test_garbage_length_header_is_contained(tmp_path):
    path = tmp_path / "wal.log"
    with path.open("wb") as handle:
        handle.write(struct.pack("<II", 1 << 30, 0))  # absurd length, no payload
    result = read_records(path)
    assert result.torn
    assert result.records == []


def test_writer_truncate_to_reopens_after_a_tear(tmp_path):
    path = tmp_path / "wal.log"
    write_records(path, [WalRecord(op=OP_REMOVE, doc_id="keep")])
    keep = path.stat().st_size
    with path.open("ab") as handle:
        handle.write(b"torn-bytes")

    writer = WalWriter(path, truncate_to=keep)
    writer.append(WalRecord(op=OP_REMOVE, doc_id="after"))
    writer.close()
    result = read_records(path)
    assert not result.torn
    assert [r.doc_id for r in result.records] == ["keep", "after"]


class _FailingHandle:
    """Wraps a real file handle; fails the next write with a fake I/O error."""

    def __init__(self, real):
        self._real = real
        self.fail_next = True

    def write(self, data):
        if self.fail_next:
            self.fail_next = False
            self._real.write(data[: len(data) // 2])  # partial frame lands
            raise OSError(28, "No space left on device")
        return self._real.write(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_failed_append_truncates_the_partial_frame(tmp_path):
    """An append that dies mid-frame must not bury later records behind
    garbage: the segment rewinds to the last good frame boundary."""
    path = tmp_path / "wal.log"
    writer = WalWriter(path)
    writer.append(WalRecord(op=OP_REMOVE, doc_id="before"))
    writer._handle = _FailingHandle(writer._handle)

    with pytest.raises(OSError):
        writer.append(WalRecord(op=OP_REMOVE, doc_id="lost"))
    writer.append(WalRecord(op=OP_REMOVE, doc_id="after"))  # lands cleanly
    writer.close()

    result = read_records(path)
    assert not result.torn
    assert [r.doc_id for r in result.records] == ["before", "after"]


def test_closed_writer_refuses_appends(tmp_path):
    writer = WalWriter(tmp_path / "wal.log")
    writer.close()
    with pytest.raises(PersistenceError):
        writer.append(WalRecord(op=OP_REMOVE, doc_id="x"))


def test_rotation_seals_segments_in_order(tmp_path):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    wal = WriteAheadLog(layout, segment_id=1)
    wal.append(WalRecord(op=OP_REMOVE, doc_id="a"))
    assert wal.active_bytes > 0
    sealed = wal.rotate()
    assert sealed == 1 and wal.segment_id == 2
    assert wal.active_bytes == 0
    wal.append(WalRecord(op=OP_REMOVE, doc_id="b"))
    wal.close()

    assert layout.wal_segment_ids() == [1, 2]
    assert [r.doc_id for r in read_records(layout.wal_path(1)).records] == ["a"]
    assert [r.doc_id for r in read_records(layout.wal_path(2)).records] == ["b"]
