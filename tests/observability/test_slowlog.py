"""Unit tests for the slow-op log: ring buffer, file sink, rotation."""

from __future__ import annotations

import json
import os

import pytest

from repro.observability.slowlog import SlowOpLog


def entry(index: int, pad: int = 0) -> dict:
    payload = {"kind": "query", "index": index}
    if pad:
        payload["pad"] = "x" * pad
    return payload


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_ring_buffer_keeps_newest_first_and_caps_capacity():
    log = SlowOpLog(capacity=3)
    for index in range(5):
        log.record(entry(index))
    recent = log.recent()
    assert [item["index"] for item in recent] == [4, 3, 2]
    assert [item["index"] for item in log.recent(1)] == [4]


def test_file_sink_writes_jsonl_and_flushes_on_close(tmp_path):
    path = tmp_path / "slow.jsonl"
    log = SlowOpLog(capacity=8, path=str(path))
    log.record(entry(0))
    log.record(entry(1))
    log.close()
    assert [item["index"] for item in read_jsonl(path)] == [0, 1]


def test_rotation_moves_full_file_aside_and_keeps_writing(tmp_path):
    path = tmp_path / "slow.jsonl"
    log = SlowOpLog(capacity=64, path=str(path), max_file_bytes=400)
    total = 12
    for index in range(total):
        log.record(entry(index, pad=80))
    log.close()

    rotated = tmp_path / "slow.jsonl.1"
    assert rotated.exists(), "cap crossed but no rotation happened"
    assert os.path.getsize(path) <= 400
    assert os.path.getsize(rotated) <= 400
    # the kept generations are a contiguous, ordered suffix of the stream:
    # nothing was lost across the *last* rotation boundary
    indices = [item["index"] for item in read_jsonl(rotated)] + [
        item["index"] for item in read_jsonl(path)
    ]
    assert indices == list(range(indices[0], total))
    assert indices[-1] == total - 1


def test_rotation_overwrites_previous_rotated_file(tmp_path):
    path = tmp_path / "slow.jsonl"
    log = SlowOpLog(capacity=64, path=str(path), max_file_bytes=200)
    for index in range(30):
        log.record(entry(index, pad=80))
    log.close()
    # exactly one rotated generation is kept
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "slow.jsonl",
        "slow.jsonl.1",
    ]


def test_cap_is_validated(tmp_path):
    path = tmp_path / "slow.jsonl"
    with pytest.raises(ValueError):
        SlowOpLog(capacity=8, path=str(path), max_file_bytes=0)


def test_reopen_appends_and_counts_existing_bytes_toward_the_cap(tmp_path):
    path = tmp_path / "slow.jsonl"
    first = SlowOpLog(capacity=8, path=str(path), max_file_bytes=300)
    first.record(entry(0, pad=100))
    first.close()
    second = SlowOpLog(capacity=8, path=str(path), max_file_bytes=300)
    second.record(entry(1, pad=100))
    second.record(entry(2, pad=100))  # pushes past the cap -> rotate
    second.close()
    assert (tmp_path / "slow.jsonl.1").exists()
