"""Snapshot write/load round trips, validity checking and the CURRENT pointer."""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np
import pytest

from repro.errors import PersistenceError
from repro.indexing.koko_index import KokoIndexSet
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus
from repro.persistence import (
    LAYOUT_VERSION,
    LayoutVersionError,
    SnapshotState,
    StorageLayout,
    load_snapshot,
    read_snapshot_payloads,
    state_from_payloads,
    write_snapshot,
)
from repro.persistence.snapshot import find_latest_valid, validate_snapshot

TEXTS = [
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
]


@pytest.fixture()
def documents():
    pipeline = Pipeline()
    documents, sid = [], 0
    for index, text in enumerate(TEXTS):
        document = pipeline.annotate(text, doc_id=f"doc{index}", first_sid=sid)
        sid += len(document)
        documents.append(document)
    return documents


def snapshot_state_for(documents, checkpoint_id=3):
    indexes = KokoIndexSet(columnar=True).build(Corpus(name="snap", documents=documents))
    return SnapshotState(
        checkpoint_id=checkpoint_id,
        name="snap",
        num_shards=1,
        next_sid=sum(len(d) for d in documents),
        generations=[len(documents)],
        documents_by_shard=[documents],
        build_seconds_by_shard=[indexes.build_seconds],
        index_arrays=[indexes.to_arrays()],
    )


def test_write_validate_load_round_trip(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    state = snapshot_state_for(documents)
    directory = write_snapshot(layout, state)
    assert directory == layout.snapshot_dir(3)
    assert validate_snapshot(layout, 3) is not None

    loaded = load_snapshot(layout, 3)
    assert loaded.name == "snap"
    assert loaded.num_shards == 1
    assert loaded.next_sid == state.next_sid
    assert loaded.generations == [len(documents)]
    assert [d.doc_id for d in loaded.documents_by_shard[0]] == ["doc0", "doc1", "doc2"]

    # the restored index set is lookup-identical to the original
    original = KokoIndexSet().build(Corpus(name="ref", documents=documents))
    restored = loaded.index_sets[0]
    assert restored.word_index.vocabulary() == original.word_index.vocabulary()
    for word in original.word_index.vocabulary():
        assert restored.word_index.lookup(word) == original.word_index.lookup(word)
    assert sorted(restored.entity_index.all_postings()) == sorted(
        original.entity_index.all_postings()
    )
    for steps in ([("/", "root")], [("/", "root"), ("//", "*")]):
        assert restored.pl_index.lookup_path(steps) == original.pl_index.lookup_path(steps)
    stats_r, stats_o = restored.statistics(), original.statistics()
    assert (stats_r.sentences, stats_r.tokens, stats_r.word_postings) == (
        stats_o.sentences,
        stats_o.tokens,
        stats_o.word_postings,
    )
    assert (stats_r.pl_nodes, stats_r.pos_nodes, stats_r.entity_postings) == (
        stats_o.pl_nodes,
        stats_o.pos_nodes,
        stats_o.entity_postings,
    )


def _manifest(layout, checkpoint_id):
    return json.loads((layout.snapshot_dir(checkpoint_id) / "manifest.json").read_text("utf-8"))


def _shard_file(layout, checkpoint_id, kind):
    """Path of shard 0's index file (``"indexes"``) or first corpus segment."""
    shard = _manifest(layout, checkpoint_id)["shards"][0]
    name = shard["indexes"] if kind == "indexes" else shard["segments"][0]["file"]
    return layout.snapshots_dir / name


def test_snapshot_directory_holds_columns_not_pickles(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    directory = write_snapshot(layout, snapshot_state_for(documents))
    assert [p.name for p in directory.iterdir()] == ["manifest.json"]
    assert sorted(p.name for p in layout.segments_dir.iterdir()) == [
        "corpus-0-0000000003.seg",
        "indexes-0-0000000003.npz",
    ]
    with np.load(_shard_file(layout, 3, "indexes"), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    assert all(a.dtype.kind in "iu" and a.ndim == 1 for a in arrays.values())
    # narrowest lossless dtype per column; PL/POS postings are not stored
    assert arrays["W.sid"].dtype == np.uint8 and arrays["W.plid"].dtype == np.uint8
    assert not any(name in arrays for name in ("PL.sid", "POS.sid", "PL.kid"))


def _rewrite_index_payload(layout, checkpoint_id, mutate):
    """Replace shard 0's index file with a mutated copy and re-digest the manifest."""
    path = _shard_file(layout, checkpoint_id, "indexes")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name].astype(np.int64) for name in archive.files}
    mutate(arrays)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.write_bytes(buffer.getvalue())
    manifest = _manifest(layout, checkpoint_id)
    name = manifest["shards"][0]["indexes"]
    manifest["files"][name] = hashlib.sha256(buffer.getvalue()).hexdigest()
    (layout.snapshot_dir(checkpoint_id) / "manifest.json").write_text(
        json.dumps(manifest), "utf-8"
    )


class _Boom:
    def __reduce__(self):
        return (pytest.fail, ("index payload was unpickled",))


def _set(name, value):
    return lambda arrays: arrays.__setitem__(name, value(arrays[name]))


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda a: a.pop("W.tid"), id="missing-array"),
        pytest.param(_set("W.depth", lambda c: c[:-1]), id="column-length-mismatch"),
        pytest.param(_set("W.kid", lambda c: c + 1000), id="key-id-past-key-table"),
        pytest.param(_set("W.wid", lambda c: c + 100000), id="word-id-past-interner"),
        pytest.param(_set("W.plid", lambda c: np.where(c == c.max(), c.max() + 1, c)),
                     id="plid-names-absent-node"),
        pytest.param(_set("W.posid", lambda c: c - 7), id="negative-posid"),
        pytest.param(_set("PL.parent_id", lambda c: c[::-1].copy()), id="trie-out-of-order"),
        pytest.param(_set("E.text_id", lambda c: c + 100000), id="entity-string-id-past-table"),
        pytest.param(_set("W.keys.ends", lambda c: c[:-1]), id="string-table-truncated"),
        pytest.param(_set("W.left", lambda c: c.astype(np.float64)), id="float-column"),
        pytest.param(_set("W.sid", lambda c: np.array([_Boom()] * len(c), dtype=object)),
                     id="object-dtype-array"),
    ],
)
def test_malformed_index_payload_is_refused(tmp_path, documents, mutate):
    """Digest-consistent but structurally wrong columns never load."""
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents))
    _rewrite_index_payload(layout, 3, mutate)
    assert validate_snapshot(layout, 3) is not None  # the digests do match
    with pytest.raises(PersistenceError):
        load_snapshot(layout, 3)
    manifest, payloads = read_snapshot_payloads(layout, 3)
    with pytest.raises(PersistenceError):
        state_from_payloads(manifest, payloads)


def test_shipped_bytes_round_trip_and_version_check(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents))
    manifest, payloads = read_snapshot_payloads(layout, 3)
    assert sorted(payloads) == [
        "segments/corpus-0-0000000003.seg",
        "segments/indexes-0-0000000003.npz",
    ]
    state = state_from_payloads(manifest, payloads)
    assert state.index_sets[0].statistics().tokens == sum(
        d.num_tokens for d in documents
    )
    skewed = dict(manifest, version=LAYOUT_VERSION + 1)
    with pytest.raises(LayoutVersionError) as raised:
        state_from_payloads(skewed, payloads)
    assert str(LAYOUT_VERSION + 1) in str(raised.value)
    assert f"version {LAYOUT_VERSION}" in str(raised.value)


def test_tampered_file_fails_validation(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents))
    corpus_file = _shard_file(layout, 3, "corpus")
    corpus_file.write_bytes(corpus_file.read_bytes() + b"x")
    assert validate_snapshot(layout, 3) is None
    with pytest.raises(PersistenceError):
        load_snapshot(layout, 3)


def test_missing_manifest_or_file_fails_validation(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents))
    _shard_file(layout, 3, "indexes").unlink()
    assert validate_snapshot(layout, 3) is None
    assert validate_snapshot(layout, 99) is None  # absent snapshot


def test_find_latest_valid_falls_back_past_corrupt_current(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents, checkpoint_id=1))
    write_snapshot(layout, snapshot_state_for(documents, checkpoint_id=2))
    layout.write_current(2)
    assert find_latest_valid(layout) == 2

    # corrupt the snapshot CURRENT points at: the scan falls back to 1
    manifest = layout.snapshot_dir(2) / "manifest.json"
    manifest.write_text(json.dumps({"version": -1}), encoding="utf-8")
    assert find_latest_valid(layout) == 1

    # no valid snapshot at all -> None
    (layout.snapshot_dir(1) / "manifest.json").unlink()
    assert find_latest_valid(layout) is None


def test_prune_keeps_the_durable_checkpoint_and_its_fallback(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    for checkpoint_id in (1, 2, 3):
        write_snapshot(layout, snapshot_state_for(documents, checkpoint_id=checkpoint_id))
        layout.wal_path(checkpoint_id).write_bytes(b"")
    layout.wal_path(4).write_bytes(b"")
    layout.prune(3)
    # checkpoint 2 stays as the fallback, with the segments it needs (3, 4)
    # to roll forward should checkpoint 3 turn out corrupt
    assert layout.snapshot_ids() == [2, 3]
    assert layout.wal_segment_ids() == [3, 4]
    layout.prune(3)  # idempotent
    assert layout.snapshot_ids() == [2, 3]


def test_current_pointer_round_trip(tmp_path):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    assert layout.read_current() is None
    layout.write_current(7)
    assert layout.read_current() == 7
    layout.current_file.write_text("not-a-number", encoding="utf-8")
    assert layout.read_current() is None
