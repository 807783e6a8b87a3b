"""Snapshot write/load round trips, validity checking and the CURRENT pointer."""

from __future__ import annotations

import json

import pytest

from repro.errors import PersistenceError
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.reference import ReferenceIndexSet
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
    return SnapshotState(
        checkpoint_id=checkpoint_id,
        name="snap",
        num_shards=1,
        next_sid=sum(len(d) for d in documents),
        generations=[len(documents)],
        documents_by_shard=[documents],
    )


def test_write_validate_load_round_trip(tmp_path, documents, posting_rows, mention_rows):
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

    # what a restored shard builds from the loaded documents is
    # lookup-identical to the original
    original = ReferenceIndexSet().build(Corpus(name="ref", documents=documents))
    restored = KokoIndexSet().build(
        Corpus(name="snap", documents=loaded.documents_by_shard[0])
    )
    assert restored.word_index.vocabulary() == original.word_index.vocabulary()
    for word in original.word_index.vocabulary():
        assert posting_rows(restored.word_index.lookup(word)) == posting_rows(
            original.word_index.lookup(word)
        )
    assert sorted(mention_rows(restored.entity_index)) == sorted(
        mention_rows(original.entity_index)
    )
    for steps in ([("/", "root")], [("/", "root"), ("//", "*")]):
        assert posting_rows(restored.pl_index.lookup_path(steps)) == posting_rows(
            original.pl_index.lookup_path(steps)
        )
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


def _corpus_file(layout, checkpoint_id):
    """Path of shard 0's first corpus segment."""
    shard = _manifest(layout, checkpoint_id)["shards"][0]
    return layout.snapshots_dir / shard["segments"][0]["file"]


def test_snapshot_holds_the_documents_and_no_index(tmp_path, documents):
    """Indexes are derived data: the only file is the corpus segment, and
    the manifest names nothing else."""
    layout = StorageLayout(tmp_path)
    layout.initialise()
    directory = write_snapshot(layout, snapshot_state_for(documents))
    assert [p.name for p in directory.iterdir()] == ["manifest.json"]
    assert [p.name for p in layout.segments_dir.iterdir()] == ["corpus-0-0000000003.seg"]
    manifest = _manifest(layout, 3)
    assert manifest["version"] == LAYOUT_VERSION == 5
    assert list(manifest["files"]) == ["segments/corpus-0-0000000003.seg"]
    assert sorted(manifest["shards"][0]) == ["documents", "segments"]


def test_shipped_bytes_round_trip_and_version_check(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents))
    manifest, payloads = read_snapshot_payloads(layout, 3)
    assert sorted(payloads) == ["segments/corpus-0-0000000003.seg"]
    state = state_from_payloads(manifest, payloads)
    assert sum(d.num_tokens for d in state.documents_by_shard[0]) == sum(
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
    corpus_file = _corpus_file(layout, 3)
    corpus_file.write_bytes(corpus_file.read_bytes() + b"x")
    assert validate_snapshot(layout, 3) is None
    with pytest.raises(PersistenceError):
        load_snapshot(layout, 3)


def test_missing_manifest_or_file_fails_validation(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents))
    _corpus_file(layout, 3).unlink()
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
