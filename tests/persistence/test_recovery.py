"""RecoveryManager: snapshot + WAL-tail composition, torn tails, kill points."""

from __future__ import annotations

import json

import pytest

from repro.errors import PersistenceError
from repro.nlp.pipeline import Pipeline
from repro.persistence import (
    LAYOUT_VERSION,
    OP_ADD,
    OP_REMOVE,
    RecoveryManager,
    SnapshotState,
    StorageLayout,
    WalRecord,
    WalWriter,
    write_snapshot,
)
from repro.persistence.checkpoint import CheckpointPolicy
from repro.service import KokoService


def snapshot_state_for(documents, checkpoint_id):
    return SnapshotState(
        checkpoint_id=checkpoint_id,
        name="snap",
        num_shards=1,
        next_sid=sum(len(d) for d in documents),
        generations=[len(documents)],
        documents_by_shard=[documents],
    )

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


def append_segment(layout, segment_id, records):
    writer = WalWriter(layout.wal_path(segment_id))
    for record in records:
        writer.append(record)
    writer.close()


def test_fresh_directory_recovers_to_empty(tmp_path):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    recovered = RecoveryManager(layout).recover()
    assert recovered.snapshot is None
    assert recovered.operations == []
    assert recovered.active_segment_id == 1
    assert recovered.active_segment_valid_bytes is None
    assert not recovered.torn_tail


def test_wal_only_recovery_without_any_snapshot(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    append_segment(
        layout,
        1,
        [WalRecord(op=OP_ADD, doc_id=d.doc_id, document=d) for d in documents],
    )
    recovered = RecoveryManager(layout).recover()
    assert recovered.snapshot is None
    assert [r.doc_id for r in recovered.operations] == ["doc0", "doc1", "doc2"]
    assert recovered.active_segment_id == 1
    assert recovered.active_segment_valid_bytes == layout.wal_path(1).stat().st_size


def test_snapshot_plus_tail_replay(tmp_path, documents):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    write_snapshot(layout, snapshot_state_for(documents[:2], checkpoint_id=2))
    layout.write_current(2)
    append_segment(layout, 1, [WalRecord(op=OP_REMOVE, doc_id="pre-snapshot")])
    append_segment(
        layout,
        3,
        [
            WalRecord(op=OP_ADD, doc_id="doc2", document=documents[2]),
            WalRecord(op=OP_REMOVE, doc_id="doc0"),
        ],
    )
    recovered = RecoveryManager(layout).recover()
    assert recovered.snapshot is not None
    assert recovered.checkpoint_id == 2
    # only segments after the snapshot replay; segment 1 is history
    assert [(r.op, r.doc_id) for r in recovered.operations] == [
        (OP_ADD, "doc2"),
        (OP_REMOVE, "doc0"),
    ]
    assert recovered.active_segment_id == 3


@pytest.mark.parametrize("cut", [2, 9, 25])
def test_kill_point_mid_record_recovers_durable_prefix(tmp_path, documents, cut):
    """Truncating the WAL mid-record loses exactly the torn suffix."""
    layout = StorageLayout(tmp_path)
    layout.initialise()
    append_segment(
        layout,
        1,
        [WalRecord(op=OP_ADD, doc_id=d.doc_id, document=d) for d in documents],
    )
    path = layout.wal_path(1)
    size = path.stat().st_size
    with path.open("r+b") as handle:
        handle.truncate(size - cut)

    recovered = RecoveryManager(layout).recover()
    assert recovered.torn_tail
    assert [r.doc_id for r in recovered.operations] == ["doc0", "doc1"]
    assert recovered.active_segment_id == 1
    assert recovered.active_segment_valid_bytes is not None
    assert recovered.active_segment_valid_bytes <= size - cut


def test_torn_middle_segment_drops_later_segments(tmp_path, documents):
    """A tear in a non-final segment ends the durable prefix there."""
    layout = StorageLayout(tmp_path)
    layout.initialise()
    append_segment(layout, 1, [WalRecord(op=OP_ADD, doc_id="doc0", document=documents[0])])
    append_segment(layout, 2, [WalRecord(op=OP_ADD, doc_id="doc1", document=documents[1])])
    with layout.wal_path(1).open("r+b") as handle:
        handle.truncate(layout.wal_path(1).stat().st_size - 4)

    recovered = RecoveryManager(layout).recover()
    assert recovered.torn_tail
    assert recovered.operations == []  # doc0's only record was torn
    assert recovered.active_segment_id == 1
    # the out-of-order later segment is dropped rather than replayed
    assert layout.wal_segment_ids() == [1]


def _stamp_version(layout, version):
    for checkpoint_id in layout.snapshot_ids():
        path = layout.snapshot_dir(checkpoint_id) / "manifest.json"
        manifest = json.loads(path.read_text("utf-8"))
        manifest["version"] = version
        path.write_text(json.dumps(manifest), "utf-8")


def _tree_state(root):
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


def test_layout_version_skew_fails_closed(tmp_path):
    """A store of another layout version is refused, not partially reopened.

    Before the check, recovery treated the skewed snapshots as corrupt,
    booted from the un-pruned WAL tail alone (1 of 4 documents) and let the
    next checkpoint prune the only complete snapshots.
    """
    with KokoService(
        storage_dir=tmp_path,
        checkpoint_policy=CheckpointPolicy.disabled(),
        use_default_vectors=False,
    ) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, doc_id=f"doc{index}")
            service.checkpoint()
        service.add_document("Maria visited Beijing.", doc_id="doc3")
        # killed here: doc3 is durable in the WAL tail only
        service._wal.close()
        service._wal = None
    layout = StorageLayout(tmp_path)
    _stamp_version(layout, LAYOUT_VERSION + 1)
    before = _tree_state(tmp_path)

    with pytest.raises(PersistenceError) as raised:
        KokoService.open(tmp_path, use_default_vectors=False)
    assert str(LAYOUT_VERSION + 1) in str(raised.value)
    assert f"version {LAYOUT_VERSION}" in str(raised.value)
    assert _tree_state(tmp_path) == before

    # a corrupt newest snapshot is a different matter: fall back one
    _stamp_version(layout, LAYOUT_VERSION)
    newest = layout.snapshot_dir(layout.snapshot_ids()[-1])
    manifest = json.loads((newest / "manifest.json").read_text("utf-8"))
    # the segment the newest checkpoint wrote; the fallback does not name it
    own = manifest["shards"][0]["segments"][-1]["file"]
    (layout.snapshots_dir / own).write_bytes(b"bit rot")
    with KokoService.open(tmp_path, use_default_vectors=False) as reopened:
        assert sorted(reopened.document_ids()) == ["doc0", "doc1", "doc2", "doc3"]


def test_fallback_without_the_log_after_its_base_fails_closed(tmp_path):
    """Falling back one snapshot is only complete while the WAL segment
    right after it survives; without it, recovery refuses and touches
    nothing rather than serve a subset."""
    with KokoService(
        shards=1,
        storage_dir=tmp_path,
        checkpoint_policy=CheckpointPolicy.disabled(),
        use_default_vectors=False,
    ) as service:
        service.add_document(TEXTS[0], doc_id="doc0")
        older = service.checkpoint()
        service.add_document(TEXTS[1], doc_id="doc1")
        newer = service.checkpoint()
    layout = StorageLayout(tmp_path)
    manifest = json.loads((layout.snapshot_dir(newer) / "manifest.json").read_text("utf-8"))
    own = manifest["shards"][0]["segments"][-1]["file"]
    assert own not in json.loads(
        (layout.snapshot_dir(older) / "manifest.json").read_text("utf-8")
    )["files"]
    (layout.snapshots_dir / own).write_bytes(b"bit rot")
    layout.wal_path(older + 1).unlink()
    before = _tree_state(tmp_path)
    with pytest.raises(PersistenceError, match=f"WAL segment {older + 1} is gone"):
        RecoveryManager(layout).recover()
    assert _tree_state(tmp_path) == before


def test_a_log_without_its_first_segment_and_no_snapshot_fails_closed(
    tmp_path, documents
):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    append_segment(layout, 2, [WalRecord(op=OP_ADD, doc_id="doc1", document=documents[1])])
    with pytest.raises(PersistenceError, match="WAL segment 1 is gone"):
        RecoveryManager(layout).recover()


def test_operations_tally():
    records = [
        WalRecord(op=OP_ADD, doc_id="a"),
        WalRecord(op=OP_ADD, doc_id="b"),
        WalRecord(op=OP_REMOVE, doc_id="a"),
    ]
    assert RecoveryManager.operations_of(records) == {OP_ADD: 2, OP_REMOVE: 1}
