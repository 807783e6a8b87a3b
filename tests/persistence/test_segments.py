"""Snapshot segments: checkpoints write what changed, and stay correct.

The corpus of a snapshot is a list of immutable per-shard segments that
later snapshots share.  The properties pinned here:

* a crash at every durable step of a checkpoint (each fsync, rename and
  unlink from the first segment write through prune) reopens
  tuple-identical to a fresh ``KokoEngine``, with each shard's documents
  in their order, and the next checkpoint removes what the crash left;
* adds, removes (re-used ids included), checkpoints, clean reopens and
  crash reopens in any interleaving agree with that oracle;
* no document reaches ``pickle.dumps`` twice across 20 checkpoints;
* segments per shard stay within ``floor(log2 written) + 1``;
* a shard that gained and lost nothing names its old segments again;
* a manifest is checked before it is used: a mutated or hostile one, on
  disk or shipped, raises ``PersistenceError`` and nothing else, and a
  version-2, version-3 or version-4 store gets ``LayoutVersionError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import shutil
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError
from repro.koko.engine import KokoEngine
from repro.nlp.types import Corpus, Document
from repro.persistence import (
    LAYOUT_VERSION,
    CheckpointPolicy,
    LayoutVersionError,
    SnapshotState,
    StorageLayout,
    load_snapshot,
    prune_segments,
    read_snapshot_payloads,
    state_from_payloads,
    write_snapshot,
)
from repro.persistence import snapshot as snapshot_module
from repro.persistence.snapshot import referenced_files, validate_snapshot
from repro.service import KokoService
from repro.service import durability

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
ALL_ENTITIES_QUERY = 'extract e:Entity from "svc" if ()'
QUERIES = (ENTITY_QUERY, ALL_ENTITIES_QUERY)

TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo. The pie shop was crowded.",
    "The barista in Osaka served a delicious espresso.",
]

SERVICE_KWARGS = dict(
    checkpoint_policy=CheckpointPolicy.disabled(),
    use_default_vectors=False,
    trace_sample_rate=0.0,
)


def as_rows(result):
    return [(t.doc_id, t.sid, t.values, t.scores) for t in result]


def shard_orders(service) -> list[list[str]]:
    return [[d.doc_id for d in corpus.documents] for corpus in service.corpora]


def assert_matches_oracle(service, live: dict[str, Document], orders=None) -> None:
    """Same ids, same tuples and scores as a fresh engine, same shard order."""
    documents = sorted(live.values(), key=lambda d: d.sentences[0].sid)
    engine = KokoEngine(Corpus(name="reference", documents=documents))
    assert sorted(service.document_ids()) == sorted(live)
    for query in QUERIES:
        assert as_rows(service.query(query)) == as_rows(engine.execute(query))
    if orders is not None:
        assert shard_orders(service) == orders


def manifest(layout: StorageLayout, checkpoint_id: int) -> dict:
    return json.loads((layout.snapshot_dir(checkpoint_id) / "manifest.json").read_text("utf-8"))


def assert_no_orphans(layout: StorageLayout) -> None:
    """Every file under segments/ is named by a snapshot on disk; no temp dirs."""
    named = set().union(*(referenced_files(layout, s) for s in layout.snapshot_ids()))
    on_disk = {f"segments/{p.name}" for p in layout.segments_dir.iterdir()}
    assert on_disk <= named, sorted(on_disk - named)
    assert not list(layout.snapshots_dir.glob("*.tmp"))


# ----------------------------------------------------------------------
# a crash at every durable step of a checkpoint
# ----------------------------------------------------------------------
class Crash(Exception):
    """The simulated power cut."""


def _arm_kill_points(monkeypatch, store, crash_dir, at):
    """Count every fsync, rename and unlink once ``write_snapshot`` starts.

    At call number *at* the store is copied to *crash_dir* — the disk as a
    crash right before that call leaves it — and :class:`Crash` is raised.
    Returns the list the calls are counted into.
    """
    calls: list[str] = []
    armed = [False]

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if armed[0]:
                calls.append(name)
                if len(calls) - 1 == at:
                    armed[0] = False
                    shutil.copytree(store, crash_dir)
                    raise Crash(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("fsync", "replace", "unlink", "rmdir"):
        monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
    original_write = durability.write_snapshot

    def arming_write(*args, **kwargs):
        armed[0] = True
        return original_write(*args, **kwargs)

    monkeypatch.setattr(durability, "write_snapshot", arming_write)
    return calls


def _crashing_history(store, monkeypatch, crash_dir, at):
    """Build a multi-segment store, then checkpoint with a crash at *at*.

    Returns ``(service, live documents, shard orders, durable calls)``.
    """
    service = KokoService(shards=2, storage_dir=store, **SERVICE_KWARGS)
    live = {}
    for index in range(4):
        live[f"d{index}"] = service.add_document(TEXTS[index], f"d{index}")
    service.checkpoint()
    for index in (4, 5):
        live[f"d{index}"] = service.add_document(TEXTS[index], f"d{index}")
    del live["d1"]
    service.remove_document("d1")
    service.checkpoint()
    live["d6"] = service.add_document(TEXTS[0], "d6")
    live["d1"] = service.add_document(TEXTS[2], "d1")  # a removed id, re-used
    for doc_id in ("d2", "d4"):
        del live[doc_id]
        service.remove_document(doc_id)
    orders = shard_orders(service)
    with monkeypatch.context() as patched:
        calls = _arm_kill_points(patched, store, crash_dir, at)
        try:
            service.checkpoint()
        except Crash:
            pass
    return service, live, orders, calls


def test_crash_at_every_durable_step_of_a_checkpoint_recovers(tmp_path, monkeypatch):
    service, _, _, calls = _crashing_history(tmp_path / "probe", monkeypatch, None, None)
    service.close()
    # segment and index writes, their directory, the manifest and its
    # directory, the rename, CURRENT, and prune's deletions
    assert Counter(calls)["fsync"] >= 6 and "replace" in calls and "unlink" in calls
    for at in range(len(calls)):
        store, crash_dir = tmp_path / f"store{at}", tmp_path / f"crash{at}"
        service, live, orders, _ = _crashing_history(store, monkeypatch, crash_dir, at)
        assert crash_dir.is_dir(), f"kill point {at} ({calls[at]}) never fired"
        service.close()
        with KokoService.open(crash_dir, **SERVICE_KWARGS) as reopened:
            assert_matches_oracle(reopened, live, orders)
            live["late"] = reopened.add_document(TEXTS[3], "late")
            reopened.checkpoint()
            assert_no_orphans(StorageLayout(crash_dir))
            assert_matches_oracle(reopened, live)
        shutil.rmtree(store)
        shutil.rmtree(crash_dir)


# ----------------------------------------------------------------------
# any interleaving of add / remove / checkpoint / reopen / crash
# ----------------------------------------------------------------------
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(TEXTS) - 1)),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("readd"), st.integers(0, len(TEXTS) - 1)),
        st.tuples(st.sampled_from(["checkpoint", "reopen", "crash"]), st.just(0)),
    ),
    max_size=24,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=STEPS)
def test_interleaved_history_matches_the_oracle(tmp_path_factory, steps):
    root = tmp_path_factory.mktemp("history")
    path = root / "store"
    service = KokoService(shards=2, storage_dir=path, **SERVICE_KWARGS)
    live: dict[str, Document] = {}
    removed: list[str] = []
    orders: list[list[str]] = [[], []]
    try:
        for number, (kind, value) in enumerate(steps):
            if kind in ("add", "readd"):
                doc_id = removed.pop() if kind == "readd" and removed else f"h{number}"
                live[doc_id] = service.add_document(TEXTS[value], doc_id)
                orders[service.shard_of(doc_id)].append(doc_id)
            elif kind == "remove" and live:
                doc_id = list(live)[value % len(live)]
                service.remove_document(doc_id)
                del live[doc_id]
                orders[service.shard_of(doc_id)].remove(doc_id)
                removed.append(doc_id)
            elif kind == "checkpoint":
                service.checkpoint()
            elif kind == "reopen":
                service.close()
                service = KokoService.open(path, **SERVICE_KWARGS)
                assert_matches_oracle(service, live, orders)
            elif kind == "crash":  # no close: the copy holds only the WAL tail
                crashed = root / f"crash{number}"
                shutil.copytree(path, crashed)
                service.close()
                path = crashed
                service = KokoService.open(path, **SERVICE_KWARGS)
                assert_matches_oracle(service, live, orders)
        assert_matches_oracle(service, live, orders)
        service.close()
        service = KokoService.open(path, **SERVICE_KWARGS)
        assert_matches_oracle(service, live, orders)
    finally:
        service.close()
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# each document pickled once; segments stay few
# ----------------------------------------------------------------------
def test_no_document_reaches_pickle_dumps_twice_across_checkpoints(
    tmp_path, monkeypatch, pipeline
):
    """Fails at the parent, whose every checkpoint pickled every shard's list."""
    counts: Counter = Counter()
    real_dumps = pickle.dumps

    def spy(obj, *args, **kwargs):
        for item in obj if isinstance(obj, list) else [obj]:
            if isinstance(item, Document):
                counts[item.doc_id] += 1
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", spy)
    written = 0
    with KokoService(shards=2, storage_dir=tmp_path / "svc", **SERVICE_KWARGS) as service:
        for round_number in range(20):
            for item in range(1 + round_number % 3):
                service.add_document(TEXTS[item], f"r{round_number}-{item}")
                written += 1
            if round_number % 4 == 3:
                service.remove_document(f"r{round_number - 1}-0")
            assert service.checkpoint() is not None
        layout = StorageLayout(service.storage_dir)
        for shard in manifest(layout, service.checkpoint_id)["shards"]:
            assert len(shard["segments"]) <= math.floor(math.log2(written)) + 1
    assert counts and max(counts.values()) == 1, counts.most_common(3)
    assert len(counts) == written


def _bare_state(checkpoint_id, documents, previous):
    return SnapshotState(
        checkpoint_id=checkpoint_id,
        name="bare",
        num_shards=1,
        next_sid=0,
        generations=[0],
        documents_by_shard=[documents],
        segments=previous,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rounds=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), min_size=1, max_size=24))
def test_segments_per_shard_stay_logarithmic(tmp_path_factory, rounds):
    """Uneven checkpoints (shrinking ones too) keep ``<= floor(log2 w) + 1``
    segments, and reading them back gives the documents in order."""
    layout = StorageLayout(tmp_path_factory.mktemp("counter"))
    layout.initialise()
    documents: list[Document] = []
    segments: list = []
    written = 0
    for checkpoint_id, (adds, removes) in enumerate(rounds, start=1):
        documents = documents[removes:] + [
            Document(f"c{checkpoint_id}-{n}", []) for n in range(adds)
        ]
        written += adds
        state = _bare_state(checkpoint_id, documents, segments)
        write_snapshot(layout, state)
        segments = state.segments
        if written:
            assert len(segments[0].segments) <= math.floor(math.log2(written)) + 1
        loaded = load_snapshot(layout, checkpoint_id)
        assert [d.doc_id for d in loaded.documents_by_shard[0]] == [
            d.doc_id for d in documents
        ]
        layout.prune(checkpoint_id)
        prune_segments(layout)
    shutil.rmtree(layout.root)


def test_binary_counter_merges_equal_checkpoints(tmp_path):
    layout = StorageLayout(tmp_path)
    layout.initialise()
    documents, segments, frames = [], [], []
    for checkpoint_id in range(1, 9):
        documents.append(Document(f"doc{checkpoint_id}", []))
        state = _bare_state(checkpoint_id, list(documents), segments)
        write_snapshot(layout, state)
        segments = state.segments
        frames.append([segment.frames for segment in segments[0].segments])
    assert frames == [[1], [2], [2, 1], [4], [4, 1], [4, 2], [4, 2, 1], [8]]


def test_clean_shard_names_its_segments_again(tmp_path):
    with KokoService(shards=4, storage_dir=tmp_path / "svc", **SERVICE_KWARGS) as service:
        ids = [f"doc{index}" for index in range(12)]
        for index, doc_id in enumerate(ids):
            service.add_document(TEXTS[index % len(TEXTS)], doc_id)
        first = service.checkpoint()
        touched = service.shard_of("extra")
        service.add_document(TEXTS[1], "extra")
        second = service.checkpoint()
        layout = StorageLayout(service.storage_dir)
        before, after = manifest(layout, first), manifest(layout, second)
        for shard_id, (old, new) in enumerate(zip(before["shards"], after["shards"])):
            if shard_id == touched:
                assert new["segments"] != old["segments"]
            else:
                assert new["segments"] == old["segments"]
        # the only file the second checkpoint wrote is the touched shard's
        # new segment
        assert set(after["files"]) - set(before["files"]) == {
            new["segments"][-1]["file"]
            for shard_id, new in enumerate(after["shards"])
            if shard_id == touched
        }


def test_a_corrupt_shared_segment_fails_one_checkpoint_then_heals(tmp_path):
    """A merge that reads a bit-rotted segment fails; the next checkpoint
    rewrites every shard afresh instead of failing the same way."""
    path = tmp_path / "svc"
    service = KokoService(shards=1, storage_dir=path, **SERVICE_KWARGS)
    live = {"a": service.add_document(TEXTS[0], "a")}
    sealed = service.checkpoint()
    layout = StorageLayout(path)
    segment = layout.snapshots_dir / manifest(layout, sealed)["shards"][0]["segments"][0]["file"]
    segment.write_bytes(segment.read_bytes()[:-1] + b"\0")
    live["b"] = service.add_document(TEXTS[1], "b")  # [1] + [1]: a merge reads it
    with pytest.raises(PersistenceError, match="digest"):
        service.checkpoint()
    live["c"] = service.add_document(TEXTS[2], "c")
    healed = service.checkpoint()
    assert [s["frames"] for s in manifest(layout, healed)["shards"][0]["segments"]] == [3]
    service.close()
    with KokoService.open(path, **SERVICE_KWARGS) as reopened:
        assert_matches_oracle(reopened, live, [["a", "b", "c"]])


def test_a_corrupt_segment_both_snapshots_share_fails_closed(tmp_path):
    """Bit rot in the shared oldest segment sinks both retained snapshots,
    and the WAL before the older one is pruned: reopening must refuse and
    touch nothing, not boot from the WAL tail and prune the evidence."""
    path = tmp_path / "svc"
    with KokoService(shards=1, storage_dir=path, **SERVICE_KWARGS) as service:
        service.add_document(TEXTS[0], "a")
        service.add_document(TEXTS[1], "b")
        service.checkpoint()
        service.add_document(TEXTS[2], "c")
        sealed = service.checkpoint()
        service.add_document(TEXTS[3], "d")  # a WAL tail to tempt recovery
        service._wal.close()  # killed: no final checkpoint
        service._wal = None
    layout = StorageLayout(path)
    older, newer = layout.snapshot_ids()
    assert newer == sealed and older not in layout.wal_segment_ids()
    shared = manifest(layout, newer)["shards"][0]["segments"][0]["file"]
    assert shared in referenced_files(layout, older)
    segment = layout.snapshots_dir / shared
    segment.write_bytes(segment.read_bytes()[:-1] + b"\0")
    before = {p: p.read_bytes() for p in path.rglob("*") if p.is_file()}
    with pytest.raises(PersistenceError, match="none of the snapshots"):
        KokoService.open(path, **SERVICE_KWARGS)
    assert {p: p.read_bytes() for p in path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("new_before_it", [False, True])
def test_a_resplice_out_of_segment_order_rewrites_the_shard(
    tmp_path, monkeypatch, new_before_it
):
    """A remove that fails after it applied re-splices its document at the
    end of the shard — behind documents the segments hold after it, and
    maybe behind a new one.  The next checkpoint refuses that order instead
    of writing a snapshot that disagrees with memory; the one after
    rewrites the shard in its in-memory order, which a reopen keeps."""
    path = tmp_path / "svc"
    service = KokoService(shards=1, storage_dir=path, **SERVICE_KWARGS)
    live = {doc_id: service.add_document(TEXTS[n], doc_id) for n, doc_id in enumerate("axc")}
    service.checkpoint()
    if new_before_it:
        live["b"] = service.add_document(TEXTS[3], "b")
    original_apply = service._apply

    def apply_then_fail(ops, trace=None):
        original_apply(ops, trace)
        monkeypatch.undo()
        raise RuntimeError("failure after APPLIED")

    monkeypatch.setattr(service, "_apply", apply_then_fail)
    with pytest.raises(RuntimeError, match="after APPLIED"):
        service.remove_document("x")
    orders = shard_orders(service)
    assert orders[0][-1] == "x"  # the abort re-spliced it at the end
    with pytest.raises(PersistenceError, match="new ones at the end"):
        service.checkpoint()
    live["d"] = service.add_document(TEXTS[4], "d")
    orders[0].append("d")
    healed = service.checkpoint()
    assert [s["frames"] for s in manifest(StorageLayout(path), healed)["shards"][0]["segments"]] == [len(live)]
    service.close()
    with KokoService.open(path, **SERVICE_KWARGS) as reopened:
        assert_matches_oracle(reopened, live, orders)


# ----------------------------------------------------------------------
# manifests are checked before they are used
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def snapshot_on_disk(tmp_path_factory):
    """A 2-shard snapshot with several segments and tombstones, and its bytes."""
    path = tmp_path_factory.mktemp("hostile") / "svc"
    with KokoService(shards=2, storage_dir=path, **SERVICE_KWARGS) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        service.checkpoint()
        service.add_document(TEXTS[0], "late")
        service.remove_document("doc0")
        service.remove_document("doc3")
        sealed = service.checkpoint()
    layout = StorageLayout(path)
    good, payloads = read_snapshot_payloads(layout, sealed)
    assert any(s["tombstones"] for shard in good["shards"] for s in shard["segments"])
    assert max(len(shard["segments"]) for shard in good["shards"]) > 1
    return layout, sealed, good, payloads


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


UNSAFE_NAMES = [
    "../manifest.json",
    "/etc/passwd",
    "segments/../../CURRENT",
    "segments/corpus-0-0000000001.seg/../../x",
    "segments/sub/corpus-0-0000000001.seg",
    "segments/corpus-٣-0000000001.seg",
    "ckpt-0000000001/manifest.json",
    "",
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(UNSAFE_NAMES),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _mutate(document, path, value, delete):
    mutated = json.loads(json.dumps(document))
    if not path:
        return value
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    elif isinstance(parent, dict) and isinstance(path[-1], str) and value == "__rename__":
        parent[UNSAFE_NAMES[0]] = parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return mutated


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_manifest_only_ever_raises_persistence_error(snapshot_on_disk, data):
    layout, sealed, good, payloads = snapshot_on_disk
    path = data.draw(st.sampled_from(list(_paths(good))))
    value = data.draw(JSON_VALUES | st.just("__rename__"))
    delete = bool(path) and data.draw(st.booleans())
    hostile = _mutate(good, path, value, delete)
    try:
        state_from_payloads(hostile, payloads)
    except PersistenceError:
        pass
    manifest_path = layout.snapshot_dir(sealed) / "manifest.json"
    original = manifest_path.read_bytes()
    try:
        manifest_path.write_text(json.dumps(hostile), "utf-8")
        validate_snapshot(layout, sealed)  # a verdict, never an exception
        try:
            load_snapshot(layout, sealed)
        except PersistenceError:
            pass
    finally:
        manifest_path.write_bytes(original)


@pytest.mark.parametrize("name", UNSAFE_NAMES)
def test_unsafe_file_names_are_refused_before_any_read(snapshot_on_disk, monkeypatch, name):
    layout, sealed, good, payloads = snapshot_on_disk
    secret = layout.root / "secret.bin"
    secret.write_bytes(b"not for the snapshot reader")
    hostile = json.loads(json.dumps(good))
    hostile["files"][name] = hashlib.sha256(secret.read_bytes()).hexdigest()
    hostile["shards"][0]["segments"][0]["file"] = name
    opened = []
    real_read_bytes = type(secret).read_bytes
    monkeypatch.setattr(
        type(secret), "read_bytes", lambda self: opened.append(self) or real_read_bytes(self)
    )
    with pytest.raises(PersistenceError, match="unsafe"):
        state_from_payloads(hostile, {**payloads, name: secret.read_bytes()})
    manifest_path = layout.snapshot_dir(sealed) / "manifest.json"
    original = manifest_path.read_bytes()
    opened.clear()
    try:
        manifest_path.write_text(json.dumps(hostile), "utf-8")
        with pytest.raises(PersistenceError, match="unsafe"):
            read_snapshot_payloads(layout, sealed)
        assert opened == []  # refused before a single file was read
    finally:
        manifest_path.write_bytes(original)


def test_a_version_2_store_is_refused_with_a_typed_error(tmp_path):
    """The layout PR 14 wrote: ``corpus-<i>.pkl`` + ``indexes-<i>.npz`` in
    the checkpoint directory.  Opening it raises, and touches nothing."""
    layout = StorageLayout(tmp_path / "svc")
    layout.initialise()
    directory = layout.snapshot_dir(3)
    directory.mkdir()
    (directory / "corpus-0.pkl").write_bytes(pickle.dumps([]))
    (directory / "indexes-0.npz").write_bytes(b"")
    v2 = {
        "version": 2, "checkpoint_id": 3, "name": "old", "num_shards": 1,
        "next_sid": 0, "generations": [0], "shards": [{"documents": 0}],
        "files": {"corpus-0.pkl": "0" * 64, "indexes-0.npz": "0" * 64},
    }
    (directory / "manifest.json").write_text(json.dumps(v2), "utf-8")
    before = sorted(str(p) for p in layout.root.rglob("*"))
    with pytest.raises(LayoutVersionError, match="version 2"):
        KokoService.open(layout.root, **SERVICE_KWARGS)
    assert sorted(str(p) for p in layout.root.rglob("*")) == before
    with pytest.raises(LayoutVersionError):
        state_from_payloads(v2, {})


def _as_written_by(manifest: dict, version: int, layout: StorageLayout) -> dict:
    """*manifest* restamped as layout *version* wrote it.

    Version 3 had these very files (its frames pickle object-graph
    sentences).  Version 4 also named, per shard, the index columns of
    ``indexes-<i>-<N>.npz`` and their ``build_seconds``; the file is written
    beside the segments and digested like them.
    """
    older = dict(json.loads(json.dumps(manifest)), version=version)
    if version == 4:
        for shard_id, shard in enumerate(older["shards"]):
            name = f"segments/indexes-{shard_id}-{older['checkpoint_id']:010d}.npz"
            payload = b"PK\x05\x06" + bytes(18)  # an empty zip archive
            (layout.snapshots_dir / name).write_bytes(payload)
            older["files"][name] = hashlib.sha256(payload).hexdigest()
            shard.update(indexes=name, build_seconds=0.0)
    return older


@pytest.mark.parametrize("version", [3, 4])
def test_an_older_store_is_refused_before_a_frame_is_decoded(tmp_path, monkeypatch, version):
    """Opening a store of layout 3 or 4, reading it, or bootstrapping from
    it shipped raises ``LayoutVersionError`` naming its version and this
    build's before any frame is unpickled, and touches nothing."""
    with KokoService(storage_dir=tmp_path / "svc", **SERVICE_KWARGS) as service:
        for index, text in enumerate(TEXTS[:3]):
            service.add_document(text, f"doc{index}")
        sealed = service.checkpoint()
    layout = StorageLayout(tmp_path / "svc")
    path = layout.snapshot_dir(sealed) / "manifest.json"
    older = _as_written_by(json.loads(path.read_text("utf-8")), version, layout)
    path.write_text(json.dumps(older), "utf-8")
    shipped = {name: (layout.snapshots_dir / name).read_bytes() for name in older["files"]}
    assert any(name.endswith(".npz") for name in shipped) == (version == 4)
    unpickled = []
    monkeypatch.setattr(
        snapshot_module, "pickle", SimpleNamespace(loads=unpickled.append)
    )
    before = sorted(str(p) for p in layout.root.rglob("*"))
    with pytest.raises(LayoutVersionError, match=f"version {version}") as raised:
        KokoService.open(layout.root, **SERVICE_KWARGS)
    assert f"version {LAYOUT_VERSION}" in str(raised.value) and LAYOUT_VERSION == 5
    with pytest.raises(LayoutVersionError):
        read_snapshot_payloads(layout, sealed)
    with pytest.raises(LayoutVersionError, match=f"version {version}") as raised:
        state_from_payloads(older, shipped)
    assert f"version {LAYOUT_VERSION}" in str(raised.value)
    assert unpickled == []
    assert sorted(str(p) for p in layout.root.rglob("*")) == before
