"""Versioned snapshots of a live service: corpus segments + index columns + counters.

A snapshot is the read-optimised half of the durability design: the full
service state at one checkpoint.  Its directory ``ckpt-<id>/`` holds only
``manifest.json``; the files it names live in ``snapshots/segments/`` and
are shared with the snapshots before and after it:

* ``segments/corpus-<i>-<id>.seg`` — an immutable **corpus segment** of
  shard *i*, written by checkpoint *id*: documents the shard gained since
  the previous checkpoint, one frame per document (``u32`` id length,
  ``u32`` pickle length, the UTF-8 doc id, the pickle) — the exact objects
  the NLP pipeline produced, so warm restart re-annotates nothing.  A
  checkpoint writes at most one segment per shard and names every other
  one again, so each document is pickled once in its lifetime;
* ``segments/indexes-<i>-<id>.npz`` — shard *i*'s index columns as
  :meth:`KokoIndexSet.to_arrays` names them, each in the narrowest integer
  dtype that holds it, zip-deflated; nothing in it is pickled and it is
  read with ``allow_pickle=False``.  A shard whose generation has not moved
  since the previous checkpoint names that checkpoint's file again;
* ``manifest.json`` — layout version, shard count, sid counter, per-shard
  generation stamps; per shard its index file and its segments in order,
  each with its frame count and the ids of documents removed since it was
  written (**tombstones**); and ``files``, a SHA-256 digest per named file,
  so a half-written or bit-rotted snapshot is detected and skipped at
  recovery time.

Reading a shard is reading its segments in manifest order and skipping
tombstoned frames: the result is the shard's ``corpus.documents`` as
captured, in the same order.

**Merging.**  A new segment is merged with the newest existing ones, from
the oldest segment that is not larger (in frames) than everything newer
than it — a binary counter that also holds for uneven checkpoints: each
segment stays larger than all newer ones together, so a shard that was
written *w* documents has at most ``floor(log2 w) + 1`` segments.  A merge
concatenates frames and drops tombstoned ones; it never unpickles or
re-pickles a document.

The same bytes are the replica-bootstrap payload.  A manifest of another
``LAYOUT_VERSION`` is refused (:class:`LayoutVersionError`): there is one
reader, for the current layout.  Every file name a manifest holds must
match the two patterns above — checked before any path join or payload
lookup, on disk and on the wire — so a manifest cannot point outside
``segments/``.

Writes are crash-safe: new files are written and fsynced, and their
directory synced, before the manifest names them; the manifest lands in a
``.tmp`` sibling directory that is fsynced and atomically renamed into
place; the ``CURRENT`` pointer only moves after the rename is durable.
What a crash leaves behind is removed by the next prune
(:func:`prune_segments` after :meth:`StorageLayout.prune`).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..errors import PersistenceError
from ..indexing.koko_index import KokoIndexSet
from ..nlp.types import Document
from .layout import (
    LAYOUT_VERSION,
    MANIFEST_NAME,
    SEGMENTS_DIR,
    StorageLayout,
    fsync_dir,
    fsync_file,
)

__all__ = [
    "LayoutVersionError",
    "Segment",
    "ShardSegments",
    "SnapshotState",
    "load_snapshot",
    "prune_segments",
    "read_snapshot_payloads",
    "referenced_files",
    "state_from_payloads",
    "write_snapshot",
]

#: the only file names a manifest may hold (relative to ``snapshots/``)
_SEGMENT_NAME = re.compile(r"segments/corpus-[0-9]{1,6}-[0-9]{10}\.seg")
_INDEXES_NAME = re.compile(r"segments/indexes-[0-9]{1,6}-[0-9]{10}\.npz")
#: a segment frame's header: doc-id bytes, pickle bytes
_FRAME = struct.Struct("<II")


@dataclass(frozen=True)
class Segment:
    """One immutable corpus segment as a manifest lists it."""

    file: str  # name relative to ``snapshots/``
    digest: str  # SHA-256 of its bytes
    frames: int  # documents pickled into it, tombstoned or not
    tombstones: frozenset[str] = frozenset()  # its documents removed since


@dataclass
class ShardSegments:
    """One shard's corpus as a snapshot stores it — and the next write's input.

    ``saved`` maps the id of every document with a live frame to that
    frame's segment file and the very :class:`Document` pickled into it:
    identity, not the id, tells a document the snapshot holds from a newer
    one that re-used the id of a removed one.
    """

    segments: list[Segment] = field(default_factory=list)
    saved: dict[str, tuple[str, Document]] = field(default_factory=dict)
    #: ``(file, digest)`` of the shard's index columns ...
    indexes: tuple[str, str] | None = None
    #: ... and the shard generation they were captured at
    generation: int = -1

    def holds(self, document: Document) -> bool:
        """True when *document* itself has a live frame in these segments."""
        entry = self.saved.get(document.doc_id)
        return entry is not None and entry[1] is document

    def has_columns(self, generation: int) -> bool:
        """True when the stored index columns are those of *generation*."""
        return self.indexes is not None and self.generation == generation


@dataclass
class SnapshotState:
    """Everything a snapshot persists (and recovery restores)."""

    checkpoint_id: int
    name: str
    num_shards: int
    next_sid: int
    generations: list[int]
    documents_by_shard: list[list[Document]]
    build_seconds_by_shard: list[float] = field(default_factory=list)
    #: per-shard :meth:`KokoIndexSet.to_arrays` captures (taken under the
    #: shard lock), ``None`` where :meth:`ShardSegments.has_columns` says the
    #: stored ones are current; populated by whoever hands the state to the
    #: writer
    index_arrays: list[dict[str, np.ndarray] | None] = field(default_factory=list)
    #: per-shard restored index sets; populated by the loader only
    index_sets: list[KokoIndexSet] = field(default_factory=list)
    #: per-shard :class:`ShardSegments` — the writer's input is what the
    #: previous snapshot holds (empty: write every document); after a write
    #: or a load, what this snapshot holds
    segments: list[ShardSegments] = field(default_factory=list)


class LayoutVersionError(PersistenceError):
    """A snapshot of another ``LAYOUT_VERSION`` — not corruption: falling
    back past it would silently serve a subset of the data."""


def _check_version(manifest: dict, where: str) -> None:
    if not isinstance(manifest, dict):
        raise PersistenceError(f"{where} has no manifest object")
    if manifest.get("version") != LAYOUT_VERSION:
        raise LayoutVersionError(
            f"{where} has layout version {manifest.get('version')!r}; "
            f"this build reads only version {LAYOUT_VERSION}"
        )


def _read_manifest(layout: StorageLayout, checkpoint_id: int) -> dict:
    """The parsed, version-checked manifest of snapshot *checkpoint_id*."""
    directory = layout.snapshot_dir(checkpoint_id)
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise PersistenceError(
            f"snapshot {checkpoint_id} at {directory} is missing or corrupt"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("checkpoint_id") != checkpoint_id:
        raise PersistenceError(f"snapshot {checkpoint_id} manifest is inconsistent")
    _check_version(manifest, f"snapshot {checkpoint_id} at {directory}")
    return manifest


# ----------------------------------------------------------------------
# the manifest, checked
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardEntry:
    documents: int
    build_seconds: float
    indexes: tuple[str, str]
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class _Manifest:
    checkpoint_id: int
    name: str
    next_sid: int
    generations: list[int]
    files: dict[str, str]
    shards: list[_ShardEntry]


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a count")
    return value


def _named(name, pattern: re.Pattern, files: dict) -> str:
    if not isinstance(name, str) or not pattern.fullmatch(name):
        raise PersistenceError(f"snapshot manifest names an unsafe file {name!r}")
    if name not in files:
        raise PersistenceError(f"snapshot manifest has no digest for {name!r}")
    return name


def _parse_manifest(manifest: dict) -> _Manifest:
    """*manifest*, typed and checked; raises :class:`PersistenceError` otherwise.

    Every file name is matched against the layout's patterns here, before
    anything joins it onto a path or looks up a payload by it.
    """
    try:
        files = manifest["files"]
        if not isinstance(files, dict):
            raise TypeError("files is not a table")
        for name, digest in files.items():
            if not isinstance(name, str) or not (
                _SEGMENT_NAME.fullmatch(name) or _INDEXES_NAME.fullmatch(name)
            ):
                raise PersistenceError(
                    f"snapshot manifest names an unsafe file {name!r}"
                )
            if not isinstance(digest, str):
                raise TypeError(f"digest of {name} is not a string")
        shards, generations = manifest["shards"], manifest["generations"]
        if (
            not isinstance(shards, list)
            or not isinstance(generations, list)
            or not len(shards) == len(generations) == _count(manifest["num_shards"]) > 0
        ):
            raise ValueError("shard count disagrees with the shard tables")
        entries = []
        for shard in shards:
            indexes = _named(shard["indexes"], _INDEXES_NAME, files)
            segments = []
            for segment in shard["segments"]:
                name = _named(segment["file"], _SEGMENT_NAME, files)
                tombstones = segment["tombstones"]
                if not isinstance(tombstones, list) or not all(
                    isinstance(doc_id, str) for doc_id in tombstones
                ):
                    raise TypeError(f"tombstones of {name} are not a list of ids")
                frames, removed = _count(segment["frames"]), frozenset(tombstones)
                segments.append(Segment(name, files[name], frames, removed))
            entries.append(
                _ShardEntry(
                    documents=_count(shard["documents"]),
                    build_seconds=float(shard["build_seconds"]),
                    indexes=(indexes, files[indexes]),
                    segments=tuple(segments),
                )
            )
        if not isinstance(manifest["name"], str):
            raise TypeError("name is not a string")
        return _Manifest(
            checkpoint_id=_count(manifest["checkpoint_id"]),
            name=manifest["name"],
            next_sid=_count(manifest["next_sid"]),
            generations=[_count(generation) for generation in generations],
            files=dict(files),
            shards=entries,
        )
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise PersistenceError(f"snapshot manifest is malformed: {exc!r}") from exc


def _manifest_of(state: SnapshotState, shards: list[ShardSegments]) -> dict:
    files: dict[str, str] = {}
    entries = []
    for shard_id, shard in enumerate(shards):
        files[shard.indexes[0]] = shard.indexes[1]
        for segment in shard.segments:
            files[segment.file] = segment.digest
        entries.append(
            {
                "documents": len(state.documents_by_shard[shard_id]),
                "build_seconds": (
                    state.build_seconds_by_shard[shard_id]
                    if state.build_seconds_by_shard
                    else 0.0
                ),
                "indexes": shard.indexes[0],
                "segments": [
                    {
                        "file": segment.file,
                        "frames": segment.frames,
                        "tombstones": sorted(segment.tombstones),
                    }
                    for segment in shard.segments
                ],
            }
        )
    return {
        "version": LAYOUT_VERSION,
        "checkpoint_id": state.checkpoint_id,
        "name": state.name,
        "num_shards": state.num_shards,
        "next_sid": state.next_sid,
        "generations": list(state.generations),
        "shards": entries,
        "files": files,
    }


# ----------------------------------------------------------------------
# file payloads
# ----------------------------------------------------------------------
def _narrow(array: np.ndarray) -> np.ndarray:
    """*array* in the narrowest integer dtype that holds every value."""
    if array.size == 0:
        return array.astype(np.uint8)
    return array.astype(
        np.result_type(
            np.min_scalar_type(int(array.min())), np.min_scalar_type(int(array.max()))
        )
    )


def _encode_index_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **{name: _narrow(a) for name, a in arrays.items()})
    return buffer.getvalue()


def _decode_index_arrays(payload: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _frame(document: Document) -> bytes:
    """One segment frame: header, doc id, the document's own pickle."""
    key = document.doc_id.encode("utf-8")
    body = pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(key), len(body)) + key + body


def _frames(payload: bytes, name: str) -> Iterator[tuple[str, int, int, int]]:
    """``(doc_id, frame start, pickle start, frame end)`` of each frame of *payload*."""
    offset, size = 0, len(payload)
    while offset < size:
        if offset + _FRAME.size > size:
            raise PersistenceError(f"segment {name} ends inside a frame header")
        key_bytes, body_bytes = _FRAME.unpack_from(payload, offset)
        body = offset + _FRAME.size + key_bytes
        end = body + body_bytes
        if end > size:
            raise PersistenceError(f"segment {name} ends inside a frame")
        try:
            doc_id = bytes(payload[offset + _FRAME.size : body]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PersistenceError(f"segment {name} has a frame with a bad id") from exc
        yield doc_id, offset, body, end
        offset = end


def _digest(path: Path) -> str:
    hasher = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _write_file(path: Path, payload: bytes) -> str:
    """Write + fsync one snapshot file; digest the bytes in hand."""
    path.write_bytes(payload)
    fsync_file(path)
    return hashlib.sha256(payload).hexdigest()


def _read_file(layout: StorageLayout, name: str, digest: str) -> bytes:
    """The bytes of snapshot file *name* (a checked name), digest-verified."""
    try:
        payload = (layout.snapshots_dir / name).read_bytes()
    except OSError as exc:
        raise PersistenceError(f"snapshot file {name} unreadable: {exc}") from exc
    if hashlib.sha256(payload).hexdigest() != digest:
        raise PersistenceError(f"snapshot file {name} fails its digest")
    return payload


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def _append_segment(
    layout: StorageLayout,
    name: str,
    segments: list[Segment],
    saved: dict[str, tuple[str, Document]],
    fresh: list[Document],
) -> list[Segment]:
    """Write *fresh* as segment *name*, merged with the newest of *segments*.

    The merge starts at the oldest segment that is not larger than every
    newer one together (the new one included); frames are copied as bytes,
    tombstoned ones dropped.  *saved* is repointed at *name* for every frame
    it now holds.  Returns the shard's new segment list.
    """
    sizes = [segment.frames for segment in segments] + [len(fresh)]
    start, newer = len(segments), 0
    for index in range(len(segments) - 1, -1, -1):
        newer += sizes[index + 1]
        if sizes[index] <= newer:
            start = index
    parts: list[bytes | memoryview] = []
    for segment in segments[start:]:
        payload = memoryview(_read_file(layout, segment.file, segment.digest))
        for doc_id, begin, _, end in _frames(payload, segment.file):
            if doc_id in segment.tombstones:
                continue
            if doc_id not in saved:
                raise PersistenceError(f"{segment.file} holds unknown {doc_id!r}")
            parts.append(payload[begin:end])
            saved[doc_id] = (name, saved[doc_id][1])
    for document in fresh:
        parts.append(_frame(document))
        saved[document.doc_id] = (name, document)
    digest = _write_file(layout.snapshots_dir / name, b"".join(parts))
    return segments[:start] + [Segment(name, digest, len(parts))]


def _write_shard(
    layout: StorageLayout, state: SnapshotState, shard_id: int, previous: ShardSegments
) -> ShardSegments:
    """Write what shard *shard_id* gained since *previous*; return what it holds now."""
    documents = state.documents_by_shard[shard_id]
    # a shard only appends, so the documents *previous* does not hold are
    # a suffix, and the ids it holds but the prefix lacks were removed
    split = len(documents)
    while split and not previous.holds(documents[split - 1]):
        split -= 1
    prefix = documents[:split]
    kept = {document.doc_id for document in prefix}
    saved = {doc_id: at for doc_id, at in previous.saved.items() if doc_id in kept}
    # ``saved`` lists the held documents in segment order: unless the prefix
    # is exactly those, in that order (an aborted remove re-splices its
    # document at the end), segments cannot say it; the caller starts over
    if len(saved) != split or any(
        at[1] is not document for at, document in zip(saved.values(), prefix)
    ):
        raise PersistenceError(
            f"shard {shard_id} is not its stored documents plus new ones at the end"
        )
    removed: dict[str, set[str]] = {}
    for doc_id, (file, _) in previous.saved.items():
        if doc_id not in kept:
            removed.setdefault(file, set()).add(doc_id)
    segments = [
        replace(segment, tombstones=segment.tombstones | removed[segment.file])
        if segment.file in removed
        else segment
        for segment in previous.segments
    ]
    tag = f"{shard_id}-{state.checkpoint_id:010d}"
    if split < len(documents):
        segments = _append_segment(
            layout, f"segments/corpus-{tag}.seg", segments, saved, documents[split:]
        )
    indexes = previous.indexes
    arrays = state.index_arrays[shard_id]
    if arrays is not None:
        name = f"segments/indexes-{tag}.npz"
        payload = _encode_index_arrays(arrays)
        indexes = (name, _write_file(layout.snapshots_dir / name, payload))
    if indexes is None:
        raise ValueError(f"shard {shard_id} has no index columns, captured or stored")
    return ShardSegments(segments, saved, indexes, state.generations[shard_id])


def write_snapshot(layout: StorageLayout, state: SnapshotState) -> Path:
    """Write *state* as snapshot ``ckpt-<id>`` and return its directory.

    Writes only what changed since ``state.segments``: per shard at most
    one new segment (the documents it does not hold yet, merged as the
    binary-counter rule says) and, where ``state.index_arrays`` has a
    capture, one index file; every other file is named again.  New files
    and their directory are fsynced before the manifest is written.  On
    return ``state.segments`` describes the new snapshot.

    Does **not** move ``CURRENT`` — the caller repoints it once the
    snapshot (and any WAL bookkeeping) is durable.
    """
    final_dir = layout.snapshot_dir(state.checkpoint_id)
    tmp_dir = final_dir.with_name(final_dir.name + ".tmp")
    if not layout.segments_dir.is_dir():
        layout.segments_dir.mkdir(parents=True)
        fsync_dir(layout.snapshots_dir)
    shards = [
        _write_shard(
            layout,
            state,
            shard_id,
            state.segments[shard_id] if state.segments else ShardSegments(),
        )
        for shard_id in range(state.num_shards)
    ]
    fsync_dir(layout.segments_dir)

    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir()
    manifest_path = tmp_dir / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(_manifest_of(state, shards), indent=2, sort_keys=True), "utf-8"
    )
    fsync_file(manifest_path)
    fsync_dir(tmp_dir)
    # A leftover directory for this id — e.g. from a checkpoint that
    # crashed before CURRENT moved and was re-run after recovery — is
    # necessarily incomplete or superseded (recovery would have restored
    # from it otherwise); clear it so the rename lands.
    if final_dir.exists():
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)
    fsync_dir(layout.snapshots_dir)
    state.segments = shards
    return final_dir


def referenced_files(layout: StorageLayout, checkpoint_id: int) -> set[str]:
    """The file names snapshot *checkpoint_id* reads (empty when it does not parse).

    Only ever used to decide what to *keep*: a manifest that does not parse
    is no snapshot to fall back to, so it protects nothing.
    """
    try:
        return set(_parse_manifest(_read_manifest(layout, checkpoint_id)).files)
    except PersistenceError:
        return set()


def prune_segments(layout: StorageLayout) -> None:
    """Delete every file under ``segments/`` that no snapshot on disk names.

    Runs after :meth:`StorageLayout.prune` dropped the superseded snapshot
    directories, so what goes is what they alone named plus what a crashed
    checkpoint wrote before its manifest existed.
    """
    if not layout.segments_dir.is_dir():
        return
    keep = set().union(*(referenced_files(layout, s) for s in layout.snapshot_ids()))
    for entry in layout.segments_dir.iterdir():
        if entry.is_file() and f"{SEGMENTS_DIR}/{entry.name}" not in keep:
            entry.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def validate_snapshot(layout: StorageLayout, checkpoint_id: int) -> dict | None:
    """Return the manifest of snapshot *checkpoint_id* iff it is fully valid.

    Valid means: the directory and manifest exist, the layout version is
    the one this build reads, the manifest is well formed, and every file
    it names is present with a matching digest.  Returns ``None`` for
    anything less.
    """
    try:
        manifest = _read_manifest(layout, checkpoint_id)
        files = _parse_manifest(manifest).files
    except PersistenceError:
        return None
    for name, digest in files.items():
        path = layout.snapshots_dir / name
        if not path.is_file() or _digest(path) != digest:
            return None
    return manifest


def find_latest_valid(layout: StorageLayout) -> int | None:
    """The newest snapshot id that passes full validation.

    Scans newest-first rather than trusting ``CURRENT``: checkpoint ids are
    monotonic and a fully-valid snapshot is always safe to recover from
    (it covers exactly the WAL segments up to its id), so a snapshot whose
    ``CURRENT`` update was lost in a crash is still preferred over the one
    the stale pointer names.  ``CURRENT`` remains the operator-facing hint.
    """
    for checkpoint_id in reversed(layout.snapshot_ids()):
        if validate_snapshot(layout, checkpoint_id) is not None:
            return checkpoint_id
    return None


def load_snapshot(layout: StorageLayout, checkpoint_id: int) -> SnapshotState:
    """Load snapshot *checkpoint_id*: documents, index sets, counters.

    The disk path is the wire path: the digest-verified file bytes of
    :func:`read_snapshot_payloads`, decoded by :func:`state_from_payloads`.
    Any missing file, digest mismatch, malformed manifest or undecodable
    payload raises :class:`PersistenceError`; a manifest of another layout
    version raises its subclass :class:`LayoutVersionError`.
    """
    manifest, payloads = read_snapshot_payloads(layout, checkpoint_id)
    return state_from_payloads(manifest, payloads, verify=False)


def read_snapshot_payloads(
    layout: StorageLayout, checkpoint_id: int
) -> tuple[dict, dict[str, bytes]]:
    """The raw, digest-verified bytes of snapshot *checkpoint_id*.

    Returns ``(manifest, payloads)`` where *payloads* maps each file name of
    the manifest to its exact on-disk bytes.  This is the shipping form of
    a snapshot: a replication primary sends these bytes verbatim and the
    follower rebuilds the state with :func:`state_from_payloads` — no
    re-encoding, and the digests in the manifest let the follower
    re-verify what it received.  Raises :class:`PersistenceError` on a
    malformed manifest (an unsafe file name included), any missing file or
    a digest mismatch (e.g. a snapshot pruned mid-read — the caller retries
    with the new latest checkpoint).
    """
    manifest = _read_manifest(layout, checkpoint_id)
    files = _parse_manifest(manifest).files
    return manifest, {
        name: _read_file(layout, name, digest) for name, digest in files.items()
    }


def _read_shard(
    entry: _ShardEntry, generation: int, payload_of: Callable[[str], bytes]
) -> tuple[list[Document], ShardSegments]:
    """A shard's documents in corpus order: its segments, tombstones skipped."""
    documents: list[Document] = []
    saved: dict[str, tuple[str, Document]] = {}
    for segment in entry.segments:
        payload = memoryview(payload_of(segment.file))
        frames = 0
        for doc_id, _, body, end in _frames(payload, segment.file):
            frames += 1
            if doc_id in segment.tombstones:
                continue
            document = pickle.loads(payload[body:end])
            if not isinstance(document, Document) or document.doc_id != doc_id:
                raise PersistenceError(f"{segment.file}: {doc_id!r} is no document")
            if doc_id in saved:
                raise PersistenceError(f"document {doc_id!r} is live in two segments")
            saved[doc_id] = (segment.file, document)
            documents.append(document)
        if frames != segment.frames:
            raise PersistenceError(
                f"{segment.file} has {frames} frames, its manifest {segment.frames}"
            )
    if len(documents) != entry.documents:
        raise PersistenceError(
            f"segments hold {len(documents)} live documents, "
            f"the manifest says {entry.documents}"
        )
    shard = ShardSegments(list(entry.segments), saved, entry.indexes, generation)
    return documents, shard


def state_from_payloads(
    manifest: dict, payloads: dict[str, bytes], verify: bool = True
) -> SnapshotState:
    """Rebuild a :class:`SnapshotState` from snapshot bytes.

    The inverse of :func:`read_snapshot_payloads`.  A replication follower
    hands over the manifest and file bytes it received and the digests are
    re-checked against the manifest (``verify=True``, the default —
    transports are framed but not content-checksummed);
    :func:`load_snapshot` passes what it just verified.  The manifest is
    checked (file names included) before any payload is looked up.
    """
    _check_version(manifest, "shipped snapshot")
    parsed = _parse_manifest(manifest)
    state = SnapshotState(
        checkpoint_id=parsed.checkpoint_id,
        name=parsed.name,
        num_shards=len(parsed.shards),
        next_sid=parsed.next_sid,
        generations=parsed.generations,
        documents_by_shard=[],
        build_seconds_by_shard=[entry.build_seconds for entry in parsed.shards],
    )

    def payload_of(name: str) -> bytes:
        payload = payloads.get(name)
        if payload is None:
            raise PersistenceError(f"snapshot is missing file {name}")
        if verify and hashlib.sha256(payload).hexdigest() != parsed.files[name]:
            raise PersistenceError(f"snapshot file {name} fails its digest")
        return payload

    # Deserialising a corpus allocates very many small objects; collector
    # passes in the middle of that dominate warm-restart time, so hold GC
    # off for the duration (nothing loaded here is garbage yet anyway).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for shard_id, entry in enumerate(parsed.shards):
            try:
                index_set = KokoIndexSet.from_arrays(
                    _decode_index_arrays(payload_of(entry.indexes[0])),
                    build_seconds=entry.build_seconds,
                )
                documents, segments = _read_shard(
                    entry, parsed.generations[shard_id], payload_of
                )
            except PersistenceError:
                raise
            except Exception as exc:
                raise PersistenceError(
                    f"snapshot {parsed.checkpoint_id} shard {shard_id} fails to "
                    f"decode: {exc!r}"
                ) from exc
            state.documents_by_shard.append(documents)
            state.index_sets.append(index_set)
            state.segments.append(segments)
    finally:
        if gc_was_enabled:
            gc.enable()
    if len(set().union(*(shard.saved for shard in state.segments))) != sum(
        map(len, state.documents_by_shard)
    ):
        raise PersistenceError("a document is live in two shards")
    return state
