"""Versioned snapshots of a live service: corpus + index columns + counters.

A snapshot is the read-optimised half of the durability design: the full
service state at one checkpoint, written as

* ``corpus-<i>.pkl`` — shard *i*'s annotated documents (pickle), the exact
  objects the NLP pipeline produced, so warm restart re-annotates nothing;
* ``indexes-<i>.npz`` — shard *i*'s index columns as
  :meth:`KokoIndexSet.to_arrays` names them, each in the narrowest integer
  dtype that holds it, zip-deflated; nothing in it is pickled and it is
  read with ``allow_pickle=False``;
* ``manifest.json`` — layout version, shard count, sid counter, per-shard
  generation stamps, and a SHA-256 digest per file so a half-written or
  bit-rotted snapshot is detected and skipped at recovery time.

The same bytes are the replica-bootstrap payload.  A manifest of another
``LAYOUT_VERSION`` is refused (:class:`LayoutVersionError`): there is one
reader, for the current layout.

Writes are crash-safe: everything lands in a ``.tmp`` sibling first, is
fsynced, and the directory is atomically renamed into place; the ``CURRENT``
pointer only moves after the rename is durable.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import PersistenceError
from ..indexing.koko_index import KokoIndexSet
from ..nlp.types import Document
from .layout import LAYOUT_VERSION, StorageLayout, fsync_dir, fsync_file

__all__ = [
    "LayoutVersionError",
    "SnapshotState",
    "load_snapshot",
    "read_snapshot_payloads",
    "state_from_payloads",
    "write_snapshot",
]

MANIFEST_NAME = "manifest.json"


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
    #: shard lock); populated by whoever hands the state to the writer
    index_arrays: list[dict[str, np.ndarray]] = field(default_factory=list)
    #: per-shard restored index sets; populated by the loader only
    index_sets: list[KokoIndexSet] = field(default_factory=list)


class LayoutVersionError(PersistenceError):
    """A snapshot of another ``LAYOUT_VERSION`` — not corruption: falling
    back past it would silently serve a subset of the data."""


def _check_version(manifest: dict, where: str) -> None:
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


def _digest(path: Path) -> str:
    hasher = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _write_file(path: Path, payload: bytes) -> str:
    """Write + fsync one snapshot artifact; digest the bytes in hand."""
    path.write_bytes(payload)
    fsync_file(path)
    return hashlib.sha256(payload).hexdigest()


def write_snapshot(layout: StorageLayout, state: SnapshotState) -> Path:
    """Write *state* as snapshot ``ckpt-<id>`` and return its directory.

    Does **not** move ``CURRENT`` — the caller repoints it once the
    snapshot (and any WAL bookkeeping) is durable.
    """
    final_dir = layout.snapshot_dir(state.checkpoint_id)
    tmp_dir = final_dir.with_name(final_dir.name + ".tmp")
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)

    files: dict[str, str] = {}
    shards_meta = []
    for shard_id in range(state.num_shards):
        corpus_name = f"corpus-{shard_id}.pkl"
        files[corpus_name] = _write_file(
            tmp_dir / corpus_name,
            pickle.dumps(
                state.documents_by_shard[shard_id], protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
        indexes_name = f"indexes-{shard_id}.npz"
        files[indexes_name] = _write_file(
            tmp_dir / indexes_name, _encode_index_arrays(state.index_arrays[shard_id])
        )
        shards_meta.append(
            {
                "documents": len(state.documents_by_shard[shard_id]),
                "build_seconds": (
                    state.build_seconds_by_shard[shard_id]
                    if state.build_seconds_by_shard
                    else 0.0
                ),
            }
        )

    manifest = {
        "version": LAYOUT_VERSION,
        "checkpoint_id": state.checkpoint_id,
        "name": state.name,
        "num_shards": state.num_shards,
        "next_sid": state.next_sid,
        "generations": list(state.generations),
        "shards": shards_meta,
        "files": files,
    }
    manifest_path = tmp_dir / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), "utf-8")
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
    return final_dir


def validate_snapshot(layout: StorageLayout, checkpoint_id: int) -> dict | None:
    """Return the manifest of snapshot *checkpoint_id* iff it is fully valid.

    Valid means: the directory and manifest exist, the layout version is
    the one this build reads, and every listed file is present with a
    matching digest.  Returns ``None`` for anything less.
    """
    try:
        manifest = _read_manifest(layout, checkpoint_id)
    except PersistenceError:
        return None
    directory = layout.snapshot_dir(checkpoint_id)
    for name, digest in manifest.get("files", {}).items():
        path = directory / name
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
    Any missing file, digest mismatch or undecodable payload raises
    :class:`PersistenceError`; a manifest of another layout version raises
    its subclass :class:`LayoutVersionError`.
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
    re-verify what it received.  Raises :class:`PersistenceError` on any
    missing file or digest mismatch (e.g. a snapshot pruned mid-read — the
    caller retries with the new latest checkpoint).
    """
    manifest = _read_manifest(layout, checkpoint_id)
    directory = layout.snapshot_dir(checkpoint_id)
    payloads: dict[str, bytes] = {}
    for name, digest in manifest.get("files", {}).items():
        try:
            payload = (directory / name).read_bytes()
        except OSError as exc:
            raise PersistenceError(f"snapshot file {name} unreadable: {exc}") from exc
        if hashlib.sha256(payload).hexdigest() != digest:
            raise PersistenceError(f"snapshot file {name} fails its digest")
        payloads[name] = payload
    return manifest, payloads


def state_from_payloads(
    manifest: dict, payloads: dict[str, bytes], verify: bool = True
) -> SnapshotState:
    """Rebuild a :class:`SnapshotState` from snapshot bytes.

    The inverse of :func:`read_snapshot_payloads`.  A replication follower
    hands over the manifest and file bytes it received and the digests are
    re-checked against the manifest (``verify=True``, the default —
    transports are framed but not content-checksummed);
    :func:`load_snapshot` passes what it just verified.
    """
    _check_version(manifest, "shipped snapshot")
    checkpoint_id = manifest["checkpoint_id"]
    state = SnapshotState(
        checkpoint_id=checkpoint_id,
        name=manifest["name"],
        num_shards=manifest["num_shards"],
        next_sid=manifest["next_sid"],
        generations=[int(g) for g in manifest["generations"]],
        documents_by_shard=[],
        build_seconds_by_shard=[
            float(meta.get("build_seconds", 0.0)) for meta in manifest["shards"]
        ],
    )

    def read_verified(name: str) -> bytes:
        payload = payloads.get(name)
        if payload is None:
            raise PersistenceError(f"snapshot is missing file {name}")
        if verify and hashlib.sha256(payload).hexdigest() != manifest["files"].get(name):
            raise PersistenceError(f"snapshot file {name} fails its digest")
        return payload

    # Deserialising a corpus allocates very many small objects; collector
    # passes in the middle of that dominate warm-restart time, so hold GC
    # off for the duration (nothing loaded here is garbage yet anyway).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for shard_id in range(state.num_shards):
            try:
                documents: list[Document] = pickle.loads(
                    read_verified(f"corpus-{shard_id}.pkl")
                )
                index_set = KokoIndexSet.from_arrays(
                    _decode_index_arrays(read_verified(f"indexes-{shard_id}.npz")),
                    build_seconds=state.build_seconds_by_shard[shard_id],
                )
            except PersistenceError:
                raise
            except Exception as exc:
                raise PersistenceError(
                    f"snapshot {checkpoint_id} shard {shard_id} fails to decode: {exc!r}"
                ) from exc
            state.documents_by_shard.append(documents)
            state.index_sets.append(index_set)
    finally:
        if gc_was_enabled:
            gc.enable()
    return state
