"""The on-disk layout of a durable KOKO service directory.

One service maps to one directory::

    <root>/
      CURRENT                       # id of the latest durable checkpoint
      snapshots/
        ckpt-0000000009/            # one versioned snapshot per checkpoint:
          manifest.json             #   counters, the files it names, digests
        ckpt-0000000005/            # the retained fallback
          manifest.json
        segments/                   # immutable files the manifests share
          corpus-0-0000000005.seg   #   shard 0's documents gained by ckpt 5
          corpus-0-0000000009.seg   #   ... and those gained by ckpt 9
          indexes-0-0000000009.npz  #   shard 0's index columns at ckpt 9
          ...
      wal/
        wal-0000000010.log          # operations since checkpoint 9

Checkpoint ids are monotonically increasing.  Snapshot ``ckpt-N`` contains
every operation recorded in WAL segments ``1..N``; after it becomes durable
the active segment is ``N+1`` and segments ``<= N`` are garbage.  A
snapshot directory holds only its manifest; the manifest's ``files`` table
names (relative to ``snapshots/``) every file under ``segments/`` the
snapshot reads, and a file is written once, by the checkpoint whose id it
carries, before any manifest names it.  The ``CURRENT`` pointer is updated
with an atomic rename *after* the snapshot is fully written and fsynced, so
a crash at any point leaves either the old or the new checkpoint
referenced — never a torn one.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

__all__ = ["LAYOUT_VERSION", "StorageLayout", "fsync_dir", "fsync_file"]

#: bump when the snapshot or WAL format changes incompatibly; a store of
#: any other version is refused (there is no reader for old layouts)
LAYOUT_VERSION = 3

SNAPSHOT_PREFIX = "ckpt-"
MANIFEST_NAME = "manifest.json"
SEGMENTS_DIR = "segments"
WAL_PREFIX = "wal-"
WAL_SUFFIX = ".log"


def fsync_file(path: Path) -> None:
    """fsync one file by path (used after whole-file writes)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path) -> None:
    """fsync a directory so renames/creations inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class StorageLayout:
    """Path arithmetic + atomic pointer updates for one service directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # directories
    # ------------------------------------------------------------------
    @property
    def snapshots_dir(self) -> Path:
        """Directory holding one ``ckpt-N`` subdirectory per snapshot."""
        return self.root / "snapshots"

    @property
    def segments_dir(self) -> Path:
        """Directory holding the files snapshots share (corpus segments, columns)."""
        return self.snapshots_dir / SEGMENTS_DIR

    @property
    def wal_dir(self) -> Path:
        """Directory holding the ``wal-N.log`` segments."""
        return self.root / "wal"

    @property
    def current_file(self) -> Path:
        """The ``CURRENT`` pointer file (latest durable checkpoint id)."""
        return self.root / "CURRENT"

    def initialise(self) -> None:
        """Create the directory skeleton (idempotent)."""
        self.snapshots_dir.mkdir(parents=True, exist_ok=True)
        self.wal_dir.mkdir(parents=True, exist_ok=True)

    def exists(self) -> bool:
        """True when *root* already holds a service layout."""
        return self.snapshots_dir.is_dir() or self.wal_dir.is_dir()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot_dir(self, checkpoint_id: int) -> Path:
        """The snapshot directory of checkpoint *checkpoint_id*."""
        return self.snapshots_dir / f"{SNAPSHOT_PREFIX}{checkpoint_id:010d}"

    def snapshot_ids(self) -> list[int]:
        """All snapshot ids present on disk (ascending; temp dirs excluded)."""
        found = []
        if self.snapshots_dir.is_dir():
            for entry in self.snapshots_dir.iterdir():
                name = entry.name
                if name.startswith(SNAPSHOT_PREFIX) and not name.endswith(".tmp"):
                    try:
                        found.append(int(name[len(SNAPSHOT_PREFIX):]))
                    except ValueError:
                        continue
        return sorted(found)

    # ------------------------------------------------------------------
    # WAL segments
    # ------------------------------------------------------------------
    def wal_path(self, segment_id: int) -> Path:
        """The file path of WAL segment *segment_id*."""
        return self.wal_dir / f"{WAL_PREFIX}{segment_id:010d}{WAL_SUFFIX}"

    def wal_segment_ids(self) -> list[int]:
        """All WAL segment ids present on disk (ascending)."""
        found = []
        if self.wal_dir.is_dir():
            for entry in self.wal_dir.iterdir():
                name = entry.name
                if name.startswith(WAL_PREFIX) and name.endswith(WAL_SUFFIX):
                    try:
                        found.append(int(name[len(WAL_PREFIX):-len(WAL_SUFFIX)]))
                    except ValueError:
                        continue
        return sorted(found)

    # ------------------------------------------------------------------
    # CURRENT pointer
    # ------------------------------------------------------------------
    def read_current(self) -> int | None:
        """The checkpoint id ``CURRENT`` references, or None when unset/bad."""
        try:
            return int(self.current_file.read_text(encoding="utf-8").strip())
        except (FileNotFoundError, ValueError):
            return None

    def write_current(self, checkpoint_id: int) -> None:
        """Atomically repoint ``CURRENT`` at *checkpoint_id* (write + rename)."""
        tmp = self.current_file.with_suffix(".tmp")
        tmp.write_text(f"{checkpoint_id}\n", encoding="utf-8")
        fsync_file(tmp)
        os.replace(tmp, self.current_file)
        fsync_dir(self.root)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def prune(self, keep_checkpoint_id: int, wal_keep_from: int | None = None) -> None:
        """Delete snapshots and WAL segments superseded by a durable checkpoint.

        Keeps snapshot ``keep_checkpoint_id`` **and its predecessor**, plus
        every WAL segment the predecessor needs to roll forward — so if the
        newest snapshot is later found torn or corrupt in a file only it
        names, recovery falls back one checkpoint and replays the retained
        log instead of losing data.  (The two share most of their files
        under ``segments/``: a bad shared file sinks both, and recovery
        refuses to boot rather than fall back further.)  Everything older
        is unreferenced once ``CURRENT`` points at the new checkpoint, and
        so are leftover ``ckpt-N.tmp`` directories, which a crashed
        checkpoint leaves behind.  The files under ``segments/`` that no
        remaining manifest names are
        :func:`~repro.persistence.snapshot.prune_segments`' to delete: the
        manifest format is that module's.

        ``wal_keep_from`` additionally retains every WAL segment with id
        ``>= wal_keep_from`` regardless of checkpoint coverage — the
        retention pin log shipping uses so a follower tailing segment *N*
        never has it folded away mid-read (see
        ``KokoService.register_wal_pin``).
        """
        retained = [s for s in self.snapshot_ids() if s <= keep_checkpoint_id][-2:]
        oldest_retained = min(retained, default=keep_checkpoint_id)
        for snapshot_id in self.snapshot_ids():
            if snapshot_id < keep_checkpoint_id and snapshot_id not in retained:
                shutil.rmtree(self.snapshot_dir(snapshot_id), ignore_errors=True)
        for leftover in self.snapshots_dir.glob(f"{SNAPSHOT_PREFIX}*.tmp"):
            shutil.rmtree(leftover, ignore_errors=True)
        for segment_id in self.wal_segment_ids():
            if segment_id <= oldest_retained and (
                wal_keep_from is None or segment_id < wal_keep_from
            ):
                try:
                    self.wal_path(segment_id).unlink()
                except OSError:  # pragma: no cover - best-effort GC
                    pass
