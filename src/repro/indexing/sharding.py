"""Hash-partitioned storage for the KOKO multi-index.

A :class:`ShardedIndexSet` owns N independent
:class:`~repro.indexing.koko_index.KokoIndexSet` shards and routes every
document to exactly one of them by a **stable** hash of its ``doc_id``
(``zlib.crc32``, so routing survives process restarts — Python's builtin
``hash`` is salted per process).  Each shard supports the same incremental
``add_document`` / ``remove_document`` maintenance as an unsharded index
set, which is what lets the service layer give every shard its own write
lock: ingesting one document touches one shard only.

Partitioning by document (not by sentence) keeps every sentence's postings
in one shard, and sentence ids are global, so the shards' postings are
disjoint row sets of one corpus-wide relation.  A set over several shards
therefore answers the DPLI lookups of Algorithm 1 (``entity_candidates``,
``path_candidates``, ``unrooted_sids``) exactly by concatenating the
per-shard answers and sorting once by ``(sid, tid)``.  The service runs one
pipeline pass over the :meth:`~ShardedIndexSet.view` of the shards a query
has to compute, and splits its result per shard afterwards.  A view may
limit a shard to some of its sentences (the documents written since a
cached partial was made): its lookups then answer for those sids alone.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Sequence

import numpy as np

from ..nlp.types import Corpus, Document
from .columnar import PostingBlock
from .decompose import DecomposedPath
from .koko_index import IndexStatistics, KokoIndexSet
from .query_ir import TreePath

__all__ = ["ShardedIndexSet", "shard_of"]


def shard_of(doc_id: str, num_shards: int) -> int:
    """The shard index (0-based) document *doc_id* is routed to.

    Stable across processes and platforms — routing is part of the storage
    layout, so it must not depend on Python's salted ``hash``.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    return zlib.crc32(doc_id.encode("utf-8")) % num_shards


class ShardedIndexSet:
    """N hash-partitioned :class:`KokoIndexSet` shards behaving as one."""

    def __init__(self, num_shards: int = 4) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.shards: list[KokoIndexSet] = [KokoIndexSet() for _ in range(num_shards)]
        #: per shard, the sorted sids a view answers for (None: all); None
        #: when no shard is limited
        self.limits: list[np.ndarray | None] | None = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many shards this set holds."""
        return len(self.shards)

    def shard_id(self, doc_id: str) -> int:
        """Which shard *doc_id* lives in."""
        return shard_of(doc_id, len(self.shards))

    def shard_for(self, doc_id: str) -> KokoIndexSet:
        """The shard index set *doc_id* lives in."""
        return self.shards[self.shard_id(doc_id)]

    def view(
        self,
        shard_ids: Sequence[int],
        limits: Sequence[np.ndarray | None] | None = None,
    ) -> "ShardedIndexSet":
        """The shards *shard_ids* (ascending) as one index set, for reads.

        *limits*, when given, holds per shard of *shard_ids* the sorted
        sids the view answers for, or None for all of the shard's.  The
        view shares the shard objects.  Only its DPLI lookups are
        meaningful: routing and maintenance belong to the full set, whose
        shard count the hash is taken over.
        """
        view = object.__new__(ShardedIndexSet)
        view.shards = [self.shards[shard_id] for shard_id in shard_ids]
        if limits is not None and all(limit is None for limit in limits):
            limits = None
        view.limits = None if limits is None else list(limits)
        return view

    def __iter__(self) -> Iterator[KokoIndexSet]:
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # construction / incremental maintenance
    # ------------------------------------------------------------------
    def build(self, corpus: Corpus) -> "ShardedIndexSet":
        """Route and index every document of *corpus*; returns self."""
        for document in corpus:
            self.add_document(document)
        return self

    def add_document(self, document: Document) -> KokoIndexSet:
        """Incrementally index *document* in its shard; returns that shard."""
        shard = self.shard_for(document.doc_id)
        shard.add_document(document)
        return shard

    def remove_document(self, document: Document) -> KokoIndexSet:
        """Incrementally un-index *document* from its shard; returns it."""
        shard = self.shard_for(document.doc_id)
        shard.remove_document(document)
        return shard

    # ------------------------------------------------------------------
    # DPLI lookups over the union of the shards (Algorithm 1)
    # ------------------------------------------------------------------
    def entity_candidates(
        self, etype: str
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Mentions of type *etype* in every shard: ``(sorted sids, columns)``.

        The columns are the shards' ``(sid, left, right)`` one after
        another, as :meth:`KokoIndexSet.entity_candidates` leaves them in
        one shard.
        """
        if len(self.shards) == 1 and self.limits is None:
            return self.shards[0].entity_candidates(etype)
        parts = [shard.entity_index.lookup_type(etype) for shard in self.shards]
        if self.limits is not None:
            parts = [
                part if limit is None else tuple(column[_within(part[0], limit)] for column in part)
                for part, limit in zip(parts, self.limits)
            ]
        columns = tuple(map(np.concatenate, zip(*parts)))
        return np.sort(columns[0]), columns

    def path_candidates(
        self, path: TreePath, decomposed: DecomposedPath | None = None
    ) -> tuple[np.ndarray, PostingBlock]:
        """Postings of *path*'s final step in every shard, ``(sid, tid)``-sorted.

        Each shard's block is already ``(sid, tid)``-sorted and a sentence
        lives in one shard, so one stable sort by sid orders the union.
        """
        if len(self.shards) == 1 and self.limits is None:
            return self.shards[0].path_candidates(path, decomposed)
        blocks = [shard.path_candidates(path, decomposed)[1] for shard in self.shards]
        if self.limits is not None:
            blocks = [
                block if limit is None else block.take(_within(block.sid, limit))
                for block, limit in zip(blocks, self.limits)
            ]
            if len(blocks) == 1:
                return blocks[0].sid, blocks[0]
        block = PostingBlock(
            *(
                np.concatenate([getattr(part, name) for part in blocks])
                for name in ("sid", "tid", "left", "right", "depth")
            )
        )
        block = block.take(np.argsort(block.sid, kind="stable"))
        return block.sid, block

    def unrooted_sids(self) -> np.ndarray:
        """Sorted sids of every shard's sentences holding a token no hierarchy holds."""
        parts = [shard.unrooted_sids() for shard in self.shards]
        if self.limits is not None:
            parts = [
                sids if limit is None else sids[_within(sids, limit)]
                for sids, limit in zip(parts, self.limits)
            ]
        return np.sort(np.concatenate(parts))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def statistics(self) -> IndexStatistics:
        """Corpus-wide statistics, merged across every shard."""
        return IndexStatistics.merged([shard.statistics() for shard in self.shards])

    def statistics_by_shard(self) -> list[IndexStatistics]:
        """Per-shard statistics, in shard order (the skew/balance view)."""
        return [shard.statistics() for shard in self.shards]

    def approximate_bytes(self) -> int:
        """Every shard's estimated footprint, added up."""
        return sum(shard.approximate_bytes() for shard in self.shards)


def _within(sids: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """A mask of the entries of *sids* that the sorted *limit* holds."""
    if not len(limit):
        return np.zeros(len(sids), bool)
    at = np.searchsorted(limit, sids)
    return limit[np.minimum(at, len(limit) - 1)] == sids
