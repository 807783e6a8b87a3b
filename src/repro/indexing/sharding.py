"""Hash-partitioned storage for the KOKO multi-index.

A :class:`ShardedIndexSet` owns N independent
:class:`~repro.indexing.koko_index.KokoIndexSet` shards and routes every
document to exactly one of them by a **stable** hash of its ``doc_id``
(``zlib.crc32``, so routing survives process restarts — Python's builtin
``hash`` is salted per process).  Each shard supports the same incremental
``add_document`` / ``remove_document`` maintenance as an unsharded index
set, which is what lets the service layer give every shard its own write
lock: ingesting one document touches one shard only.

Partitioning by document (not by sentence) keeps every index self-contained
per shard — DPLI, skip-plan generation and aggregation never need postings
from another shard, so query execution fans out embarrassingly parallel and
the per-shard results merge by sentence id
(:func:`~repro.koko.results.merge_results`).
"""

from __future__ import annotations

import zlib
from typing import Iterator

from ..nlp.types import Corpus, Document
from .koko_index import IndexStatistics, KokoIndexSet


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

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_id(self, doc_id: str) -> int:
        """Which shard *doc_id* lives in."""
        return shard_of(doc_id, len(self.shards))

    def shard_for(self, doc_id: str) -> KokoIndexSet:
        """The shard index set *doc_id* lives in."""
        return self.shards[self.shard_id(doc_id)]

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
    # accounting
    # ------------------------------------------------------------------
    def statistics(self) -> IndexStatistics:
        """Corpus-wide statistics, merged across every shard."""
        return IndexStatistics.merged([shard.statistics() for shard in self.shards])

    def statistics_by_shard(self) -> list[IndexStatistics]:
        """Per-shard statistics, in shard order (the skew/balance view)."""
        return [shard.statistics() for shard in self.shards]

    def approximate_bytes(self) -> int:
        return sum(shard.approximate_bytes() for shard in self.shards)
