"""The word inverted index (Section 3.1).

Maps every word (lower-cased) to the posting list of its occurrences.  The
index also records, for each occurrence, the hierarchy-index node ids of the
token in the PL and POS indexes (``plid`` / ``posid``) — the extra columns
of the ``W`` relation in Section 6.2.1 that let the engine join inverted and
hierarchy indexes without touching the dependency trees again.

The postings live in one :class:`~repro.indexing.columnar.ColumnarPostings`
store whose ``W``-shaped rows ``(sid, tid, left, right, depth, wid, plid,
posid)`` are flat numpy columns: batch appends for the ingest splice and a
:class:`~repro.indexing.columnar.PostingBlock` of five of them per lookup.
The object-list build these columns replaced survives only as the test
oracle in :mod:`repro.indexing.reference`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .columnar import ColumnarPostings, PostingBlock, StringInterner

__all__ = ["WordIndex"]

_W_COLUMNS = ("sid", "tid", "left", "right", "depth", "wid", "plid", "posid")


class WordIndex:
    """Inverted index from word to posting list."""

    def __init__(self, interner: StringInterner | None = None) -> None:
        # NOTE: an explicit None test — a fresh shared interner is empty and
        # therefore falsy, and falling back to a private one here would make
        # stored word ids undecodable.
        self._interner = interner if interner is not None else StringInterner()
        self._store = ColumnarPostings(_W_COLUMNS)
        # word-interner id -> store key id: the splice resolves keys by
        # integer instead of re-hashing each token's lower-cased text
        self._wid_kid: dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_token_rows(
        self, texts: list[str], columns: "tuple[Sequence[int], ...]"
    ) -> None:
        """Splice: append W rows spanning any number of sentences.

        *columns* are the eight W columns in ``(sid, tid)`` order; *texts*
        are the surface forms matching the ``wid`` column row for row.  Key
        ids resolve through the wid -> kid cache, so steady-state splices
        hash one int per token instead of one lower-cased string.
        """
        store = self._store
        cache = self._wid_kid
        intern_key = store.intern_key
        kids: list[int] = []
        append = kids.append
        for text, wid in zip(texts, columns[5]):
            kid = cache.get(wid)
            if kid is None:
                kid = intern_key(text.lower())
                cache[wid] = kid
            append(kid)
        store.append_batch(kids, columns)

    def remove_sids(self, sids: np.ndarray) -> None:
        """Remove every posting of the sentences *sids* (ascending)."""
        self._store.remove_sids(sids)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, word: str) -> PostingBlock:
        """Posting list of *word* (case-insensitive; empty if unseen) as a
        ``(sid, tid)``-sorted block."""
        store = self._store
        kid = store.key_id(word.lower())
        if kid is None:
            return PostingBlock.empty()
        return PostingBlock(*store.arrays_for_key(kid)[:5]).sort_positional()

    def vocabulary(self) -> list[str]:
        """Every word holding at least one posting, sorted."""
        store = self._store
        return sorted(store.key_of(kid) for kid in store.live_key_ids())

    def __contains__(self, word: str) -> bool:
        kid = self._store.key_id(word.lower())
        return kid is not None and self._store.key_count(kid) > 0

    def __len__(self) -> int:
        """Total number of postings."""
        return self._store.total_rows
