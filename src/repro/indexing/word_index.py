"""The word inverted index (Section 3.1).

Maps every word (lower-cased) to the posting list of its occurrences.  The
paper's ``W`` relation (Section 6.2.1) also carries each occurrence's word
id and its PL and POS node ids (``wid`` / ``plid`` / ``posid``) so that a
relational engine can rebuild hierarchy postings by joining on ``W``.  Here
the hierarchy stores keep their own rows and the DPLI joins blocks on
``(sid, tid)``, so those three columns live in the size model of
:meth:`~repro.indexing.koko_index.KokoIndexSet.approximate_bytes` only.

The postings live in one :class:`~repro.indexing.columnar.ColumnarPostings`
store keyed by the lower-cased word, whose rows ``(sid, tid, left, right,
depth)`` are flat numpy columns: batch appends for the ingest splice and a
:class:`~repro.indexing.columnar.PostingBlock` of them per lookup.  The
object-list build these columns replaced survives only as the test oracle
in :mod:`repro.indexing.reference`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .columnar import ColumnarPostings, PostingBlock

__all__ = ["WordIndex"]

_W_COLUMNS = ("sid", "tid", "left", "right", "depth")


class WordIndex:
    """Inverted index from word to posting list."""

    def __init__(self) -> None:
        self._store = ColumnarPostings(_W_COLUMNS)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_token_rows(
        self, texts: list[str], columns: "tuple[Sequence[int], ...]"
    ) -> None:
        """Splice: append W rows spanning any number of sentences.

        *columns* are the five W columns in ``(sid, tid)`` order; *texts*
        are the surface forms matching them row for row, each row keyed by
        its lower-cased text.
        """
        store = self._store
        store.append_batch(list(map(store.intern_key, map(str.lower, texts))), columns)

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
        return PostingBlock(*store.arrays_for_key(kid)).sort_positional()

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
