"""The word inverted index (Section 3.1).

Maps every word (lower-cased) to the posting list of its occurrences.  The
index also records, for each occurrence, the hierarchy-index node ids of the
token in the PL and POS indexes (``plid`` / ``posid``) — the extra columns
of the ``W`` relation in Section 6.2.1 that let the engine join inverted and
hierarchy indexes without touching the dependency trees again.

Two storage backends share this API: the original object-backed one (one
Python list of :class:`Posting` per word) and, with ``columnar=True``, a
:class:`~repro.indexing.columnar.ColumnarPostings` store whose ``W``-shaped
rows ``(sid, tid, left, right, depth, wid, plid, posid)`` live in flat
numpy columns — batch appends for the ingest splice, array slices for the
read-side joins.  The ``W`` relation (:meth:`WordIndex.to_table`) is identical
either way; a snapshot persists the columnar store's own arrays.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..nlp.types import Corpus, Sentence
from ..storage.database import Database
from ..storage.table import Schema
from .columnar import (
    ColumnarPostings,
    PostingBlock,
    StringInterner,
    pack_strings,
    unpack_strings,
)
from .postings import Posting, posting_for_token

_W_COLUMNS = ("sid", "tid", "left", "right", "depth", "wid", "plid", "posid")


class WordIndex:
    """Inverted index from word to posting list."""

    def __init__(
        self, columnar: bool = False, interner: StringInterner | None = None
    ) -> None:
        self.columnar = columnar
        self._postings: dict[str, list[Posting]] = {}
        self._node_ids: dict[tuple[int, int], tuple[int, int]] = {}
        # NOTE: an explicit None test — a fresh shared interner is empty and
        # therefore falsy, and falling back to a private one here would make
        # stored word ids undecodable.
        self._interner = (
            (interner if interner is not None else StringInterner())
            if columnar
            else None
        )
        self._store = ColumnarPostings(_W_COLUMNS) if columnar else None
        # (sid, tid) -> (plid, posid), built lazily over the columnar rows
        self._pair_cache: dict[tuple[int, int], tuple[int, int]] | None = None
        # word-interner id -> store key id: the splice resolves keys by
        # integer instead of re-hashing each token's lower-cased text
        self._wid_kid: dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_sentence(self, sentence: Sentence) -> None:
        """Index every token of *sentence* (object-backed; a columnar index
        is spliced in batches through :meth:`add_token_rows`)."""
        if self.columnar:
            raise RuntimeError("columnar WordIndex takes rows via add_token_rows")
        for token in sentence:
            posting = posting_for_token(sentence, token.index)
            self._postings.setdefault(token.text.lower(), []).append(posting)

    def add_token_rows(
        self, texts: list[str], columns: "tuple[Sequence[int], ...]"
    ) -> None:
        """Columnar splice: append W rows spanning any number of sentences.

        *columns* are the eight W columns in ``(sid, tid)`` order; *texts*
        are the surface forms matching the ``wid`` column row for row.  Key
        ids resolve through the wid -> kid cache, so steady-state splices
        hash one int per token instead of one lower-cased string.
        """
        store = self._store
        assert store is not None, "add_token_rows requires columnar=True"
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
        self._pair_cache = None

    def add_corpus(self, corpus: Corpus) -> None:
        for _, sentence in corpus.all_sentences():
            self.add_sentence(sentence)

    def remove_sentence(self, sentence: Sentence) -> None:
        """Remove every posting contributed by *sentence* (by sentence id)."""
        sid = sentence.sid
        if self.columnar:
            self._store.remove_sid(sid)
            self._pair_cache = None
            return
        for token in sentence:
            word = token.text.lower()
            postings = self._postings.get(word)
            if postings is not None:
                postings[:] = [
                    p for p in postings if not (p.sid == sid and p.tid == token.index)
                ]
                if not postings:
                    del self._postings[word]
            self._node_ids.pop((sid, token.index), None)

    def set_node_ids(self, sid: int, tid: int, plid: int, posid: int) -> None:
        """Record the hierarchy-index node ids for one token occurrence."""
        if self.columnar:
            raise RuntimeError("columnar WordIndex takes node ids via add_token_rows")
        self._node_ids[(sid, tid)] = (plid, posid)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, word: str) -> list[Posting]:
        """Posting list of *word* (case-insensitive; empty if unseen)."""
        if self.columnar:
            return self.lookup_block(word).materialize()
        return list(self._postings.get(word.lower(), ()))

    def lookup_block(self, word: str) -> PostingBlock:
        """Posting list of *word* as a ``(sid, tid)``-sorted columnar block."""
        store = self._store
        assert store is not None, "lookup_block requires columnar=True"
        kid = store.key_id(word.lower())
        if kid is None:
            return PostingBlock.empty()
        sid, tid, left, right, depth, wid, _plid, _posid = store.arrays_for_key(kid)
        return PostingBlock(
            sid, tid, left, right, depth, wid, self._interner
        ).sort_positional()

    def node_ids(self, sid: int, tid: int) -> tuple[int, int] | None:
        """The (plid, posid) recorded for a token occurrence, if any."""
        if not self.columnar:
            return self._node_ids.get((sid, tid))
        cache = self._pair_cache
        if cache is None:
            _, cols = self._store.all_arrays_with_keys()
            sids, tids, plids, posids = cols[0], cols[1], cols[6], cols[7]
            cache = {
                (s, t): (pl, pos)
                for s, t, pl, pos in zip(
                    sids.tolist(), tids.tolist(), plids.tolist(), posids.tolist()
                )
                if pl != -1 or pos != -1
            }
            self._pair_cache = cache
        return cache.get((sid, tid))

    def vocabulary(self) -> list[str]:
        if self.columnar:
            store = self._store
            return sorted(store.key_of(kid) for kid in store.live_key_ids())
        return sorted(self._postings)

    def __contains__(self, word: str) -> bool:
        if self.columnar:
            kid = self._store.key_id(word.lower())
            return kid is not None and self._store.key_count(kid) > 0
        return word.lower() in self._postings

    def __len__(self) -> int:
        """Total number of postings."""
        if self.columnar:
            return self._store.total_rows
        return sum(len(p) for p in self._postings.values())

    # ------------------------------------------------------------------
    # snapshot payload (columnar only): the store's own columns
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The W store as named arrays: key table, key ids, the eight columns.

        Rows are main followed by the delta tail — nothing is compacted, so
        a shard read lock suffices; :meth:`load_arrays` compacts.
        """
        kid, cols = self._store.all_arrays_with_keys()
        return {
            **pack_strings("W.keys", self._store.keys()),
            "W.kid": kid,
            **{f"W.{name}": col for name, col in zip(_W_COLUMNS, cols)},
        }

    def load_arrays(self, arrays: "Mapping[str, np.ndarray]") -> None:
        """Fill this empty columnar index from :meth:`to_arrays` output.

        The shared word interner must already hold its table.
        """
        self._store.load(
            arrays["W.kid"],
            [arrays[f"W.{name}"] for name in _W_COLUMNS],
            keys=unpack_strings(arrays, "W.keys"),
        )
        wids = self._store.all_arrays()[5]
        if len(wids) and not 0 <= wids.min() <= wids.max() < len(self._interner):
            raise ValueError("W.wid names a word outside the interner table")

    def rows_by_node(self, column: str) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """W's rows keyed by its ``plid`` or ``posid`` column, ``-1`` rows dropped.

        The Section 6.2.1 join: hierarchy postings are not stored a second
        time, their six columns are a prefix of W's eight.
        """
        cols = self._store.all_arrays()
        node_ids = cols[_W_COLUMNS.index(column)]
        keep = node_ids != -1
        return node_ids[keep], tuple(col[keep] for col in cols[:6])

    # ------------------------------------------------------------------
    # materialisation (the W relation of Section 6.2.1)
    # ------------------------------------------------------------------
    W_SCHEMA = Schema.of("word", "x", "y", "u", "v", "d", "plid", "posid")

    def to_table(self, database: Database, table_name: str = "W"):
        """Materialise the index into *database* with the paper's W schema."""
        if database.has_table(table_name):
            database.drop_table(table_name)
        table = database.create_table(table_name, self.W_SCHEMA)
        if self.columnar:
            store = self._store
            for kid in store.live_key_ids():
                word = store.key_of(kid)
                rows = store.arrays_for_key(kid)
                for sid, tid, left, right, depth, _wid, plid, posid in zip(
                    *(column.tolist() for column in rows)
                ):
                    table.insert((word, sid, tid, left, right, depth, plid, posid))
        else:
            for word, postings in self._postings.items():
                for posting in postings:
                    plid, posid = self._node_ids.get((posting.sid, posting.tid), (-1, -1))
                    table.insert(
                        (
                            word,
                            posting.sid,
                            posting.tid,
                            posting.left,
                            posting.right,
                            posting.depth,
                            plid,
                            posid,
                        )
                    )
        table.create_index("by_word", "word")
        table.create_index("by_sentence", "x")
        return table
