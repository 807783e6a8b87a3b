"""The KOKO multi-index: word + entity inverted indexes, PL + POS hierarchies.

:class:`KokoIndexSet` is what the engine builds during preprocessing
(Figure 2 of the paper, "Parse text & build indices"): it owns the four
indexes, records build time, can materialise everything into the embedded
storage engine with the schemas of Section 6.2.1, and reports its size for
the index-size experiments (Figure 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..nlp.types import Corpus, Document
from ..storage.database import Database
from .columnar import StringInterner, int_column, pack_strings, unpack_strings
from .entity_index import EntityIndex
from .hierarchy import HierarchyIndex, parse_label_index, pos_tag_index
from .word_index import WordIndex


@dataclass
class IndexStatistics:
    """Summary statistics for one built index set."""

    sentences: int
    tokens: int
    build_seconds: float
    word_postings: int
    entity_postings: int
    pl_nodes: int
    pos_nodes: int
    pl_compression: float
    pos_compression: float
    approximate_bytes: int

    @classmethod
    def merged(cls, parts: "Sequence[IndexStatistics]") -> "IndexStatistics":
        """Aggregate per-shard statistics into corpus-wide statistics.

        Counts, build seconds and byte estimates add up; the compression
        ratios are recomputed from the summed node and token counts (each
        hierarchy merges every token, so ``1 - nodes / tokens`` holds for
        the union exactly as it does per shard).
        """
        tokens = sum(p.tokens for p in parts)
        pl_nodes = sum(p.pl_nodes for p in parts)
        pos_nodes = sum(p.pos_nodes for p in parts)
        return cls(
            sentences=sum(p.sentences for p in parts),
            tokens=tokens,
            build_seconds=sum(p.build_seconds for p in parts),
            word_postings=sum(p.word_postings for p in parts),
            entity_postings=sum(p.entity_postings for p in parts),
            pl_nodes=pl_nodes,
            pos_nodes=pos_nodes,
            pl_compression=(1.0 - pl_nodes / tokens) if tokens else 0.0,
            pos_compression=(1.0 - pos_nodes / tokens) if tokens else 0.0,
            approximate_bytes=sum(p.approximate_bytes for p in parts),
        )


class KokoIndexSet:
    """Builds and owns KOKO's four indexes over one corpus."""

    def __init__(self, columnar: bool = False) -> None:
        self.columnar = columnar
        self._interner = StringInterner() if columnar else None
        self.word_index = WordIndex(columnar=columnar, interner=self._interner)
        self.entity_index = EntityIndex(columnar=columnar)
        self.pl_index: HierarchyIndex = parse_label_index(
            columnar=columnar, interner=self._interner
        )
        self.pos_index: HierarchyIndex = pos_tag_index(
            columnar=columnar, interner=self._interner
        )
        self.build_seconds = 0.0
        self._sentences = 0
        self._tokens = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self, corpus: Corpus) -> "KokoIndexSet":
        """Index every sentence of *corpus*; returns self for chaining."""
        started = time.perf_counter()
        if self.columnar:
            self._splice_sentences([s for _, s in corpus.all_sentences()])
        else:
            for _, sentence in corpus.all_sentences():
                self.add_sentence(sentence)
        self.build_seconds += time.perf_counter() - started
        return self

    def add_document(self, document: Document) -> "KokoIndexSet":
        """Incrementally index every sentence of *document*.

        A sequence of ``add_document`` calls over the documents of a corpus
        (in order) produces an index set identical to ``build(corpus)`` —
        same postings, same hierarchy nodes, same statistics.
        """
        started = time.perf_counter()
        if self.columnar:
            self._splice_sentences(list(document))
        else:
            for sentence in document:
                self.add_sentence(sentence)
        self.build_seconds += time.perf_counter() - started
        return self

    def remove_document(self, document: Document) -> "KokoIndexSet":
        """Incrementally un-index every sentence of *document*."""
        started = time.perf_counter()
        for sentence in document:
            self.remove_sentence(sentence)
        self.build_seconds += time.perf_counter() - started
        return self

    def add_sentence(self, sentence) -> None:
        """Index one sentence in all four indexes."""
        if self.columnar:
            self._splice_sentences((sentence,))
            return
        self.word_index.add_sentence(sentence)
        self.entity_index.add_sentence(sentence)
        self.pl_index.add_sentence(sentence)
        self.pos_index.add_sentence(sentence)
        for token in sentence:
            plid = self.pl_index.node_id_of(sentence.sid, token.index)
            posid = self.pos_index.node_id_of(sentence.sid, token.index)
            self.word_index.set_node_ids(sentence.sid, token.index, plid, posid)
        self._sentences += 1
        self._tokens += len(sentence)

    def _splice_sentences(self, sentences) -> None:
        """Columnar splice: columnise each sentence once, flush one batch.

        Each dependency tree is read as whole-sentence columns
        (:meth:`~repro.nlp.types.Sentence.tree_columns`) and merged into
        the two hierarchy tries (a memoised walk — no rows yet); the W, PL,
        POS and E rows of the whole batch accumulate in flat column lists,
        ``(sid, tid)``-ordered, and land in one
        :meth:`~repro.indexing.columnar.ColumnarPostings.append_batch` per
        store — no per-token :class:`Posting` construction, no per-sentence
        array work, O(batch) total.  The PL and POS stores share the W
        batch's column lists (their six columns are a prefix of W's eight).
        """
        pl_merge = self.pl_index.merge_tree
        pos_merge = self.pos_index.merge_tree
        # one shared row payload: sid/tid/left/right/depth(/wid) columns for
        # W, PL and POS alike; node-id columns double as the hierarchy keys
        w_sids: list[int] = []
        w_tids: list[int] = []
        w_lefts: list[int] = []
        w_rights: list[int] = []
        w_depths: list[int] = []
        w_plids: list[int] = []
        w_posids: list[int] = []
        w_texts: list[str] = []
        e_sids: list[int] = []
        e_lefts: list[int] = []
        e_rights: list[int] = []
        e_etypes: list[str] = []
        e_texts: list[str] = []
        all_reachable = True
        for sentence in sentences:
            sid = sentence.sid
            n = len(sentence)
            self._sentences += 1
            self._tokens += n
            mentions = sentence.entities
            if mentions:
                e_sids.extend([sid] * len(mentions))
                e_lefts.extend(m.start for m in mentions)
                e_rights.extend(m.end for m in mentions)
                e_etypes.extend(m.etype for m in mentions)
                e_texts.extend(m.text for m in mentions)
            if n == 0:
                continue
            tokens = sentence.tokens
            children, spans, depths = sentence.tree_columns()
            # hashable shape, built once and shared by both hierarchy
            # merges (their merge memos key on it)
            structure = tuple(map(tuple, children))
            root = sentence.root_index()
            plids = pl_merge(root, structure, [t.label for t in tokens])
            posids = pos_merge(root, structure, [t.pos for t in tokens])
            if -1 in plids:
                all_reachable = False
            w_sids.extend([sid] * n)
            w_tids.extend(range(n))
            w_lefts.extend([span[0] for span in spans])
            w_rights.extend([span[1] for span in spans])
            w_depths.extend(depths)
            w_plids.extend(plids)
            w_posids.extend(posids)
            w_texts.extend([token.text for token in tokens])
        if w_texts:
            wids = self._interner.intern_many(w_texts)
            if all_reachable:
                # the hierarchy rows are exactly the W rows: share the lists
                h_columns = (w_sids, w_tids, w_lefts, w_rights, w_depths, wids)
                pl_kids, pos_kids = w_plids, w_posids
            else:
                # tokens unreachable from a root carry no hierarchy node
                keep = [i for i, plid in enumerate(w_plids) if plid != -1]
                h_columns = tuple(
                    [column[i] for i in keep]
                    for column in (w_sids, w_tids, w_lefts, w_rights, w_depths, wids)
                )
                pl_kids = [w_plids[i] for i in keep]
                pos_kids = [w_posids[i] for i in keep]
            self.pl_index.append_rows(pl_kids, h_columns)
            self.pos_index.append_rows(pos_kids, h_columns)
            self.word_index.add_token_rows(
                w_texts,
                (
                    w_sids, w_tids, w_lefts, w_rights,
                    w_depths, wids, w_plids, w_posids,
                ),
            )
        if e_sids:
            self.entity_index.add_rows(e_sids, e_lefts, e_rights, e_etypes, e_texts)

    def remove_sentence(self, sentence) -> None:
        """Remove one sentence from all four indexes."""
        self.word_index.remove_sentence(sentence)
        self.entity_index.remove_sentence(sentence)
        self.pl_index.remove_sentence(sentence)
        self.pos_index.remove_sentence(sentence)
        self._sentences -= 1
        self._tokens -= len(sentence)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def statistics(self) -> IndexStatistics:
        return IndexStatistics(
            sentences=self._sentences,
            tokens=self._tokens,
            build_seconds=self.build_seconds,
            word_postings=len(self.word_index),
            entity_postings=len(self.entity_index),
            pl_nodes=self.pl_index.node_count,
            pos_nodes=self.pos_index.node_count,
            pl_compression=self.pl_index.compression_ratio(),
            pos_compression=self.pos_index.compression_ratio(),
            approximate_bytes=self.approximate_bytes(),
        )

    def approximate_bytes(self) -> int:
        """Estimated footprint of the four relations (Section 6.2.1 schemas).

        The estimate models each index as its relational rows — the same
        accounting used for the baseline designs — so that Figure 6(b)'s
        comparison reflects the index *designs*: one W row per token (word
        plus 7 integers), one E row per entity mention, and one closure-table
        row per (node, ancestor) pair of the merged hierarchies, which is
        tiny because merging removes the vast majority of nodes.
        """
        from ..storage.btree import _sizeof

        total = 0
        if self.columnar:
            # Same accounting over the columnar layout: per-key row counts
            # for W, interned strings for E — identical totals by design
            # (the equivalence tests compare statistics across backends).
            word_store = self.word_index._store
            for kid in word_store.live_key_ids():
                word = word_store.key_of(kid)
                total += word_store.key_count(kid) * (_sizeof(word) + 7 * 28 + 40)
            entity_store = self.entity_index._store_type
            strings = self.entity_index._strings
            text_ids = entity_store.all_arrays()[3]
            for text_id in text_ids.tolist():
                total += _sizeof(strings.text(text_id)) + 3 * 28 + 40
        else:
            for word in self.word_index.vocabulary():
                postings = self.word_index.lookup(word)
                total += len(postings) * (_sizeof(word) + 7 * 28 + 40)
            for posting in self.entity_index.all_postings():
                total += _sizeof(posting.text) + 3 * 28 + 40
        for hierarchy in (self.pl_index, self.pos_index):
            for node in hierarchy.nodes():
                # One closure-table row per (node, ancestor) pair.  The
                # posting lists of hierarchy nodes are NOT stored again: they
                # are recovered by joining the closure table with W on
                # W.plid / W.posid (Section 6.2.1), which is what makes the
                # multi-index the smallest design.
                ancestors = node.depth + 1
                total += ancestors * (2 * _sizeof(node.label) + 4 * 28 + 40)
        return total

    # ------------------------------------------------------------------
    # snapshot payload (columnar only)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The index set as named integer arrays — what a snapshot persists.

        W's columns, the E rows once, the string tables and the two trie
        node tables.  The PL and POS postings are not captured:
        :meth:`from_arrays` regroups them from W's ``plid``/``posid``
        columns (Section 6.2.1).  Nothing is compacted or otherwise
        mutated, so a shard read lock suffices.
        """
        return {
            "counts": np.asarray([self._sentences, self._tokens], np.int64),
            **pack_strings("words", self._interner.texts()),
            **self.word_index.to_arrays(),
            **self.entity_index.to_arrays(),
            **self.pl_index.to_arrays(),
            **self.pos_index.to_arrays(),
        }

    @classmethod
    def from_arrays(
        cls, arrays: "Mapping[str, np.ndarray]", build_seconds: float = 0.0
    ) -> "KokoIndexSet":
        """A columnar index set rebuilt from :meth:`to_arrays` output.

        Postings, node ids, interner ids and statistics equal the captured
        set's, so later splices mint the same ids.  The arrays come from
        disk or a socket: a missing name raises ``KeyError``, a structural
        inconsistency ``ValueError``.
        """
        index_set = cls(columnar=True)
        words = index_set.word_index
        index_set._interner.intern_many(unpack_strings(arrays, "words"))
        words.load_arrays(arrays)
        index_set.entity_index.load_arrays(arrays)
        index_set.pl_index.load_arrays(arrays, *words.rows_by_node("plid"))
        index_set.pos_index.load_arrays(arrays, *words.rows_by_node("posid"))
        index_set._sentences, index_set._tokens = int_column(arrays["counts"]).tolist()
        index_set.build_seconds = build_seconds
        return index_set

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def to_database(self, database: Database) -> Database:
        """Store W, E, PL and POS relations (Section 6.2.1 schemas)."""
        self.word_index.to_table(database, "W")
        self.entity_index.to_table(database, "E")
        self.pl_index.to_table(database, "PL")
        self.pos_index.to_table(database, "POS")
        return database
