"""The KOKO multi-index: word + entity inverted indexes, PL + POS hierarchies.

:class:`KokoIndexSet` is what every service shard builds during
preprocessing (Figure 2 of the paper, "Parse text & build indices"): it
owns the four columnar indexes, records build time, answers the DPLI
lookups of Algorithm 1, and reports its size for the index-size
experiments (Figure 6) by the relational accounting of Section 6.2.1.
:mod:`repro.indexing.reference` holds the object-list build the tests
compare it against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..nlp.types import Corpus, Document
from .columnar import PostingBlock
from .decompose import DecomposedPath, lookup_decomposed_block
from .entity_index import EntityIndex
from .hierarchy import HierarchyIndex, parse_label_index, pos_tag_index
from .query_ir import TreePath
from .word_index import WordIndex

__all__ = ["IndexStatistics", "KokoIndexSet", "sizeof"]


def sizeof(value: Any) -> int:
    """Rough, platform-independent size of one relational cell in bytes.

    The shared unit of every ``approximate_bytes`` estimate — KOKO's here,
    the baselines' in :mod:`repro.indexing.baselines` — so Figure 6(b)
    compares index designs, not Python object layouts.
    """
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, (int, float)):
        return 28
    if isinstance(value, tuple):
        return 40 + sum(sizeof(v) for v in value)
    if isinstance(value, (list, set, frozenset)):
        return 56 + sum(sizeof(v) for v in value)
    if value is None:
        return 16
    return 48


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

    def __init__(self) -> None:
        self.word_index = WordIndex()
        self.entity_index = EntityIndex()
        self.pl_index: HierarchyIndex = parse_label_index()
        self.pos_index: HierarchyIndex = pos_tag_index()
        self.build_seconds = 0.0
        self._sentences = 0
        self._tokens = 0
        #: ``sizeof`` of every held mention's text, for the E rows of the
        #: size model (the E store keeps no text)
        self._mention_text_bytes = 0
        #: sids of sentences with a token no hierarchy holds (a second root
        #: or a head cycle): their lookup rows are not all their matches
        self._unrooted: set[int] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self, corpus: Corpus) -> "KokoIndexSet":
        """Index every sentence of *corpus*; returns self for chaining."""
        started = time.perf_counter()
        self._splice_sentences([s for _, s in corpus.all_sentences()])
        self.build_seconds += time.perf_counter() - started
        return self

    def add_document(self, document: Document) -> "KokoIndexSet":
        """Incrementally index every sentence of *document*.

        A sequence of ``add_document`` calls over the documents of a corpus
        (in order) produces an index set identical to ``build(corpus)`` —
        same postings, same hierarchy nodes, same statistics.
        """
        started = time.perf_counter()
        self._splice_sentences(list(document))
        self.build_seconds += time.perf_counter() - started
        return self

    def remove_document(self, document: Document) -> "KokoIndexSet":
        """Incrementally un-index every sentence of *document*.

        Each store drops the document's rows in one compaction and one
        mask, and each hierarchy clears its merge memo once, however many
        sentences the document has.
        """
        started = time.perf_counter()
        sentences = list(document)
        sids = np.sort(np.fromiter((s.sid for s in sentences), np.int64, len(sentences)))
        self.word_index.remove_sids(sids)
        self.entity_index.remove_sids(
            np.sort(np.fromiter((s.sid for s in sentences if s.entity_rows), np.int64))
        )
        self.pl_index.remove_sentences(sentences)
        self.pos_index.remove_sentences(sentences)
        self._unrooted.difference_update(sids.tolist())
        self._sentences -= len(sentences)
        self._tokens -= sum(map(len, sentences))
        self._mention_text_bytes -= sum(
            sizeof(row[3]) for sentence in sentences for row in sentence.entity_rows
        )
        self.build_seconds += time.perf_counter() - started
        return self

    def _splice_sentences(self, sentences) -> None:
        """The splice: columnise each sentence once, flush one batch.

        Each sentence is read as its annotation columns (words, labels,
        POS tags, mention rows and
        :meth:`~repro.nlp.types.Sentence.tree_columns`) and merged into
        the two hierarchy tries (a memoised walk — no rows yet); the W, PL,
        POS and E rows of the whole batch accumulate in flat column lists,
        ``(sid, tid)``-ordered, and land in one
        :meth:`~repro.indexing.columnar.ColumnarPostings.append_batch` per
        store — no per-token object construction, no per-sentence array
        work, O(batch) total.  The PL and POS stores share the W batch's
        column lists: all three hold the same five columns.
        """
        pl_merge = self.pl_index.merge_tree
        pos_merge = self.pos_index.merge_tree
        # one shared row payload: sid/tid/left/right/depth columns for W,
        # PL and POS alike; node-id columns double as the hierarchy keys
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
        all_reachable = True
        for sentence in sentences:
            sid = sentence.sid
            n = len(sentence)
            self._sentences += 1
            self._tokens += n
            mentions = sentence.entity_rows
            if mentions:
                starts, ends, etypes, texts = zip(*mentions)
                e_sids.extend([sid] * len(mentions))
                e_lefts.extend(starts)
                e_rights.extend(ends)
                e_etypes.extend(etypes)
                self._mention_text_bytes += sum(map(sizeof, texts))
            if n == 0:
                continue
            # the children column is a tuple of tuples: hashable as it
            # stands, and shared by both hierarchy merges' memo keys
            children, spans, depths = sentence.tree_columns()
            root = sentence.root_index()
            plids = pl_merge(root, children, sentence.labels)
            posids = pos_merge(root, children, sentence.pos_tags)
            if -1 in plids:
                all_reachable = False
                self._unrooted.add(sid)
            w_sids.extend([sid] * n)
            w_tids.extend(range(n))
            w_lefts.extend([span[0] for span in spans])
            w_rights.extend([span[1] for span in spans])
            w_depths.extend(depths)
            w_plids.extend(plids)
            w_posids.extend(posids)
            w_texts.extend(sentence.words)
        if w_texts:
            h_columns = (w_sids, w_tids, w_lefts, w_rights, w_depths)
            if all_reachable:
                # the hierarchy rows are exactly the W rows: share the lists
                pl_kids, pos_kids = w_plids, w_posids
            else:
                # tokens unreachable from a root carry no hierarchy node
                keep = [i for i, plid in enumerate(w_plids) if plid != -1]
                h_columns = tuple([column[i] for i in keep] for column in h_columns)
                pl_kids = [w_plids[i] for i in keep]
                pos_kids = [w_posids[i] for i in keep]
            self.pl_index.append_rows(pl_kids, h_columns)
            self.pos_index.append_rows(pos_kids, h_columns)
            self.word_index.add_token_rows(
                w_texts, (w_sids, w_tids, w_lefts, w_rights, w_depths)
            )
        if e_sids:
            self.entity_index.add_rows(e_sids, e_lefts, e_rights, e_etypes)

    # ------------------------------------------------------------------
    # DPLI lookups (Algorithm 1)
    # ------------------------------------------------------------------
    def entity_candidates(
        self, etype: str
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Mentions of type *etype*: ``(sorted sid column, columns)``.

        The columns are :meth:`EntityIndex.lookup_type`'s
        ``(sid, left, right)``.
        """
        columns = self.entity_index.lookup_type(etype)
        return np.sort(columns[0]), columns

    def path_candidates(
        self, path: TreePath, decomposed: DecomposedPath | None = None
    ) -> tuple[np.ndarray, PostingBlock]:
        """Postings of *path*'s final step: ``(sid column, (sid, tid)-sorted block)``.

        *decomposed* is ``decompose_path(path)`` when the caller holds it.
        """
        block = lookup_decomposed_block(self, path, decomposed)
        return block.sid, block

    def unrooted_sids(self) -> np.ndarray:
        """Sorted sids of sentences holding a token no hierarchy holds."""
        return np.sort(np.fromiter(self._unrooted, np.int64, len(self._unrooted)))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def statistics(self) -> IndexStatistics:
        """Counts, node compression and size of the index set."""
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
        plus 7 integers: the paper's W, whose ``wid`` / ``plid`` / ``posid``
        the W store does not hold), one E row per entity mention (its text
        plus 3 integers), and one closure-table row per (node, ancestor)
        pair of the merged hierarchies, which is tiny because merging
        removes the vast majority of nodes.
        """
        total = 0
        word_store = self.word_index._store
        for kid in word_store.live_key_ids():
            word = word_store.key_of(kid)
            total += word_store.key_count(kid) * (sizeof(word) + 7 * 28 + 40)
        total += self._mention_text_bytes + len(self.entity_index) * (3 * 28 + 40)
        for hierarchy in (self.pl_index, self.pos_index):
            for node in hierarchy.nodes():
                # One closure-table row per (node, ancestor) pair.  The
                # posting lists of hierarchy nodes are NOT stored again: they
                # are recovered by joining the closure table with W on
                # W.plid / W.posid (Section 6.2.1), which is what makes the
                # multi-index the smallest design.
                ancestors = node.depth + 1
                total += ancestors * (2 * sizeof(node.label) + 4 * 28 + 40)
        return total
