"""The SUBTREE baseline index (Chubak & Rafiei; Section 6.2.1).

Indexes every unique connected subtree of size up to ``mss`` (maximum
subtree size, 3 in the paper's setup) of every dependency tree, with the
*root-split* coding: the key of a subtree records its root label and the
multiset of (child label, grandchild labels) beneath it.  A query is
decomposed into overlapping subtrees of the same maximal size; the result is
the set of sentences containing all of them.

As in the paper, the design is built for constituency-style trees with a
single label alphabet, so two separate SUBTREE indexes are kept — one over
parse labels and one over POS tags — and their results are joined on
sentence ids when a query mixes the two layers.  Root-split coding supports
neither wildcards nor word labels; queries using them are rejected
(``supports`` returns False), matching the "125 out of 350 benchmark
queries" restriction reported in Section 6.2.1.
"""

from __future__ import annotations

from ...nlp.types import Corpus, Sentence
from ..koko_index import sizeof
from ..query_ir import (
    CHILD,
    KIND_PARSE_LABEL,
    KIND_POS,
    TreePath,
    TreePatternQuery,
)
from .base import BaseTreeIndex, UnsupportedQueryError

# A subtree key under root-split coding: (root label, tuple of child keys),
# where each child key is (child label, tuple of grandchild labels).
_SubtreeKey = tuple


class _SingleLayerSubtreeIndex:
    """SUBTREE index over one annotation layer (parse labels or POS tags)."""

    def __init__(self, mss: int, label_of) -> None:
        self.mss = mss
        self._label_of = label_of
        self._postings: dict[_SubtreeKey, set[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_sentence(self, sentence: Sentence) -> None:
        for token in sentence:
            for key in self._keys_rooted_at(sentence, token.index):
                bucket = self._postings.get(key)
                if bucket is None:
                    bucket = set()
                    self._postings[key] = bucket
                bucket.add(sentence.sid)

    def _keys_rooted_at(self, sentence: Sentence, tid: int) -> list[_SubtreeKey]:
        """Every subtree of size <= mss rooted at token *tid* (root-split keys)."""
        root_label = self._label_of(sentence[tid])
        children = sentence.children(tid)
        keys: list[_SubtreeKey] = [(root_label, ())]
        if self.mss < 2:
            return keys
        # size-2 subtrees: root plus one child
        child_labels = [(c, self._label_of(sentence[c])) for c in children]
        for _, clabel in child_labels:
            keys.append((root_label, ((clabel, ()),)))
        if self.mss < 3:
            return keys
        # size-3 subtrees: root + two children, or root + child + grandchild
        for i in range(len(child_labels)):
            for j in range(i + 1, len(child_labels)):
                pair = tuple(sorted([(child_labels[i][1], ()), (child_labels[j][1], ())]))
                keys.append((root_label, pair))
        for ctid, clabel in child_labels:
            for gtid in sentence.children(ctid):
                glabel = self._label_of(sentence[gtid])
                keys.append((root_label, ((clabel, (glabel,)),)))
        return keys

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def sentences_for_path(self, labels: list[str], axes: list[str]) -> set[int] | None:
        """Sentences containing the chain of *labels*; None = unconstrained."""
        if not labels:
            return None
        result: set[int] | None = None
        # decompose the chain into overlapping (parent, child, grandchild)
        # windows of size mss; descendant axes break the chain into pieces
        segments = self._segments(labels, axes)
        for segment in segments:
            for start in range(0, max(1, len(segment) - self.mss + 1)):
                window = segment[start : start + self.mss]
                key = self._chain_key(window)
                sids = self._postings.get(key, set())
                result = set(sids) if result is None else result & sids
                if not result:
                    return set()
        return result

    @staticmethod
    def _segments(labels: list[str], axes: list[str]) -> list[list[str]]:
        """Split the label chain at descendant axes (structure is unknown there)."""
        segments: list[list[str]] = []
        current: list[str] = []
        for label, axis in zip(labels, axes):
            if axis == CHILD or not current:
                current.append(label)
            else:
                segments.append(current)
                current = [label]
        if current:
            segments.append(current)
        return [seg for seg in segments if seg]

    @staticmethod
    def _chain_key(window: list[str]) -> _SubtreeKey:
        if len(window) == 1:
            return (window[0], ())
        if len(window) == 2:
            return (window[0], ((window[1], ()),))
        return (window[0], ((window[1], (window[2],)),))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def approximate_bytes(self) -> int:
        # One relation row per (subtree key, sid): the coded key is stored
        # with every posting, which is what makes SUBTREE the largest design.
        total = 0
        for key, sids in self._postings.items():
            total += len(sids) * (sizeof(key) + 28 + 40)
        return total


class SubtreeIndex(BaseTreeIndex):
    """The two-layer SUBTREE index with root-split coding and mss=3."""

    name = "SUBTREE"

    def __init__(self, mss: int = 3) -> None:
        super().__init__()
        if mss < 1:
            raise ValueError("mss must be >= 1")
        self.mss = mss
        self._pl = _SingleLayerSubtreeIndex(mss, lambda tok: tok.label.lower())
        self._pos = _SingleLayerSubtreeIndex(mss, lambda tok: tok.pos.lower())
        self._all_sids: set[int] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, corpus: Corpus) -> None:
        for _, sentence in corpus.all_sentences():
            self._all_sids.add(sentence.sid)
            self._pl.add_sentence(sentence)
            self._pos.add_sentence(sentence)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def supports(self, query: TreePatternQuery) -> bool:
        return not (query.uses_wildcards() or query.uses_words())

    def candidate_sentences(self, query: TreePatternQuery) -> set[int]:
        if not self.supports(query):
            raise UnsupportedQueryError(
                "SUBTREE with root-split coding supports neither wildcards nor "
                "word labels"
            )
        candidates: set[int] | None = None
        for path in query.paths:
            sids = self._sentences_for_path(path)
            if sids is not None:
                candidates = sids if candidates is None else candidates & sids
                if not candidates:
                    return set()
        return candidates if candidates is not None else set(self._all_sids)

    def _sentences_for_path(self, path: TreePath) -> set[int] | None:
        pl_labels = [s.label.lower() for s in path.steps if s.kind == KIND_PARSE_LABEL]
        pl_axes = [s.axis for s in path.steps if s.kind == KIND_PARSE_LABEL]
        pos_labels = [s.label.lower() for s in path.steps if s.kind == KIND_POS]
        pos_axes = [s.axis for s in path.steps if s.kind == KIND_POS]

        result: set[int] | None = None
        pl_sids = self._pl.sentences_for_path(pl_labels, pl_axes)
        if pl_sids is not None:
            result = pl_sids
        pos_sids = self._pos.sentences_for_path(pos_labels, pos_axes)
        if pos_sids is not None:
            # joining the two layers on sentence id only (the root-split keys
            # of different layers cannot be compared token-for-token), which
            # is the precision loss the paper notes for multi-output queries
            result = pos_sids if result is None else result & pos_sids
        return result

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def approximate_bytes(self) -> int:
        return self._pl.approximate_bytes() + self._pos.approximate_bytes()
