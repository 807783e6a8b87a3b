"""The INVERTED baseline index (Section 6.2.1).

The simplest design: a single relation ``P(label, sentence_id, token_id)``
where *label* ranges over every annotation of every token — its surface
word, its POS tag, and its parse label.  A query is answered by retrieving
the sentences that contain **all** the labels mentioned in the query,
ignoring the tree structure entirely.  This makes lookups produce large
intermediate results and gives poor effectiveness, which is exactly the
behaviour Figures 7 and 8 report for INVERTED.
"""

from __future__ import annotations

from ...nlp.types import Corpus
from ..koko_index import sizeof
from ..query_ir import KIND_ANY, TreePatternQuery
from .base import BaseTreeIndex


class InvertedIndex(BaseTreeIndex):
    """Label → (sentence id, token id) postings, structure-agnostic."""

    name = "INVERTED"

    def __init__(self) -> None:
        super().__init__()
        # label -> list of (sid, tid); kept as a list to model the relation's
        # row-at-a-time retrieval cost.
        self._postings: dict[str, list[tuple[int, int]]] = {}
        self._all_sids: set[int] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, corpus: Corpus) -> None:
        for _, sentence in corpus.all_sentences():
            self._all_sids.add(sentence.sid)
            for token in sentence:
                for label in (token.text.lower(), token.pos.lower(), token.label.lower()):
                    self._postings.setdefault(label, []).append(
                        (sentence.sid, token.index)
                    )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def candidate_sentences(self, query: TreePatternQuery) -> set[int]:
        labels = [
            step.label.lower()
            for path in query.paths
            for step in path.steps
            if step.kind != KIND_ANY
        ]
        if not labels:
            return set(self._all_sids)
        candidates: set[int] | None = None
        for label in labels:
            postings = self._postings.get(label, [])
            sids = {sid for sid, _ in postings}
            candidates = sids if candidates is None else candidates & sids
            if not candidates:
                return set()
        return candidates or set()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def approximate_bytes(self) -> int:
        # One relation row per (label, sid, tid): the label is stored in
        # every row, as it would be in the P(label, sid, tid) table.
        total = 0
        for label, postings in self._postings.items():
            total += len(postings) * (sizeof(label) + 2 * 28 + 40)
        return total
