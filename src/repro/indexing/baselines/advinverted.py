"""The ADVINVERTED baseline index (Bird et al.; Section 6.2.1).

An enriched inverted index over the relation

    ``P(label, sentence_id, token_id, left, right, depth, pid)``

where, as in the paper, the extra columns describe the token's position in
the dependency tree (subtree extent, depth, parent token id).  Structural
conditions — child and descendant axes — are evaluated by joining the
relation with itself along the path, which is precise (effectiveness close
to 1) but requires work proportional to the posting-list sizes at every
step, making it notably slower than designs that index the hierarchy
directly.
"""

from __future__ import annotations

from ...nlp.types import Corpus
from ..koko_index import sizeof
from ..query_ir import CHILD, KIND_ANY, TreePath, TreePatternQuery
from .base import BaseTreeIndex

# One relation row: (sid, tid, left, right, depth, pid)
_Row = tuple[int, int, int, int, int, int]


class AdvInvertedIndex(BaseTreeIndex):
    """Structure-aware inverted index evaluated by relational self-joins."""

    name = "ADVINVERTED"

    def __init__(self) -> None:
        super().__init__()
        self._postings: dict[str, list[_Row]] = {}
        self._rows_by_sentence: dict[int, list[_Row]] = {}
        self._all_sids: set[int] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, corpus: Corpus) -> None:
        for _, sentence in corpus.all_sentences():
            self._all_sids.add(sentence.sid)
            rows_here: list[_Row] = []
            for token in sentence:
                left, right = sentence.subtree_span(token.index)
                row: _Row = (
                    sentence.sid,
                    token.index,
                    left,
                    right,
                    sentence.depth(token.index),
                    token.head,
                )
                rows_here.append(row)
                for label in (token.text.lower(), token.pos.lower(), token.label.lower()):
                    self._postings.setdefault(label, []).append(row)
            self._rows_by_sentence[sentence.sid] = rows_here

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def candidate_sentences(self, query: TreePatternQuery) -> set[int]:
        candidates: set[int] | None = None
        for path in query.paths:
            sids = self._sentences_matching_path(path)
            candidates = sids if candidates is None else candidates & sids
            if not candidates:
                return set()
        return candidates if candidates is not None else set(self._all_sids)

    def _sentences_matching_path(self, path: TreePath) -> set[int]:
        if not path.steps:
            return set(self._all_sids)
        current = self._rows_for_step(path.steps[0], anchored=True)
        for step in path.steps[1:]:
            step_rows = self._rows_for_step(step, anchored=False)
            by_sentence: dict[int, list[_Row]] = {}
            for row in step_rows:
                by_sentence.setdefault(row[0], []).append(row)
            joined: list[_Row] = []
            for parent_row in current:
                for child_row in by_sentence.get(parent_row[0], ()):
                    if step.axis == CHILD:
                        if child_row[5] == parent_row[1]:
                            joined.append(child_row)
                    else:
                        if (
                            parent_row[2] <= child_row[2]
                            and child_row[3] <= parent_row[3]
                            and child_row[4] > parent_row[4]
                        ):
                            joined.append(child_row)
            current = joined
            if not current:
                return set()
        return {row[0] for row in current}

    def _rows_for_step(self, step, anchored: bool) -> list[_Row]:
        if step.kind == KIND_ANY:
            rows = [row for rows in self._rows_by_sentence.values() for row in rows]
        else:
            rows = list(self._postings.get(step.label.lower(), ()))
        if anchored and step.axis == CHILD:
            # the first child-axis step is anchored at the sentence root
            rows = [row for row in rows if row[5] < 0]
        return rows

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def approximate_bytes(self) -> int:
        # One relation row per (label, sid, tid, left, right, depth, pid).
        total = 0
        for label, rows in self._postings.items():
            total += len(rows) * (sizeof(label) + 6 * 28 + 40)
        return total
