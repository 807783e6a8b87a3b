"""Sentence decomposition into canonical clauses.

Section 4.4.1(b) of the paper scores descriptor conditions against
*canonical sentences* obtained by segmenting each sentence into clauses
(stage (1) of the decomposition of Angeli et al., 2015; stage (2), word
deletion, is intentionally not performed, exactly as the paper states).

The segmenter implemented here splits a parsed sentence at clause
boundaries derived from the dependency tree and from surface cues:

* coordinating conjunctions between verbs ("... , and also ate a pie"),
* relative-clause boundaries ("which was delicious"),
* subordinating conjunctions and semicolons.

Each canonical clause carries a weight ``l_j`` in (0, 1]: full clauses that
contain the main verb get weight 1.0, subordinate/relative fragments get a
slightly smaller weight, mirroring the intuition that evidence found in the
main clause is stronger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexicon import CONJUNCTIONS
from .types import Sentence, detokenize

_SUBORDINATORS = {
    "because", "although", "though", "while", "whereas", "if", "unless",
    "when", "whenever", "where", "wherever", "since", "after", "before",
}
_RELATIVE_PRONOUNS = {"which", "that", "who", "whom", "whose"}


@dataclass(frozen=True)
class CanonicalClause:
    """One canonical clause: its token range, text, and weight ``l_j``."""

    start: int
    end: int
    text: str
    weight: float


class ClauseSegmenter:
    """Split sentences into canonical clauses for descriptor scoring."""

    def __init__(self, main_weight: float = 1.0, subordinate_weight: float = 0.8) -> None:
        if not 0.0 < subordinate_weight <= main_weight <= 1.0:
            raise ValueError("weights must satisfy 0 < subordinate <= main <= 1")
        self.main_weight = main_weight
        self.subordinate_weight = subordinate_weight

    def segment(self, sentence: Sentence) -> list[CanonicalClause]:
        """Return the canonical clauses of *sentence* (at least one)."""
        n = len(sentence)
        if n == 0:
            return []
        boundaries = self._boundaries(sentence)
        clauses: list[CanonicalClause] = []
        start = 0
        for boundary in boundaries + [n]:
            end = boundary - 1
            if end < start:
                start = boundary
                continue
            start, end = self._trim(sentence, start, end)
            if end >= start:
                clauses.append(self._make_clause(sentence, start, end))
            start = boundary
        if not clauses:
            clauses.append(self._make_clause(sentence, 0, n - 1))
        return clauses

    # ------------------------------------------------------------------
    # boundary detection
    # ------------------------------------------------------------------
    def _boundaries(self, sentence: Sentence) -> list[int]:
        """Token indexes at which a new clause starts."""
        boundaries: list[int] = []
        tags = sentence.pos_tags
        verbs = [index for index, tag in enumerate(tags) if tag == "VERB"]
        for index, (word, tag) in enumerate(zip(sentence.words, tags)):
            low = word.lower()
            # clause-opening relative pronoun
            if low in _RELATIVE_PRONOUNS and tag in {"PRON", "DET"}:
                if any(v > index for v in verbs):
                    boundaries.append(index)
            # subordinator mid-sentence
            elif low in _SUBORDINATORS and low in CONJUNCTIONS and index > 0:
                boundaries.append(index)
            # coordinating conjunction directly linking two verbal conjuncts
            elif low in {"and", "but", "or"} and tag == "CONJ":
                if any(v > index for v in verbs) and any(v < index for v in verbs):
                    boundaries.append(index)
            elif word == ";":
                boundaries.append(index + 1)
        return sorted(set(b for b in boundaries if 0 < b < len(sentence)))

    def _trim(self, sentence: Sentence, start: int, end: int) -> tuple[int, int]:
        """Strip leading/trailing punctuation and connectives from a clause."""
        words, tags = sentence.words, sentence.pos_tags
        while start <= end and (
            tags[start] == "PUNCT" or words[start].lower() in {"and", "but", "or", ","}
        ):
            start += 1
        while end >= start and tags[end] == "PUNCT":
            end -= 1
        return start, end

    def _make_clause(self, sentence: Sentence, start: int, end: int) -> CanonicalClause:
        has_root = "root" in sentence.labels[start : end + 1]
        weight = self.main_weight if has_root else self.subordinate_weight
        text = detokenize(sentence.words[start : end + 1])
        return CanonicalClause(start=start, end=end, text=text, weight=weight)
