"""Evaluation of satisfying / excluding clause conditions (Section 4.4.1).

Each condition maps a candidate value (the string extracted for an output
variable, together with its mention occurrences inside one document) to a
confidence ``m_i(e)``:

* boolean conditions (``contains``, ``mentions``, ``matches``, adjacency,
  dictionary membership) yield 0 or 1,
* ``near`` yields ``1 / (1 + distance)``,
* descriptor conditions ``x [[d]]`` expand the descriptor, decompose each
  sentence into canonical clauses, and aggregate the matches,
* ``similarTo`` yields the semantic similarity between the candidate and a
  concept word.

Conditions come in two kinds, decided once per query by
:func:`prepare_condition`: **value-only** conditions (``contains`` /
``mentions`` / ``matches``, ``in dict``, ``similarTo``) are functions of the
candidate string alone; **document-reading** conditions (adjacency,
``near``, descriptors) look at where the candidate is mentioned.  Only the
second kind ever triggers an occurrence search, and that search runs over a
:class:`DocumentEvidence` — the per-document, per-execution cache of
lower-cased tokens, token positions and clause segmentations.

The aggregation over a whole satisfying clause (the weighted sum and the
threshold test) lives in ``aggregate.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..embeddings.expansion import DescriptorExpander
from ..embeddings.vectors import VectorStore
from ..errors import KokoSemanticError
from ..nlp.clauses import CanonicalClause, ClauseSegmenter
from ..nlp.types import Document, Sentence
from .ast import (
    AdjacencyCondition,
    DescriptorCondition,
    InDictCondition,
    NearCondition,
    SatisfyingConditionBody,
    SimilarToCondition,
    StrCondition,
)

#: descriptors whose expansion an engine remembers; past it the memo restarts
_EXPANSION_MEMO_LIMIT = 1024


@dataclass(frozen=True)
class Occurrence:
    """One mention of the candidate value: sentence plus inclusive token span."""

    sentence: Sentence
    start: int
    end: int


@dataclass(frozen=True)
class PreparedCondition:
    """A condition plus everything about it that depends on the query alone.

    ``needle`` holds the lower-cased tokens of an adjacency / ``near``
    literal, the lower-cased words of a ``contains`` value or the one
    lower-cased string of a ``mentions`` value; ``pattern`` the compiled
    regular expression of a ``matches`` value.
    """

    condition: SatisfyingConditionBody
    weight: float
    reads_document: bool
    needle: tuple[str, ...] = ()
    pattern: re.Pattern | None = None


def prepare_condition(
    condition: SatisfyingConditionBody, weight: float = 1.0
) -> PreparedCondition:
    """Classify *condition* and precompute its needle or regular expression."""
    if isinstance(condition, StrCondition):
        if condition.op == "matches":
            try:
                pattern = re.compile(condition.value)
            except re.error as exc:
                raise KokoSemanticError(
                    f"invalid regular expression {condition.value!r} in matches: {exc}"
                ) from exc
            return PreparedCondition(condition, weight, False, pattern=pattern)
        lowered = condition.value.lower()
        needle = tuple(lowered.split()) if condition.op == "contains" else (lowered,)
        return PreparedCondition(condition, weight, False, needle=needle)
    if isinstance(condition, (AdjacencyCondition, NearCondition)):
        needle = tuple(w.lower() for w in _tokenize_literal(condition.text))
        return PreparedCondition(condition, weight, True, needle=needle)
    return PreparedCondition(
        condition, weight, isinstance(condition, DescriptorCondition)
    )


class DocumentEvidence:
    """What document-reading conditions need of one document, built lazily.

    Lower-cased token lists, the token → positions map behind the
    occurrence search and the clause segmentations are each built at most
    once, however many candidate values ask.  An instance lives as long as
    the execution that created it, so there is nothing to invalidate.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self._lowered: dict[int, list[str]] = {}
        self._positions: dict[str, list[tuple[Sentence, int]]] | None = None
        self._occurrences: dict[str, list[Occurrence]] = {}
        self._clauses: dict[
            int, list[tuple[CanonicalClause, list[str], list[str]]]
        ] = {}

    def lowered(self, sentence: Sentence) -> list[str]:
        """The lower-cased token texts of *sentence*."""
        tokens = self._lowered.get(sentence.sid)
        if tokens is None:
            tokens = self._lowered[sentence.sid] = [
                tok.text.lower() for tok in sentence
            ]
        return tokens

    def occurrences(self, value: str) -> list[Occurrence]:
        """Every mention of *value* (as a token sequence), in document order."""
        key = value.lower()
        found = self._occurrences.get(key)
        if found is None:
            needle = [w.lower() for w in _tokenize_literal(value)]
            found = self._occurrences[key] = self._find(needle) if needle else []
        return found

    def _find(self, needle: list[str]) -> list[Occurrence]:
        positions = self._positions
        if positions is None:
            positions = self._positions = {}
            for sentence in self.document:
                for index, token in enumerate(self.lowered(sentence)):
                    positions.setdefault(token, []).append((sentence, index))
        size = len(needle)
        return [
            Occurrence(sentence=sentence, start=start, end=start + size - 1)
            for sentence, start in positions.get(needle[0], ())
            if self.lowered(sentence)[start : start + size] == needle
        ]

    def clauses(
        self, sentence: Sentence, segmenter: ClauseSegmenter
    ) -> list[tuple[CanonicalClause, list[str], list[str]]]:
        """The canonical clauses of *sentence* with their token and lemma lists."""
        views = self._clauses.get(sentence.sid)
        if views is None:
            lowered = self.lowered(sentence)
            views = self._clauses[sentence.sid] = [
                (
                    clause,
                    lowered[clause.start : clause.end + 1],
                    [sentence[t].lemma for t in clause.token_range()],
                )
                for clause in segmenter.segment(sentence)
            ]
        return views


@dataclass
class EvidenceResources:
    """Shared resources needed to score conditions (one per engine)."""

    expander: DescriptorExpander
    vectors: VectorStore | None = None
    segmenter: ClauseSegmenter = field(default_factory=ClauseSegmenter)
    dictionaries: dict[str, set[str]] = field(default_factory=dict)
    _expansions: dict[str, list[tuple[list[str], float]]] = field(
        default_factory=dict, init=False, repr=False
    )

    def dictionary(self, name: str) -> set[str]:
        return self.dictionaries.get(name.lower(), set())

    def expansions(self, descriptor: str) -> list[tuple[list[str], float]]:
        """The expansion set of *descriptor* as ``(lower-cased words, closeness)``.

        Expansion depends on the expander alone, so it is remembered for
        the lifetime of the engine rather than of one query.
        """
        expanded = self._expansions.get(descriptor)
        if expanded is None:
            expanded = [
                ([w.lower() for w in e.phrase.split()], e.score)
                for e in self.expander.expand(descriptor)
            ]
            if len(self._expansions) >= _EXPANSION_MEMO_LIMIT:
                self._expansions.clear()
            self._expansions[descriptor] = expanded
        return expanded


class ConditionScorer:
    """Scores one candidate value against satisfying/excluding conditions."""

    def __init__(self, resources: EvidenceResources) -> None:
        self.resources = resources

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def score(
        self,
        condition: SatisfyingConditionBody,
        value: str,
        occurrences: list[Occurrence],
        document: Document,
    ) -> float:
        """The confidence m_i(value) of *condition* over *document*."""
        return self.score_prepared(
            prepare_condition(condition), value, occurrences, DocumentEvidence(document)
        )

    def is_true(
        self,
        condition: SatisfyingConditionBody,
        value: str,
        occurrences: list[Occurrence],
        document: Document,
    ) -> bool:
        """Boolean view used by the excluding clause (score > 0 counts as true)."""
        return self.score(condition, value, occurrences, document) > 0.0

    def score_prepared(
        self,
        prepared: PreparedCondition,
        value: str,
        occurrences: list[Occurrence] | None,
        evidence: DocumentEvidence | None,
    ) -> float:
        """:meth:`score` for a prepared condition.

        *occurrences* and *evidence* are only looked at by a
        document-reading condition; a value-only one takes ``None``.
        """
        condition = prepared.condition
        if not prepared.reads_document:
            return self._score_value(prepared, value)
        if isinstance(condition, AdjacencyCondition):
            return self._score_adjacency(prepared, occurrences, evidence)
        if isinstance(condition, NearCondition):
            return self._score_near(prepared, occurrences, evidence)
        return self._score_descriptor(condition, occurrences, evidence)

    # ------------------------------------------------------------------
    # value-only conditions
    # ------------------------------------------------------------------
    def _score_value(self, prepared: PreparedCondition, value: str) -> float:
        condition = prepared.condition
        if isinstance(condition, StrCondition):
            return self._score_str(prepared, value)
        if isinstance(condition, InDictCondition):
            return 1.0 if value.lower() in self.resources.dictionary(condition.dictionary) else 0.0
        if isinstance(condition, SimilarToCondition):
            return self._score_similar_to(condition, value)
        return 0.0

    @staticmethod
    def _score_str(prepared: PreparedCondition, value: str) -> float:
        op = prepared.condition.op
        if op == "contains":
            # "contains" is word-level containment: the string "chocolate ice
            # cream" contains "ice" but not "choc" (Section 4.4.1)
            needle = list(prepared.needle)
            if not needle:
                return 0.0
            words = value.lower().split()
            for start in range(0, len(words) - len(needle) + 1):
                if words[start : start + len(needle)] == needle:
                    return 1.0
            return 0.0
        if op == "mentions":
            return 1.0 if prepared.needle[0] in value.lower() else 0.0
        if op == "matches":
            return 1.0 if prepared.pattern.search(value) is not None else 0.0
        return 0.0

    def _score_similar_to(self, condition: SimilarToCondition, value: str) -> float:
        vectors = self.resources.vectors
        words = value.split()
        head = words[-1] if words else value
        if vectors is None:
            # lexicon-only fall-back: exact or paraphrase match
            lexicon = self.resources.expander.lexicon
            if head.lower() == condition.concept.lower():
                return 1.0
            return 0.75 if lexicon.are_paraphrases(head, condition.concept) else 0.0
        return max(0.0, vectors.similarity(head, condition.concept))

    # ------------------------------------------------------------------
    # document-reading conditions
    # ------------------------------------------------------------------
    # adjacency: x "string" / "string" x
    @staticmethod
    def _score_adjacency(
        prepared: PreparedCondition,
        occurrences: list[Occurrence],
        evidence: DocumentEvidence,
    ) -> float:
        needle = list(prepared.needle)
        if not needle:
            return 0.0
        after = prepared.condition.side == "after"
        for occ in occurrences:
            tokens = evidence.lowered(occ.sentence)
            if after:
                start = occ.end + 1
                if tokens[start : start + len(needle)] == needle:
                    return 1.0
            else:
                start = occ.start - len(needle)
                if start >= 0 and tokens[start : occ.start] == needle:
                    return 1.0
        return 0.0

    # near: 1 / (1 + distance)
    @staticmethod
    def _score_near(
        prepared: PreparedCondition,
        occurrences: list[Occurrence],
        evidence: DocumentEvidence,
    ) -> float:
        needle = list(prepared.needle)
        if not needle:
            return 0.0
        best = 0.0
        for occ in occurrences:
            tokens = evidence.lowered(occ.sentence)
            for start in range(0, len(tokens) - len(needle) + 1):
                if tokens[start : start + len(needle)] != needle:
                    continue
                if start > occ.end:
                    distance = start - occ.end - 1
                elif start + len(needle) - 1 < occ.start:
                    distance = occ.start - (start + len(needle) - 1) - 1
                else:
                    distance = 0
                best = max(best, 1.0 / (1.0 + distance))
        return best

    # descriptors: x [[d]] / [[d]] x
    def _score_descriptor(
        self,
        condition: DescriptorCondition,
        occurrences: list[Occurrence],
        evidence: DocumentEvidence,
    ) -> float:
        expansions = self.resources.expansions(condition.descriptor)
        total = 0.0
        seen_sids: set[int] = set()
        for occ in occurrences:
            if occ.sentence.sid in seen_sids:
                continue
            seen_sids.add(occ.sentence.sid)
            total += self._descriptor_sentence_confidence(
                condition,
                expansions,
                occ,
                evidence.clauses(occ.sentence, self.resources.segmenter),
            )
        return total

    @staticmethod
    def _descriptor_sentence_confidence(
        condition: DescriptorCondition,
        expansions: list[tuple[list[str], float]],
        occ: Occurrence,
        clauses: list[tuple[CanonicalClause, list[str], list[str]]],
    ) -> float:
        """conf(x [[d]]) w.r.t. one sentence (Section 4.4.1(c))."""
        # restrict to the text on the required side of the candidate
        if condition.side == "after":
            eligible = [view for view in clauses if view[0].end >= occ.start]
        elif condition.side == "before":
            eligible = [view for view in clauses if view[0].start <= occ.end]
        else:
            eligible = clauses
        best = 0.0
        for descriptor_words, closeness in expansions:
            score = 0.0
            for clause, clause_tokens, clause_lemmas in eligible:
                if _occurs_in_order(descriptor_words, clause_tokens) or _occurs_in_order(
                    descriptor_words, clause_lemmas
                ):
                    score += closeness * clause.weight
            best = max(best, score)
        return best


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _tokenize_literal(text: str) -> list[str]:
    """Tokenise a literal the same way the pipeline tokenises sentences."""
    return re.findall(r"[A-Za-z]+(?:['’][A-Za-z]+)*|\d+|[^\w\s]", text)


def _occurs_in_order(words: list[str], tokens: list[str]) -> bool:
    """True when *words* occur in *tokens* in order, gaps allowed (Section 4.4.1)."""
    if not words or words[0] not in tokens:
        return False
    position = 0
    for token in tokens:
        if token == words[position]:
            position += 1
            if position == len(words):
                return True
    return False


def find_occurrences(document: Document, value: str) -> list[Occurrence]:
    """Every mention of *value* (as a token sequence) in *document*."""
    return DocumentEvidence(document).occurrences(value)
