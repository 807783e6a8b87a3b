"""Core annotation data model produced by the NLP pipeline.

The KOKO engine (and every index described in the paper) consumes documents
annotated with four layers of information per token:

* the surface form (the token text),
* a Universal part-of-speech tag (Petrov et al., 2012),
* a dependency parse label and a pointer to the head token,
* optionally, membership in a named-entity mention with an entity type.

This module defines the containers for those annotations: :class:`Sentence`,
:class:`Document`, :class:`Span` and :class:`Corpus`, independent of any
particular parser implementation.

A :class:`Sentence` stores its annotation as **columns**: one tuple per
layer (``words``, ``pos_tags``, ``labels``, ``heads``, ``lemmas``,
``entity_types``), the mentions as plain ``(start, end, etype, text)``
tuples and the dependency tree as a tuple-only ``(children, spans,
depths)`` cache.  CPython's garbage collector stops tracking a tuple once a
collection finds nothing tracked inside it — one nesting level per
collection, and these nest at most two deep — so a stored sentence settles
to **one** tracked object however long it is, before the young-generation
passes hand it to the full collections that walk the whole heap.
:class:`Token` and :class:`EntityMention` are read-only *views* built on
each access and never stored.
"""

from __future__ import annotations

import copyreg
import pickle
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ENTITY_TYPES",
    "PARSE_LABELS",
    "UNIVERSAL_POS_TAGS",
    "Corpus",
    "Document",
    "EntityMention",
    "Sentence",
    "Span",
    "Token",
    "detokenize",
    "span_texts",
]

# Universal POS tagset (Petrov, Das, McDonald 2012) with PROPN split out,
# matching the tags used in the paper's Figure 1.
UNIVERSAL_POS_TAGS = frozenset(
    {
        "NOUN",
        "PROPN",
        "VERB",
        "ADJ",
        "ADV",
        "PRON",
        "DET",
        "ADP",
        "NUM",
        "CONJ",
        "PRT",
        "PUNCT",
        "X",
    }
)

# Dependency parse labels (a Universal-Dependencies-v1 style inventory, the
# same family of labels used in the paper's running examples).
PARSE_LABELS = frozenset(
    {
        "root",
        "nsubj",
        "nsubjpass",
        "dobj",
        "iobj",
        "det",
        "amod",
        "nn",
        "advmod",
        "prep",
        "pobj",
        "cc",
        "conj",
        "acomp",
        "xcomp",
        "ccomp",
        "rcmod",
        "aux",
        "auxpass",
        "neg",
        "num",
        "poss",
        "appos",
        "attr",
        "dep",
        "p",
    }
)

# Entity types recognised by the NER component; "OTHER" covers capitalised
# mentions that do not fall into a known gazetteer (e.g. cafe names).
ENTITY_TYPES = frozenset(
    {
        "PERSON",
        "LOCATION",
        "GPE",
        "ORGANIZATION",
        "DATE",
        "EVENT",
        "FACILITY",
        "TEAM",
        "OTHER",
    }
)


@dataclass(frozen=True)
class Token:
    """A single token of a sentence with all its annotations.

    A sentence hands out fresh, read-only tokens built from its columns
    (``sentence[i]``, iteration, :attr:`Sentence.tokens`); writing to one
    raises instead of being lost.  Build a changed sentence with
    :meth:`Sentence.from_columns` instead.

    Attributes
    ----------
    index:
        Zero-based position of the token within its sentence.
    text:
        Surface form.
    pos:
        Universal POS tag (one of :data:`UNIVERSAL_POS_TAGS`).
    label:
        Dependency parse label of the arc from this token to its head
        (``"root"`` for the root token).
    head:
        Sentence-relative index of the head token; ``-1`` for the root.
    lemma:
        Lower-cased lemma (a light-weight lemmatisation; falls back to the
        lower-cased surface form).
    entity_type:
        Entity type if this token is part of a named-entity mention,
        otherwise ``None``.
    """

    index: int
    text: str
    pos: str = "X"
    label: str = "dep"
    head: int = -1
    lemma: str = ""
    entity_type: str | None = None

    def __post_init__(self) -> None:
        if not self.lemma:
            object.__setattr__(self, "lemma", self.text.lower())

    @property
    def is_root(self) -> bool:
        """True when this token is the root of its dependency tree."""
        return self.head < 0

    def matches_label(self, label: str) -> bool:
        """Return True if *label* names this token's word, POS tag or parse label.

        This is the label-matching rule used throughout the KOKO path
        language: a path step such as ``verb`` matches on the POS tag,
        ``dobj`` matches on the parse label, and a quoted word matches the
        surface form (case-insensitively).
        """
        low = label.lower()
        return (
            low == self.label.lower()
            or low == self.pos.lower()
            or low == self.text.lower()
            or low == self.lemma
        )


@dataclass(frozen=True)
class EntityMention:
    """A named-entity mention: a contiguous span of tokens with a type.

    ``start`` and ``end`` are inclusive token indexes within the sentence,
    mirroring the ``(x, u-v)`` triples stored in the paper's entity index.
    A sentence stores its mentions as plain ``(start, end, etype, text)``
    rows and hands out read-only mentions built from them.
    """

    start: int
    end: int
    etype: str
    text: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"entity mention end ({self.end}) precedes start ({self.start})"
            )

    def __len__(self) -> int:
        return self.end - self.start + 1

    def covers(self, token_index: int) -> bool:
        """True when *token_index* falls inside this mention."""
        return self.start <= token_index <= self.end


#: per-token columns, in constructor, pickle and :class:`Token` field order
_COLUMNS = ("words", "pos_tags", "labels", "heads", "lemmas", "entity_types")
_columns_of = attrgetter(*_COLUMNS)


class Sentence:
    """A parsed sentence, stored as per-token annotation columns.

    ``words``, ``pos_tags``, ``labels``, ``heads``, ``lemmas`` and
    ``entity_types`` are equally long tuples (position *i* is token *i*);
    ``entity_rows`` holds one ``(start, end, etype, text)`` tuple per
    mention.  The dependency tree is implicit in ``heads``; the navigation
    helpers the KOKO evaluator relies on (children, subtree extent, depth)
    read one memoised, tuple-only cache (:meth:`tree_columns`).  Treat a
    sentence as immutable: build a changed one with :meth:`from_columns`.

    ``Sentence(sid, tokens, entities, text)`` accepts :class:`Token` and
    :class:`EntityMention` sequences and converts them to columns once.
    ``sentence[i]``, iteration, :attr:`tokens` and :attr:`entities` build
    fresh views on every call and never keep them — a kept view would make
    the sentence a graph the garbage collector walks again.
    """

    __slots__ = (
        "sid",
        "words",
        "pos_tags",
        "labels",
        "heads",
        "lemmas",
        "entity_types",
        "entity_rows",
        "_text",
        "_children",
        "_spans",
        "_depths",
    )

    def __init__(
        self,
        sid: int,
        tokens: Sequence[Token],
        entities: Sequence[EntityMention] | None = None,
        text: str | None = None,
    ) -> None:
        rows = [
            (t.text, t.pos, t.label, t.head, t.lemma, t.entity_type) for t in tokens
        ]
        columns = tuple(zip(*rows)) if rows else ((),) * len(_COLUMNS)
        mentions = tuple((m.start, m.end, m.etype, m.text) for m in entities or ())
        self._fill(sid, *columns, mentions, text)

    @classmethod
    def from_columns(
        cls,
        sid: int,
        words: Sequence[str],
        pos_tags: Sequence[str],
        labels: Sequence[str],
        heads: Sequence[int],
        lemmas: Sequence[str],
        entity_types: Sequence[str | None] | None = None,
        entity_rows: Iterable[tuple[int, int, str, str]] = (),
        text: str | None = None,
    ) -> "Sentence":
        """A sentence built straight from its columns (no token objects).

        Every column must have one entry per word; *entity_types* defaults
        to ``None`` everywhere.  Raises ``ValueError`` otherwise.
        """
        sentence = cls.__new__(cls)
        words = tuple(words)
        sentence._fill(
            sid,
            words,
            tuple(pos_tags),
            tuple(labels),
            tuple(heads),
            tuple(lemmas),
            (None,) * len(words) if entity_types is None else tuple(entity_types),
            tuple(map(tuple, entity_rows)),
            text,
        )
        return sentence

    def _fill(
        self,
        sid: int,
        words: tuple,
        pos_tags: tuple,
        labels: tuple,
        heads: tuple,
        lemmas: tuple,
        entity_types: tuple,
        entity_rows: tuple,
        text: str | None,
    ) -> None:
        if any(
            len(column) != len(words)
            for column in (pos_tags, labels, heads, lemmas, entity_types)
        ):
            raise ValueError(f"sentence {sid}: annotation columns differ in length")
        self.sid = sid
        self.words = words
        self.pos_tags = pos_tags
        self.labels = labels
        self.heads = heads
        self.lemmas = lemmas
        self.entity_types = entity_types
        self.entity_rows = entity_rows
        self._text = text
        self._children = self._spans = self._depths = None

    # ------------------------------------------------------------------
    # pickling: the columns, nothing else
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as the columns; the tree cache rebuilds on first use."""
        return (
            copyreg.__newobj__,
            (type(self),),
            (self.sid, *_columns_of(self), self.entity_rows, self._text),
        )

    def __setstate__(self, state) -> None:
        """Restore the columns :meth:`__reduce__` emitted.

        Any other shape — a pickle of the object-graph sentence that stored
        ``Token`` lists in a ``__dict__`` included — raises
        :class:`pickle.UnpicklingError` before anything is assigned.
        """
        if type(state) is not tuple or len(state) != 3 + len(_COLUMNS):
            raise pickle.UnpicklingError(
                f"not a columnar Sentence state: a {type(state).__name__}"
            )
        if not all(type(column) is tuple for column in state[1:8]):
            raise pickle.UnpicklingError("Sentence columns are not tuples")
        try:
            self._fill(*state)
        except ValueError as exc:
            raise pickle.UnpicklingError(str(exc)) from exc

    # ------------------------------------------------------------------
    # views: built per call, never stored
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Token]:
        return (
            Token(index, *annotation)
            for index, annotation in enumerate(zip(*_columns_of(self)))
        )

    def __getitem__(self, index: int) -> Token:
        if index < 0:
            index += len(self.words)
        if not 0 <= index < len(self.words):
            raise IndexError(f"token {index} out of range for sentence {self.sid}")
        return Token(index, *(column[index] for column in _columns_of(self)))

    @property
    def tokens(self) -> list[Token]:
        """Fresh :class:`Token` views of every token, in order."""
        return list(self)

    @property
    def entities(self) -> list[EntityMention]:
        """Fresh :class:`EntityMention` views of every mention, in order."""
        return [EntityMention(*row) for row in self.entity_rows]

    @property
    def text(self) -> str:
        """The (reconstructed) surface text of the sentence."""
        if self._text is None:
            self._text = detokenize(self.words)
        return self._text

    # ------------------------------------------------------------------
    # dependency-tree navigation
    # ------------------------------------------------------------------
    def root_index(self) -> int:
        """Index of the root token (first token with head < 0)."""
        for index, head in enumerate(self.heads):
            if head < 0:
                return index
        raise ValueError(f"sentence {self.sid} has no root token")

    def children(self, index: int) -> tuple[int, ...]:
        """Indexes of the direct dependents of token *index*."""
        return self.tree_columns()[0][index]

    def subtree_span(self, index: int) -> tuple[int, int]:
        """Inclusive ``(first, last)`` token indexes of the subtree rooted at *index*.

        This is the ``u-v`` component of the quintuples stored by every
        KOKO index (Section 3.1 of the paper).
        """
        return self.tree_columns()[1][index]

    def depth(self, index: int) -> int:
        """Depth of token *index* in the dependency tree (root has depth 0)."""
        return self.tree_columns()[2][index]

    def tree_columns(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
        """The memoised tree structure as whole-sentence columns.

        Returns ``(children, subtree_spans, depths)`` — per token its
        dependents, its inclusive subtree extent and its depth — as tuples
        only, so the cache is as invisible to the garbage collector as the
        columns are and the children column is hashable as it stands (the
        hierarchy merge memo keys on it).  A token on a head cycle, which
        no root reaches, has depth ``len(self) + 1``.
        """
        children = self._children
        if children is None:
            children, self._spans, self._depths = _tree_of(self.heads)
            # assigned last: concurrent readers key the "cache ready" check
            # on _children, so the other two must already be visible
            self._children = children
        return children, self._spans, self._depths

    def subtree_indices(self, index: int) -> list[int]:
        """All token indexes in the subtree rooted at *index*, in surface order."""
        first, last = self.subtree_span(index)
        return list(range(first, last + 1))

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """True when token *ancestor* dominates token *descendant* (strictly)."""
        if ancestor == descendant:
            return False
        heads = self.heads
        node = descendant
        seen = 0
        while node >= 0 and seen <= len(heads):
            node = heads[node]
            seen += 1
            if node == ancestor:
                return True
        return False

    def span_text(self, start: int, end: int) -> str:
        """Surface text of tokens ``start..end`` (inclusive)."""
        words = self.words[start : end + 1]
        if len(words) == 1:
            return words[0]
        return detokenize(words)

    def entity_at(self, index: int) -> EntityMention | None:
        """The entity mention covering token *index*, if any."""
        for row in self.entity_rows:
            if row[0] <= index <= row[1]:
                return EntityMention(*row)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Sentence(sid={self.sid}, tokens={len(self.words)})"


def _tree_of(
    heads: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """``(children, subtree_spans, depths)`` of the tree *heads* describes."""
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n)]
    frontier: list[int] = []
    for index, head in enumerate(heads):
        if head < 0:
            frontier.append(index)
        elif head < n and head != index:
            children[head].append(index)
    # depths level by level from the roots; a token no root reaches sits on
    # (or hangs below) a head cycle
    depths = [n + 1] * n
    levels: list[list[int]] = []
    depth = 0
    while frontier:
        levels.append(frontier)
        following: list[int] = []
        for index in frontier:
            depths[index] = depth
            following.extend(children[index])
        frontier = following
        depth += 1
    # Subtree spans: the contiguous extent is the min/max token index
    # reachable in the subtree, filled deepest first (unreached tokens
    # before every level).  Rule-based trees in this package are
    # projective, so the extent is exactly the subtree.
    spans = [(i, i) for i in range(n)]
    order = [i for i in range(n) if depths[i] > n]
    for level in reversed(levels):
        order.extend(level)
    for index in order:
        kids = children[index]
        if kids:
            first, last = spans[index]
            for child in kids:
                child_first, child_last = spans[child]
                if child_first < first:
                    first = child_first
                if child_last > last:
                    last = child_last
            spans[index] = (first, last)
    return tuple(map(tuple, children)), tuple(spans), tuple(depths)


@dataclass(frozen=True)
class Span:
    """A contiguous span of tokens within one sentence.

    Spans are the values bound to KOKO span variables; ``start`` and ``end``
    are inclusive token indexes.  A span knows which sentence it came from so
    that output tuples can be traced back to their provenance.
    """

    sid: int
    start: int
    end: int
    text: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span end ({self.end}) precedes start ({self.start})")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def contains(self, other: "Span") -> bool:
        """True when *other* lies entirely within this span (same sentence)."""
        return (
            self.sid == other.sid
            and self.start <= other.start
            and other.end <= self.end
        )

    def precedes(self, other: "Span") -> bool:
        """True when this span ends strictly before *other* starts."""
        return self.sid == other.sid and self.end < other.start

    def immediately_precedes(self, other: "Span") -> bool:
        """True when *other* starts exactly one token after this span ends."""
        return self.sid == other.sid and other.start == self.end + 1


class Document:
    """A fully annotated document: an ordered list of parsed sentences."""

    def __init__(self, doc_id: str, sentences: Sequence[Sentence], text: str = "") -> None:
        self.doc_id = doc_id
        self.sentences: list[Sentence] = list(sentences)
        self.text = text

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __getitem__(self, index: int) -> Sentence:
        return self.sentences[index]

    @property
    def num_tokens(self) -> int:
        """Total number of tokens across all sentences."""
        return sum(len(sentence) for sentence in self.sentences)

    def sentence_by_sid(self, sid: int) -> Sentence:
        """Return the sentence whose ``sid`` equals *sid*."""
        for sentence in self.sentences:
            if sentence.sid == sid:
                return sentence
        raise KeyError(f"no sentence with sid={sid} in document {self.doc_id!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Document(doc_id={self.doc_id!r}, sentences={len(self.sentences)})"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
_NO_SPACE_BEFORE = {".", ",", ";", ":", "!", "?", ")", "]", "}", "'s", "n't", "%", "'"}
_NO_SPACE_AFTER = {"(", "[", "{", "$"}
_SPACING_EXCEPTIONS = _NO_SPACE_BEFORE | _NO_SPACE_AFTER


def detokenize(tokens: Iterable[str]) -> str:
    """Join tokens back into a readable string with conventional spacing."""
    tokens = list(tokens)
    if _SPACING_EXCEPTIONS.isdisjoint(tokens):
        return " ".join(tokens)  # the common case: a space between every two
    pieces: list[str] = []
    previous = ""
    for token in tokens:
        if not pieces:
            pieces.append(token)
        elif token in _NO_SPACE_BEFORE or previous in _NO_SPACE_AFTER:
            pieces.append(token)
        else:
            pieces.append(" " + token)
        previous = token
    return "".join(pieces)


def span_texts(
    words: Iterable[Sequence[str]], starts: Iterable[int], ends: Iterable[int]
) -> list[str]:
    """The surface text of each span ``words[i][starts[i] .. ends[i]]`` (inclusive).

    Equal to ``detokenize(words[i][starts[i]:ends[i] + 1])`` span for span,
    with no call where none is needed: a single token is itself, a run
    with no spacing exception is joined by spaces (an empty span, ``end ==
    start - 1``, gives ``""``), and anything else goes to :func:`detokenize`.
    """
    return [
        tokens[start]
        if start == end
        else " ".join(run)
        if _SPACING_EXCEPTIONS.isdisjoint(run := tokens[start : end + 1])
        else detokenize(run)
        for tokens, start, end in zip(words, starts, ends)
    ]


@dataclass
class Corpus:
    """A named collection of documents plus optional gold annotations.

    Gold annotations map an annotation key (for example ``"cafe"`` or
    ``"team"``) to the set of gold strings for each document id.  The
    extraction experiments use them to compute precision and recall.
    """

    name: str
    documents: list[Document] = field(default_factory=list)
    gold: dict[str, dict[str, set[str]]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    @property
    def num_sentences(self) -> int:
        """Total number of sentences across all documents."""
        return sum(len(doc) for doc in self.documents)

    @property
    def num_tokens(self) -> int:
        """Total number of tokens across all documents."""
        return sum(doc.num_tokens for doc in self.documents)

    def all_sentences(self) -> Iterator[tuple[Document, Sentence]]:
        """Iterate over ``(document, sentence)`` pairs across the corpus."""
        for doc in self.documents:
            for sentence in doc.sentences:
                yield doc, sentence

    def gold_for(self, key: str, doc_id: str) -> set[str]:
        """Gold strings of kind *key* for document *doc_id* (empty set if none)."""
        return self.gold.get(key, {}).get(doc_id, set())
