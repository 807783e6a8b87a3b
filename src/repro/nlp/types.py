"""Core annotation data model produced by the NLP pipeline.

The KOKO engine (and every index described in the paper) consumes documents
annotated with four layers of information per token:

* the surface form (the token text),
* a Universal part-of-speech tag (Petrov et al., 2012),
* a dependency parse label and a pointer to the head token,
* optionally, membership in a named-entity mention with an entity type.

This module defines the immutable-by-convention containers for those
annotations: :class:`Token`, :class:`Sentence`, :class:`EntityMention`,
:class:`Span`, and :class:`Document`.  The containers are deliberately plain
(dataclasses with explicit fields) so they are cheap to construct in bulk,
easy to serialise, and independent of any particular parser implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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


@dataclass
class Token:
    """A single token of a sentence with all its annotations.

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
            self.lemma = self.text.lower()

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


@dataclass
class EntityMention:
    """A named-entity mention: a contiguous span of tokens with a type.

    ``start`` and ``end`` are inclusive token indexes within the sentence,
    mirroring the ``(x, u-v)`` triples stored in the paper's entity index.
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


class Sentence:
    """A parsed sentence: a sequence of tokens plus entity mentions.

    The sentence owns the dependency tree implicitly through the ``head``
    field of its tokens and exposes the tree-navigation helpers the KOKO
    evaluator relies on: children lookup, subtree extent, and depth.
    """

    def __init__(
        self,
        sid: int,
        tokens: Sequence[Token],
        entities: Sequence[EntityMention] | None = None,
        text: str | None = None,
    ) -> None:
        self.sid = sid
        self.tokens: list[Token] = list(tokens)
        self.entities: list[EntityMention] = list(entities or [])
        self._text = text
        self._children: list[list[int]] | None = None
        self._subtree_spans: list[tuple[int, int]] | None = None
        self._depths: list[int] | None = None

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __getitem__(self, index: int) -> Token:
        return self.tokens[index]

    @property
    def text(self) -> str:
        """The (reconstructed) surface text of the sentence."""
        if self._text is None:
            self._text = detokenize(tok.text for tok in self.tokens)
        return self._text

    @property
    def words(self) -> list[str]:
        """The token surface forms, in order."""
        return [tok.text for tok in self.tokens]

    # ------------------------------------------------------------------
    # dependency-tree navigation
    # ------------------------------------------------------------------
    def root_index(self) -> int:
        """Index of the root token (first token with head < 0)."""
        for tok in self.tokens:
            if tok.is_root:
                return tok.index
        raise ValueError(f"sentence {self.sid} has no root token")

    def children(self, index: int) -> list[int]:
        """Indexes of the direct dependents of token *index*."""
        self._ensure_tree_caches()
        assert self._children is not None
        return self._children[index]

    def subtree_span(self, index: int) -> tuple[int, int]:
        """Inclusive ``(first, last)`` token indexes of the subtree rooted at *index*.

        This is the ``u-v`` component of the quintuples stored by every
        KOKO index (Section 3.1 of the paper).
        """
        self._ensure_tree_caches()
        assert self._subtree_spans is not None
        return self._subtree_spans[index]

    def depth(self, index: int) -> int:
        """Depth of token *index* in the dependency tree (root has depth 0)."""
        self._ensure_tree_caches()
        assert self._depths is not None
        return self._depths[index]

    def tree_columns(self) -> tuple[list[list[int]], list[tuple[int, int]], list[int]]:
        """The memoised tree structure as whole-sentence columns.

        Returns ``(children, subtree_spans, depths)`` — the per-token lists
        backing :meth:`children`, :meth:`subtree_span` and :meth:`depth` —
        so the columnar index splice can read the whole sentence without a
        per-token method call.  Treat the returned lists as read-only.
        """
        self._ensure_tree_caches()
        assert self._children is not None
        assert self._subtree_spans is not None
        assert self._depths is not None
        return self._children, self._subtree_spans, self._depths

    def subtree_indices(self, index: int) -> list[int]:
        """All token indexes in the subtree rooted at *index*, in surface order."""
        first, last = self.subtree_span(index)
        return list(range(first, last + 1))

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """True when token *ancestor* dominates token *descendant* (strictly)."""
        if ancestor == descendant:
            return False
        node = descendant
        seen = 0
        while node >= 0 and seen <= len(self.tokens):
            node = self.tokens[node].head
            seen += 1
            if node == ancestor:
                return True
        return False

    def span_text(self, start: int, end: int) -> str:
        """Surface text of tokens ``start..end`` (inclusive)."""
        tokens = self.tokens[start : end + 1]
        if len(tokens) == 1:
            return tokens[0].text
        return detokenize([tok.text for tok in tokens])

    def entity_at(self, index: int) -> EntityMention | None:
        """The entity mention covering token *index*, if any."""
        for mention in self.entities:
            if mention.covers(index):
                return mention
        return None

    # ------------------------------------------------------------------
    # internal caches
    # ------------------------------------------------------------------
    def _ensure_tree_caches(self) -> None:
        if self._children is not None:
            return
        n = len(self.tokens)
        children: list[list[int]] = [[] for _ in range(n)]
        for tok in self.tokens:
            if 0 <= tok.head < n and tok.head != tok.index:
                children[tok.head].append(tok.index)

        # Depth by walking up the head chain (with cycle guard).
        depths = [0] * n
        for i in range(n):
            depth = 0
            node = i
            while not self.tokens[node].is_root and depth <= n:
                node = self.tokens[node].head
                depth += 1
            depths[i] = depth
        self._depths = depths

        # Subtree spans: the contiguous extent is computed as the min/max
        # token index reachable in the subtree.  Rule-based trees in this
        # package are projective so the extent is exactly the subtree.
        spans = [(i, i) for i in range(n)]
        order = sorted(range(n), key=lambda i: depths[i], reverse=True)
        for i in order:
            first, last = spans[i]
            for child in children[i]:
                cf, cl = spans[child]
                first = min(first, cf)
                last = max(last, cl)
            spans[i] = (first, last)
        self._subtree_spans = spans

        # Assigned last: concurrent readers key the "caches ready" check on
        # _children, so the other caches must already be visible by then.
        self._children = children

    def invalidate_caches(self) -> None:
        """Drop memoised tree structure (call after mutating tokens)."""
        self._children = None
        self._subtree_spans = None
        self._depths = None

    def __getstate__(self) -> dict:
        """Pickle without the memoised tree caches.

        The caches are pure functions of the tokens and rebuild lazily on
        first use; dropping them keeps serialised sentences (snapshot
        corpus files, WAL records) small and load fast.
        """
        state = self.__dict__.copy()
        state["_children"] = None
        state["_subtree_spans"] = None
        state["_depths"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Sentence(sid={self.sid}, tokens={len(self.tokens)})"


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

    def entity_texts(self, etype: str | None = None) -> list[str]:
        """All entity-mention texts in the document, optionally filtered by type."""
        found = []
        for sentence in self.sentences:
            for mention in sentence.entities:
                if etype is None or mention.etype == etype:
                    found.append(mention.text)
        return found

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
        return sum(len(doc) for doc in self.documents)

    @property
    def num_tokens(self) -> int:
        return sum(doc.num_tokens for doc in self.documents)

    def all_sentences(self) -> Iterator[tuple[Document, Sentence]]:
        """Iterate over ``(document, sentence)`` pairs across the corpus."""
        for doc in self.documents:
            for sentence in doc.sentences:
                yield doc, sentence

    def gold_for(self, key: str, doc_id: str) -> set[str]:
        """Gold strings of kind *key* for document *doc_id* (empty set if none)."""
        return self.gold.get(key, {}).get(doc_id, set())
