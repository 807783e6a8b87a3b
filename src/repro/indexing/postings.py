"""Posting quintuples and posting-list algebra (Sections 3.1 and 4.2.2).

Every KOKO index stores, for each indexed key, a list of quintuples
``(x, y, u-v, d)``:

* ``x``   — sentence id,
* ``y``   — token id of the indexed token in that sentence,
* ``u-v`` — first and last token id of the subtree rooted at the token,
* ``d``   — depth of the token in the dependency tree.

The module also implements the join operations the paper defines over
posting lists:

* :func:`join_ancestor` — the "word path" join of Section 4.2.2, keeping
  descendants whose ancestor appears in the other list with the required
  minimum depth gap,
* :func:`join_same_token` — the PL ⋈ POS join, which keeps quintuples that
  refer to the very same token,
* :func:`parent_of` — the parent test given in Example 3.2.

These objects (with :class:`EntityPosting`, one entity-mention row) are
the storage of the object-list reference build,
:mod:`repro.indexing.reference`.  The production indexes hold the same
rows as columns (:mod:`repro.indexing.columnar`) and import nothing from
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..nlp.types import Sentence

__all__ = [
    "EntityPosting",
    "Posting",
    "ancestor_of",
    "join_ancestor",
    "join_descendant",
    "join_same_token",
    "parent_of",
    "posting_for_token",
    "sentences_of",
    "union",
]


@dataclass(frozen=True, order=True)
class Posting:
    """One ``(x, y, u-v, d)`` quintuple, optionally annotated with its word.

    Comparisons (and hashing) cover the positional quintuple only: ``word``
    is a display annotation whose surface case varies by provenance
    (original token text vs. the lower-cased key of a restored ``W``
    relation), and sort order or merge tie-breaks must not depend on it.
    """

    sid: int
    tid: int
    left: int
    right: int
    depth: int
    word: str = field(default="", compare=False)

    def covers(self, other: "Posting") -> bool:
        """True when *other*'s token lies within this posting's subtree."""
        return (
            self.sid == other.sid
            and self.left <= other.left
            and other.right <= self.right
        )


@dataclass(frozen=True, order=True)
class EntityPosting:
    """One entity occurrence: sentence id, span, type, and surface text."""

    sid: int
    left: int
    right: int
    etype: str
    text: str


def posting_for_token(sentence: Sentence, tid: int) -> Posting:
    """Build the quintuple for token *tid* of *sentence*."""
    left, right = sentence.subtree_span(tid)
    return Posting(
        sid=sentence.sid,
        tid=tid,
        left=left,
        right=right,
        depth=sentence.depth(tid),
        word=sentence[tid].text,
    )


def parent_of(parent: Posting, child: Posting) -> bool:
    """The parent test of Example 3.2.

    ``tp`` is the parent of ``tc`` iff they are in the same sentence, the
    child's subtree is contained in the parent's, and the child is exactly
    one level deeper.
    """
    return (
        parent.sid == child.sid
        and parent.left <= child.left
        and parent.right >= child.right
        and parent.depth == child.depth - 1
    )


def ancestor_of(ancestor: Posting, descendant: Posting, min_gap: int = 1) -> bool:
    """True when *ancestor* dominates *descendant* at least *min_gap* levels up."""
    return (
        ancestor.sid == descendant.sid
        and ancestor.left <= descendant.left
        and ancestor.right >= descendant.right
        and descendant.depth >= ancestor.depth + min_gap
    )


def union(lists: Iterable[list[Posting]]) -> list[Posting]:
    """Union of several posting lists, de-duplicated and sorted."""
    seen: set[tuple[int, int]] = set()
    merged: list[Posting] = []
    for postings in lists:
        for posting in postings:
            key = (posting.sid, posting.tid)
            if key not in seen:
                seen.add(key)
                merged.append(posting)
    merged.sort()
    return merged


def join_ancestor(
    ancestors: list[Posting], descendants: list[Posting], min_gap: int = 1
) -> list[Posting]:
    """Keep descendants that have a qualifying ancestor (Section 4.2.2).

    Returns the *descendant* quintuples, which is what the word-path join
    propagates down the path.
    """
    by_sentence: dict[int, list[Posting]] = {}
    for anc in ancestors:
        by_sentence.setdefault(anc.sid, []).append(anc)
    result = []
    for desc in descendants:
        for anc in by_sentence.get(desc.sid, ()):
            if ancestor_of(anc, desc, min_gap=min_gap):
                result.append(desc)
                break
    return result


def join_descendant(
    descendants: list[Posting], ancestors: list[Posting], min_gap: int = 1
) -> list[Posting]:
    """Keep ancestors that dominate at least one qualifying descendant."""
    by_sentence: dict[int, list[Posting]] = {}
    for desc in descendants:
        by_sentence.setdefault(desc.sid, []).append(desc)
    result = []
    for anc in ancestors:
        for desc in by_sentence.get(anc.sid, ()):
            if ancestor_of(anc, desc, min_gap=min_gap):
                result.append(anc)
                break
    return result


def join_same_token(left: list[Posting], right: list[Posting]) -> list[Posting]:
    """Keep quintuples present (same sentence id and token id) in both lists."""
    keys = {(p.sid, p.tid) for p in right}
    return [p for p in left if (p.sid, p.tid) in keys]


def sentences_of(postings: Iterable[Posting]) -> set[int]:
    """The set of sentence ids mentioned by a posting list."""
    return {p.sid for p in postings}
