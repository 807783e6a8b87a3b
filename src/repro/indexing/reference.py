"""The object-list reference build of KOKO's four indexes.

Production indexes (:class:`~repro.indexing.koko_index.KokoIndexSet`) keep
their postings in numpy columns and join them as whole-array window
predicates.  This module keeps the design those columns replaced — one
Python list of :class:`~repro.indexing.postings.Posting` per word, entity
mention and hierarchy node, joined by the list algebra of
:mod:`repro.indexing.postings` — as an independent implementation to check
production against.  A plain ``KokoEngine(corpus)`` builds it, so the
ledger's oracle and the equivalence and property tests compare the
columnar service with code that shares none of its storage, trie walk or
joins.  Nothing on the serving path imports this module.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Sequence

import numpy as np

from ..nlp.types import Corpus, Document, Sentence
from .decompose import DecomposedPath, decompose_path, is_trivial
from .entity_index import accepted_types
from .hierarchy import HierarchyNode
from .koko_index import IndexStatistics, sizeof
from .postings import (
    EntityPosting,
    Posting,
    join_ancestor,
    join_same_token,
    posting_for_token,
)
from .query_ir import DESCENDANT, KIND_WORD, TreePath

__all__ = [
    "ReferenceEntityIndex",
    "ReferenceHierarchyIndex",
    "ReferenceIndexSet",
    "ReferenceWordIndex",
    "lookup_decomposed",
]


class ReferenceWordIndex:
    """Word -> list of postings, plus each token's ``(plid, posid)``."""

    def __init__(self) -> None:
        self._postings: dict[str, list[Posting]] = {}
        self._node_ids: dict[tuple[int, int], tuple[int, int]] = {}

    def add_sentence(
        self, sentence: Sentence, plids: dict[int, int], posids: dict[int, int]
    ) -> None:
        """Index every token; record node ids of the tokens the tries merged."""
        for token in sentence:
            tid = token.index
            posting = posting_for_token(sentence, tid)
            self._postings.setdefault(token.text.lower(), []).append(posting)
            if tid in plids:  # a token unreachable from the root has none
                self._node_ids[(sentence.sid, tid)] = (plids[tid], posids[tid])

    def remove_sentence(self, sentence: Sentence) -> None:
        """Drop every posting and node-id pair of *sentence*."""
        for word in {token.text.lower() for token in sentence}:
            kept = [p for p in self._postings.get(word, ()) if p.sid != sentence.sid]
            if kept:
                self._postings[word] = kept
            else:
                self._postings.pop(word, None)
        for token in sentence:
            self._node_ids.pop((sentence.sid, token.index), None)

    def lookup(self, word: str) -> list[Posting]:
        """Posting list of *word* (case-insensitive; empty if unseen)."""
        return list(self._postings.get(word.lower(), ()))

    def node_ids(self, sid: int, tid: int) -> tuple[int, int] | None:
        """The (plid, posid) recorded for a token occurrence, if any."""
        return self._node_ids.get((sid, tid))

    def vocabulary(self) -> list[str]:
        """Every word holding at least one posting, sorted."""
        return sorted(self._postings)

    def __len__(self) -> int:
        return sum(len(postings) for postings in self._postings.values())


class ReferenceEntityIndex:
    """Entity mentions as one posting list per sentence."""

    def __init__(self) -> None:
        self._by_sid: dict[int, list[EntityPosting]] = {}

    def add_sentence(self, sentence: Sentence) -> None:
        """Index every mention of *sentence*."""
        if sentence.entities:
            self._by_sid[sentence.sid] = [
                EntityPosting(sentence.sid, m.start, m.end, m.etype, m.text)
                for m in sentence.entities
            ]

    def remove_sentence(self, sentence: Sentence) -> None:
        """Drop every mention of *sentence*."""
        self._by_sid.pop(sentence.sid, None)

    def lookup_type(self, etype: str) -> list[EntityPosting]:
        """Mentions of type *etype*; ``"Entity"`` matches every mention."""
        accepted = accepted_types(etype)
        if accepted is None:
            return self.all_postings()
        return [p for p in self.all_postings() if p.etype in accepted]

    def all_postings(self) -> list[EntityPosting]:
        """Every mention in the index."""
        return [posting for bucket in self._by_sid.values() for posting in bucket]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_sid.values())


class ReferenceHierarchyIndex:
    """A merged dependency-tree trie with one Python posting list per node."""

    def __init__(self, label_of: Callable, name: str) -> None:
        self.name = name
        self._label_of = label_of
        self._next_id = 0
        self._nodes: dict[int, HierarchyNode] = {}
        self._postings: dict[int, list[Posting]] = {}
        self._dummy = self._new_node("<dummy>", -1, None)

    def _new_node(
        self, label: str, depth: int, parent: HierarchyNode | None
    ) -> HierarchyNode:
        node = self._nodes[self._next_id] = HierarchyNode(
            self._next_id, label, depth, parent
        )
        self._postings[self._next_id] = []
        self._next_id += 1
        return node

    def node_postings(self, node_id: int) -> list[Posting]:
        """The posting list of the node minted under *node_id*."""
        return self._postings[node_id]

    def add_sentence(self, sentence: Sentence) -> dict[int, int]:
        """Merge *sentence*'s tree; the node id of every token reached."""
        merged: dict[int, int] = {}
        if len(sentence):
            self._insert(sentence, sentence.root_index(), self._dummy, merged)
        return merged

    def _insert(
        self, sentence: Sentence, tid: int, parent: HierarchyNode, merged: dict
    ) -> None:
        label = str(self._label_of(sentence[tid]))
        child = parent.children.get(label)
        if child is None:
            child = parent.children[label] = self._new_node(
                label, parent.depth + 1, parent
            )
        self._postings[child.node_id].append(posting_for_token(sentence, tid))
        merged[tid] = child.node_id
        for ctid in sentence.children(tid):
            self._insert(sentence, ctid, child, merged)

    def remove_sentence(self, sentence: Sentence) -> None:
        """Un-merge *sentence*, pruning nodes left without postings."""
        if len(sentence):
            self._remove(sentence, sentence.root_index(), self._dummy)

    def _remove(self, sentence: Sentence, tid: int, parent: HierarchyNode) -> None:
        label = str(self._label_of(sentence[tid]))
        child = parent.children.get(label)
        if child is None:
            return
        for ctid in sentence.children(tid):
            self._remove(sentence, ctid, child)
        postings = self._postings[child.node_id] = [
            p
            for p in self._postings[child.node_id]
            if (p.sid, p.tid) != (sentence.sid, tid)
        ]
        if not postings and not child.children:
            del parent.children[label]
            del self._nodes[child.node_id]
            del self._postings[child.node_id]

    @property
    def node_count(self) -> int:
        """Number of merged nodes (dummy excluded)."""
        return len(self._nodes) - 1

    @property
    def token_count(self) -> int:
        """Number of tokens merged into the trie."""
        return sum(map(len, self._postings.values()))

    def compression_ratio(self) -> float:
        """Fraction of nodes eliminated by merging (0 when nothing merged)."""
        tokens = self.token_count
        return 1.0 - self.node_count / tokens if tokens else 0.0

    def node_by_id(self, node_id: int) -> HierarchyNode:
        """The node minted under *node_id*."""
        return self._nodes[node_id]

    def nodes(self) -> Iterator[HierarchyNode]:
        """All nodes except the dummy root."""
        return (node for node in self._nodes.values() if node is not self._dummy)

    def match_nodes(self, steps: Sequence[tuple[str, str]]) -> list[HierarchyNode]:
        """Nodes whose root path matches *steps* (``/``, ``//``, ``*``), by id."""
        frontier = [self._dummy]
        for axis, label in steps:
            reached: dict[int, HierarchyNode] = {}
            for node in frontier:
                pool = node.children.values() if axis == "/" else _descendants(node)
                for candidate in pool:
                    if label == "*" or candidate.label.lower() == label.lower():
                        reached[candidate.node_id] = candidate
            frontier = list(reached.values())
        return sorted(frontier, key=lambda node: node.node_id)

    def lookup_path(self, steps: Sequence[tuple[str, str]]) -> list[Posting]:
        """Sorted union of the posting lists of every node matching *steps*."""
        return sorted(
            p for node in self.match_nodes(steps) for p in self._postings[node.node_id]
        )


def _descendants(node: HierarchyNode) -> Iterator[HierarchyNode]:
    stack = list(node.children.values())
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children.values())


class ReferenceIndexSet:
    """The four object-list indexes, answering the DPLI lookups of Algorithm 1."""

    def __init__(self) -> None:
        self.word_index = ReferenceWordIndex()
        self.entity_index = ReferenceEntityIndex()
        self.pl_index = ReferenceHierarchyIndex(lambda token: token.label, "PL")
        self.pos_index = ReferenceHierarchyIndex(lambda token: token.pos, "POS")
        self.build_seconds = 0.0
        self._sentences = 0
        self._tokens = 0

    def build(self, corpus: Corpus) -> "ReferenceIndexSet":
        """Index every document of *corpus*; returns self for chaining."""
        for document in corpus:
            self.add_document(document)
        return self

    def add_document(self, document: Document) -> "ReferenceIndexSet":
        """Index every sentence of *document*."""
        started = time.perf_counter()
        for sentence in document:
            plids = self.pl_index.add_sentence(sentence)
            posids = self.pos_index.add_sentence(sentence)
            self.word_index.add_sentence(sentence, plids, posids)
            self.entity_index.add_sentence(sentence)
            self._sentences += 1
            self._tokens += len(sentence)
        self.build_seconds += time.perf_counter() - started
        return self

    def remove_document(self, document: Document) -> "ReferenceIndexSet":
        """Un-index every sentence of *document*."""
        for sentence in document:
            for index in (self.word_index, self.entity_index, self.pl_index, self.pos_index):
                index.remove_sentence(sentence)
            self._sentences -= 1
            self._tokens -= len(sentence)
        return self

    def entity_candidates(self, etype: str) -> tuple[np.ndarray, list[EntityPosting]]:
        """Mentions of type *etype*: ``(sorted sid column, postings)``."""
        postings = self.entity_index.lookup_type(etype)
        return np.sort(_sid_column(postings)), postings

    def path_candidates(
        self, path: TreePath, decomposed: DecomposedPath | None = None
    ) -> tuple[np.ndarray, list[Posting]]:
        """Postings of *path*'s final step: ``(sorted sid column, postings)``."""
        postings = lookup_decomposed(self, path, decomposed)
        return _sid_column(postings), postings

    def statistics(self) -> IndexStatistics:
        """The same statistics :meth:`KokoIndexSet.statistics` reports."""
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
        """:meth:`KokoIndexSet.approximate_bytes`, counted over the lists."""
        total = sum(
            len(postings) * (sizeof(word) + 7 * 28 + 40)
            for word, postings in self.word_index._postings.items()
        )
        total += sum(
            sizeof(p.text) + 3 * 28 + 40 for p in self.entity_index.all_postings()
        )
        for hierarchy in (self.pl_index, self.pos_index):
            for node in hierarchy.nodes():
                total += (node.depth + 1) * (2 * sizeof(node.label) + 4 * 28 + 40)
        return total


def _sid_column(postings: Sequence) -> np.ndarray:
    return np.fromiter((p.sid for p in postings), np.int64, len(postings))


def lookup_decomposed(
    indexes: ReferenceIndexSet,
    path: TreePath,
    decomposed: DecomposedPath | None = None,
) -> list[Posting]:
    """DPLI lookup of one path over the lists: decompose, access, join.

    The steps of :func:`~repro.indexing.decompose.lookup_decomposed_block`
    (Section 4.2.2) with list joins; the result is sorted by ``(sid, tid)``
    and empty when the index proves there is no binding in the corpus.
    """
    if decomposed is None:
        decomposed = decompose_path(path)
    last_is_word = path.steps[-1].kind == KIND_WORD

    # P1 and P2: hierarchy-index lookups, joined on the same token.
    base: list[Posting] | None = None
    if not is_trivial(decomposed.parse_label_path):
        base = indexes.pl_index.lookup_path(
            [(s.axis, s.label) for s in decomposed.parse_label_path.steps]
        )
    if not is_trivial(decomposed.pos_path):
        pos_postings = indexes.pos_index.lookup_path(
            [(s.axis, s.label) for s in decomposed.pos_path.steps]
        )
        base = pos_postings if base is None else join_same_token(base, pos_postings)

    # Q: the word-path lookup (already ancestor-joined along the word chain).
    word_result = _lookup_word_path(indexes, decomposed.word_steps)

    if base is None and word_result is None:
        # the path constrains nothing (e.g. "//*"): every token qualifies
        return indexes.pl_index.lookup_path([(DESCENDANT, "*")])
    if base is None:
        if last_is_word:
            return sorted(word_result)
        base = indexes.pl_index.lookup_path([(DESCENDANT, "*")])
        return sorted(_under_words(base, word_result))
    if word_result is not None:
        if last_is_word:
            base = join_same_token(base, word_result)
        else:
            base = _under_words(base, word_result)
    return sorted(base)


def _under_words(candidates: list[Posting], words: list[Posting]) -> list[Posting]:
    """Candidates whose token lies in the subtree of (or is) a word posting."""
    by_sentence: dict[int, list[Posting]] = {}
    for word in words:
        by_sentence.setdefault(word.sid, []).append(word)
    kept = []
    for posting in candidates:
        for word in by_sentence.get(posting.sid, ()):
            same_token = word.tid == posting.tid
            dominated = word.left <= posting.left and posting.right <= word.right
            if same_token or dominated:
                kept.append(posting)
                break
    return kept


def _lookup_word_path(
    indexes: ReferenceIndexSet, word_steps: tuple[tuple[str, int], ...]
) -> list[Posting] | None:
    """Look up and join the word path; None when the path has no word steps."""
    if not word_steps:
        return None
    word, _ = word_steps[0]
    current = indexes.word_index.lookup(word)
    for word, gap in word_steps[1:]:
        current = join_ancestor(
            current, indexes.word_index.lookup(word), min_gap=max(1, gap)
        )
        if not current:
            return []
    return current
