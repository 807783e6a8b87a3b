"""Hierarchy (dataguide) indexes over parse labels and POS tags (Section 3.2).

A hierarchy index is built by merging the dependency trees of every sentence
on one annotation layer: starting from a dummy node above all roots,
children with the same label are merged recursively, so every node of the
index is identified by the unique label path from the root, and carries the
posting list of all sentence tokens reachable through that path.

Two instances are built by :class:`~repro.indexing.koko_index.KokoIndexSet`:
the **PL index** (parse labels — its single top child is ``root``) and the
**POS index** (POS tags, merged under the dummy node as the paper describes).

The index answers *path-pattern* lookups — patterns with ``/`` (child) and
``//`` (descendant) axes and ``*`` wildcards — by walking the merged trie,
which is how the DPLI module resolves decomposed parse-label and POS-tag
paths without touching individual sentences.

The trie structure (nodes, labels, parent/child links) is plain Python
objects; the per-node posting lists live in one
:class:`~repro.indexing.columnar.ColumnarPostings` store keyed by node id,
whose ``(sid, tid, left, right, depth)`` columns are a prefix of W's.
The splice merges each tree shape once (an iterative DFS in the recursive
merge order, so node ids equal those of the object-list build kept as the
test oracle in :mod:`repro.indexing.reference`) and appends rows in
batches; a path lookup gathers the matched nodes' column slices into one
:class:`~repro.indexing.columnar.PostingBlock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..nlp.types import Sentence
from .columnar import ColumnarPostings, PostingBlock

__all__ = ["HierarchyIndex", "HierarchyNode", "parse_label_index", "pos_tag_index"]

_H_COLUMNS = ("sid", "tid", "left", "right", "depth")

#: distinct path patterns whose trie walk one index remembers
_MATCH_MEMO_LIMIT = 256


@dataclass
class HierarchyNode:
    """One node of the merged hierarchy: a label and its children by label."""

    node_id: int
    label: str
    depth: int
    parent: "HierarchyNode | None" = None
    children: dict[str, "HierarchyNode"] = field(default_factory=dict)

    def path(self) -> str:
        """The unique ``/label/...`` path identifying this node (dummy excluded)."""
        labels: list[str] = []
        node: HierarchyNode | None = self
        while node is not None and node.parent is not None:
            labels.append(node.label)
            node = node.parent
        return "/" + "/".join(reversed(labels)) if labels else "/"


class HierarchyIndex:
    """A dataguide-style merged representation of all dependency trees.

    Parameters
    ----------
    layer:
        The :class:`~repro.nlp.types.Sentence` column merged on —
        ``"labels"`` (parse labels) for the PL index, ``"pos_tags"`` for
        the POS index.
    name:
        Diagnostic name ("PL" or "POS").
    """

    def __init__(self, layer: str, name: str = "PL") -> None:
        self.name = name
        self._layer = layer
        self._next_id = 0
        self._store = ColumnarPostings(_H_COLUMNS, identity_keys=True)
        # case-folded (axis, label) pattern -> (sorted matched node ids,
        # boolean table over node ids), both read-only.  The answer depends
        # on the trie's structure alone, so the memo is cleared where a
        # node is minted or pruned and survives every other write.
        self._match_memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._dummy = self._new_node("<dummy>", depth=-1, parent=None)
        # node id -> node, in creation order.  A dict (not a list) so that
        # remove_sentence can prune emptied nodes without invalidating the
        # ids of the survivors.
        self._nodes: dict[int, HierarchyNode] = {self._dummy.node_id: self._dummy}
        # (root, labels, structure) -> per-token node ids: two trees with
        # the same shape and label sequence merge through exactly the same
        # trie path, so the walk result can be reused verbatim.  Only a
        # pruned node can make an entry name a dead id, so a prune clears
        # the memo and a removal that prunes nothing keeps it.
        self._merge_memo: dict[tuple, list[int]] = {}

    def _new_node(self, label: str, depth: int, parent: HierarchyNode | None) -> HierarchyNode:
        node = HierarchyNode(node_id=self._next_id, label=label, depth=depth, parent=parent)
        self._next_id += 1
        self._match_memo.clear()
        return node

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def merge_tree(
        self,
        root: int,
        children: "Sequence[Sequence[int]]",
        labels: Sequence[str],
    ) -> list[int]:
        """Merge one tree shape into the trie; per-token node ids, no rows.

        Identically shaped trees (same *root*, *labels*, *children*) merge
        through the same trie path, so the walk is memoised — the dataguide
        exists because parse shapes repeat, and the memo turns that
        repetition into one dict hit per sentence.  Callers must treat the
        returned list as read-only (memo hits share it).
        """
        structure = (
            children if isinstance(children, tuple) else tuple(map(tuple, children))
        )
        key = (root, tuple(labels), structure)
        node_ids = self._merge_memo.get(key)
        if node_ids is not None:
            return node_ids
        node_ids = [-1] * len(labels)
        nodes = self._nodes
        stack = [(root, self._dummy)]
        while stack:
            tid, parent = stack.pop()
            label = labels[tid]
            child = parent.children.get(label)
            if child is None:
                child = self._new_node(label, depth=parent.depth + 1, parent=parent)
                parent.children[label] = child
                nodes[child.node_id] = child
            node_ids[tid] = child.node_id
            ctids = children[tid]
            for index in range(len(ctids) - 1, -1, -1):
                stack.append((ctids[index], child))
        self._merge_memo[key] = node_ids
        return node_ids

    def append_rows(
        self, kids: Sequence[int], columns: Sequence[Sequence[int]]
    ) -> None:
        """Splice: append posting rows keyed by node id.

        Covers every node id minted so far (batch writers mint ids through
        :meth:`merge_tree` before flushing rows here).
        """
        store = self._store
        store.ensure_key_capacity(self._next_id)
        store.append_batch(kids, columns)

    def remove_sentences(self, sentences: Sequence[Sentence]) -> None:
        """Un-merge *sentences* (ascending sids): drop their postings, prune.

        The rows of every sentence go in one store pass; then the label
        paths :meth:`merge_tree` merged each sentence through are walked,
        and a node left with no postings and no children is removed so
        that node counts (and the compression ratio) track the live corpus.
        """
        sentences = [sentence for sentence in sentences if len(sentence)]
        if not sentences:
            return
        self._store.remove_sids(np.fromiter((s.sid for s in sentences), np.int64, len(sentences)))
        for sentence in sentences:
            self._prune(
                getattr(sentence, self._layer),
                sentence.tree_columns()[0],
                sentence.root_index(),
                self._dummy,
            )

    def _prune(
        self,
        labels: Sequence[str],
        children: Sequence[Sequence[int]],
        tid: int,
        parent: HierarchyNode,
    ) -> None:
        """Drop the trie nodes of one tree left with no rows and no children."""
        label = labels[tid]
        child = parent.children.get(label)
        if child is None:
            return
        for ctid in children[tid]:
            self._prune(labels, children, ctid, child)
        if not child.children and self._store.key_count(child.node_id) == 0:
            del parent.children[label]
            del self._nodes[child.node_id]
            self._match_memo.clear()
            self._merge_memo.clear()  # some entry may name the dead node

    # ------------------------------------------------------------------
    # statistics (the >99.7% node-reduction claim of Section 3)
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of merged nodes (dummy excluded)."""
        return len(self._nodes) - 1

    @property
    def token_count(self) -> int:
        """Number of tokens merged into the index."""
        return self._store.total_rows

    def compression_ratio(self) -> float:
        """Fraction of nodes eliminated by merging (0 when nothing merged)."""
        tokens = self.token_count
        if tokens == 0:
            return 0.0
        return 1.0 - self.node_count / tokens

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def node_by_id(self, node_id: int) -> HierarchyNode:
        """The node minted under *node_id*."""
        return self._nodes[node_id]

    def nodes(self) -> Iterator[HierarchyNode]:
        """All nodes except the dummy root."""
        return (node for node in self._nodes.values() if node is not self._dummy)

    def lookup_path(self, steps: list[tuple[str, str]]) -> PostingBlock:
        """Union of the posting lists of all nodes matching a path pattern.

        *steps* is a list of ``(axis, label)`` pairs where axis is ``"/"``
        (child) or ``"//"`` (descendant) and label is a node label or
        ``"*"``.  The pattern is anchored at the dummy node, i.e. the first
        step with axis ``"/"`` must match a top-level label (``root`` for
        the PL index).  Every token merges into exactly one node, so the
        per-node slices are disjoint and their concatenation needs no
        deduplication — one gather plus one ``(sid, tid)`` sort.
        """
        node_ids, member = self._matched(steps)
        if not len(node_ids):
            return PostingBlock.empty()
        return PostingBlock(
            *self._store.arrays_for_keys(node_ids, member)
        ).sort_positional()

    def match_nodes(self, steps: list[tuple[str, str]]) -> list[HierarchyNode]:
        """All hierarchy nodes whose root path matches the pattern *steps*."""
        nodes = self._nodes
        return [nodes[node_id] for node_id in self._matched(steps)[0].tolist()]

    def _matched(
        self, steps: "Sequence[tuple[str, str]]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Remembered :meth:`_walk_nodes`: ``(ids, member)``, both read-only.

        ``ids`` is the sorted array of matched node ids and ``member`` a
        boolean table over every node id minted so far (``member[i]`` iff
        node *i* matched).  Labels match case-insensitively, so the memo
        key is the case-folded pattern.  Concurrent readers may fill the
        memo at once; entries are pure functions of the trie, so the race
        is harmless.
        """
        key = tuple((axis, label.lower()) for axis, label in steps)
        memo = self._match_memo
        matched = memo.get(key)
        if matched is None:
            ids = np.asarray(self._walk_nodes(steps), np.int64)
            member = np.zeros(self._next_id, bool)
            member[ids] = True
            ids.setflags(write=False)
            member.setflags(write=False)
            if len(memo) >= _MATCH_MEMO_LIMIT:
                memo.clear()
            matched = memo[key] = (ids, member)
        return matched

    def _walk_nodes(self, steps: "Sequence[tuple[str, str]]") -> list[int]:
        """Walk the trie: sorted ids of the nodes whose root path matches."""
        frontier: set[int] = {self._dummy.node_id}
        for axis, label in steps:
            next_frontier: set[int] = set()
            for node_id in frontier:
                node = self._nodes[node_id]
                if axis == "/":
                    next_frontier.update(
                        child.node_id
                        for child in node.children.values()
                        if self._label_matches(child.label, label)
                    )
                else:  # descendant axis
                    for descendant in self._descendants(node):
                        if self._label_matches(descendant.label, label):
                            next_frontier.add(descendant.node_id)
            frontier = next_frontier
            if not frontier:
                return []
        return sorted(frontier)

    def _descendants(self, node: HierarchyNode) -> Iterator[HierarchyNode]:
        stack = list(node.children.values())
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children.values())

    @staticmethod
    def _label_matches(node_label: str, pattern_label: str) -> bool:
        if pattern_label == "*":
            return True
        return node_label.lower() == pattern_label.lower()


def parse_label_index() -> HierarchyIndex:
    """A hierarchy index keyed on dependency parse labels (the PL index)."""
    return HierarchyIndex("labels", name="PL")


def pos_tag_index() -> HierarchyIndex:
    """A hierarchy index keyed on POS tags (the POS index)."""
    return HierarchyIndex("pos_tags", name="POS")
