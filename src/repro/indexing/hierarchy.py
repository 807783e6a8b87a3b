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

With ``columnar=True`` the trie structure (nodes, labels, parent/child
links) is kept exactly as before, but the per-node posting lists move into
one :class:`~repro.indexing.columnar.ColumnarPostings` store keyed by node
id: the splice appends one row batch per sentence (an iterative DFS that
reproduces the recursive merge order, so node ids are identical to the
object-backed build), and path lookups gather whole column slices instead
of walking Python lists.  ``node.postings`` stays readable — columnar nodes
carry a lazy view over their store slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..nlp.types import Corpus, Sentence
from ..storage.closure import ClosureTable
from ..storage.database import Database
from .columnar import (
    ColumnarPostings,
    PostingBlock,
    StringInterner,
    int_column,
    pack_strings,
    unpack_strings,
)
from .postings import Posting, posting_for_token

_H_COLUMNS = ("sid", "tid", "left", "right", "depth", "wid")

#: distinct path patterns whose trie walk one index remembers
_MATCH_MEMO_LIMIT = 256


@dataclass
class HierarchyNode:
    """One node of the merged hierarchy: a label, children by label, postings."""

    node_id: int
    label: str
    depth: int
    parent: "HierarchyNode | None" = None
    children: dict[str, "HierarchyNode"] = field(default_factory=dict)
    postings: list[Posting] = field(default_factory=list)

    def path(self) -> str:
        """The unique ``/label/...`` path identifying this node (dummy excluded)."""
        labels: list[str] = []
        node: HierarchyNode | None = self
        while node is not None and node.parent is not None:
            labels.append(node.label)
            node = node.parent
        return "/" + "/".join(reversed(labels)) if labels else "/"


class _NodePostingsView(Sequence):
    """Read-only live view of one columnar node's postings."""

    __slots__ = ("_store", "_node_id", "_interner")

    def __init__(
        self, store: ColumnarPostings, node_id: int, interner: StringInterner
    ) -> None:
        self._store = store
        self._node_id = node_id
        self._interner = interner

    def _materialize(self) -> list[Posting]:
        sid, tid, left, right, depth, wid = self._store.arrays_for_key(self._node_id)
        return PostingBlock(sid, tid, left, right, depth, wid, self._interner).materialize()

    def __len__(self) -> int:
        return self._store.key_count(self._node_id)

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_NodePostingsView(node={self._node_id}, {len(self)} postings)"


class HierarchyIndex:
    """A dataguide-style merged representation of all dependency trees.

    Parameters
    ----------
    label_of:
        Function mapping a token to the label used for merging — the parse
        label for the PL index, the POS tag for the POS index.
    name:
        Diagnostic name ("PL" or "POS").
    columnar:
        Store per-node postings in a shared columnar store instead of
        Python lists (the trie structure is identical either way).
    interner:
        Word interner shared with sibling columnar indexes; a private one
        is created when omitted.
    """

    def __init__(
        self,
        label_of: Callable,
        name: str = "PL",
        columnar: bool = False,
        interner: StringInterner | None = None,
    ) -> None:
        self.name = name
        self.columnar = columnar
        self._label_of = label_of
        self._next_id = 0
        # NOTE: an explicit None test — a fresh shared interner is empty and
        # therefore falsy, and falling back to a private one here would make
        # stored word ids undecodable.
        self._interner = (
            (interner if interner is not None else StringInterner())
            if columnar
            else None
        )
        self._store = (
            ColumnarPostings(_H_COLUMNS, identity_keys=True) if columnar else None
        )
        # case-folded (axis, label) pattern -> (sorted matched node ids,
        # boolean table over node ids), both read-only.  The answer depends
        # on the trie's structure alone, so the memo is cleared where a
        # node is minted or pruned and survives every other write.
        self._match_memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._dummy = self._new_node("<dummy>", depth=-1, parent=None)
        # node id -> node; insertion order is creation order, which is
        # topological (parents are always created before their children) —
        # the property to_closure_table relies on.  A dict (not a list) so
        # that remove_sentence can prune emptied nodes without invalidating
        # the ids of the survivors.
        self._nodes: dict[int, HierarchyNode] = {self._dummy.node_id: self._dummy}
        # (sid, tid) -> node id; consumed by WordIndex.set_node_ids
        self._token_nodes: dict[tuple[int, int], int] = {}
        self._merged_token_count = 0
        # columnar (sid, tid) -> node id cache, rebuilt lazily after writes
        self._token_cache: dict[tuple[int, int], int] | None = None
        # (root, labels, structure) -> per-token node ids: two trees with
        # the same shape and label sequence merge through exactly the same
        # trie path, so the walk result can be reused verbatim.  Node
        # removal can prune trie nodes, so any removal clears the memo.
        self._merge_memo: dict[tuple, list[int]] = {}

    def _new_node(self, label: str, depth: int, parent: HierarchyNode | None) -> HierarchyNode:
        node = HierarchyNode(node_id=self._next_id, label=label, depth=depth, parent=parent)
        self._next_id += 1
        self._match_memo.clear()
        if self.columnar:
            node.postings = _NodePostingsView(self._store, node.node_id, self._interner)
        return node

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_sentence(self, sentence: Sentence) -> None:
        """Merge the dependency tree of *sentence* (object-backed; a columnar
        index is spliced through :meth:`merge_tree` + :meth:`append_rows`)."""
        if self.columnar:
            raise RuntimeError("columnar HierarchyIndex merges via merge_tree")
        if len(sentence):
            self._insert(sentence, sentence.root_index(), self._dummy)

    def merge_tree(
        self,
        root: int,
        children: "Sequence[Sequence[int]]",
        labels: list[str],
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
        """Columnar splice: append posting rows keyed by node id.

        Covers every node id minted so far (batch writers mint ids through
        :meth:`merge_tree` before flushing rows here).
        """
        store = self._store
        assert store is not None, "append_rows requires columnar=True"
        store.ensure_key_capacity(self._next_id)
        store.append_batch(kids, columns)
        self._token_cache = None

    def _insert(self, sentence: Sentence, tid: int, parent: HierarchyNode) -> None:
        label = str(self._label_of(sentence[tid]))
        child = parent.children.get(label)
        if child is None:
            child = self._new_node(label, depth=parent.depth + 1, parent=parent)
            parent.children[label] = child
            self._nodes[child.node_id] = child
        child.postings.append(posting_for_token(sentence, tid))
        self._token_nodes[(sentence.sid, tid)] = child.node_id
        self._merged_token_count += 1
        for ctid in sentence.children(tid):
            self._insert(sentence, ctid, child)

    def add_corpus(self, corpus: Corpus) -> None:
        for _, sentence in corpus.all_sentences():
            self.add_sentence(sentence)

    def remove_sentence(self, sentence: Sentence) -> None:
        """Un-merge *sentence*: drop its postings, prune emptied nodes.

        Walks the same label paths :meth:`add_sentence` merged the sentence
        through; a node left with no postings and no children is removed so
        that node counts (and the compression ratio) track the live corpus.
        """
        if len(sentence) == 0:
            return
        root = sentence.root_index()
        if self.columnar:
            self._store.remove_sid(sentence.sid)
            self._token_cache = None
            self._merge_memo.clear()  # pruning may invalidate memoised ids
            self._remove_structural(sentence, root, self._dummy)
            return
        self._remove(sentence, root, self._dummy)

    def _remove(self, sentence: Sentence, tid: int, parent: HierarchyNode) -> None:
        label = str(self._label_of(sentence[tid]))
        child = parent.children.get(label)
        if child is None:
            return  # this sentence was never merged through here
        for ctid in sentence.children(tid):
            self._remove(sentence, ctid, child)
        if self._token_nodes.pop((sentence.sid, tid), None) is not None:
            self._merged_token_count -= 1
        child.postings = [
            p for p in child.postings if not (p.sid == sentence.sid and p.tid == tid)
        ]
        if not child.postings and not child.children:
            del parent.children[label]
            del self._nodes[child.node_id]
            self._match_memo.clear()

    def _remove_structural(
        self, sentence: Sentence, tid: int, parent: HierarchyNode
    ) -> None:
        """Columnar prune: drop trie nodes left with no rows and no children."""
        label = str(self._label_of(sentence[tid]))
        child = parent.children.get(label)
        if child is None:
            return
        for ctid in sentence.children(tid):
            self._remove_structural(sentence, ctid, child)
        if not child.children and self._store.key_count(child.node_id) == 0:
            del parent.children[label]
            del self._nodes[child.node_id]
            self._match_memo.clear()

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
        if self.columnar:
            return self._store.total_rows
        return self._merged_token_count

    def compression_ratio(self) -> float:
        """Fraction of nodes eliminated by merging (0 when nothing merged)."""
        tokens = self.token_count
        if tokens == 0:
            return 0.0
        return 1.0 - self.node_count / tokens

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def node_id_of(self, sid: int, tid: int) -> int:
        """Hierarchy node id that token (sid, tid) was merged into (-1 if absent)."""
        if not self.columnar:
            return self._token_nodes.get((sid, tid), -1)
        cache = self._token_cache
        if cache is None:
            kid, cols = self._store.all_arrays_with_keys()
            cache = {
                (s, t): k
                for s, t, k in zip(cols[0].tolist(), cols[1].tolist(), kid.tolist())
            }
            self._token_cache = cache
        return cache.get((sid, tid), -1)

    def node_by_id(self, node_id: int) -> HierarchyNode:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[HierarchyNode]:
        """All nodes except the dummy root."""
        return (node for node in self._nodes.values() if node is not self._dummy)

    def lookup_path(self, steps: list[tuple[str, str]]) -> list[Posting]:
        """Union of the posting lists of all nodes matching a path pattern.

        *steps* is a list of ``(axis, label)`` pairs where axis is ``"/"``
        (child) or ``"//"`` (descendant) and label is a node label or
        ``"*"``.  The pattern is anchored at the dummy node, i.e. the first
        step with axis ``"/"`` must match a top-level label (``root`` for
        the PL index).
        """
        if self.columnar:
            return self.lookup_path_block(steps).materialize()
        matches = self.match_nodes(steps)
        merged: list[Posting] = []
        seen: set[tuple[int, int]] = set()
        for node in matches:
            for posting in node.postings:
                key = (posting.sid, posting.tid)
                if key not in seen:
                    seen.add(key)
                    merged.append(posting)
        merged.sort()
        return merged

    def lookup_path_block(self, steps: list[tuple[str, str]]) -> PostingBlock:
        """Columnar :meth:`lookup_path`: the union as a sorted posting block.

        Every token merges into exactly one node, so the per-node slices are
        disjoint and their concatenation needs no deduplication — one gather
        plus one ``(sid, tid)`` sort replaces the object-backed merge loop.
        """
        store = self._store
        assert store is not None, "lookup_path_block requires columnar=True"
        node_ids, member = self._matched(steps)
        if not len(node_ids):
            return PostingBlock.empty()
        sid, tid, left, right, depth, wid = store.arrays_for_keys(node_ids, member)
        return PostingBlock(
            sid, tid, left, right, depth, wid, self._interner
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

    # ------------------------------------------------------------------
    # snapshot payload (columnar only): the trie, not its postings
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The trie as a ``(node_id, parent_id, label)`` table plus next id.

        Node postings are absent on purpose: they are W's rows regrouped on
        ``plid``/``posid`` (Section 6.2.1), which :meth:`load_arrays` is handed.
        """
        name, nodes = self.name, list(self.nodes())
        return {
            f"{name}.node_id": np.asarray([n.node_id for n in nodes], np.int64),
            f"{name}.parent_id": np.asarray([n.parent.node_id for n in nodes], np.int64),
            f"{name}.next_id": np.asarray([self._next_id], np.int64),
            **pack_strings(f"{name}.labels", [n.label for n in nodes]),
        }

    def load_arrays(
        self, arrays: "Mapping[str, np.ndarray]", kids: np.ndarray, rows
    ) -> None:
        """Fill this empty columnar index: the trie from *arrays*, the
        postings from *rows* keyed by node id *kids*.

        Table order is creation order (ascending id, parents first), so
        child order and node ids match the captured index and the next
        merged sentence mints the same ids.  Raises ``ValueError`` on a
        malformed table or a row keyed by a node the table lacks.
        """
        name = self.name
        node_ids = int_column(arrays[f"{name}.node_id"])
        parent_ids = int_column(arrays[f"{name}.parent_id"])
        labels = unpack_strings(arrays, f"{name}.labels")
        (self._next_id,) = int_column(arrays[f"{name}.next_id"]).tolist()
        self._store.load(kids, rows, nkeys=self._next_id)
        if not len(node_ids) == len(parent_ids) == len(labels):
            raise ValueError(f"{name} node table columns differ in length")
        if not np.isin(kids, node_ids).all():
            raise ValueError(f"{name} posting row names an absent trie node")
        previous = self._dummy.node_id
        for node_id, parent_id, label in zip(
            node_ids.tolist(), parent_ids.tolist(), labels
        ):
            parent = self._nodes.get(parent_id)
            if (
                parent is None
                or not previous < node_id < self._next_id
                or label in parent.children
            ):
                raise ValueError(f"{name} node table is not a trie in creation order")
            node = HierarchyNode(node_id, label, parent.depth + 1, parent)
            node.postings = _NodePostingsView(self._store, node_id, self._interner)
            parent.children[label] = self._nodes[node_id] = node
            previous = node_id
        self._match_memo.clear()

    # ------------------------------------------------------------------
    # materialisation (closure table of Section 6.2.1)
    # ------------------------------------------------------------------
    def to_closure_table(self) -> ClosureTable:
        """Export the merged hierarchy as a closure table."""
        closure = ClosureTable()
        # Insert in creation order, which is also topological (parents first).
        for node in self._nodes.values():
            if node is self._dummy:
                closure.add_node(node.node_id, node.label, None)
            else:
                parent_id = node.parent.node_id if node.parent else None
                closure.add_node(node.node_id, node.label, parent_id)
        return closure

    def to_table(self, database: Database, table_name: str):
        """Materialise the closure table into the storage engine."""
        return self.to_closure_table().to_table(database, table_name)


def parse_label_index(
    columnar: bool = False, interner: StringInterner | None = None
) -> HierarchyIndex:
    """A hierarchy index keyed on dependency parse labels (the PL index)."""
    return HierarchyIndex(
        label_of=lambda token: token.label, name="PL", columnar=columnar, interner=interner
    )


def pos_tag_index(
    columnar: bool = False, interner: StringInterner | None = None
) -> HierarchyIndex:
    """A hierarchy index keyed on POS tags (the POS index)."""
    return HierarchyIndex(
        label_of=lambda token: token.pos, name="POS", columnar=columnar, interner=interner
    )
