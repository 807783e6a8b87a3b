"""The extract clause's answer as columns: the binding table.

Extraction (Section 4.3) hands the aggregate stage one row per assignment
of the extract clause.  :class:`BindingTable` holds those rows as
``int64`` columns — per variable its ``start``/``end``/``node``, plus the
row's document and sentence — in candidate order.

Over the columnar :class:`~repro.indexing.koko_index.KokoIndexSet`,
:func:`extract_bindings` builds the table from the rows DPLI's lookups
already returned, without a per-sentence pass:

* **node and entity variables** take their rows straight from the lookup
  blocks, restricted to the candidate sentences.  Where the decomposed
  lookup is not provably exact for a path
  (:func:`~repro.indexing.decompose.row_lookup`, decided when the query is
  compiled), each candidate row is re-checked
  (:func:`~repro.indexing.exact.path_reaches_token`); final-step
  conditions are checked per candidate row too;
* **assignments** are a per-sentence cross join by index arithmetic,
  ``(r // stride) % count`` over group offsets, in ``itertools.product``
  order and capped at ``_MAX_ASSIGNMENTS_PER_SENTENCE`` before any
  constraint, as the evaluator enumerates them;
* **constraints** are array predicates over the span columns; ``parentOf``
  and ``ancestorOf`` read a gathered ``heads`` column (interval
  containment of the trie rows' extents only pre-filters ``ancestorOf``).

Two cases run the per-sentence :class:`~repro.koko.evaluator.SentenceEvaluator`
instead, and are counted as *fallback sentences*.  A query with horizontal
conditions (span variables) has each candidate sentence evaluated: span
atoms are aligned around Python binding objects either way, so node rows
taken from the blocks would only add their conversion.  A sentence holding
a token no hierarchy holds (a second root or a head cycle) is evaluated
too, since lookup rows miss that token.

The reference path — a plain ``KokoEngine(corpus)`` over the object-list
indexes — evaluates every sentence with the evaluator and converts its
assignments with :meth:`BindingTable.from_assignments`, so one aggregate
implementation serves both.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from ..indexing.columnar import distinct_sorted
from ..indexing.exact import path_reaches_token
from ..indexing.koko_index import KokoIndexSet
from ..nlp.types import Document, Sentence
from . import evaluator as evaluator_module
from .dpli import DpliResult
from .evaluator import (
    Assignment,
    Binding,
    SentenceEvaluator,
    final_conditions,
    step_condition_holds,
)
from .normalize import NormalizedQuery

__all__ = ["BindingTable", "extract_bindings"]

_INT = np.int64
_NONE = np.empty(0, _INT)


class BindingTable:
    """One row per assignment of the extract clause, as ``int64`` columns.

    * ``documents`` are the candidate documents and ``doc[row]`` indexes
      them; ``sid[row]`` is the row's sentence and ``sentences`` maps each
      such sid to its :class:`~repro.nlp.types.Sentence`;
    * ``columns[variable]`` is a ``(3, rows)`` array of the variable's
      ``start``, ``end`` and ``node`` per row.  ``node`` is the token of a
      node-term binding and -1 otherwise; ``start`` is -1 where the row
      leaves the variable unbound; an empty binding (an elastic span of no
      token) has ``end == start - 1``.

    Rows are in candidate order: documents as loaded, their sentences by
    sid, and a sentence's rows in the order the evaluator enumerates its
    assignments.
    """

    __slots__ = ("documents", "doc", "sid", "columns", "sentences")

    def __init__(
        self,
        documents: Sequence[Document],
        doc: np.ndarray,
        sid: np.ndarray,
        columns: dict[str, np.ndarray],
        sentences: Mapping[int, Sentence],
    ) -> None:
        self.documents = documents
        self.doc = doc
        self.sid = sid
        self.columns = columns
        self.sentences = sentences

    def __len__(self) -> int:
        return len(self.sid)

    @classmethod
    def from_assignments(
        cls, groups: Sequence[tuple[Document, Sequence[tuple[Sentence, Assignment]]]]
    ) -> "BindingTable":
        """The table of ``[(document, [(sentence, assignment), ...]), ...]``."""
        pairs = [(index, pair) for index, (_, group) in enumerate(groups) for pair in group]
        return cls(
            [document for document, _ in groups],
            np.fromiter((index for index, _ in pairs), _INT, len(pairs)),
            np.fromiter((sentence.sid for _, (sentence, _) in pairs), _INT, len(pairs)),
            _columns_of([assignment for _, (_, assignment) in pairs]),
            {sentence.sid: sentence for _, (sentence, _) in pairs},
        )


def _columns_of(assignments: Sequence[Assignment]) -> dict[str, np.ndarray]:
    """Per variable, the ``(3, rows)`` start/end/node column of *assignments*."""
    names = list(dict.fromkeys(chain.from_iterable(assignments)))
    triples = np.array(
        [[_triple(assignment.get(name)) for name in names] for assignment in assignments],
        _INT,
    ).reshape(len(assignments), len(names), 3)
    return {name: triples[:, at].T for at, name in enumerate(names)}


def _triple(binding: Binding | None) -> tuple[int, int, int]:
    if binding is None:
        return -1, -1, -1
    return binding.start, binding.end, -1 if binding.node is None else binding.node


class _Rows:
    """One node or entity variable's candidate rows, sentence by sentence.

    ``pos`` is the row's sentence position in candidate order (ascending)
    and ``triples`` its ``(3, rows)`` start/end/node column;
    ``left``/``right``/``depth`` are a token's subtree extent and depth
    (zeros for an entity mention, whose node is -1).
    """

    __slots__ = ("pos", "triples", "left", "right", "depth")

    def __init__(self, pos, triples, left, right, depth) -> None:
        self.pos = pos
        self.triples = triples
        self.left = left
        self.right = right
        self.depth = depth


class _Candidates:
    """The loaded candidate sentences, in candidate order."""

    def __init__(self, documents: Sequence[tuple[Document, Sequence[Sentence]]]) -> None:
        self.sentences = [sentence for _, group in documents for sentence in group]
        self.doc = np.repeat(
            np.arange(len(documents), dtype=_INT), [len(group) for _, group in documents]
        )
        self.sid = np.fromiter(
            (sentence.sid for sentence in self.sentences), _INT, len(self.sentences)
        )
        self._order = np.argsort(self.sid, kind="stable")
        self._sorted = self.sid[self._order]

    def __len__(self) -> int:
        return len(self.sentences)

    def locate(self, sids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per sid, its sentence position and whether it is a candidate at all."""
        slot = np.minimum(np.searchsorted(self._sorted, sids), len(self._sorted) - 1)
        return self._order[slot], self._sorted[slot] == sids


def extract_bindings(
    normalized: NormalizedQuery,
    dpli: DpliResult,
    indexes: KokoIndexSet,
    documents: Sequence[tuple[Document, Sequence[Sentence]]],
    evaluator: SentenceEvaluator,
) -> tuple[BindingTable, int]:
    """The binding table of the loaded candidate *documents*, and how many
    sentences the per-sentence *evaluator* handled (the fallback)."""
    candidates = _Candidates(documents)
    sentences = candidates.sentences
    sentence_of = dict(zip(candidates.sid.tolist(), sentences))
    if not sentences:
        return BindingTable([], _NONE, _NONE, {}, sentence_of), 0
    evaluator.prepare_skip_plans(sentences, dpli)
    if normalized.horizontal_conditions:
        # Span variables are aligned sentence by sentence around Python
        # binding objects either way; node rows from the blocks would only
        # add their conversion, so the evaluator takes every sentence.
        whole = np.ones(len(sentences), bool)
    else:
        unrooted = indexes.unrooted_sids()
        whole = np.zeros(len(sentences), bool)
        if len(unrooted):
            whole = np.isin(candidates.sid, unrooted)

    pos, columns = _NONE, {}
    if not whole.all():
        rows = {
            variable: _entity_rows(dpli, variable, candidates, whole)
            for variable in normalized.entity_vars
        }
        for variable in normalized.absolute_paths:
            rows[variable] = _path_rows(normalized, dpli, indexes, variable, candidates, whole)
        pos, picks = _cross_join(rows, candidates)
        columns = {name: rows[name].triples[:, pick] for name, pick in picks.items()}
        keep = _constraints_hold(normalized.constraints, rows, picks, columns, pos, sentences)
        if keep is not None:
            pos = pos[keep]
            columns = {name: column[:, keep] for name, column in columns.items()}

    evaluated = [
        (at, evaluator.evaluate(sentences[at], dpli)) for at in np.flatnonzero(whole).tolist()
    ]
    fallback = [assignment for _, assignments in evaluated for assignment in assignments]
    if fallback:
        fallback_pos = np.repeat(
            np.asarray([at for at, _ in evaluated], _INT),
            [len(assignments) for _, assignments in evaluated],
        )
        if len(pos):
            pos, columns = _merge(pos, columns, fallback_pos, _columns_of(fallback))
        else:  # the evaluator's rows alone, its sentences in candidate order
            pos, columns = fallback_pos, _columns_of(fallback)
    table = BindingTable(
        [document for document, _ in documents],
        candidates.doc[pos],
        candidates.sid[pos],
        columns,
        sentence_of,
    )
    return table, len(evaluated)


# ----------------------------------------------------------------------
# candidate rows per variable
# ----------------------------------------------------------------------
def _entity_rows(dpli, variable, candidates, whole) -> _Rows:
    """An entity variable's mentions in the candidate sentences.

    Within a sentence the rows follow the mentions' start, which is the
    order the NER emits them in (``entity_rows``).
    """
    sid, left, right = dpli.entity_bindings[variable]
    pos, hit = candidates.locate(sid)
    kept = np.flatnonzero(hit & ~whole[pos])
    pos, left, right = pos[kept], left[kept], right[kept]
    order = np.lexsort((left, pos))
    left, right = left[order], right[order]
    zeros = np.zeros(len(order), _INT)
    return _Rows(pos[order], np.stack((left, right, zeros - 1)), zeros, zeros, zeros)


def _path_rows(normalized, dpli, indexes, variable, candidates, whole) -> _Rows:
    """A path variable's matching tokens in the candidate sentences."""
    tree_path = normalized.tree_paths[variable]
    lookup = normalized.row_lookups[variable]
    if variable in normalized.dominant and lookup.path == tree_path:
        block = dpli.path_bindings[variable]
    else:
        block = indexes.path_candidates(lookup.path, lookup.decomposed)[1]
    pos, hit = candidates.locate(block.sid)
    kept = np.flatnonzero(hit & ~whole[pos])
    pos = pos[kept]
    conditions = final_conditions(normalized.absolute_paths[variable])
    if not lookup.exact or conditions:
        sentences = candidates.sentences
        checked = [
            (lookup.exact or path_reaches_token(sentences[at], tree_path, token))
            and all(
                step_condition_holds(sentences[at], token, c.attribute, c.value)
                for c in conditions
            )
            for at, token in zip(pos.tolist(), block.tid[kept].tolist())
        ]
        passed = np.fromiter(checked, bool, len(checked))
        kept, pos = kept[passed], pos[passed]
    order = np.argsort(pos, kind="stable")  # a block is (sid, tid)-sorted
    kept = kept[order]
    tid = block.tid[kept]
    return _Rows(
        pos[order],
        np.broadcast_to(tid, (3, len(tid))),
        block.left[kept],
        block.right[kept],
        block.depth[kept],
    )


# ----------------------------------------------------------------------
# assignments: the per-sentence cross join
# ----------------------------------------------------------------------
def _cross_join(rows: dict[str, _Rows], candidates):
    """Every sentence's assignments in ``itertools.product`` order, capped.

    Returns each assignment's sentence position and, per variable, the
    index of its row in that variable's :class:`_Rows`.  Variable *j*
    cycles with stride ``prod(count[j+1:])``; strides saturate at the cap,
    which no row index within a capped sentence reaches.  A query without
    span variables always has a node or entity variable (every output is
    one), so *rows* is never empty.
    """
    cap = evaluator_module._MAX_ASSIGNMENTS_PER_SENTENCE
    size = len(candidates)
    counts = [np.bincount(part.pos, minlength=size) for part in rows.values()]
    strides = [np.ones(size, _INT)]
    for count in counts[:0:-1]:
        strides.insert(0, np.minimum(strides[0] * count, cap))
    totals = np.minimum(strides[0] * counts[0], cap)
    pos = np.repeat(np.arange(size, dtype=_INT), totals)
    index = np.arange(len(pos), dtype=_INT) - np.repeat(np.cumsum(totals) - totals, totals)
    picks = {}
    for name, count, stride in zip(rows, counts, strides):
        first = np.cumsum(count) - count
        picks[name] = first[pos] + (index // stride[pos]) % count[pos]
    return pos, picks


# ----------------------------------------------------------------------
# constraints as array predicates
# ----------------------------------------------------------------------
def _constraints_hold(constraints, rows, picks, columns, pos, sentences):
    """Mask of the assignments meeting every constraint; None when there is none.

    Mirrors :meth:`SentenceEvaluator._constraint_holds`.  A constraint over
    a variable the assignments do not bind holds, as in the evaluator.
    """
    keep = None
    heads = base = None
    for constraint in constraints:
        left, right, op = constraint.left, constraint.right, constraint.op
        if left not in columns or right not in columns:
            continue
        l_start, l_end, l_node = columns[left]
        r_start, r_end, r_node = columns[right]
        if op == "in":
            hold = (r_start <= l_start) & (l_end <= r_end)
        elif op == "eq":
            hold = (l_start == r_start) & (l_end == r_end)
        elif op == "leftOf":
            left_end = np.where(l_end < l_start, l_start - 1, l_end)
            hold = (left_end < r_start) | (r_end < r_start)
        elif op in ("parentOf", "ancestorOf"):
            if heads is None:
                heads, base = _gathered_heads(pos, sentences)
            if op == "parentOf":
                hold = (l_node >= 0) & (r_node >= 0)
                hold &= heads[base + np.maximum(r_node, 0)] == l_node
            else:
                outer, inner = (rows[left], picks[left]), (rows[right], picks[right])
                hold = _ancestor_of(heads, base, l_node, r_node, outer, inner)
        else:
            continue
        keep = hold if keep is None else keep & hold
    return keep


def _gathered_heads(pos: np.ndarray, sentences) -> tuple[np.ndarray, np.ndarray]:
    """The ``heads`` of every sentence *pos* names, flat, and each row's offset."""
    used = distinct_sorted(pos)
    lengths = np.fromiter((len(sentences[at]) for at in used.tolist()), _INT, len(used))
    offsets = np.zeros(len(sentences), _INT)
    offsets[used] = np.cumsum(lengths) - lengths
    heads = np.fromiter(
        chain.from_iterable(sentences[at].heads for at in used.tolist()),
        _INT,
        int(lengths.sum()),
    )
    return heads, offsets[pos]


def _ancestor_of(heads, base, ancestor, descendant, outer, inner) -> np.ndarray:
    """``Sentence.is_ancestor(ancestor, descendant)`` per assignment.

    Every row here lies in a sentence whose tokens all hang off its one
    root, so a true ancestor's subtree extent covers the descendant's and
    sits shallower: that interval test pre-filters, and the rows it keeps
    are confirmed by climbing the gathered ``heads``.
    """
    (outer_rows, outer_pick), (inner_rows, inner_pick) = outer, inner
    candidate = (
        (ancestor >= 0)
        & (descendant >= 0)
        & (outer_rows.left[outer_pick] <= inner_rows.left[inner_pick])
        & (inner_rows.right[inner_pick] <= outer_rows.right[outer_pick])
        & (inner_rows.depth[inner_pick] > outer_rows.depth[outer_pick])
    )
    rows = np.flatnonzero(candidate)
    node = descendant[rows]
    wanted = ancestor[rows]
    offset = base[rows]
    found = np.zeros(len(rows), bool)
    climbing = node >= 0
    while climbing.any():
        node = np.where(climbing, heads[offset + np.maximum(node, 0)], -1)
        found |= climbing & (node == wanted)
        climbing &= (node >= 0) & ~found
    hold = np.zeros(len(ancestor), bool)
    hold[rows] = found
    return hold


def _merge(pos, columns, extra_pos, extra_columns):
    """Rows of both column sets, stably ordered by sentence position."""
    order = np.argsort(np.concatenate([pos, extra_pos]), kind="stable")
    merged = {}
    for name in dict.fromkeys([*columns, *extra_columns]):
        parts = [
            part.get(name, np.full((3, size), -1, _INT))
            for part, size in ((columns, len(pos)), (extra_columns, len(extra_pos)))
        ]
        merged[name] = np.concatenate(parts, axis=1)[:, order]
    return np.concatenate([pos, extra_pos])[order], merged
