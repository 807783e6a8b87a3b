"""Decompose Paths and Lookup Indices — Algorithm 1 of the paper.

Given a normalised query and the KOKO multi-index, DPLI produces candidate
bindings for every variable:

* entity-bound variables get the posting lists of the entity index,
* path-bound variables get the postings of their **dominant** path, obtained
  by decomposing that path into parse-label / POS-tag / word paths, looking
  up the PL index, POS index and word index respectively, and joining the
  results (Section 4.2.2),
* span variables have no index-derived bindings; their candidates are
  computed per sentence by the evaluator.

The union of the sentence ids over all index-derived bindings is the
candidate-sentence set the rest of the evaluation iterates over.  If any
looked-up path has no match at all, the query provably has an empty answer
("If this happens, the evaluation immediately ceases").

Against a columnar index set the lookups run as whole-array block joins and
the result additionally carries per-variable **sorted sentence-id columns**,
so skip-plan cost estimation (`bindings_count`) becomes a pair of binary
searches instead of a posting-list scan — and can be answered for a whole
candidate-sid array at once (:meth:`DpliResult.bindings_count_array`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..indexing.decompose import lookup_decomposed, lookup_decomposed_block
from ..indexing.entity_index import EntityPosting
from ..indexing.koko_index import KokoIndexSet
from ..indexing.columnar import PostingBlock, PostingView, distinct_sorted
from ..indexing.postings import Posting
from .normalize import NormalizedQuery

_EMPTY_SIDS = np.empty(0, dtype=np.int64)


@dataclass
class DpliResult:
    """Candidate bindings per variable plus the candidate sentence set."""

    #: path variable -> candidate postings (of its dominant path)
    path_bindings: dict[str, Sequence[Posting]] = field(default_factory=dict)
    #: entity variable -> entity postings
    entity_bindings: dict[str, Sequence[EntityPosting]] = field(default_factory=dict)
    #: sentences worth evaluating; None means "all sentences" (no pruning
    #: possible, e.g. an empty extract clause)
    candidate_sids: set[int] | None = None
    #: True when an index lookup proves the query has no answers
    provably_empty: bool = False
    #: variable -> sorted sid column of its bindings (columnar DPLI only);
    #: lets bindings_count answer by binary search and enables the batched
    #: skip-plan path of the GSP module
    _count_index: dict[str, np.ndarray] | None = field(default=None, repr=False)

    @property
    def supports_batch(self) -> bool:
        """True when per-variable sid columns are available for batch GSP."""
        return self._count_index is not None

    def bindings_count(self, variable: str, sid: int) -> int:
        """|bindings[x][sid = s]| — the GSP cost estimate for one variable."""
        if self._count_index is not None:
            sids = self._count_index.get(variable)
            if sids is None:
                return 0
            left = int(np.searchsorted(sids, sid, side="left"))
            right = int(np.searchsorted(sids, sid, side="right"))
            return right - left
        if variable in self.path_bindings:
            return sum(1 for p in self.path_bindings[variable] if p.sid == sid)
        if variable in self.entity_bindings:
            return sum(1 for p in self.entity_bindings[variable] if p.sid == sid)
        return 0

    def bindings_count_array(self, variable: str, sids: np.ndarray) -> np.ndarray:
        """Binding counts for a whole array of sentence ids at once."""
        index = self._count_index
        column = index.get(variable) if index is not None else None
        if column is None or column.size == 0:
            return np.zeros(len(sids), dtype=np.int64)
        left = np.searchsorted(column, sids, side="left")
        right = np.searchsorted(column, sids, side="right")
        return (right - left).astype(np.int64)


def run_dpli(normalized: NormalizedQuery, indexes: KokoIndexSet) -> DpliResult:
    """Run Algorithm 1 against *indexes*."""
    if getattr(indexes, "columnar", False):
        return _run_dpli_columnar(normalized, indexes)
    result = DpliResult()
    sid_sets: list[set[int]] = []

    # entity-bound variables: union of entity-index posting lists
    for variable, etype in normalized.entity_vars.items():
        postings = indexes.entity_index.lookup_type(etype)
        result.entity_bindings[variable] = postings
        sid_sets.append({p.sid for p in postings})

    # dominant paths: decompose and look up
    dominant_postings: dict[str, list[Posting]] = {}
    for variable, path in normalized.dominant.items():
        tree_path = normalized.tree_paths[variable]
        postings = lookup_decomposed(indexes, tree_path)
        dominant_postings[variable] = postings
        if not postings:
            result.provably_empty = True
        sid_sets.append({p.sid for p in postings})

    # every path variable is served by the bindings of its dominant path
    for variable in normalized.absolute_paths:
        dominant_var = normalized.dominant_for.get(variable, variable)
        result.path_bindings[variable] = dominant_postings.get(
            dominant_var, dominant_postings.get(variable, [])
        )

    if result.provably_empty:
        result.candidate_sids = set()
        return result

    if sid_sets:
        # Sentences must contain candidates for every index-supported
        # variable; variables with no index support do not constrain the set.
        candidate = sid_sets[0]
        for sids in sid_sets[1:]:
            candidate = candidate & sids
        result.candidate_sids = candidate
    else:
        result.candidate_sids = None
    return result


def _run_dpli_columnar(
    normalized: NormalizedQuery, indexes: KokoIndexSet
) -> DpliResult:
    """Algorithm 1 over columnar indexes: block lookups, array candidates."""
    count_index: dict[str, np.ndarray] = {}
    result = DpliResult(_count_index=count_index)
    sid_arrays: list[np.ndarray] = []

    # entity-bound variables: sid column + lazily materialised posting view
    for variable, etype in normalized.entity_vars.items():
        sid_col, view = indexes.entity_index.lookup_type_block(etype)
        result.entity_bindings[variable] = view
        count_index[variable] = sorted_sids = np.sort(sid_col)
        sid_arrays.append(distinct_sorted(sorted_sids))

    # dominant paths: look up the plan's decompositions, all vectorized;
    # every block comes back (sid, tid)-sorted, so its sid column already
    # is the count index
    dominant_blocks: dict[str, PostingBlock] = {}
    for variable in normalized.dominant:
        block = lookup_decomposed_block(
            indexes, normalized.tree_paths[variable], normalized.decomposed[variable]
        )
        dominant_blocks[variable] = block
        if block.size == 0:
            result.provably_empty = True
        sid_arrays.append(block.unique_sids())

    # every path variable is served by the bindings of its dominant path
    for variable in normalized.absolute_paths:
        dominant_var = normalized.dominant_for.get(variable, variable)
        block = dominant_blocks.get(dominant_var, dominant_blocks.get(variable))
        if block is None:
            result.path_bindings[variable] = []
            count_index[variable] = _EMPTY_SIDS
        else:
            result.path_bindings[variable] = PostingView(block)
            count_index[variable] = block.sid

    if result.provably_empty:
        result.candidate_sids = set()
        return result

    if sid_arrays:
        candidate = sid_arrays[0]
        for sids in sid_arrays[1:]:
            candidate = np.intersect1d(candidate, sids, assume_unique=True)
        result.candidate_sids = set(candidate.tolist())
    else:
        result.candidate_sids = None
    return result
