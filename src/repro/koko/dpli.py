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

The intersection of the sentence ids over all index-derived bindings is
the candidate-sentence set the rest of the evaluation iterates over.  If any
looked-up path has no match at all, the query provably has an empty answer
("If this happens, the evaluation immediately ceases").

The index set answers each lookup as ``(sorted sid column, postings)``
(:meth:`~repro.indexing.koko_index.KokoIndexSet.entity_candidates` /
:meth:`~repro.indexing.koko_index.KokoIndexSet.path_candidates`), so the
result carries per-variable **sorted sentence-id columns**: skip-plan cost
estimation (`bindings_count`) is a pair of binary searches instead of a
posting-list scan, and can be answered for a whole candidate-sid array at
once (:meth:`DpliResult.bindings_count_array`).  The postings stay what
the index set returned: over the columnar indexes, a path's
:class:`~repro.indexing.columnar.PostingBlock` and an entity type's
``(sid, left, right)`` columns, which the binding extraction reads its
rows from; over the reference, posting lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..indexing.columnar import PostingBlock, distinct_sorted
from ..indexing.koko_index import KokoIndexSet
from ..indexing.postings import EntityPosting, Posting
from .normalize import NormalizedQuery

__all__ = ["DpliResult", "run_dpli"]

_EMPTY_SIDS = np.empty(0, dtype=np.int64)
_EMPTY_SIDS.setflags(write=False)


@dataclass
class DpliResult:
    """Candidate bindings per variable plus the candidate sentence set."""

    #: path variable -> candidate postings (of its dominant path)
    path_bindings: dict[str, PostingBlock | list[Posting]] = field(default_factory=dict)
    #: entity variable -> entity mentions (columns, or reference postings)
    entity_bindings: dict[str, tuple[np.ndarray, ...] | list[EntityPosting]] = field(
        default_factory=dict
    )
    #: sorted ids of the sentences worth evaluating; None means "all
    #: sentences" (no pruning possible, e.g. an empty extract clause)
    candidate_sids: np.ndarray | None = None
    #: True when an index lookup proves the query has no answers
    provably_empty: bool = False
    #: variable -> sorted sid column of its bindings; bindings_count and
    #: the batched skip plans of the GSP module answer from it
    sid_columns: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def bindings_count(self, variable: str, sid: int) -> int:
        """|bindings[x][sid = s]| — the GSP cost estimate for one variable."""
        sids = self.sid_columns.get(variable)
        if sids is None:
            return 0
        left = int(np.searchsorted(sids, sid, side="left"))
        right = int(np.searchsorted(sids, sid, side="right"))
        return right - left

    def bindings_count_array(self, variable: str, sids: np.ndarray) -> np.ndarray:
        """Binding counts for a whole array of sentence ids at once."""
        column = self.sid_columns.get(variable)
        if column is None or column.size == 0:
            return np.zeros(len(sids), dtype=np.int64)
        left = np.searchsorted(column, sids, side="left")
        right = np.searchsorted(column, sids, side="right")
        return (right - left).astype(np.int64)


def run_dpli(normalized: NormalizedQuery, indexes: KokoIndexSet) -> DpliResult:
    """Run Algorithm 1 against *indexes*.

    *indexes* is a :class:`KokoIndexSet`, a
    :class:`~repro.indexing.sharding.ShardedIndexSet` view of several, or
    the reference index set that a plain
    :class:`~repro.koko.engine.KokoEngine` builds: all answer
    ``entity_candidates`` and ``path_candidates``.
    """
    result = DpliResult()
    sid_columns = result.sid_columns
    sid_arrays: list[np.ndarray] = []

    # entity-bound variables: all mentions of the declared type
    for variable, etype in normalized.entity_vars.items():
        sids, postings = indexes.entity_candidates(etype)
        result.entity_bindings[variable] = postings
        sid_columns[variable] = sids
        sid_arrays.append(distinct_sorted(sids))

    # dominant paths: look up the plan's decompositions
    dominant: dict[str, tuple[np.ndarray, PostingBlock | list[Posting]]] = {}
    for variable in normalized.dominant:
        sids, postings = dominant[variable] = indexes.path_candidates(
            normalized.tree_paths[variable], normalized.decomposed[variable]
        )
        if not len(sids):
            result.provably_empty = True
        sid_arrays.append(distinct_sorted(sids))

    # every path variable is served by the bindings of its dominant path
    for variable in normalized.absolute_paths:
        dominant_var = normalized.dominant_for.get(variable, variable)
        sids, postings = dominant.get(
            dominant_var, dominant.get(variable, (_EMPTY_SIDS, []))
        )
        result.path_bindings[variable] = postings
        sid_columns[variable] = sids

    if result.provably_empty:
        result.candidate_sids = _EMPTY_SIDS
        return result

    if sid_arrays:
        # Sentences must contain candidates for every index-supported
        # variable; variables with no index support do not constrain the set.
        candidate = sid_arrays[0]
        for sids in sid_arrays[1:]:
            candidate = np.intersect1d(candidate, sids, assume_unique=True)
        result.candidate_sids = candidate
    return result
