"""The entity inverted index (Section 3.1).

Holds every entity mention as a row ``(x, u, v)`` — sentence id plus the
leftmost and rightmost token ids of the mention span.  Variables declared
as ``x:Entity``, ``a:GPE`` or ``a:Person`` obtain their candidate bindings
by type, so the rows ``(sid, left, right)`` live in one
:class:`~repro.indexing.columnar.ColumnarPostings` store keyed by mention
type: a type lookup hands the query planner whole column arrays instead of
Python object lists.  A mention's surface text is its sentence's span, so
the store keeps none; the size model counts it
(:meth:`~repro.indexing.koko_index.KokoIndexSet.approximate_bytes`).  The
object-list build survives only as the test oracle in
:mod:`repro.indexing.reference`.
"""

from __future__ import annotations

import numpy as np

from .columnar import ColumnarPostings

__all__ = ["ENTITY_TYPE_ALIASES", "EntityIndex", "accepted_types"]

_E_COLUMNS = ("sid", "left", "right")

#: query-side entity type (lower-cased) -> the mention types it binds; any
#: other name binds mentions of its upper-cased self
ENTITY_TYPE_ALIASES = {
    "person": frozenset({"PERSON"}),
    "gpe": frozenset({"GPE"}),
    "location": frozenset({"LOCATION", "GPE", "FACILITY"}),
    "organization": frozenset({"ORGANIZATION"}),
    "org": frozenset({"ORGANIZATION"}),
    "date": frozenset({"DATE"}),
    "facility": frozenset({"FACILITY"}),
    "team": frozenset({"TEAM", "ORGANIZATION"}),
}


class EntityIndex:
    """Inverted index over entity mentions."""

    def __init__(self) -> None:
        self._store = ColumnarPostings(_E_COLUMNS)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_rows(
        self, sids: list[int], lefts: list[int], rights: list[int], etypes: list[str]
    ) -> None:
        """Splice: append mention rows (spanning any number of sentences,
        in ``(sid, position)`` order), keyed by mention type."""
        store = self._store
        store.append_batch(list(map(store.intern_key, etypes)), (sids, lefts, rights))

    def remove_sids(self, sids: np.ndarray) -> None:
        """Remove every mention of the sentences *sids* (ascending)."""
        self._store.remove_sids(sids)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup_type(self, etype: str) -> tuple[np.ndarray, ...]:
        """The ``(sid, left, right)`` columns of type *etype*.

        The pseudo-type ``"Entity"`` returns every mention regardless of
        type.  Rows of one mention type keep their insertion order; a type
        that aliases several (``Location``) lists them type by type.
        """
        store = self._store
        accepted = accepted_types(etype)
        if accepted is None:
            return store.all_arrays()
        kids = sorted(kid for kid in map(store.key_id, accepted) if kid is not None)
        parts = [store.arrays_for_key(kid) for kid in kids]
        if not parts:
            return tuple(np.empty(0, np.int64) for _ in _E_COLUMNS)
        if len(parts) == 1:
            return parts[0]
        return tuple(map(np.concatenate, zip(*parts)))

    def __len__(self) -> int:
        return self._store.total_rows


def accepted_types(etype: str) -> frozenset[str] | None:
    """The mention types an entity variable of type *etype* binds; None = any.

    ``Entity`` binds every mention.  The entity index, its object-list
    reference and the evaluator all read this one table.
    """
    low = etype.lower()
    if low == "entity":
        return None
    return ENTITY_TYPE_ALIASES.get(low, frozenset({etype.upper()}))
