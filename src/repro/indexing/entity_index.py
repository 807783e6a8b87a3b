"""The entity inverted index (Section 3.1).

Maps each entity-mention text to triples ``(x, u, v)``: sentence id plus the
leftmost and rightmost token ids of the mention span.  The index can also be
queried by entity type, which is how variables declared as ``x:Entity``,
``a:GPE`` or ``a:Person`` obtain their candidate bindings.

The posting rows ``(sid, left, right, text, etype)`` live in two
:class:`~repro.indexing.columnar.ColumnarPostings` stores — one keyed by
lower-cased mention text, one by mention type — with the string payloads
interned, so type lookups hand the query planner whole sentence-id arrays
instead of Python object lists.  The object-list build survives only as the
test oracle in :mod:`repro.indexing.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .columnar import (
    ColumnarPostings,
    StringInterner,
    int_column,
    pack_strings,
    unpack_strings,
)

__all__ = ["ENTITY_TYPE_ALIASES", "EntityIndex", "EntityPosting", "accepted_types"]

_E_COLUMNS = ("sid", "left", "right", "text_id", "etype_id")

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


@dataclass(frozen=True, order=True)
class EntityPosting:
    """One entity occurrence: sentence id, span, type, and surface text."""

    sid: int
    left: int
    right: int
    etype: str
    text: str


class _EntityView(Sequence):
    """Lazily materialised, read-only list of :class:`EntityPosting` rows."""

    __slots__ = ("_arrays", "_strings", "_items")

    def __init__(
        self, arrays: tuple[np.ndarray, ...], strings: StringInterner
    ) -> None:
        self._arrays = arrays
        self._strings = strings
        self._items: list[EntityPosting] | None = None

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The ``(sid, left, right, text_id, etype_id)`` columns behind the view."""
        return self._arrays

    def _materialized(self) -> list[EntityPosting]:
        items = self._items
        if items is None:
            text = self._strings.text
            sids, lefts, rights, text_ids, etype_ids = self._arrays
            items = [
                EntityPosting(s, lo, hi, text(e), text(t))
                for s, lo, hi, t, e in zip(
                    sids.tolist(),
                    lefts.tolist(),
                    rights.tolist(),
                    text_ids.tolist(),
                    etype_ids.tolist(),
                )
            ]
            self._items = items
        return items

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __iter__(self):
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]


class EntityIndex:
    """Inverted index over entity mentions."""

    def __init__(self) -> None:
        self._strings = StringInterner()
        self._store_text = ColumnarPostings(_E_COLUMNS)
        self._store_type = ColumnarPostings(_E_COLUMNS)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_rows(
        self,
        sids: list[int],
        lefts: list[int],
        rights: list[int],
        etypes: list[str],
        texts: list[str],
    ) -> None:
        """Splice: append mention rows (spanning any number of sentences,
        in ``(sid, position)`` order) to both keyed stores."""
        intern_many = self._strings.intern_many
        etype_ids = intern_many(etypes)
        text_ids = intern_many(texts)
        columns = (sids, lefts, rights, text_ids, etype_ids)
        store_text = self._store_text
        store_type = self._store_type
        store_text.append_batch(
            [store_text.intern_key(text.lower()) for text in texts], columns
        )
        store_type.append_batch(
            [store_type.intern_key(etype) for etype in etypes], columns
        )

    def remove_sids(self, sids: np.ndarray) -> None:
        """Remove every mention of the sentences *sids* (ascending)."""
        self._store_text.remove_sids(sids)
        self._store_type.remove_sids(sids)

    # ------------------------------------------------------------------
    # snapshot payload: the E rows once + the string table
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The mention rows (stored once) and the interned string table."""
        rows = self._store_type.all_arrays()
        return {
            **pack_strings("E.strings", self._strings.texts()),
            **{f"E.{name}": col for name, col in zip(_E_COLUMNS, rows)},
        }

    def load_arrays(self, arrays: "Mapping[str, np.ndarray]") -> None:
        """Fill this empty index from :meth:`to_arrays` output.

        Both keyed stores — by lower-cased mention text, by mention type —
        are regrouped from the one row set.
        """
        strings = self._strings
        strings.intern_many(unpack_strings(arrays, "E.strings"))
        cols = [int_column(arrays[f"E.{name}"]) for name in _E_COLUMNS]
        for store, ids, key_of in (
            (self._store_text, cols[3], lambda i: strings.text(i).lower()),
            (self._store_type, cols[4], strings.text),
        ):
            unique, inverse = np.unique(ids, return_inverse=True)
            if len(unique) and not 0 <= unique[0] <= unique[-1] < len(strings):
                raise ValueError("E row names a string outside the string table")
            key_ids: dict[str, int] = {}
            kids = [key_ids.setdefault(key_of(i), len(key_ids)) for i in unique.tolist()]
            store.load(np.asarray(kids, np.int64)[inverse], cols, keys=key_ids)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup_text(self, text: str) -> list[EntityPosting]:
        """All occurrences of the entity whose surface text is *text*."""
        kid = self._store_text.key_id(text.lower())
        if kid is None:
            return []
        return list(_EntityView(self._store_text.arrays_for_key(kid), self._strings))

    def lookup_type(self, etype: str) -> list[EntityPosting]:
        """All occurrences of entities of type *etype*.

        The pseudo-type ``"Entity"`` returns every mention regardless of type.
        """
        return list(self.lookup_type_block(etype)[1])

    def lookup_type_block(self, etype: str) -> tuple[np.ndarray, _EntityView]:
        """Type lookup: the sid column plus a lazy posting view.

        Rows of one mention type keep their insertion order; a type that
        aliases several (``Location``) lists them type by type.
        """
        store = self._store_type
        accepted = accepted_types(etype)
        if accepted is None:
            arrays = store.all_arrays()
        else:
            kids = sorted(kid for kid in map(store.key_id, accepted) if kid is not None)
            parts = [store.arrays_for_key(kid) for kid in kids]
            if not parts:
                arrays = tuple(np.empty(0, np.int64) for _ in _E_COLUMNS)
            elif len(parts) == 1:
                arrays = parts[0]
            else:
                arrays = tuple(map(np.concatenate, zip(*parts)))
        return arrays[0], _EntityView(arrays, self._strings)

    def all_postings(self) -> list[EntityPosting]:
        """Every mention in the index."""
        return list(_EntityView(self._store_type.all_arrays(), self._strings))

    def __len__(self) -> int:
        return self._store_type.total_rows


def accepted_types(etype: str) -> frozenset[str] | None:
    """The mention types an entity variable of type *etype* binds; None = any.

    ``Entity`` binds every mention.  The entity index, its object-list
    reference and the evaluator all read this one table.
    """
    low = etype.lower()
    if low == "entity":
        return None
    return ENTITY_TYPE_ALIASES.get(low, frozenset({etype.upper()}))
