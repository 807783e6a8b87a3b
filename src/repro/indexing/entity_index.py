"""The entity inverted index (Section 3.1).

Maps each entity-mention text to triples ``(x, u, v)``: sentence id plus the
leftmost and rightmost token ids of the mention span.  The index can also be
queried by entity type, which is how variables declared as ``x:Entity``,
``a:GPE`` or ``a:Person`` obtain their candidate bindings.

With ``columnar=True`` the posting rows ``(sid, left, right, text, etype)``
live in two :class:`~repro.indexing.columnar.ColumnarPostings` stores — one
keyed by lower-cased mention text, one by mention type — with the string
payloads interned, so type lookups hand the query planner whole sentence-id
arrays instead of Python object lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..nlp.types import Corpus, Sentence
from ..storage.database import Database
from ..storage.table import Schema
from .columnar import (
    ColumnarPostings,
    StringInterner,
    int_column,
    pack_strings,
    unpack_strings,
)

_E_COLUMNS = ("sid", "left", "right", "text_id", "etype_id")


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

    def __init__(self, columnar: bool = False) -> None:
        self.columnar = columnar
        self._by_text: dict[str, list[EntityPosting]] = {}
        self._by_type: dict[str, list[EntityPosting]] = {}
        # keyed by sentence id so remove_sentence is one dict pop instead
        # of a rebuild of the whole corpus-wide posting list
        self._by_sid: dict[int, list[EntityPosting]] = {}
        self._count = 0
        self._strings = StringInterner() if columnar else None
        self._store_text = ColumnarPostings(_E_COLUMNS) if columnar else None
        self._store_type = ColumnarPostings(_E_COLUMNS) if columnar else None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_sentence(self, sentence: Sentence) -> None:
        """Index every mention of *sentence* (object-backed; a columnar
        index is spliced in batches through :meth:`add_rows`)."""
        if self.columnar:
            raise RuntimeError("columnar EntityIndex takes rows via add_rows")
        for mention in sentence.entities:
            posting = EntityPosting(
                sid=sentence.sid,
                left=mention.start,
                right=mention.end,
                etype=mention.etype,
                text=mention.text,
            )
            self._by_text.setdefault(mention.text.lower(), []).append(posting)
            self._by_type.setdefault(mention.etype, []).append(posting)
            self._by_sid.setdefault(sentence.sid, []).append(posting)
            self._count += 1

    def add_rows(
        self,
        sids: list[int],
        lefts: list[int],
        rights: list[int],
        etypes: list[str],
        texts: list[str],
    ) -> None:
        """Columnar splice: append mention rows (spanning any number of
        sentences, in ``(sid, position)`` order) to both keyed stores."""
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

    def add_corpus(self, corpus: Corpus) -> None:
        for _, sentence in corpus.all_sentences():
            self.add_sentence(sentence)

    def remove_sentence(self, sentence: Sentence) -> None:
        """Remove every posting contributed by *sentence* (by sentence id)."""
        if not sentence.entities:
            return
        sid = sentence.sid
        if self.columnar:
            self._store_text.remove_sid(sid)
            self._store_type.remove_sid(sid)
            return
        for mention in sentence.entities:
            for mapping, key in (
                (self._by_text, mention.text.lower()),
                (self._by_type, mention.etype),
            ):
                bucket = mapping.get(key)
                if bucket is None:
                    continue
                bucket[:] = [p for p in bucket if p.sid != sid]
                if not bucket:
                    del mapping[key]
        self._count -= len(self._by_sid.pop(sid, ()))

    # ------------------------------------------------------------------
    # snapshot payload (columnar only): the E rows once + the string table
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The mention rows (stored once) and the interned string table."""
        rows = self._store_type.all_arrays()
        return {
            **pack_strings("E.strings", self._strings.texts()),
            **{f"E.{name}": col for name, col in zip(_E_COLUMNS, rows)},
        }

    def load_arrays(self, arrays: "Mapping[str, np.ndarray]") -> None:
        """Fill this empty columnar index from :meth:`to_arrays` output.

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
        if self.columnar:
            kid = self._store_text.key_id(text.lower())
            if kid is None:
                return []
            return list(
                _EntityView(self._store_text.arrays_for_key(kid), self._strings)
            )
        return list(self._by_text.get(text.lower(), ()))

    def lookup_type(self, etype: str) -> list[EntityPosting]:
        """All occurrences of entities of type *etype*.

        The pseudo-type ``"Entity"`` returns every mention regardless of type.
        """
        if self.columnar:
            _, view = self.lookup_type_block(etype)
            return list(view)
        if etype.lower() == "entity":
            return self.all_postings()
        key = self._canonical_type(etype)
        return list(self._by_type.get(key, ()))

    def lookup_type_block(self, etype: str) -> tuple[np.ndarray, Sequence]:
        """Columnar type lookup: the sid column plus a lazy posting view."""
        store = self._store_type
        assert store is not None, "lookup_type_block requires columnar=True"
        if etype.lower() == "entity":
            arrays = store.all_arrays()
        else:
            kid = store.key_id(self._canonical_type(etype))
            if kid is None:
                arrays = tuple(np.empty(0, np.int64) for _ in _E_COLUMNS)
            else:
                arrays = store.arrays_for_key(kid)
        return arrays[0], _EntityView(arrays, self._strings)

    def all_postings(self) -> list[EntityPosting]:
        if self.columnar:
            return list(_EntityView(self._store_type.all_arrays(), self._strings))
        return [posting for bucket in self._by_sid.values() for posting in bucket]

    def __len__(self) -> int:
        if self.columnar:
            return self._store_type.total_rows
        return self._count

    @staticmethod
    def _canonical_type(etype: str) -> str:
        mapping = {
            "person": "PERSON",
            "gpe": "GPE",
            "location": "LOCATION",
            "organization": "ORGANIZATION",
            "org": "ORGANIZATION",
            "date": "DATE",
            "facility": "FACILITY",
            "team": "TEAM",
            "other": "OTHER",
        }
        return mapping.get(etype.lower(), etype.upper())

    # ------------------------------------------------------------------
    # materialisation (the E relation of Section 6.2.1)
    # ------------------------------------------------------------------
    E_SCHEMA = Schema.of("entity", "x", "u", "v", "etype")

    def to_table(self, database: Database, table_name: str = "E"):
        """Materialise the index into *database* with the paper's E schema."""
        if database.has_table(table_name):
            database.drop_table(table_name)
        table = database.create_table(table_name, self.E_SCHEMA)
        for posting in self.all_postings():
            table.insert(
                (posting.text.lower(), posting.sid, posting.left, posting.right, posting.etype)
            )
        table.create_index("by_entity", "entity")
        table.create_index("by_sentence", "x")
        return table
