"""Closure-table helpers for hierarchy indexes.

Section 4 of the paper stores the PL and POS hierarchy indexes as *closure
tables* (Karwin's "SQL Antipatterns" pattern): one row per
(ancestor, descendant) pair including the reflexive pair, so that "all nodes
under this path prefix" becomes a single equality selection.

:class:`ClosureTable` builds that representation from parent pointers and
answers ancestor/descendant queries; ``to_table`` materialises it into a
storage :class:`~repro.storage.table.Table` with the schema used in the
paper's Section 6.2.1 (``id, label, depth, aid, alabel, adepth``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .database import Database
from .table import Schema, Table


@dataclass(frozen=True)
class ClosureRow:
    """One (descendant, ancestor) pair with labels and depths."""

    node_id: int
    label: str
    depth: int
    ancestor_id: int
    ancestor_label: str
    ancestor_depth: int


class ClosureTable:
    """Transitive-closure representation of a forest of labelled nodes."""

    def __init__(self) -> None:
        self._labels: dict[int, str] = {}
        self._depths: dict[int, int] = {}
        self._parents: dict[int, int | None] = {}
        self._ancestors: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, label: str, parent_id: int | None) -> None:
        """Register a node; its parent must have been added before it."""
        if node_id in self._labels:
            raise ValueError(f"node {node_id} already registered")
        if parent_id is not None and parent_id not in self._labels:
            raise ValueError(f"parent {parent_id} of node {node_id} is unknown")
        self._labels[node_id] = label
        self._parents[node_id] = parent_id
        if parent_id is None:
            self._depths[node_id] = 0
            self._ancestors[node_id] = [node_id]
        else:
            self._depths[node_id] = self._depths[parent_id] + 1
            self._ancestors[node_id] = self._ancestors[parent_id] + [node_id]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    def label(self, node_id: int) -> str:
        return self._labels[node_id]

    def depth(self, node_id: int) -> int:
        return self._depths[node_id]

    def parent(self, node_id: int) -> int | None:
        return self._parents[node_id]

    def ancestors(self, node_id: int) -> list[int]:
        """Ancestor ids from the root down to (and including) *node_id*."""
        return list(self._ancestors[node_id])

    def path_labels(self, node_id: int) -> list[str]:
        """Labels along the root-to-node path."""
        return [self._labels[a] for a in self._ancestors[node_id]]

    def is_ancestor(self, ancestor_id: int, node_id: int) -> bool:
        """True when *ancestor_id* lies on the path above *node_id* (strictly)."""
        return ancestor_id != node_id and ancestor_id in self._ancestors[node_id]

    def rows(self) -> list[ClosureRow]:
        """Every (descendant, ancestor) pair including the reflexive one."""
        out: list[ClosureRow] = []
        for node_id, ancestors in self._ancestors.items():
            for ancestor_id in ancestors:
                out.append(
                    ClosureRow(
                        node_id=node_id,
                        label=self._labels[node_id],
                        depth=self._depths[node_id],
                        ancestor_id=ancestor_id,
                        ancestor_label=self._labels[ancestor_id],
                        ancestor_depth=self._depths[ancestor_id],
                    )
                )
        return out

    # ------------------------------------------------------------------
    # materialisation into the storage engine
    # ------------------------------------------------------------------
    CLOSURE_SCHEMA = Schema.of("id", "label", "depth", "aid", "alabel", "adepth")

    def to_table(self, database: Database, table_name: str) -> Table:
        """Materialise this closure table into *database* as *table_name*."""
        if database.has_table(table_name):
            database.drop_table(table_name)
        table = database.create_table(table_name, self.CLOSURE_SCHEMA)
        for row in self.rows():
            table.insert(
                (
                    row.node_id,
                    row.label,
                    row.depth,
                    row.ancestor_id,
                    row.ancestor_label,
                    row.ancestor_depth,
                )
            )
        table.create_index("by_label", "label")
        table.create_index("by_alabel", "alabel")
        table.create_index("by_id", "id")
        return table
