"""Result containers returned by the KOKO engine, and their shard merge.

A query's answer is a relation of scored extraction tuples.  A
:class:`KokoResult` keeps that relation in one representation, a
:class:`ResultColumns` — numpy columns beside small string tables — from
the aggregate stage that fills it, through :func:`merge_results` and the
service's result caches, to the typed RPC body that ships it
(:mod:`repro.rpc.wire`) and the client that reads it.

:class:`ExtractionTuple` objects are built only when someone iterates or
indexes a result, and afresh each time: nothing keeps them, so a cached
result holds a handful of objects for the garbage collector to walk
instead of several per tuple, and results stay safe to share between
threads.  ``len(result)``, ``len(result.tuples)`` and the sentence
counters read the columns alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ExtractionTuple",
    "KokoResult",
    "ResultColumns",
    "StageTimings",
    "index_dtype",
    "merge_results",
]


class ExtractionTuple(NamedTuple):
    """One output tuple: document id, per-variable values, per-variable scores.

    A named tuple, so a result can build hundreds of them in one C-level
    ``map`` when it is iterated.
    """

    doc_id: str
    sid: int
    values: tuple[tuple[str, str], ...]
    scores: tuple[tuple[str, float], ...] = ()

    def value(self, variable: str) -> str:
        """The text bound to *variable*; ``KeyError`` if it is not an output."""
        for name, text in self.values:
            if name == variable:
                return text
        raise KeyError(variable)

    def score(self, variable: str) -> float | None:
        """The score of *variable*, or None when this tuple carries none."""
        for name, score in self.scores:
            if name == variable:
                return score
        return None

    def as_dict(self) -> dict[str, str]:
        """Output variable -> text."""
        return dict(self.values)


@dataclass
class StageTimings:
    """Wall-clock seconds per engine stage (the columns of Table 2)."""

    normalize: float = 0.0
    dpli: float = 0.0
    load_articles: float = 0.0
    gsp: float = 0.0
    extract: float = 0.0
    satisfying: float = 0.0

    @property
    def total(self) -> float:
        """The sum over all stages."""
        return (
            self.normalize
            + self.dpli
            + self.load_articles
            + self.gsp
            + self.extract
            + self.satisfying
        )

    def as_dict(self) -> dict[str, float]:
        """Stage seconds keyed by the paper's column names."""
        return {
            "Normalize": self.normalize,
            "DPLI": self.dpli,
            "LoadArticle": self.load_articles,
            "GSP": self.gsp,
            "extract": self.extract,
            "satisfying": self.satisfying,
        }

    def scaled(self, share: float) -> "StageTimings":
        """A copy with every stage's seconds multiplied by *share*."""
        return StageTimings(
            self.normalize * share,
            self.dpli * share,
            self.load_articles * share,
            self.gsp * share,
            self.extract * share,
            self.satisfying * share,
        )

    def accumulate(self, other: "StageTimings") -> "StageTimings":
        """Add *other*'s per-stage seconds into self (shard merge); returns self."""
        self.normalize += other.normalize
        self.dpli += other.dpli
        self.load_articles += other.load_articles
        self.gsp += other.gsp
        self.extract += other.extract
        self.satisfying += other.satisfying
        return self


_new_tuple = tuple.__new__


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_NO_SIDS = _frozen(np.zeros(0, np.uint8))
_NO_INDEX = _frozen(np.zeros((1, 0), np.uint8))
_NO_SCORES = _frozen(np.zeros((0, 0)))
_NO_PRESENCE = _frozen(np.zeros((0, 0), np.bool_))


def index_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype that indexes a table of *size* entries."""
    return np.min_scalar_type(max(size - 1, 0))


def _narrow(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Integers in the narrowest dtype that holds every one of them."""
    values = np.asarray(values)
    low, high = int(values.min()), int(values.max())
    dtype = np.min_scalar_type(high)
    if low < 0:
        dtype = np.result_type(np.min_scalar_type(low), dtype)
    return values.astype(dtype)


class ResultColumns(Sequence):
    """The rows of one result as columns; a sequence of :class:`ExtractionTuple`.

    * ``doc_ids`` is the document-id table and ``sid[row]`` the row's
      sentence id;
    * ``variables`` are the output variables and ``strings[i]`` the string
      table of variable *i*;
    * ``index`` holds one index column per table, as the rows of one
      matrix: ``index[0][row]`` points into ``doc_ids`` and
      ``index[1 + i][row]`` into ``strings[i]``;
    * ``scored`` names the scored variables in the order a tuple lists its
      scores: ``scores[j][row]`` is a ``float64`` score and
      ``present[j][row]`` says whether the row carries it (a row whose
      scored variable was unbound has no score for it); with nothing
      scored both matrices are empty.

    Integer columns are in the narrowest dtype that holds them (the index
    matrix's is fixed by its largest table).  The columns are never
    written after construction — a decoded result's are read-only views of
    the frame — so one instance may be shared freely.

    Indexing and iteration build tuples on demand: the tuples of one
    iteration share their ``(variable, text)`` pairs, one per table entry,
    and their scores are Python floats equal bit for bit to the scores
    that were stored.
    """

    __slots__ = ("doc_ids", "sid", "variables", "strings", "index", "scored", "scores", "present")

    def __init__(
        self,
        doc_ids: tuple[str, ...] = (),
        sid: np.ndarray = _NO_SIDS,
        variables: tuple[str, ...] = (),
        strings: tuple[tuple[str, ...], ...] = (),
        index: np.ndarray = _NO_INDEX,
        scored: tuple[str, ...] = (),
        scores: np.ndarray = _NO_SCORES,
        present: np.ndarray = _NO_PRESENCE,
    ) -> None:
        self.doc_ids = doc_ids
        self.sid = sid
        self.variables = variables
        self.strings = strings
        self.index = index
        self.scored = scored
        self.scores = scores
        self.present = present

    # -- construction ---------------------------------------------------
    @classmethod
    def from_tables(
        cls,
        doc_ids: Sequence[str],
        doc: Sequence[int],
        sid: Sequence[int],
        variables: Sequence[str] = (),
        strings: Sequence[Sequence[str]] = (),
        positions: Sequence[Sequence[int]] = (),
        scored: Sequence[str] = (),
        scores: Sequence[Sequence[float]] = (),
        present: Sequence[Sequence[bool]] = (),
    ) -> "ResultColumns":
        """Columns from string tables and per-row positions into them.

        ``doc[row]`` indexes *doc_ids* and ``positions[i][row]`` output
        variable *i*'s table ``strings[i]``; each may be a list or an
        integer array.
        """
        if not len(sid):
            return cls()  # an empty result needs no layout
        strings = tuple(map(tuple, strings))
        return cls(
            tuple(doc_ids),
            _narrow(sid),
            tuple(variables),
            strings,
            np.array([doc, *positions], index_dtype(max([len(doc_ids), *map(len, strings)]))),
            tuple(scored),
            np.array(scores, np.float64) if scored else _NO_SCORES,
            np.array(present, np.bool_) if scored else _NO_PRESENCE,
        )

    @classmethod
    def from_tuples(cls, tuples: Iterable[ExtractionTuple]) -> "ResultColumns":
        """Columns holding *tuples*, in order.

        Every tuple must bind the same output variables in the same order
        (``ValueError`` otherwise).  Scores may differ from tuple to tuple:
        the scored layout is grown so that each tuple's score names are an
        ordered subsequence of it, and what a tuple lacks is absent.
        """
        rows = list(tuples)
        if not rows:
            return cls()
        variables = tuple(name for name, _ in rows[0].values)
        scored: list[str] = []
        placed: list[list[tuple[int, float]]] = []
        doc_position: dict[str, int] = {}
        for row in rows:
            if tuple(name for name, _ in row.values) != variables:
                raise ValueError(
                    f"tuples of one result bind the same variables: {row.values!r} "
                    f"after {variables!r}"
                )
            doc_position.setdefault(row.doc_id, len(doc_position))
            at, slots = 0, []
            for name, score in row.scores:
                try:
                    at = scored.index(name, at)
                except ValueError:
                    scored.append(name)
                    at = len(scored) - 1
                slots.append((at, score))
                at += 1
            placed.append(slots)
        scores = np.zeros((len(scored), len(rows)))
        present = np.zeros((len(scored), len(rows)), dtype=np.bool_)
        for row_no, slots in enumerate(placed):
            for at, score in slots:
                scores[at, row_no] = score
                present[at, row_no] = True
        strings, positions = [], []
        for i in range(len(variables)):
            column = [row.values[i][1] for row in rows]
            table = tuple(dict.fromkeys(column))
            strings.append(table)
            positions.append(list(map(dict(zip(table, range(len(table)))).__getitem__, column)))
        return cls.from_tables(
            tuple(doc_position),
            [doc_position[row.doc_id] for row in rows],
            [row.sid for row in rows],
            variables,
            strings,
            positions,
            scored,
            scores,
            present,
        )

    @classmethod
    def concat(cls, parts: Sequence["ResultColumns"]) -> "ResultColumns":
        """The rows of *parts* in one set of columns, stable-sorted by sid.

        Each part's string tables are appended to the merged ones and its
        index columns shifted past what came before.  Parts with no rows
        are skipped; parts that disagree on their layout are merged through
        their tuples.
        """
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls()
        first = parts[0]
        if len(parts) == 1 and (first.sid[1:] >= first.sid[:-1]).all():
            return first  # already in order, and columns are never written
        layout = (first.variables, first.scored)
        if any((part.variables, part.scored) != layout for part in parts[1:]):
            return cls.from_tuples(
                sorted(chain.from_iterable(parts), key=attrgetter("sid"))
            )
        sid = np.concatenate([part.sid for part in parts])
        order = sid.argsort(kind="stable")
        tables = [(part.doc_ids, *part.strings) for part in parts]
        # each part's index columns move past the tables of the parts before it
        starts, sizes = [], [0] * len(tables[0])
        for part in tables:
            starts.append(sizes)
            sizes = [size + len(table) for size, table in zip(sizes, part)]
        shift = np.array(starts).T.repeat([len(part) for part in parts], axis=1)
        index = np.concatenate([part.index for part in parts], axis=1) + shift
        merged = [tuple(chain.from_iterable(column)) for column in zip(*tables)]
        scores, present = _NO_SCORES, _NO_PRESENCE
        if first.scored:
            scores = np.concatenate([part.scores for part in parts], axis=1)[:, order]
            present = np.concatenate([part.present for part in parts], axis=1)[:, order]
        return cls(
            merged[0],
            sid[order],
            first.variables,
            tuple(merged[1:]),
            index[:, order].astype(index_dtype(max(sizes))),
            first.scored,
            scores,
            present,
        )

    def take(self, rows: np.ndarray) -> "ResultColumns":
        """The rows at the ascending positions *rows*, in columns of their own.

        Every table keeps only the entries those rows use, in its own
        order, and the integer columns are narrowed again.
        """
        if len(rows) == len(self):
            return self
        if not len(rows):
            return ResultColumns()
        tables, columns = [], []
        for table, column in zip((self.doc_ids, *self.strings), self.index[:, rows]):
            used = np.zeros(len(table), bool)
            used[column] = True
            tables.append(tuple(map(table.__getitem__, np.flatnonzero(used).tolist())))
            columns.append((np.cumsum(used) - 1)[column])
        return ResultColumns(
            tables[0],
            _narrow(self.sid[rows]),
            self.variables,
            tuple(tables[1:]),
            np.array(columns, index_dtype(max(map(len, tables)))),
            self.scored,
            self.scores[:, rows] if self.scored else _NO_SCORES,
            self.present[:, rows] if self.scored else _NO_PRESENCE,
        )

    # -- the sequence of tuples -----------------------------------------
    def __len__(self) -> int:
        return len(self.sid)

    def __iter__(self):
        return iter(self._tuples(slice(None)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._tuples(index)
        row = range(len(self))[index]  # IndexError, negative indices
        doc, *positions = self.index[:, row].tolist()
        return ExtractionTuple(
            self.doc_ids[doc],
            int(self.sid[row]),
            tuple(
                (name, table[position])
                for name, table, position in zip(self.variables, self.strings, positions)
            ),
            tuple(
                (name, score)
                for name, score, present in zip(
                    self.scored, self.scores[:, row].tolist(), self.present[:, row]
                )
                if present
            )
            if self.scored
            else (),
        )

    def _tuples(self, rows: slice) -> list[ExtractionTuple]:
        """Materialise the rows selected by *rows*, column by column."""
        sids = self.sid[rows].tolist()
        docs, *positions = self.index[:, rows].tolist()
        doc_ids = map(self.doc_ids.__getitem__, docs)
        if self.variables:
            values = zip(
                *(
                    map([(name, text) for text in table].__getitem__, column)
                    for name, table, column in zip(self.variables, self.strings, positions)
                )
            )
        else:
            values = repeat((), len(sids))
        if self.scored:
            scores = list(
                zip(
                    *(
                        zip(repeat(name), column)
                        for name, column in zip(self.scored, self.scores[:, rows].tolist())
                    )
                )
            )
            present = self.present[:, rows]
            for row in (~present.all(axis=0)).nonzero()[0].tolist():
                scores[row] = tuple(
                    pair for pair, kept in zip(scores[row], present[:, row]) if kept
                )
        else:
            scores = repeat((), len(sids))
        return list(
            map(_new_tuple, repeat(ExtractionTuple), zip(doc_ids, sids, values, scores))
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (ResultColumns, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"ResultColumns({len(self)} rows, variables={self.variables!r}, "
            f"scored={self.scored!r})"
        )


class KokoResult:
    """The full result of executing one query.

    The tuples live in :attr:`columns`; :attr:`tuples` is that same
    sequence (``len`` never builds a tuple), and iterating or indexing
    the result builds :class:`ExtractionTuple` objects on demand.
    ``KokoResult(tuples=[...])`` still builds a result from tuples;
    :meth:`from_columns` wraps columns without touching them.
    """

    __slots__ = ("columns", "timings", "candidate_sentences", "evaluated_sentences")

    def __init__(
        self,
        tuples: Iterable[ExtractionTuple] = (),
        timings: StageTimings | None = None,
        candidate_sentences: int = 0,
        evaluated_sentences: int = 0,
    ) -> None:
        self.columns = ResultColumns.from_tuples(tuples)
        self.timings = timings if timings is not None else StageTimings()
        self.candidate_sentences = candidate_sentences
        self.evaluated_sentences = evaluated_sentences

    @classmethod
    def from_columns(
        cls,
        columns: ResultColumns,
        timings: StageTimings | None = None,
        candidate_sentences: int = 0,
        evaluated_sentences: int = 0,
    ) -> "KokoResult":
        """A result over *columns* as they are."""
        result = object.__new__(cls)
        result.columns = columns
        result.timings = timings if timings is not None else StageTimings()
        result.candidate_sentences = candidate_sentences
        result.evaluated_sentences = evaluated_sentences
        return result

    @property
    def tuples(self) -> ResultColumns:
        """The tuples, as the (lazily materialising) column sequence."""
        return self.columns

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __getitem__(self, index):
        return self.columns[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, KokoResult):
            return NotImplemented
        return (
            self.candidate_sentences == other.candidate_sentences
            and self.evaluated_sentences == other.evaluated_sentences
            and self.timings == other.timings
            and list(self) == list(other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"KokoResult(tuples={list(self)!r}, timings={self.timings!r}, "
            f"candidate_sentences={self.candidate_sentences!r}, "
            f"evaluated_sentences={self.evaluated_sentences!r})"
        )

    def distinct_values(self, variable: str) -> set[str]:
        """The distinct extracted strings for one output variable."""
        return {t.value(variable) for t in self}

    def values_by_document(self, variable: str) -> dict[str, set[str]]:
        """doc_id -> distinct extracted strings for one output variable."""
        out: dict[str, set[str]] = {}
        for t in self:
            out.setdefault(t.doc_id, set()).add(t.value(variable))
        return out

    @property
    def selectivity(self) -> dict[str, int]:
        """doc_id -> number of tuples extracted from that document."""
        counts: dict[str, int] = {}
        for t in self:
            counts[t.doc_id] = counts.get(t.doc_id, 0) + 1
        return counts


def merge_results(results: Iterable[KokoResult]) -> KokoResult:
    """Deterministically merge per-shard results into one :class:`KokoResult`.

    Rows are stable-sorted by sentence id: every sentence lives in exactly
    one shard, so same-sid rows keep their within-shard (assignment
    enumeration) order, and because sentence ids are assigned in ingest
    order the merged sequence is identical to what an unsharded engine
    produces over the same corpus.  The columns are concatenated with
    their string tables merged (:meth:`ResultColumns.concat`); stage
    timings are summed (total work across shards) and sentence counters
    added.
    """
    timings = StageTimings()
    candidate = evaluated = 0
    parts = []
    for result in results:
        parts.append(result.columns)
        timings.accumulate(result.timings)
        candidate += result.candidate_sentences
        evaluated += result.evaluated_sentences
    return KokoResult.from_columns(
        ResultColumns.concat(parts), timings, candidate, evaluated
    )
