"""The stage-pipeline execution core of the KOKO engine.

The four phases of Figure 2 (Normalize → DPLI → Load → GSP/Extract →
Aggregate) are modelled as explicit stage objects that pass one
:class:`ExecutionContext` along.  Splitting the monolithic evaluation loop
this way buys three things:

* each stage is **independently testable** — construct a context, run one
  stage, inspect what it added;
* stage wall-clock is **timed exactly once**, as a by-product of running
  the stage (no dry re-runs just to fill in
  :class:`~repro.koko.results.StageTimings`);
* a pipeline can run against **any index/corpus slice** — the context
  carries the index set, the sid → sentence map and the documents
  explicitly, which is what lets :class:`~repro.service.KokoService` run
  one pass over the union of the shards a query has to compute
  (:meth:`~repro.indexing.sharding.ShardedIndexSet.view`).

:class:`~repro.koko.engine.KokoEngine` is now a thin façade that builds a
context from its own corpus/indexes and runs :data:`DEFAULT_STAGES`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import DeadlineExceeded
from ..indexing.columnar import distinct_sorted
from ..indexing.koko_index import KokoIndexSet
from ..indexing.sharding import ShardedIndexSet
from ..nlp.types import Document, Sentence, span_texts
from ..observability.tracing import Span
from .aggregate import (
    AggregationPlan,
    EvidenceAggregator,
    plan_aggregation,
)
from .ast import KokoQuery
from .bindings import BindingTable, extract_bindings
from .conditions import ConditionScorer, EvidenceResources
from .dpli import DpliResult, run_dpli
from .evaluator import SentenceEvaluator
from .normalize import NormalizedQuery, normalize
from .parser import parse_query
from .results import KokoResult, ResultColumns


@dataclass
class ExecutionContext:
    """Everything one query execution reads and produces.

    The *inputs* (query, documents, indexes, resources) are set up by
    the caller; each stage fills in its *intermediate* output (``parsed``/
    ``normalized``/``aggregation``, ``dpli``, ``documents``, ``bindings``) and accounts
    its own wall-clock in ``result.timings``.  ``finished`` short-circuits
    the remaining stages (set when DPLI proves the answer empty).
    """

    # --- inputs -------------------------------------------------------
    query: object  # str | KokoQuery | CompiledQuery
    #: the documents the indexes cover, in corpus order; LoadStage walks
    #: them (once) only when DPLI cannot prune to candidate sentences
    corpus: Iterable[Document]
    indexes: KokoIndexSet | ShardedIndexSet
    by_sid: Mapping[int, tuple[Document, Sentence]]
    resources: EvidenceResources
    use_gsp: bool = True
    threshold_override: float | None = None
    keep_all_scores: bool = False
    #: optional trace span; when set, every stage run becomes a child span
    trace: Span | None = None
    #: optional ``time.monotonic()`` deadline, checked before every stage
    deadline: float | None = None

    # --- intermediate state, filled in stage by stage -----------------
    parsed: KokoQuery | None = None
    normalized: NormalizedQuery | None = None
    aggregation: AggregationPlan | None = None
    dpli: DpliResult | None = None
    #: (document, candidate sentences) groups produced by LoadStage
    documents: list[tuple[Document, list[Sentence]]] = field(default_factory=list)
    #: one row per assignment, produced by ExtractStage
    bindings: BindingTable | None = None
    #: candidate sentences ExtractStage handed the per-sentence evaluator
    #: on the columnar path (span variables, unrooted tokens)
    fallback_sentences: int = 0
    finished: bool = False

    # --- output -------------------------------------------------------
    result: KokoResult = field(default_factory=KokoResult)


class Stage:
    """One step of the execution pipeline; mutates the context in place."""

    name = "stage"

    def run(self, ctx: ExecutionContext) -> None:  # pragma: no cover - interface
        """Do this stage's step over *ctx*, in place."""
        raise NotImplementedError


class NormalizeStage(Stage):
    """Parse (if needed) and normalise the query into the context.

    A pre-compiled query (anything carrying ``parsed`` and ``normalized``
    attributes, i.e. :class:`~repro.koko.engine.CompiledQuery`) skips the
    work entirely — the service's plan cache relies on that.
    """

    name = "normalize"

    def run(self, ctx: ExecutionContext) -> None:
        """Set ``ctx.parsed``, ``ctx.normalized`` and ``ctx.aggregation``."""
        started = time.perf_counter()
        query = ctx.query
        if hasattr(query, "parsed") and hasattr(query, "normalized"):
            ctx.parsed, ctx.normalized = query.parsed, query.normalized
            ctx.aggregation = getattr(query, "aggregation", None)
        else:
            ctx.parsed = parse_query(query) if isinstance(query, str) else query
            ctx.normalized = normalize(ctx.parsed)
        if ctx.aggregation is None:
            ctx.aggregation = plan_aggregation(ctx.parsed)
        ctx.result.timings.normalize += time.perf_counter() - started


class DpliStage(Stage):
    """Decompose paths, look up the indexes, prune to candidate sentences."""

    name = "dpli"

    def run(self, ctx: ExecutionContext) -> None:
        """Set ``ctx.dpli``; finish the pipeline when it proves the answer empty."""
        started = time.perf_counter()
        ctx.dpli = run_dpli(ctx.normalized, ctx.indexes)
        ctx.result.timings.dpli += time.perf_counter() - started
        if ctx.dpli.provably_empty:
            ctx.finished = True


class LoadStage(Stage):
    """Group candidate sentences by document ("LoadArticle" of the paper)."""

    name = "load"

    def run(self, ctx: ExecutionContext) -> None:
        """Set ``ctx.documents`` to the candidate sentences grouped by document."""
        started = time.perf_counter()
        candidate_sids = ctx.dpli.candidate_sids if ctx.dpli is not None else None
        if candidate_sids is None:
            ctx.documents = [
                (document, list(document.sentences)) for document in ctx.corpus
            ]
        else:
            grouped: dict[str, tuple[Document, list[Sentence]]] = {}
            for sid in candidate_sids.tolist():
                located = ctx.by_sid.get(sid)
                if located is None:
                    continue
                document, sentence = located
                entry = grouped.get(document.doc_id)
                if entry is None:
                    grouped[document.doc_id] = (document, [sentence])
                else:
                    entry[1].append(sentence)
            ctx.documents = list(grouped.values())
        ctx.result.timings.load_articles += time.perf_counter() - started


class ExtractStage(Stage):
    """Evaluate the extract clause over the candidate sentences (GSP + extract).

    The index set picks the path.  Over the columnar
    :class:`~repro.indexing.koko_index.KokoIndexSet` (or a
    :class:`~repro.indexing.sharding.ShardedIndexSet` view of several) the
    binding table is built from DPLI's blocks
    (:func:`~repro.koko.bindings.extract_bindings`), and only the sentences
    it hands the per-sentence evaluator are counted in
    ``ctx.fallback_sentences``.  Over the reference index set every
    sentence is evaluated by :class:`SentenceEvaluator` and its assignments
    are converted to the same table — that path is the oracle.

    Skip plans are generated inside the evaluator, which accounts the
    planning wall-clock itself (:attr:`SentenceEvaluator.gsp_seconds`);
    this stage subtracts it out so ``timings.gsp`` and ``timings.extract``
    partition the stage without any work running twice.
    """

    name = "extract"

    def run(self, ctx: ExecutionContext) -> None:
        """Set ``ctx.bindings`` (and ``ctx.fallback_sentences``)."""
        started = time.perf_counter()
        evaluator = SentenceEvaluator(ctx.normalized, use_gsp=ctx.use_gsp)
        result = ctx.result
        sentences = sum(len(group) for _, group in ctx.documents)
        if isinstance(ctx.indexes, (KokoIndexSet, ShardedIndexSet)):
            ctx.bindings, ctx.fallback_sentences = extract_bindings(
                ctx.normalized, ctx.dpli, ctx.indexes, ctx.documents, evaluator
            )
        else:
            evaluator.prepare_skip_plans(
                [sentence for _, group in ctx.documents for sentence in group], ctx.dpli
            )
            ctx.bindings = BindingTable.from_assignments(
                [
                    (
                        document,
                        [
                            (sentence, assignment)
                            for sentence in group
                            for assignment in evaluator.evaluate(sentence, ctx.dpli)
                        ],
                    )
                    for document, group in ctx.documents
                ]
            )
        result.candidate_sentences += sentences
        result.evaluated_sentences += sentences
        elapsed = time.perf_counter() - started
        result.timings.gsp += evaluator.gsp_seconds
        result.timings.extract += max(0.0, elapsed - evaluator.gsp_seconds)


class _Slot:
    """The distinct spans one slot binds.

    A slot that a clause scores or judges is numbered when collected:
    ``value[row]`` numbers the row's span, or is -1 where the row does not
    bind the slot's variable (or was dropped before the slot); ``first``
    is each span's first row.  :meth:`spell` then fills ``spelled`` (the
    distinct texts) and ``text_id`` (per span, its text's position
    there), and the clause's verdicts fill ``score``/``passed``, which end
    in one more entry, the verdict of an unbound row, so ``score[value]``
    needs no mask.  An output slot nothing judges is numbered only over
    the rows the stage keeps (:meth:`strings`).
    """

    __slots__ = ("column", "value", "first", "spelled", "text_id", "score", "passed")

    def __init__(self, column, value=None, first=None) -> None:
        self.column = column
        self.value = value
        self.first = first
        self.spelled: tuple[str, ...] | None = None
        self.text_id: np.ndarray | None = None

    def texts_at(self, table: BindingTable, rows) -> list[str]:
        """The text of the span bound at each of *rows* (indexes, or a slice)."""
        starts, ends = self.column[:2, rows].tolist()
        sentences = map(table.sentences.__getitem__, table.sid[rows].tolist())
        return span_texts(map(_words, sentences), starts, ends)

    def spell(self, table: BindingTable) -> None:
        """Build every span's text, once."""
        if self.spelled is None:
            self.spelled, self.text_id = _intern(self.texts_at(table, self.first))

    def strings(self, table: BindingTable, keys: "_SpanKeys", rows: np.ndarray):
        """The string table of *rows* (first-row order) and each row's index into it."""
        if self.spelled is None:  # numbered and spelled over these rows alone
            _, first, number = np.unique(
                keys.of(rows, self.column), return_index=True, return_inverse=True
            )
            order = np.argsort(first)
            texts = self.texts_at(table, rows[first[order]])
        else:
            text_id = self.text_id[self.value[rows]]
            _, first, number = np.unique(text_id, return_index=True, return_inverse=True)
            order = np.argsort(first)
            texts = list(map(self.spelled.__getitem__, text_id[first[order]].tolist()))
        spelled, text_id = _intern(texts)
        position = np.empty(len(order), np.int64)
        position[order] = text_id
        return spelled, position[number]


_words = attrgetter("words")


def _intern(texts: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct *texts* in first-seen order, and each text's position there."""
    spelled = tuple(dict.fromkeys(texts))
    position = dict(zip(spelled, range(len(spelled))))
    return spelled, np.fromiter(map(position.__getitem__, texts), np.int64, len(texts))


class AggregateStage(Stage):
    """Score each distinct candidate value once, then attach scores to rows.

    Evidence is a property of the candidate *value* (Section 4.4), so the
    stage works set-at-a-time over the distinct spans of the binding
    table, in three passes:

    1. **collect** — per scored slot (the variable of a satisfying
       clause; every output variable too when an excluding clause judges
       them), one ``np.unique`` over the packed ``(sentence, start, end)``
       keys of the rows that bind it numbers each row's span;
    2. **score** — each distinct span's text is built once, from its
       sentence's words, and each distinct text is lower-cased once; a
       clause whose conditions are all value-only is scored once per
       distinct spelling for the whole execution and never looks at a
       document; a clause with a document-reading condition is scored
       once per (document, spelling), over evidence built lazily per
       document; the verdicts reach the spans, then the rows, by fancy
       indexing;
    3. **emit** — per output, the distinct texts of the kept rows become
       its string table in first-row order and the rows' positions in it
       its index column (no per-row string is built); an output nothing
       judged is numbered and spelled here, over the kept rows alone.

    Within a document, values that differ only in case share one score:
    the first-seen spelling is the one handed to the scorer (``matches``
    is case-sensitive, so which spelling that is matters).  The excluding
    clause has no such rule and sees every distinct spelling.  A row that
    leaves an output variable unbound is dropped from that slot on, after
    the earlier slots have seen its values.
    """

    name = "aggregate"

    def run(self, ctx: ExecutionContext) -> None:
        """Fill ``ctx.result.columns`` from ``ctx.bindings``."""
        started = time.perf_counter()
        plan = ctx.aggregation
        table = ctx.bindings
        slots, alive, keys = self._collect(table, plan)
        aggregator = EvidenceAggregator(ConditionScorer(ctx.resources))
        self._score(aggregator, table, plan, slots, ctx.threshold_override)
        keep = alive & ~self._exclusions(aggregator, table, plan, slots)
        self._emit(ctx, table, plan, slots, keys, keep)
        ctx.result.timings.satisfying += time.perf_counter() - started

    @staticmethod
    def _collect(table: BindingTable, plan: AggregationPlan):
        """Pass 1: one :class:`_Slot` per slot, numbered where a clause needs it.

        Also returns the rows that bind every output variable and the
        table's span keys.
        """
        rows_total = len(table)
        alive = np.ones(rows_total, bool)
        keys = _SpanKeys(table, plan.variables) if rows_total else None
        slots: list[_Slot] = []
        for slot, (variable, clause) in enumerate(zip(plan.variables, plan.clauses)):
            output = slot < plan.outputs
            column = table.columns.get(variable)
            if column is None:
                seen = np.zeros(rows_total, bool)
            else:
                seen = alive & (column[0] >= 0)
            if output:
                alive = seen
            if clause is None and plan.excluding is None:
                slots.append(_Slot(column))  # an output numbered when emitted
                continue
            value = np.full(rows_total, -1, np.int64)
            first = rows = np.flatnonzero(seen)
            if len(rows):
                _, first, value[rows] = np.unique(
                    keys.of(rows, column), return_index=True, return_inverse=True
                )
                first = rows[first]
            slots.append(_Slot(column, value, first))
        return slots, alive, keys

    @staticmethod
    def _score(aggregator, table, plan: AggregationPlan, slots, threshold_override):
        """Pass 2: a ``(score, passed)`` verdict per distinct span of each scored slot.

        A span takes the verdict of its document's first-seen spelling of
        its text (case-insensitively).
        """
        documents = table.documents
        for clause, slot in zip(plan.clauses, slots):
            if clause is None:
                continue
            slot.score = np.zeros(len(slot.first) + 1)
            slot.passed = np.ones(len(slot.first) + 1, bool)
            if not len(slot.first):
                continue
            slot.spell(table)
            lowered, lowered_id = _intern([text.lower() for text in slot.spelled])
            doc = table.doc[slot.first]
            sighted = np.argsort(slot.first)  # spans in first-sighting order
            _, pick, group = np.unique(
                (doc * len(lowered) + lowered_id[slot.text_id])[sighted],
                return_index=True,
                return_inverse=True,
            )
            # per (document, lowered text): the text id and document of its first spelling
            spelling = slot.text_id[sighted[pick]].tolist()
            if clause.reads_document:
                outcomes = [
                    aggregator.score_clause(
                        clause, slot.spelled[text], documents[index], threshold_override
                    )
                    for text, index in zip(spelling, doc[sighted[pick]].tolist())
                ]
            else:
                memo = {
                    text: aggregator.score_clause(
                        clause, slot.spelled[text], None, threshold_override
                    )
                    for text in dict.fromkeys(spelling)
                }
                outcomes = list(map(memo.__getitem__, spelling))
            of_span = np.empty(len(sighted), np.int64)
            of_span[sighted] = group
            slot.score[:-1] = np.array([outcome.score for outcome in outcomes])[of_span]
            slot.passed[:-1] = np.array([outcome.passed for outcome in outcomes])[of_span]

    @staticmethod
    def _exclusions(aggregator, table, plan: AggregationPlan, slots):
        """Pass 2, excluding clause: the rows whose output texts it removes."""
        excluded = np.zeros(len(table), bool)
        excluding = plan.excluding
        if excluding is None:
            return excluded
        memo: dict = {}
        for slot in slots[: plan.outputs]:
            if not len(slot.first):
                continue
            slot.spell(table)
            flags = np.zeros(len(slot.first) + 1, bool)  # the last: unbound
            docs = table.doc[slot.first].tolist()
            for span, (text, doc) in enumerate(zip(slot.text_id.tolist(), docs)):
                text = slot.spelled[text]
                key = (doc, text) if excluding.reads_document else text
                if key not in memo:
                    memo[key] = aggregator.excludes(excluding, text, table.documents[doc])
                flags[span] = memo[key]
            excluded |= flags[slot.value]
        return excluded

    @staticmethod
    def _emit(ctx, table, plan: AggregationPlan, slots, keys, keep):
        """Pass 3: the result's columns, rows in candidate order.

        A row is kept when it binds every output variable, every score it
        carries passed (or ``keep_all_scores``) and the excluding clause
        removes none of its output texts.  A row that leaves a non-output
        scored variable unbound carries no score for it: absent, and never
        failing.
        """
        scored = [slot for slot, clause in zip(slots, plan.clauses) if clause is not None]
        if not ctx.keep_all_scores:
            for slot in scored:
                keep &= slot.passed[slot.value]
        rows = np.flatnonzero(keep)
        if not len(rows):
            ctx.result.columns = ResultColumns()
            return
        doc = table.doc[rows]  # ascending: rows are grouped by document
        docs = distinct_sorted(doc)
        outputs = [slot.strings(table, keys, rows) for slot in slots[: plan.outputs]]
        ctx.result.columns = ResultColumns.from_tables(
            [table.documents[index].doc_id for index in docs.tolist()],
            np.searchsorted(docs, doc),
            table.sid[rows],
            plan.variables[: plan.outputs],
            [strings for strings, _ in outputs],
            [positions for _, positions in outputs],
            [v for v, clause in zip(plan.variables, plan.clauses) if clause is not None],
            [slot.score[slot.value[rows]] for slot in scored],
            [slot.value[rows] >= 0 for slot in scored],
        )


class _SpanKeys:
    """Packs a row's ``(sentence, start, end)`` into one sortable key.

    Rows of one sentence are adjacent, so a running sentence number stands
    in for the sid.  Keys are ``int64`` bit fields when the numbers fit,
    records otherwise.
    """

    def __init__(self, table: BindingTable, variables) -> None:
        sid = table.sid
        self.sentence = np.zeros(len(sid), np.int64)
        np.cumsum(sid[1:] != sid[:-1], out=self.sentence[1:])
        # a bound row has start <= end + 1, so both key fields stay below max(end) + 2
        bounds = [int(table.columns[v][1].max()) + 2 for v in variables if v in table.columns]
        self.bits = max(bounds, default=0).bit_length()
        self.packed = int(self.sentence[-1]).bit_length() + 2 * self.bits <= 62
        if self.packed:
            self.sentence <<= 2 * self.bits

    def of(self, rows, column: np.ndarray) -> np.ndarray:
        """The keys of *rows* (an index array or a slice) of *column*."""
        sentence, start, end = self.sentence[rows], column[0, rows], column[1, rows] + 1
        if self.packed:
            return sentence | (start << self.bits) | end
        keys = np.empty(len(sentence), [("sentence", "i8"), ("start", "i8"), ("end", "i8")])
        keys["sentence"], keys["start"], keys["end"] = sentence, start, end
        return keys


#: The engine's canonical stage order (Figure 2).
DEFAULT_STAGES: tuple[Stage, ...] = (
    NormalizeStage(),
    DpliStage(),
    LoadStage(),
    ExtractStage(),
    AggregateStage(),
)


class StagePipeline:
    """Run stages in order over one context, honouring short-circuits.

    With ``ctx.deadline`` set, the deadline is checked before every stage:
    a stage that has started finishes, but once the caller's budget is
    spent no further stage starts (:class:`~repro.errors.DeadlineExceeded`).
    """

    def __init__(self, stages: Sequence[Stage] = DEFAULT_STAGES) -> None:
        self.stages = tuple(stages)

    def run(self, ctx: ExecutionContext) -> KokoResult:
        """Run every stage over *ctx* until one finishes it; return its result."""
        trace, deadline = ctx.trace, ctx.deadline
        for stage in self.stages:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded("query deadline expired")
            if trace is None:
                stage.run(ctx)  # untraced hot path: no span allocations at all
            else:
                with trace.span(stage.name):
                    stage.run(ctx)
            if ctx.finished:
                break
        return ctx.result
