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
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import DeadlineExceeded
from ..indexing.columnar import distinct_sorted
from ..indexing.koko_index import KokoIndexSet
from ..indexing.sharding import ShardedIndexSet
from ..nlp.types import Document, Sentence
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
        raise NotImplementedError


class NormalizeStage(Stage):
    """Parse (if needed) and normalise the query into the context.

    A pre-compiled query (anything carrying ``parsed`` and ``normalized``
    attributes, i.e. :class:`~repro.koko.engine.CompiledQuery`) skips the
    work entirely — the service's plan cache relies on that.
    """

    name = "normalize"

    def run(self, ctx: ExecutionContext) -> None:
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
        started = time.perf_counter()
        ctx.dpli = run_dpli(ctx.normalized, ctx.indexes)
        ctx.result.timings.dpli += time.perf_counter() - started
        if ctx.dpli.provably_empty:
            ctx.finished = True


class LoadStage(Stage):
    """Group candidate sentences by document ("LoadArticle" of the paper)."""

    name = "load"

    def run(self, ctx: ExecutionContext) -> None:
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
    """The distinct values one scored (or excluding-judged) slot binds.

    ``value[row]`` numbers the row's value, or is -1 where the row does
    not bind the slot's variable (or was dropped before the slot).  Per
    value, ``sids``/``starts``/``ends``/``docs`` locate its first row and
    ``sighted`` lists the values in first-sighting order.  The per-value
    arrays ``score``/``passed`` end in one more entry, the verdict of an
    unbound row, so ``score[value]`` needs no mask.
    """

    __slots__ = ("value", "sids", "starts", "ends", "docs", "sighted", "score", "passed")

    def __init__(self, value, first, table: BindingTable, column) -> None:
        self.value = value
        self.sids = table.sid[first].tolist()
        self.starts, self.ends = column[:2, first].tolist() if column is not None else ([], [])
        self.docs = table.doc[first].tolist()
        self.sighted = np.argsort(first).tolist()
        self.score = np.zeros(len(first) + 1)
        self.passed = np.ones(len(first) + 1, bool)

    def text(self, texts: "_Texts", value: int) -> str:
        return texts.of(self.sids[value], self.starts[value], self.ends[value])


class _Texts:
    """Span texts of one execution, each built once."""

    def __init__(self, sentences) -> None:
        self._sentences = sentences
        self._texts: dict[tuple[int, int, int], str] = {}

    def of(self, sid: int, start: int, end: int) -> str:
        span = (sid, start, end)
        text = self._texts.get(span)
        if text is None:
            text = self._texts[span] = self._sentences[sid].span_text(start, end)
        return text


class AggregateStage(Stage):
    """Score each distinct candidate value once, then attach scores to rows.

    Evidence is a property of the candidate *value* (Section 4.4), so the
    stage works set-at-a-time over the binding table, in three passes:

    1. **collect** — per scored slot (the variable of a satisfying
       clause; every output variable too when an excluding clause judges
       them), one ``np.unique`` over the packed ``(sentence, start, end)``
       keys of the rows that bind it numbers each row's value;
    2. **score** — a clause whose conditions are all value-only is scored
       once per distinct value for the whole execution and never looks at
       a document; a clause with a document-reading condition is scored
       once per (document, value), over evidence built lazily per document;
    3. **emit** — fancy-index the verdicts through the rows' values and
       fill the result's columns in candidate order (no per-tuple object
       is built).

    The text of a distinct span is built once, when first needed.  Within
    a document, values that differ only in case share one score: the
    first-seen spelling is the one handed to the scorer (``matches`` is
    case-sensitive, so which spelling that is matters).  The excluding
    clause has no such rule and sees every distinct spelling.  A row that
    leaves an output variable unbound is dropped from that slot on, after
    the earlier slots have seen its values.
    """

    name = "aggregate"

    def run(self, ctx: ExecutionContext) -> None:
        started = time.perf_counter()
        plan = ctx.aggregation
        table = ctx.bindings
        texts = _Texts(table.sentences)
        slots, alive = self._collect(table, plan)
        aggregator = EvidenceAggregator(ConditionScorer(ctx.resources))
        self._score(aggregator, table, plan, slots, ctx.threshold_override, texts)
        keep = alive & ~self._exclusions(aggregator, table, plan, slots, texts)
        self._emit(ctx, table, plan, slots, keep, texts)
        ctx.result.timings.satisfying += time.perf_counter() - started

    @staticmethod
    def _collect(table: BindingTable, plan: AggregationPlan):
        """Pass 1: the values of every slot that is scored or judged.

        Returns one :class:`_Slot` per such slot (``None`` for an output
        slot nothing judges) and the rows that bind every output variable.
        """
        rows_total = len(table)
        alive = np.ones(rows_total, bool)
        keys = None
        slots: list[_Slot | None] = []
        for slot, (variable, clause) in enumerate(zip(plan.variables, plan.clauses)):
            output = slot < plan.outputs
            column = table.columns.get(variable)
            if column is None:
                seen = np.zeros(rows_total, bool)
            else:
                seen = alive & (column[0] >= 0)
            if output:
                alive = seen
            if clause is None and (not output or plan.excluding is None):
                slots.append(None)
                continue
            value = np.full(rows_total, -1, np.int64)
            first = rows = np.flatnonzero(seen)
            if len(rows):
                if keys is None:
                    keys = _SpanKeys(table, plan.variables)
                _, first, value[rows] = np.unique(
                    keys.of(rows, column), return_index=True, return_inverse=True
                )
                first = rows[first]
            slots.append(_Slot(value, first, table, column))
        return slots, alive

    @staticmethod
    def _score(aggregator, table, plan: AggregationPlan, slots, threshold_override, texts):
        """Pass 2: a ``(score, passed)`` verdict per distinct value of each scored slot.

        A value takes the verdict of its document's first-seen spelling of
        it (case-insensitively).
        """
        for clause, slot in zip(plan.clauses, slots):
            if clause is None:
                continue
            first_seen: dict[tuple[int, str], str] = {}
            memo: dict = {}
            for value in slot.sighted:
                text, doc = slot.text(texts, value), slot.docs[value]
                spelling = first_seen.setdefault((doc, text.lower()), text)
                key = (doc, spelling) if clause.reads_document else spelling
                verdict = memo.get(key)
                if verdict is None:
                    outcome = aggregator.score_clause(
                        clause, spelling, table.documents[doc], threshold_override
                    )
                    verdict = memo[key] = (outcome.score, outcome.passed)
                slot.score[value], slot.passed[value] = verdict

    @staticmethod
    def _exclusions(aggregator, table, plan: AggregationPlan, slots, texts):
        """Pass 2, excluding clause: the rows whose output texts it removes."""
        excluded = np.zeros(len(table), bool)
        excluding = plan.excluding
        if excluding is None:
            return excluded
        memo: dict = {}
        for slot in slots[: plan.outputs]:
            flags = np.zeros(len(slot.sids) + 1, bool)  # the last: unbound
            for value in slot.sighted:
                text, doc = slot.text(texts, value), slot.docs[value]
                key = (doc, text) if excluding.reads_document else text
                if key not in memo:
                    memo[key] = aggregator.excludes(excluding, text, table.documents[doc])
                flags[value] = memo[key]
            excluded |= flags[slot.value]
        return excluded

    @staticmethod
    def _emit(ctx, table, plan: AggregationPlan, slots, keep, texts):
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
        sids = table.sid[rows].tolist()
        outputs = plan.variables[: plan.outputs]
        ctx.result.columns = ResultColumns.build(
            [table.documents[index].doc_id for index in docs.tolist()],
            np.searchsorted(docs, doc).tolist(),
            sids,
            outputs,
            [
                list(map(texts.of, sids, *table.columns[variable][:2, rows].tolist()))
                for variable in outputs
            ],
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
        bounds = [int(table.columns[v][:2].max()) + 1 for v in variables if v in table.columns]
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
