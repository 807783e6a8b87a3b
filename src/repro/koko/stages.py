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
  carries the index set, the sid → sentence map and the corpus explicitly,
  which is what lets :class:`~repro.service.KokoService` execute the same
  query per shard and merge the results.

:class:`~repro.koko.engine.KokoEngine` is now a thin façade that builds a
context from its own corpus/indexes and runs :data:`DEFAULT_STAGES`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import Mapping, Sequence

from ..indexing.koko_index import KokoIndexSet
from ..nlp.types import Corpus, Document, Sentence
from ..observability.tracing import Span
from .aggregate import (
    AggregationPlan,
    ClausePlan,
    EvidenceAggregator,
    plan_aggregation,
)
from .ast import KokoQuery
from .conditions import ConditionScorer, EvidenceResources
from .dpli import DpliResult, run_dpli
from .evaluator import Assignment, SentenceEvaluator
from .normalize import NormalizedQuery, normalize
from .parser import parse_query
from .results import KokoResult, ResultColumns


@dataclass
class ExecutionContext:
    """Everything one query execution reads and produces.

    The *inputs* (query, corpus slice, indexes, resources) are set up by
    the caller; each stage fills in its *intermediate* output (``parsed``/
    ``normalized``/``aggregation``, ``dpli``, ``documents``, ``candidates``) and accounts
    its own wall-clock in ``result.timings``.  ``finished`` short-circuits
    the remaining stages (set when DPLI proves the answer empty).
    """

    # --- inputs -------------------------------------------------------
    query: object  # str | KokoQuery | CompiledQuery
    corpus: Corpus
    indexes: KokoIndexSet
    by_sid: Mapping[int, tuple[Document, Sentence]]
    resources: EvidenceResources
    use_gsp: bool = True
    threshold_override: float | None = None
    keep_all_scores: bool = False
    #: optional trace span; when set, every stage run becomes a child span
    trace: Span | None = None

    # --- intermediate state, filled in stage by stage -----------------
    parsed: KokoQuery | None = None
    normalized: NormalizedQuery | None = None
    aggregation: AggregationPlan | None = None
    dpli: DpliResult | None = None
    #: (document, candidate sentences) groups produced by LoadStage
    documents: list[tuple[Document, list[Sentence]]] = field(default_factory=list)
    #: (document, [(sentence, assignment), ...]) groups produced by ExtractStage
    candidates: list[tuple[Document, list[tuple[Sentence, Assignment]]]] = field(
        default_factory=list
    )
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
            for sid in sorted(candidate_sids):
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
    """Evaluate the extract clause per candidate sentence (GSP + extract).

    The skip plan is generated once per sentence *inside* the evaluator,
    which accounts the planning wall-clock itself
    (:attr:`SentenceEvaluator.gsp_seconds`); this stage subtracts it out so
    ``timings.gsp`` and ``timings.extract`` partition the loop without any
    work running twice.  When DPLI carries sorted sid columns (columnar
    indexes), all skip plans are pre-generated in one vectorized batch
    before the sentence loop starts.
    """

    name = "extract"

    def run(self, ctx: ExecutionContext) -> None:
        started = time.perf_counter()
        evaluator = SentenceEvaluator(ctx.normalized, use_gsp=ctx.use_gsp)
        if ctx.use_gsp and ctx.dpli is not None and ctx.documents:
            evaluator.prepare_skip_plans(
                [sentence for _, sentences in ctx.documents for sentence in sentences],
                ctx.dpli,
            )
        result = ctx.result
        candidates: list[tuple[Document, list[tuple[Sentence, Assignment]]]] = []
        for document, sentences in ctx.documents:
            candidate_tuples: list[tuple[Sentence, Assignment]] = []
            for sentence in sentences:
                result.candidate_sentences += 1
                assignments = evaluator.evaluate(sentence, ctx.dpli)
                result.evaluated_sentences += 1
                for assignment in assignments:
                    candidate_tuples.append((sentence, assignment))
            candidates.append((document, candidate_tuples))
        ctx.candidates = candidates
        elapsed = time.perf_counter() - started
        result.timings.gsp += evaluator.gsp_seconds
        result.timings.extract += max(0.0, elapsed - evaluator.gsp_seconds)


class AggregateStage(Stage):
    """Score each distinct candidate value once, then attach scores to tuples.

    Evidence is a property of the candidate *value* (Section 4.4), so the
    stage works set-at-a-time, in three passes over one execution:

    1. **collect** — walk the candidate assignments once, materialise the
       text of each distinct ``(sid, start, end)`` binding once, and note,
       per document and scored variable, the distinct values to score;
    2. **score** — a clause whose conditions are all value-only is scored
       once per distinct value for the whole execution and never looks at
       a document; a clause with a document-reading condition is scored
       once per (document, value), over evidence built lazily per document;
    3. **emit** — fill the result's columns by dictionary lookup, in
       candidate order (no per-tuple object is built).

    Within a document, values that differ only in case share one score:
    the first-seen spelling is the one handed to the scorer (``matches``
    is case-sensitive, so which spelling that is matters).  The excluding
    clause has no such rule and sees every distinct spelling.
    """

    name = "aggregate"

    def run(self, ctx: ExecutionContext) -> None:
        started = time.perf_counter()
        plan = ctx.aggregation
        documents = [document for document, _ in ctx.candidates]
        rows, seen, spellings = self._collect(ctx.candidates, plan)
        aggregator = EvidenceAggregator(ConditionScorer(ctx.resources))
        verdicts = self._score(aggregator, documents, plan, seen, ctx.threshold_override)
        excluded = self._exclusions(aggregator, documents, plan.excluding, spellings)
        self._emit(ctx, plan, documents, rows, verdicts, excluded)
        ctx.result.timings.satisfying += time.perf_counter() - started

    @staticmethod
    def _collect(candidates, plan: AggregationPlan):
        """Pass 1: binding texts, rows, and the distinct values per document.

        Works a document at a time and, within it, a slot (column) at a
        time.  Returns, each per document: ``rows`` — ``(sids, pairs,
        keys)`` for the assignments that bind all output variables, where
        ``pairs[slot][row]`` is ``(variable, text)`` for an output slot and
        ``keys[slot][row]`` is ``text.lower()`` for a scored slot (``None``
        when a non-output variable is unbound); ``seen`` — per slot,
        lower-cased value → first-seen spelling; ``spellings`` — the
        distinct output texts the excluding clause must judge.
        """
        texts: dict[tuple[int, int, int], str] = {}
        rows, seen, spellings = [], [], []
        for _, candidate_tuples in candidates:
            sentences = [sentence for sentence, _ in candidate_tuples]
            assignments = [assignment for _, assignment in candidate_tuples]
            pairs: list[list] = []
            keys: list[list] = []
            doc_seen: list[dict[str, str]] = []
            doc_spellings: dict[str, None] = {}
            for slot, (variable, clause) in enumerate(zip(plan.variables, plan.clauses)):
                is_output = slot < plan.outputs
                bindings = [assignment.get(variable) for assignment in assignments]
                if is_output and None in bindings:
                    # not full output tuples: dropped from this slot on,
                    # after the earlier slots have seen their values
                    bound = [binding is not None for binding in bindings]
                    sentences, assignments, bindings = (
                        list(compress(column, bound))
                        for column in (sentences, assignments, bindings)
                    )
                    pairs = [list(compress(column, bound)) for column in pairs]
                    keys = [list(compress(column, bound)) for column in keys]
                # Distinct bindings in first-sighting order.  The evaluator
                # hands one Binding object to every assignment of a sentence
                # that uses it, so identity finds the repeats at C speed (an
                # equal binding under another identity is registered again,
                # which changes nothing).
                idents = list(map(id, bindings))
                pair_of: dict[int, tuple[str, str] | None] = {id(None): None}
                key_of: dict[int, str | None] = {id(None): None}
                first_seen: dict[str, str] = {}
                for ident, (binding, sentence) in dict(
                    zip(idents, zip(bindings, sentences))
                ).items():
                    if binding is None:
                        continue
                    span = (sentence.sid, binding.start, binding.end)
                    text = texts.get(span)
                    if text is None:
                        text = texts[span] = sentence.span_text(binding.start, binding.end)
                    if is_output:
                        pair_of[ident] = (variable, text)
                        if plan.excluding is not None:
                            doc_spellings[text] = None
                    if clause is not None:
                        key_of[ident] = lowered = text.lower()
                        first_seen.setdefault(lowered, text)
                if is_output:
                    pairs.append([pair_of[ident] for ident in idents])
                # an unscored slot keeps an empty column so slots stay aligned
                keys.append([key_of[ident] for ident in idents] if clause is not None else [])
                doc_seen.append(first_seen)
            rows.append(([sentence.sid for sentence in sentences], pairs, keys))
            seen.append(doc_seen)
            spellings.append(doc_spellings)
        return rows, seen, spellings

    @staticmethod
    def _score(aggregator, documents, plan: AggregationPlan, seen, threshold_override):
        """Pass 2: per document and slot, lower-cased value → verdict.

        A verdict is ``(score, passed)``.
        """
        #: value-only clauses: spelling → verdict, for every document
        shared: list[dict] = [{} for _ in plan.clauses]
        verdicts = []
        for document, doc_seen in zip(documents, seen):
            doc_verdicts = []
            for clause, first_seen, memo in zip(plan.clauses, doc_seen, shared):
                if clause is not None and clause.reads_document:
                    memo = {}  # this clause's scores hold for this document only
                scored = {}
                for lowered, text in first_seen.items():
                    verdict = memo.get(text)
                    if verdict is None:
                        outcome = aggregator.score_clause(
                            clause, text, document, threshold_override
                        )
                        verdict = memo[text] = (outcome.score, outcome.passed)
                    scored[lowered] = verdict
                doc_verdicts.append(scored)
            verdicts.append(doc_verdicts)
        return verdicts

    @staticmethod
    def _exclusions(aggregator, documents, excluding: ClausePlan | None, spellings):
        """Pass 2, excluding clause: per document, the texts it removes."""
        if excluding is None:
            return [frozenset()] * len(documents)
        shared: dict[str, bool] = {}
        excluded = []
        for document, doc_spellings in zip(documents, spellings):
            memo = {} if excluding.reads_document else shared
            for text in doc_spellings:
                if text not in memo:
                    memo[text] = aggregator.excludes(excluding, text, document)
            excluded.append(frozenset(t for t in doc_spellings if memo[t]))
        return excluded

    @staticmethod
    def _emit(ctx, plan: AggregationPlan, documents, rows, verdicts, excluded):
        """Pass 3: the result's columns, rows in candidate order, scores looked up.

        A row is kept when every score it carries passed (or
        ``keep_all_scores``) and the excluding clause removes none of its
        output texts.  An unbound non-output variable has key ``None``, so
        the row carries no score for it: absent, and never failing.
        """
        outputs = plan.outputs
        scored_slots = [s for s, clause in enumerate(plan.clauses) if clause is not None]
        keep_all = ctx.keep_all_scores
        doc_ids: list[str] = []
        doc_column: list[int] = []
        sid_column: list[int] = []
        texts: list[list[str]] = [[] for _ in range(outputs)]
        scores: list[list[float]] = [[] for _ in scored_slots]
        present: list[list[bool]] = [[] for _ in scored_slots]
        for document, (sids, pairs, keys), doc_verdicts, doc_excluded in zip(
            documents, rows, verdicts, excluded
        ):
            if not sids:
                continue  # no candidate of this document binds every output
            keep = None  # None: every row
            if not keep_all and scored_slots:
                passes = [
                    map(
                        {k: v[1] for k, v in doc_verdicts[slot].items()}.get,
                        keys[slot],
                        repeat(True),
                    )
                    for slot in scored_slots
                ]
                keep = list(map(all, zip(*passes)))
            if doc_excluded:
                keep = [
                    (keep is None or keep[row])
                    and not any(pair[1] in doc_excluded for pair in row_pairs)
                    for row, row_pairs in enumerate(zip(*pairs))
                ]
            row_sids = _kept(sids, keep)
            if not row_sids:
                continue
            doc_column.extend(repeat(len(doc_ids), len(row_sids)))
            doc_ids.append(document.doc_id)
            sid_column.extend(row_sids)
            for slot in range(outputs):
                texts[slot].extend(map(itemgetter(1), _kept(pairs[slot], keep)))
            for j, slot in enumerate(scored_slots):
                row_keys = _kept(keys[slot], keep)
                score_of = {k: v[0] for k, v in doc_verdicts[slot].items()}
                scores[j].extend(map(score_of.get, row_keys, repeat(0.0)))
                present[j].extend(map(is_not, row_keys, repeat(None)))
        ctx.result.columns = ResultColumns.build(
            doc_ids,
            doc_column,
            sid_column,
            plan.variables[:outputs],
            texts,
            [plan.variables[slot] for slot in scored_slots],
            scores,
            present,
        )


def _kept(column: list, keep: list[bool] | None) -> list:
    """The entries of *column* that *keep* selects (all of them for None)."""
    return column if keep is None else list(compress(column, keep))


#: The engine's canonical stage order (Figure 2).
DEFAULT_STAGES: tuple[Stage, ...] = (
    NormalizeStage(),
    DpliStage(),
    LoadStage(),
    ExtractStage(),
    AggregateStage(),
)


class StagePipeline:
    """Run stages in order over one context, honouring short-circuits."""

    def __init__(self, stages: Sequence[Stage] = DEFAULT_STAGES) -> None:
        self.stages = tuple(stages)

    def run(self, ctx: ExecutionContext) -> KokoResult:
        trace = ctx.trace
        if trace is None:
            # untraced hot path: no span allocations at all
            for stage in self.stages:
                stage.run(ctx)
                if ctx.finished:
                    break
            return ctx.result
        for stage in self.stages:
            with trace.span(stage.name):
                stage.run(ctx)
            if ctx.finished:
                break
        return ctx.result
