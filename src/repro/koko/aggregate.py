"""Evidence aggregation over the document (Section 4.4).

For every output variable with a ``satisfying`` clause, the score of a
candidate value ``e`` is the weighted sum of the per-condition confidences::

    score(e) = w1 * m1(e) + ... + wn * mn(e)

computed over the *whole document* (so that partial evidence from different
sentences accumulates).  A candidate survives when every satisfying clause
of its variables reaches its threshold, and the excluding clause does not
fire.

The score is a property of the candidate *value*, not of the tuple that
carries it, so the engine computes it once per distinct value and attaches
it to every tuple with that value (``AggregateStage`` in ``stages.py``).
:func:`plan_aggregation` decides, once per query, how widely a score may be
shared: a clause whose conditions are all value-only has one score per
value whatever the document; a clause with a document-reading condition has
one per (document, value).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nlp.types import Document
from .ast import ExcludingClause, KokoQuery, SatisfyingClause
from .conditions import (
    ConditionScorer,
    DocumentEvidence,
    PreparedCondition,
    prepare_condition,
)


@dataclass
class AggregationOutcome:
    """The result of scoring one candidate value for one variable."""

    value: str
    score: float
    threshold: float
    passed: bool
    condition_scores: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class ClausePlan:
    """A satisfying clause (or the excluding clause) prepared for scoring."""

    variable: str
    conditions: tuple[PreparedCondition, ...]
    threshold: float
    #: False when every condition is value-only: one score per value then
    #: serves every document, and no occurrence is ever searched for
    reads_document: bool


@dataclass(frozen=True)
class AggregationPlan:
    """What the aggregate stage needs of a query, decided at compile time.

    A candidate tuple has one *slot* per position that carries a value to
    score or to output: the output variables first, then one per
    satisfying clause over a non-output variable, in query order.
    """

    #: the first ``outputs`` slots are the output tuple
    outputs: int
    #: the variable bound at each slot
    variables: tuple[str, ...]
    #: the satisfying clause scored at each slot (``None``: an output
    #: variable that has none)
    clauses: tuple[ClausePlan | None, ...]
    excluding: ClausePlan | None


def _plan(variable: str, conditions, threshold: float) -> ClausePlan:
    conditions = tuple(conditions)
    return ClausePlan(
        variable=variable,
        conditions=conditions,
        threshold=threshold,
        reads_document=any(c.reads_document for c in conditions),
    )


def plan_clause(clause: SatisfyingClause) -> ClausePlan:
    """Prepare one satisfying clause."""
    return _plan(
        clause.variable,
        (prepare_condition(w.condition, w.weight) for w in clause.conditions),
        clause.threshold,
    )


def plan_excluding(clause: ExcludingClause) -> ClausePlan:
    """Prepare the excluding clause (unweighted, no threshold)."""
    return _plan("", (prepare_condition(c) for c in clause.conditions), 0.0)


def plan_aggregation(query: KokoQuery) -> AggregationPlan:
    """Prepare every clause of *query* for the aggregate stage.

    A variable has one satisfying clause: when a query states several for
    the same variable the first one scores it.
    """
    by_variable: dict[str, ClausePlan] = {}
    for clause in query.satisfying:
        if clause.variable not in by_variable:
            by_variable[clause.variable] = plan_clause(clause)
    output_names = tuple(query.output_names())
    extra = tuple(
        clause.variable for clause in query.satisfying if clause.variable not in output_names
    )
    variables = output_names + extra
    return AggregationPlan(
        outputs=len(output_names),
        variables=variables,
        clauses=tuple(by_variable.get(variable) for variable in variables),
        excluding=plan_excluding(query.excluding) if query.excluding is not None else None,
    )


class EvidenceAggregator:
    """Scores candidate values against satisfying and excluding clauses.

    One aggregator serves one query execution: the per-document evidence
    it builds (lower-cased tokens, occurrences, clause segmentations) is
    dropped with it.
    """

    def __init__(self, scorer: ConditionScorer) -> None:
        self.scorer = scorer
        self._evidence: dict[str, DocumentEvidence] = {}

    def evidence(self, document: Document) -> DocumentEvidence:
        """The lazily built evidence cache of *document*."""
        evidence = self._evidence.get(document.doc_id)
        if evidence is None:
            evidence = self._evidence[document.doc_id] = DocumentEvidence(document)
        return evidence

    def _read(self, plan: ClausePlan, value: str, document: Document | None):
        """The evidence and occurrences of *value*, or nothing for a value-only clause."""
        if not plan.reads_document:
            return None, None
        evidence = self.evidence(document)
        return evidence, evidence.occurrences(value)

    # ------------------------------------------------------------------
    # satisfying
    # ------------------------------------------------------------------
    def score_clause(
        self,
        plan: ClausePlan,
        value: str,
        document: Document | None,
        threshold_override: float | None = None,
    ) -> AggregationOutcome:
        """Aggregate the clause's weighted conditions for *value* over *document*.

        *document* is only looked at when ``plan.reads_document``.
        """
        evidence, occurrences = self._read(plan, value, document)
        condition_scores: list[float] = []
        total = 0.0
        for prepared in plan.conditions:
            confidence = self.scorer.score_prepared(prepared, value, occurrences, evidence)
            condition_scores.append(confidence)
            total += prepared.weight * confidence
        threshold = plan.threshold if threshold_override is None else threshold_override
        return AggregationOutcome(
            value=value,
            score=total,
            threshold=threshold,
            passed=total >= threshold,
            condition_scores=condition_scores,
        )

    def evaluate_clause(
        self,
        clause: SatisfyingClause,
        value: str,
        document: Document,
        threshold_override: float | None = None,
    ) -> AggregationOutcome:
        """:meth:`score_clause` for a clause that has not been prepared."""
        return self.score_clause(plan_clause(clause), value, document, threshold_override)

    # ------------------------------------------------------------------
    # excluding
    # ------------------------------------------------------------------
    def excludes(self, plan: ClausePlan, value: str, document: Document | None) -> bool:
        """True when any excluding condition holds for *value* in *document*."""
        evidence, occurrences = self._read(plan, value, document)
        return any(
            self.scorer.score_prepared(prepared, value, occurrences, evidence) > 0.0
            for prepared in plan.conditions
        )

    def is_excluded(
        self, clause: ExcludingClause | None, value: str, document: Document
    ) -> bool:
        """:meth:`excludes` for a clause that has not been prepared."""
        if clause is None:
            return False
        return self.excludes(plan_excluding(clause), value, document)
