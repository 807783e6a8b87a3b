"""The KOKO query evaluation engine (Figure 2 of the paper).

``KokoEngine`` owns an annotated corpus and the multi-index built over it,
and evaluates queries through the four stages of Section 4:

1. **Normalize query** — parse (if needed) and normalise the extract clause.
2. **Decompose paths & lookup indices (DPLI)** — prune to candidate
   sentences using the word, entity, PL and POS indexes.
3. **Generate skip plan (GSP) + extract** — per candidate sentence, choose
   which span atoms to skip, enumerate bindings, check constraints.
4. **Aggregate** — per document, score every candidate value of every output
   variable against its satisfying clause, apply thresholds and the
   excluding clause.

The engine is a thin façade: it builds an
:class:`~repro.koko.stages.ExecutionContext` over its own corpus and
indexes and runs the :class:`~repro.koko.stages.StagePipeline`.  The
service builds its contexts itself, over the union of the shards a query
has to compute, with resources from :func:`evidence_resources`.  Wall-clock
time per stage is recorded in :class:`~repro.koko.results.StageTimings`
(the columns of Table 2) as a by-product of running each stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..embeddings.expansion import DescriptorExpander
from ..embeddings.vectors import VectorStore
from ..indexing.koko_index import KokoIndexSet
from ..indexing.reference import ReferenceIndexSet
from ..nlp.lexicon import GAZETTEER_GPE
from ..nlp.types import Corpus, Document, Sentence
from ..observability.tracing import Span
from .aggregate import AggregationPlan, plan_aggregation
from .ast import KokoQuery
from .conditions import EvidenceResources
from .normalize import NormalizedQuery, normalize
from .parser import parse_query
from .results import KokoResult
from .stages import ExecutionContext, StagePipeline


@dataclass(frozen=True)
class CompiledQuery:
    """A parsed + normalised query, reusable across many executions.

    Parsing, normalisation and the preparation of the satisfying /
    excluding clauses (which conditions read the document, their needles
    and compiled regular expressions) depend only on the query text, not on
    the corpus, so a compiled query can be cached (the service layer keys a
    plan cache by query string) and executed repeatedly — the engine then
    skips the Normalize stage entirely.
    """

    parsed: KokoQuery
    normalized: NormalizedQuery
    aggregation: AggregationPlan
    text: str | None = None
    compile_seconds: float = 0.0


def compile_query(query: str | KokoQuery) -> CompiledQuery:
    """Parse (if needed) and normalise *query* into a :class:`CompiledQuery`."""
    started = time.perf_counter()
    parsed = parse_query(query) if isinstance(query, str) else query
    normalized = normalize(parsed)
    return CompiledQuery(
        parsed=parsed,
        normalized=normalized,
        aggregation=plan_aggregation(parsed),
        text=query if isinstance(query, str) else None,
        compile_seconds=time.perf_counter() - started,
    )


def evidence_resources(
    expander: DescriptorExpander | None = None,
    vectors: VectorStore | None = None,
    dictionaries: dict[str, set[str]] | None = None,
    use_default_vectors: bool = True,
) -> EvidenceResources:
    """What the satisfying clause scores with: expander, vectors, dictionaries.

    Without *vectors* (and with ``use_default_vectors``) the memoised
    default store is used; the ``location`` dictionary defaults to the
    gazetteer's places.
    """
    if vectors is None and use_default_vectors:
        from ..embeddings.pretrained import build_default_vectors

        vectors = build_default_vectors()
    dictionaries = dict(dictionaries) if dictionaries else {}
    dictionaries.setdefault("location", set(GAZETTEER_GPE))
    return EvidenceResources(
        expander=expander or DescriptorExpander(vectors=vectors),
        vectors=vectors,
        dictionaries={k.lower(): {v.lower() for v in vals} for k, vals in dictionaries.items()},
    )


class KokoEngine:
    """Evaluate KOKO queries over one annotated corpus."""

    def __init__(
        self,
        corpus: Corpus,
        expander: DescriptorExpander | None = None,
        vectors: VectorStore | None = None,
        dictionaries: dict[str, set[str]] | None = None,
        use_gsp: bool = True,
        indexes: KokoIndexSet | ReferenceIndexSet | None = None,
        use_default_vectors: bool = True,
    ) -> None:
        self.corpus = corpus
        self.use_gsp = use_gsp
        # Without *indexes* the engine builds the object-list reference: a
        # plain engine is the oracle the columnar service is checked against.
        self.indexes = (
            indexes if indexes is not None else ReferenceIndexSet().build(corpus)
        )
        self.pipeline = StagePipeline()
        self.resources = evidence_resources(
            expander, vectors, dictionaries, use_default_vectors
        )
        # sid -> (document, sentence), used to "load" candidate articles
        self._by_sid: dict[int, tuple[Document, Sentence]] = {
            sentence.sid: (document, sentence)
            for document in corpus
            for sentence in document
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def make_context(
        self,
        query: str | KokoQuery | CompiledQuery,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        trace: Span | None = None,
    ) -> ExecutionContext:
        """An :class:`ExecutionContext` over this engine's corpus slice."""
        return ExecutionContext(
            query=query,
            corpus=self.corpus,
            indexes=self.indexes,
            by_sid=self._by_sid,
            resources=self.resources,
            use_gsp=self.use_gsp,
            threshold_override=threshold_override,
            keep_all_scores=keep_all_scores,
            trace=trace,
        )

    def execute(
        self,
        query: str | KokoQuery | CompiledQuery,
        threshold_override: float | None = None,
        keep_all_scores: bool = False,
        trace: Span | None = None,
    ) -> KokoResult:
        """Evaluate *query* and return its result.

        ``threshold_override`` replaces the thresholds of every satisfying
        clause (the experiments sweep it).  ``keep_all_scores=True`` keeps
        tuples that fail their thresholds too (with their scores), which
        lets an experiment evaluate many thresholds from a single run.
        Passing a :class:`CompiledQuery` skips parsing and normalisation.
        With ``trace`` given, each pipeline stage runs inside a child span
        of it.
        """
        context = self.make_context(
            query,
            threshold_override=threshold_override,
            keep_all_scores=keep_all_scores,
            trace=trace,
        )
        return self.pipeline.run(context)
