"""repro — a from-scratch reproduction of KOKO (Scalable Semantic Querying of Text, VLDB 2018).

The top-level package re-exports the most commonly used entry points:

* :class:`~repro.nlp.Pipeline` — annotate raw text into parsed documents,
* :class:`~repro.koko.KokoEngine` — evaluate KOKO queries over a corpus,
* :func:`~repro.koko.parse_query` — parse a KOKO query string,
* :class:`~repro.indexing.KokoIndexSet` — the multi-index by itself,
* :class:`~repro.service.KokoService` — the concurrent query-serving layer
  with incremental ingestion, plan/result caching, service metrics and —
  via ``KokoService.open(path)`` — snapshot + write-ahead-log durability
  (:class:`~repro.persistence.CheckpointPolicy` tunes checkpointing),
* :class:`~repro.observability.MetricsRegistry` /
  :class:`~repro.observability.Span` — the unified metrics registry and
  the span tree behind ``service.query(..., explain=True)``.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduction of every table and figure of the paper.
"""

from .koko import CompiledQuery, KokoEngine, KokoQuery, KokoResult, compile_query, parse_query
from .nlp import Corpus, Document, Pipeline, Sentence, Token
from .indexing import KokoIndexSet, ShardedIndexSet
from .observability import ExplainedResult, MetricsRegistry, Span
from .persistence import CheckpointPolicy
from .service import KokoService, ServiceStats

__version__ = "1.4.0"

__all__ = [
    "CheckpointPolicy",
    "CompiledQuery",
    "Corpus",
    "Document",
    "ExplainedResult",
    "KokoEngine",
    "KokoIndexSet",
    "KokoQuery",
    "KokoResult",
    "KokoService",
    "MetricsRegistry",
    "Pipeline",
    "Sentence",
    "ServiceStats",
    "ShardedIndexSet",
    "Span",
    "Token",
    "compile_query",
    "parse_query",
    "__version__",
]
