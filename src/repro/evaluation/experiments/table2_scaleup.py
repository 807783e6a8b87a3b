"""Table 2 — KOKO execution-time breakdown on increasing wiki corpora.

The three Section 6.3 queries (Chocolate: low selectivity, Title: medium,
DateOfBirth: high) run over wiki-style corpora of increasing size; for each
run the per-stage timings (Normalize, DPLI, LoadArticle, GSP, extract,
satisfying) and the selectivity are recorded.  Expected shape: total time
grows roughly linearly with the number of articles; Normalize + GSP are a
negligible share; higher-selectivity queries spend relatively more time in
extract/satisfying and less (proportionally) in index lookup.

Each engine runs over the columnar ``KokoIndexSet`` the service serves
from, so the timings are those of the production extract (binding
columns from the DPLI blocks), not of the per-sentence reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...corpora.wikipedia import generate_wikipedia_corpus
from ...indexing.koko_index import KokoIndexSet
from ...koko.engine import KokoEngine
from ...nlp.pipeline import Pipeline
from ...nlp.types import Corpus
from ..queries import SCALEUP_QUERIES
from ..reporting import format_table


@dataclass
class ScaleupRow:
    """One (query, corpus size) row of Table 2."""

    query: str
    articles: int
    selectivity: float
    timings: dict[str, float] = field(default_factory=dict)
    tuples: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


@dataclass
class ScaleupResult:
    rows: list[ScaleupRow] = field(default_factory=list)

    def rows_for(self, query: str) -> list[ScaleupRow]:
        return sorted(
            (row for row in self.rows if row.query == query),
            key=lambda row: row.articles,
        )

    def total_series(self, query: str) -> list[tuple[int, float]]:
        return [(row.articles, row.total_seconds) for row in self.rows_for(query)]


def run(
    article_counts: tuple[int, ...] = (50, 100, 200),
    queries: dict[str, str] | None = None,
) -> ScaleupResult:
    """Run the three queries at every corpus size."""
    queries = queries or SCALEUP_QUERIES
    pipeline = Pipeline()
    result = ScaleupResult()
    largest = generate_wikipedia_corpus(articles=max(article_counts), pipeline=pipeline)
    for articles in article_counts:
        corpus = _prefix(largest, articles)
        engine = KokoEngine(corpus, indexes=KokoIndexSet().build(corpus))
        for name, query_text in queries.items():
            outcome = engine.execute(query_text)
            docs_with_extractions = len(outcome.selectivity)
            result.rows.append(
                ScaleupRow(
                    query=name,
                    articles=articles,
                    selectivity=docs_with_extractions / max(1, len(corpus)),
                    timings=outcome.timings.as_dict(),
                    tuples=len(outcome),
                )
            )
    return result


def _prefix(corpus: Corpus, articles: int) -> Corpus:
    prefix = Corpus(name=f"{corpus.name}-{articles}")
    prefix.documents = corpus.documents[:articles]
    prefix.gold = corpus.gold
    return prefix


def format_result(result: ScaleupResult) -> str:
    rows = []
    for row in sorted(result.rows, key=lambda r: (r.query, r.articles)):
        rows.append(
            (
                row.query,
                row.articles,
                row.selectivity,
                row.timings.get("Normalize", 0.0),
                row.timings.get("DPLI", 0.0),
                row.timings.get("LoadArticle", 0.0),
                row.timings.get("GSP", 0.0),
                row.timings.get("extract", 0.0),
                row.timings.get("satisfying", 0.0),
                row.total_seconds,
            )
        )
    return format_table(
        [
            "query", "articles", "selectivity", "Normalize", "DPLI",
            "LoadArticle", "GSP", "extract", "satisfying", "total",
        ],
        rows,
        title="Table 2 — KOKO execution time breakdown (seconds)",
        float_digits=4,
    )
