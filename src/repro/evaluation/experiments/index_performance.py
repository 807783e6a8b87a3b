"""Figures 7 and 8 — index lookup time and effectiveness (DPLI comparison).

For every index design and every SyntheticTree benchmark query, measure:

* lookup time — how long the design takes to return its candidate sentences,
* effectiveness — the fraction of returned sentences that truly contain
  bindings for all query variables (Section 6.2.2),

aggregated (a/b) against increasing corpus size — one :func:`run` per
size — and (c/d) against the number of extractions of the query.  Figure 7
uses the HappyDB-like corpus, Figure 8 the Wikipedia-like corpus; both
share this module.

Expected shape: KOKO and SUBTREE are the fastest; INVERTED is the slowest
and least effective; KOKO and ADVINVERTED reach near-perfect effectiveness;
SUBTREE sits in between (and supports only the wildcard-free, word-free
subset of the benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...corpora.synthetic_queries import TreeBenchmarkQuery, generate_tree_benchmark
from ...indexing.baselines import BaseTreeIndex, all_index_designs
from ...indexing.exact import count_extractions, matching_sentences
from ...nlp.types import Corpus
from ..metrics import index_effectiveness
from ..reporting import format_table


@dataclass
class QueryMeasurement:
    """One (design, query) measurement."""

    design: str
    query_name: str
    supported: bool
    lookup_seconds: float
    effectiveness: float
    extractions: int


@dataclass
class IndexPerformanceResult:
    corpus_name: str
    sentences: int
    measurements: list[QueryMeasurement] = field(default_factory=list)

    def mean_lookup_time(self, design: str) -> float:
        times = [m.lookup_seconds for m in self.measurements if m.design == design and m.supported]
        return sum(times) / len(times) if times else 0.0

    def mean_effectiveness(self, design: str) -> float:
        values = [m.effectiveness for m in self.measurements if m.design == design and m.supported]
        return sum(values) / len(values) if values else 0.0

    def supported_fraction(self, design: str) -> float:
        all_measurements = [m for m in self.measurements if m.design == design]
        if not all_measurements:
            return 0.0
        return sum(1 for m in all_measurements if m.supported) / len(all_measurements)


def run(
    corpus: Corpus,
    queries: list[TreeBenchmarkQuery] | None = None,
    queries_per_setting: int = 1,
    designs: list[type[BaseTreeIndex]] | None = None,
) -> IndexPerformanceResult:
    """Measure every design over the SyntheticTree benchmark on *corpus*."""
    if queries is None:
        queries = generate_tree_benchmark(corpus, queries_per_setting=queries_per_setting)
    designs = designs or all_index_designs()
    result = IndexPerformanceResult(corpus_name=corpus.name, sentences=corpus.num_sentences)

    truth_cache: dict[str, set[int]] = {}
    extraction_cache: dict[str, int] = {}
    for benchmark_query in queries:
        name = benchmark_query.query.name
        truth_cache[name] = matching_sentences(corpus, benchmark_query.query)
        extraction_cache[name] = count_extractions(corpus, benchmark_query.query)

    for design_cls in designs:
        index = design_cls().build(corpus)
        for benchmark_query in queries:
            query = benchmark_query.query
            if not index.supports(query):
                result.measurements.append(
                    QueryMeasurement(
                        design=index.name,
                        query_name=query.name,
                        supported=False,
                        lookup_seconds=0.0,
                        effectiveness=0.0,
                        extractions=extraction_cache[query.name],
                    )
                )
                continue
            candidates, seconds = index.timed_lookup(query)
            effectiveness = index_effectiveness(candidates, truth_cache[query.name])
            result.measurements.append(
                QueryMeasurement(
                    design=index.name,
                    query_name=query.name,
                    supported=True,
                    lookup_seconds=seconds,
                    effectiveness=effectiveness,
                    extractions=extraction_cache[query.name],
                )
            )
    return result


def format_result(result: IndexPerformanceResult) -> str:
    designs = sorted({m.design for m in result.measurements})
    rows = [
        (
            design,
            result.mean_lookup_time(design),
            result.mean_effectiveness(design),
            result.supported_fraction(design),
        )
        for design in designs
    ]
    return format_table(
        ["design", "mean lookup (s)", "mean effectiveness", "supported fraction"],
        rows,
        title=(
            f"Index performance on {result.corpus_name} "
            f"({result.sentences} sentences)"
        ),
    )
