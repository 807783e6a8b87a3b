"""Table 1 — average extract-clause evaluation time with and without GSP.

The SyntheticSpan benchmark (span variables with 1, 3 and 5 atoms) is
evaluated per sentence with the skip plan enabled (KOKO&GSP) and disabled
(KOKO&NOGSP) on the HappyDB-like and Wikipedia-like corpora.  Expected
shape: at 1 atom the two are comparable (GSP may even be marginally slower
because planning costs something); at 3 and especially 5 atoms, NOGSP is
orders of magnitude slower because it enumerates every elastic span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ...corpora.happydb import generate_happydb_corpus
from ...corpora.synthetic_queries import generate_span_benchmark
from ...corpora.wikipedia import generate_wikipedia_corpus
from ...koko.dpli import run_dpli
from ...koko.evaluator import SentenceEvaluator
from ...koko.normalize import normalize
from ...koko.parser import parse_query
from ...indexing.koko_index import KokoIndexSet
from ...nlp.pipeline import Pipeline
from ...nlp.types import Corpus
from ..reporting import format_table


@dataclass
class GspCell:
    """One Table 1 cell: mean per-sentence evaluation time in milliseconds."""

    corpus: str
    atoms: int
    mode: str
    mean_ms: float
    sentences_evaluated: int


@dataclass
class GspExperimentResult:
    cells: list[GspCell] = field(default_factory=list)

    def mean_ms(self, corpus: str, atoms: int, mode: str) -> float:
        for cell in self.cells:
            if cell.corpus == corpus and cell.atoms == atoms and cell.mode == mode:
                return cell.mean_ms
        raise KeyError((corpus, atoms, mode))

    def speedup(self, corpus: str, atoms: int) -> float:
        """NOGSP time divided by GSP time for one cell pair."""
        gsp = self.mean_ms(corpus, atoms, "GSP")
        nogsp = self.mean_ms(corpus, atoms, "NOGSP")
        return nogsp / gsp if gsp > 0 else float("inf")


def run(
    happydb_moments: int = 120,
    wikipedia_articles: int = 60,
    queries_per_setting: int = 6,
    max_sentences_per_query: int = 12,
) -> GspExperimentResult:
    """Measure per-sentence extract-clause evaluation time (Table 1)."""
    pipeline = Pipeline()
    corpora = {
        "HappyDB": generate_happydb_corpus(moments=happydb_moments, pipeline=pipeline),
        "Wikipedia": generate_wikipedia_corpus(
            articles=wikipedia_articles, pipeline=pipeline
        ),
    }
    result = GspExperimentResult()
    for corpus_name, corpus in corpora.items():
        benchmark = generate_span_benchmark(
            corpus, queries_per_setting=queries_per_setting
        )
        indexes = KokoIndexSet().build(corpus)
        for atoms in (1, 3, 5):
            queries = [q for q in benchmark if q.atoms == atoms]
            for mode, use_gsp in (("GSP", True), ("NOGSP", False)):
                total_seconds = 0.0
                evaluated = 0
                for benchmark_query in queries:
                    seconds, count = _evaluate_query(
                        benchmark_query.text,
                        corpus,
                        indexes,
                        use_gsp,
                        max_sentences_per_query,
                    )
                    total_seconds += seconds
                    evaluated += count
                mean_ms = (total_seconds / evaluated * 1000.0) if evaluated else 0.0
                result.cells.append(
                    GspCell(
                        corpus=corpus_name,
                        atoms=atoms,
                        mode=mode,
                        mean_ms=mean_ms,
                        sentences_evaluated=evaluated,
                    )
                )
    return result


def _evaluate_query(
    query_text: str,
    corpus: Corpus,
    indexes: KokoIndexSet,
    use_gsp: bool,
    max_sentences: int,
) -> tuple[float, int]:
    """Total extract-clause evaluation seconds and sentence count for one query."""
    normalized = normalize(parse_query(query_text))
    dpli = run_dpli(normalized, indexes)
    evaluator = SentenceEvaluator(normalized, use_gsp=use_gsp)
    candidate_sids = (
        None if dpli.candidate_sids is None else set(dpli.candidate_sids.tolist())
    )
    sentences = []
    for _, sentence in corpus.all_sentences():
        if candidate_sids is None or sentence.sid in candidate_sids:
            sentences.append(sentence)
        if len(sentences) >= max_sentences:
            break
    total = 0.0
    for sentence in sentences:
        started = time.perf_counter()
        evaluator.evaluate(sentence, dpli)
        total += time.perf_counter() - started
    return total, len(sentences)


def format_result(result: GspExperimentResult) -> str:
    rows = [
        (cell.corpus, cell.atoms, cell.mode, cell.mean_ms, cell.sentences_evaluated)
        for cell in result.cells
    ]
    return format_table(
        ["corpus", "atoms", "mode", "ms per sentence", "sentences"],
        rows,
        title="Table 1 — extract-clause evaluation time, GSP vs NOGSP",
    )
