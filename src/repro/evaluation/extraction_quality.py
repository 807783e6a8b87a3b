"""Shared machinery for the extraction-quality experiments (Figures 3-5).

All three figures compare per-document extraction sets against gold sets
while sweeping the KOKO threshold.  This module runs each system once and
produces the threshold sweep from the recorded scores, so the experiments
stay cheap enough for the test suite and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.crf import CrfEntityExtractor
from ..baselines.ike import IkeExtractor, IkePattern
from ..koko.engine import KokoEngine
from ..nlp.types import Corpus
from .metrics import PrecisionRecall, extraction_scores

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class ThresholdSweep:
    """P/R/F1 of one system at each threshold (flat for systems without one)."""

    system: str
    thresholds: tuple[float, ...]
    scores: list[PrecisionRecall] = field(default_factory=list)

    def best_f1(self) -> float:
        return max((s.f1 for s in self.scores), default=0.0)


def koko_scored_values(
    engine: KokoEngine, query: str, variable: str = "x"
) -> dict[str, dict[str, float]]:
    """doc_id -> {value -> best score} from a single engine run."""
    result = engine.execute(query, threshold_override=0.0, keep_all_scores=True)
    scored: dict[str, dict[str, float]] = {}
    for extraction in result.tuples:
        value = extraction.value(variable)
        score = extraction.score(variable)
        if score is None:
            score = 1.0
        bucket = scored.setdefault(extraction.doc_id, {})
        if score > bucket.get(value, -1.0):
            bucket[value] = score
    return scored


def koko_threshold_sweep(
    engine: KokoEngine,
    query: str,
    corpus: Corpus,
    gold_key: str,
    variable: str = "x",
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    system: str = "KOKO",
) -> ThresholdSweep:
    """Run KOKO once and score it at every threshold."""
    scored = koko_scored_values(engine, query, variable)
    sweep = ThresholdSweep(system=system, thresholds=thresholds)
    gold = corpus.gold.get(gold_key, {})
    for threshold in thresholds:
        predicted = {
            doc_id: {value for value, score in values.items() if score >= threshold}
            for doc_id, values in scored.items()
        }
        sweep.scores.append(extraction_scores(predicted, gold))
    return sweep


def ike_sweep(
    corpus: Corpus,
    patterns: list[IkePattern],
    gold_key: str,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
) -> ThresholdSweep:
    """IKE has no threshold; its score is repeated across the sweep."""
    extractor = IkeExtractor(patterns)
    predicted = extractor.extract_all(corpus)
    score = extraction_scores(predicted, corpus.gold.get(gold_key, {}))
    sweep = ThresholdSweep(system="IKE", thresholds=thresholds)
    sweep.scores = [score for _ in thresholds]
    return sweep


def crf_sweep(
    corpus: Corpus,
    gold_key: str,
    train_fraction: float = 0.5,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    epochs: int = 3,
) -> ThresholdSweep:
    """Train the CRF on a fraction of the documents and score it (flat sweep)."""
    doc_ids = [doc.doc_id for doc in corpus]
    cutoff = max(1, int(len(doc_ids) * train_fraction))
    train_ids = set(doc_ids[:cutoff])
    extractor = CrfEntityExtractor(epochs=epochs)
    extractor.train(corpus, gold_key, train_ids)
    predicted = extractor.extract_all(corpus)
    score = extraction_scores(predicted, corpus.gold.get(gold_key, {}))
    sweep = ThresholdSweep(system="CRFsuite", thresholds=thresholds)
    sweep.scores = [score for _ in thresholds]
    return sweep
