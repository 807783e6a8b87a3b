"""Tests for the stage-pipeline execution core (koko/stages.py)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.koko.conditions as conditions_module
import repro.koko.evaluator as evaluator_module
import repro.nlp.types as types_module
from repro.corpora.cafe_blogs import BARISTAMAG, generate_cafe_corpus
from repro.corpora.tweets import generate_tweet_corpus
from repro.corpora.wikipedia import WikipediaConfig, generate_wikipedia_corpus
from repro.evaluation import queries as evaluation_queries
from repro.koko.aggregate import plan_aggregation
from repro.koko.ast import (
    AdjacencyCondition,
    DescriptorCondition,
    ExcludingClause,
    InDictCondition,
    KokoQuery,
    NearCondition,
    OutputVar,
    SatisfyingClause,
    SimilarToCondition,
    StrCondition,
    WeightedCondition,
)
from repro.koko.conditions import ConditionScorer, Occurrence
from repro.koko.engine import KokoEngine, compile_query
from repro.koko.evaluator import Binding
from repro.koko.results import ExtractionTuple, KokoResult, StageTimings, merge_results
from repro.koko.stages import (
    DEFAULT_STAGES,
    AggregateStage,
    DpliStage,
    ExecutionContext,
    ExtractStage,
    LoadStage,
    NormalizeStage,
    StagePipeline,
)
from repro.nlp.pipeline import Pipeline
from repro.service import KokoService

EXAMPLE_2_1 = """
extract e:Entity, d:Str from input.txt if
(/ROOT:{
a = //verb,
b = a/dobj,
c = b//"delicious",
d = (b.subtree)
} (b) in (e))
"""

EMPTY_QUERY = 'extract x:Entity from "t" if (/ROOT:{ a = //"zebra" })'


def as_rows(result):
    return [(t.doc_id, t.sid, t.values, t.scores) for t in result]


# ----------------------------------------------------------------------
# stage-by-stage execution
# ----------------------------------------------------------------------
class TestStagesIndividually:
    def test_stages_fill_context_incrementally(self, paper_engine):
        ctx = paper_engine.make_context(EXAMPLE_2_1)
        assert ctx.parsed is None and ctx.dpli is None

        NormalizeStage().run(ctx)
        assert ctx.parsed is not None and ctx.normalized is not None
        assert ctx.result.timings.normalize > 0.0

        DpliStage().run(ctx)
        assert ctx.dpli is not None and not ctx.finished
        assert ctx.result.timings.dpli > 0.0

        LoadStage().run(ctx)
        assert len(ctx.documents) == 2  # both paper sentences are candidates
        assert ctx.result.timings.load_articles > 0.0

        ExtractStage().run(ctx)
        assert ctx.result.candidate_sentences == 2
        assert ctx.result.evaluated_sentences == 2
        assert any(tuples for _, tuples in ctx.candidates)
        assert ctx.result.timings.extract > 0.0

        AggregateStage().run(ctx)
        assert len(ctx.result) == 2
        assert ctx.result.timings.satisfying > 0.0

    def test_normalize_stage_reuses_compiled_plan(self, paper_engine):
        plan = compile_query(EXAMPLE_2_1)
        ctx = paper_engine.make_context(plan)
        NormalizeStage().run(ctx)
        assert ctx.parsed is plan.parsed
        assert ctx.normalized is plan.normalized

    def test_dpli_stage_short_circuits_provably_empty(self, paper_engine):
        ctx = paper_engine.make_context(EMPTY_QUERY)
        result = StagePipeline().run(ctx)
        assert ctx.finished
        assert ctx.documents == [] and ctx.candidates == []
        assert len(result) == 0
        # the post-DPLI stages never ran
        assert result.timings.load_articles == 0.0
        assert result.timings.extract == 0.0


# ----------------------------------------------------------------------
# the pipeline as a whole
# ----------------------------------------------------------------------
class TestStagePipeline:
    def test_default_stage_order(self):
        assert [type(s) for s in DEFAULT_STAGES] == [
            NormalizeStage,
            DpliStage,
            LoadStage,
            ExtractStage,
            AggregateStage,
        ]

    def test_pipeline_matches_engine_execute(self, paper_engine):
        via_pipeline = StagePipeline().run(paper_engine.make_context(EXAMPLE_2_1))
        via_engine = paper_engine.execute(EXAMPLE_2_1)
        assert as_rows(via_pipeline) == as_rows(via_engine)

    def test_skip_plan_generated_exactly_once_per_sentence(
        self, paper_engine, monkeypatch
    ):
        """The GSP stage is timed as a by-product — no dry re-planning."""
        calls = {"count": 0}
        real = evaluator_module.generate_skip_plan

        def counting(*args, **kwargs):
            calls["count"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluator_module, "generate_skip_plan", counting)
        result = paper_engine.execute(EXAMPLE_2_1)
        assert result.evaluated_sentences == 2
        assert calls["count"] == 2  # one plan per evaluated sentence, not two
        assert result.timings.gsp > 0.0

    def test_timings_partition_extract_and_gsp(self, paper_engine):
        result = paper_engine.execute(EXAMPLE_2_1)
        timings = result.timings
        assert timings.gsp >= 0.0 and timings.extract >= 0.0
        assert timings.total == pytest.approx(
            timings.normalize
            + timings.dpli
            + timings.load_articles
            + timings.gsp
            + timings.extract
            + timings.satisfying
        )


# ----------------------------------------------------------------------
# result merging (used by the sharded service)
# ----------------------------------------------------------------------
class TestMergeResults:
    def test_merge_orders_by_sid_and_sums_metrics(self):
        from repro.koko.results import ExtractionTuple

        a = KokoResult(
            tuples=[ExtractionTuple("d2", 5, (("x", "B"),))],
            candidate_sentences=2,
            evaluated_sentences=1,
        )
        a.timings.dpli = 0.5
        b = KokoResult(
            tuples=[
                ExtractionTuple("d1", 1, (("x", "A"),)),
                ExtractionTuple("d1", 1, (("x", "A2"),)),
            ],
            candidate_sentences=3,
            evaluated_sentences=2,
        )
        b.timings.dpli = 0.25
        merged = merge_results([a, b])
        assert [t.sid for t in merged] == [1, 1, 5]
        # stable: same-sid tuples keep their within-shard order
        assert [t.value("x") for t in merged] == ["A", "A2", "B"]
        assert merged.candidate_sentences == 5
        assert merged.evaluated_sentences == 3
        assert merged.timings.dpli == pytest.approx(0.75)

    def test_merge_of_nothing_is_empty(self):
        merged = merge_results([])
        assert len(merged) == 0 and merged.timings.total == 0.0

    def test_stage_timings_accumulate(self):
        total = StageTimings()
        total.accumulate(StageTimings(normalize=1, gsp=2))
        total.accumulate(StageTimings(dpli=3, gsp=1))
        assert (total.normalize, total.dpli, total.gsp) == (1, 3, 3)
        assert total.total == 7


# ----------------------------------------------------------------------
# engine fixes riding along with the refactor
# ----------------------------------------------------------------------
class TestEngineHygiene:
    def test_engine_does_not_mutate_caller_dictionaries(self, paper_corpus):
        dictionaries = {"custom": {"Foo"}}
        engine = KokoEngine(
            paper_corpus, dictionaries=dictionaries, use_default_vectors=False
        )
        assert dictionaries == {"custom": {"Foo"}}  # no 'location' injected
        assert "location" in engine.resources.dictionaries
        assert engine.resources.dictionaries["custom"] == {"foo"}


# ----------------------------------------------------------------------
# golden identity: tuples and scores recorded at the parent of the
# set-at-a-time aggregate rewrite (commit 1fd82f5)
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).with_name("golden_scores.json")

#: every query of ``repro.evaluation.queries``, with the corpus it runs over
GOLDEN_QUERIES = {
    "cafe": ("cafe", evaluation_queries.CAFE_QUERY),
    "cafe_no_descriptors": ("cafe", evaluation_queries.CAFE_QUERY_NO_DESCRIPTORS),
    "team": ("tweets", evaluation_queries.TEAM_QUERY),
    "facility": ("tweets", evaluation_queries.FACILITY_QUERY),
    "Chocolate": ("wiki", evaluation_queries.CHOCOLATE_QUERY),
    "Title": ("wiki", evaluation_queries.TITLE_QUERY),
    "DateOfBirth": ("wiki", evaluation_queries.DATEOFBIRTH_QUERY),
}


def golden_corpora(pipeline):
    """Small fixed-seed corpora, one per family of golden queries."""
    return {
        "cafe": generate_cafe_corpus(BARISTAMAG, pipeline=pipeline, articles=8),
        "tweets": generate_tweet_corpus(tweets=48, pipeline=pipeline),
        "wiki": generate_wikipedia_corpus(
            WikipediaConfig(articles=24, chocolate_fraction=0.15), pipeline=pipeline
        ),
    }


def golden_rows(result):
    """What the golden file holds of a result (scores as ``repr``: exact floats)."""
    return [
        [t.doc_id, t.sid, [list(pair) for pair in t.values], repr(t.scores)]
        for t in result
    ]


def record_golden():  # pragma: no cover - run by hand against the reference commit
    """Rewrite the golden file from whatever ``repro`` is importable.

    ``PYTHONPATH=<reference checkout>/src:tests/koko python -c
    "import test_stages; test_stages.record_golden()"``
    """
    corpora = golden_corpora(Pipeline())
    engines = {name: KokoEngine(corpus) for name, corpus in corpora.items()}
    golden = {
        name: golden_rows(
            engines[family].execute(query, threshold_override=0.0, keep_all_scores=True)
        )
        for name, (family, query) in GOLDEN_QUERIES.items()
    }
    # one row per line, so a change to the file diffs row by row
    blocks = [
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in sorted(golden.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


@pytest.fixture(scope="module")
def golden_setup(pipeline):
    """The golden corpora, once as engines and once behind 4-shard services."""
    corpora = golden_corpora(pipeline)
    engines = {name: KokoEngine(corpus) for name, corpus in corpora.items()}
    services = {}
    for name, corpus in corpora.items():
        service = services[name] = KokoService(shards=4)
        for document in corpus:
            service.add_document(document.text, document.doc_id)
    yield engines, services
    for service in services.values():
        service.close()


class TestGoldenIdentity:
    """The rewritten stage reproduces the recorded tuples and scores exactly.

    The service-vs-engine identity suites share the aggregate stage on both
    sides, so a bug in it would pass them; this file was recorded before
    the rewrite.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
    def test_engine_and_sharded_service_reproduce_the_golden_file(
        self, golden_setup, name
    ):
        golden = json.loads(GOLDEN_PATH.read_text())[name]
        assert golden, "a golden query with no tuples checks nothing"
        engines, services = golden_setup
        family, query = GOLDEN_QUERIES[name]
        via_engine = engines[family].execute(
            query, threshold_override=0.0, keep_all_scores=True
        )
        assert golden_rows(via_engine) == golden
        via_service = services[family].query(
            query, threshold_override=0.0, keep_all_scores=True
        )
        assert golden_rows(via_service) == golden


# ----------------------------------------------------------------------
# the set-at-a-time stage against the per-tuple loop it replaced
# ----------------------------------------------------------------------
def reference_occurrences(document, value):
    """The eager scan the old stage ran once per (document, value)."""
    needle = [w.lower() for w in conditions_module._tokenize_literal(value)]
    if not needle:
        return []
    found = []
    for sentence in document:
        tokens = [tok.text.lower() for tok in sentence]
        for start in range(0, len(tokens) - len(needle) + 1):
            if tokens[start : start + len(needle)] == needle:
                found.append(Occurrence(sentence, start, start + len(needle) - 1))
    return found


def reference_aggregate(ctx):
    """A copy of the per-tuple aggregation loop, over the public scorer API."""
    scorer = ConditionScorer(ctx.resources)
    parsed = ctx.parsed
    output_names = parsed.output_names()
    tuples = []

    def evaluate(clause, text, document):
        total = 0.0
        occurrences = reference_occurrences(document, text)
        for weighted in clause.conditions:
            total += weighted.weight * scorer.score(
                weighted.condition, text, occurrences, document
            )
        threshold = (
            clause.threshold if ctx.threshold_override is None else ctx.threshold_override
        )
        return total, total >= threshold

    for document, candidate_tuples in ctx.candidates:
        clause_cache = {}
        for sentence, assignment in candidate_tuples:
            values, scores = [], []
            passed, excluded = True, False
            for name in output_names:
                binding = assignment.get(name)
                if binding is None:
                    passed = False
                    break
                text = (
                    sentence.span_text(binding.start, binding.end)
                    if not binding.is_empty
                    else ""
                )
                values.append((name, text))
                clause = parsed.satisfying_for(name)
                if clause is not None:
                    key = (name, text.lower())
                    if key not in clause_cache:
                        clause_cache[key] = evaluate(clause, text, document)
                    score, clause_passed = clause_cache[key]
                    scores.append((name, score))
                    passed = passed and clause_passed
                if parsed.excluding is not None and any(
                    scorer.is_true(
                        condition, text, reference_occurrences(document, text), document
                    )
                    for condition in parsed.excluding.conditions
                ):
                    excluded = True
            if len(values) != len(output_names):
                continue
            for clause in parsed.satisfying:
                if clause.variable in output_names:
                    continue
                binding = assignment.get(clause.variable)
                if binding is None:
                    continue
                text = sentence.span_text(binding.start, binding.end)
                key = (clause.variable, text.lower())
                if key not in clause_cache:
                    clause_cache[key] = evaluate(clause, text, document)
                score, clause_passed = clause_cache[key]
                scores.append((clause.variable, score))
                passed = passed and clause_passed
            if excluded:
                continue
            if passed or ctx.keep_all_scores:
                tuples.append(
                    ExtractionTuple(document.doc_id, sentence.sid, tuple(values), tuple(scores))
                )
    return tuples


#: case variants on purpose: within a document the first-seen spelling is scored
_WORDS = [
    "Cafe", "cafe", "CAFE", "Blue", "blue", "Bottle", "serves", "coffee",
    "Coffee", "called", "a", ",", "Portland", "portland", "born", "Born",
]
_VALUE_ONLY = [
    StrCondition("x", "contains", "Cafe"),
    StrCondition("x", "mentions", "ott"),
    StrCondition("x", "matches", "^[A-Z]"),
    StrCondition("x", "matches", "cafe$"),
    InDictCondition("x", "Location"),
    SimilarToCondition("x", "coffee"),
]
_DOCUMENT_READING = [
    AdjacencyCondition("x", "called", "before"),
    AdjacencyCondition("x", ", a", "after"),
    NearCondition("x", "coffee"),
    DescriptorCondition("x", "serves coffee", "after"),
    DescriptorCondition("x", "serves coffee", "before"),
]
_conditions = st.sampled_from(_VALUE_ONLY + _DOCUMENT_READING)
_clauses = st.builds(
    SatisfyingClause,
    variable=st.sampled_from(["x", "y", "v", "w"]),
    conditions=st.lists(
        st.builds(
            WeightedCondition,
            condition=_conditions,
            weight=st.sampled_from([1.0, 0.8, 0.45, 0.1]),
        ),
        min_size=1,
        max_size=4,
    ),
    threshold=st.sampled_from([0.0, 0.3, 1.0]),
)
_documents = st.lists(
    st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)

_MATCHES_OVER_CASE_VARIANTS = dict(
    documents=[[["cafe", "Cafe", "CAFE", "cafe"]]],
    clauses=[
        SatisfyingClause(
            "x", [WeightedCondition(StrCondition("x", "matches", "^[A-Z]"), 1.0)], 0.5
        )
    ],
    excluding=[StrCondition("x", "matches", "^CAFE$")],
    outputs=["x"],
    seed=0,
    threshold_override=None,
    keep_all_scores=True,
)


@settings(max_examples=120, deadline=None)
@example(**_MATCHES_OVER_CASE_VARIANTS)
@given(
    documents=_documents,
    clauses=st.lists(_clauses, max_size=4),
    excluding=st.none() | st.lists(_conditions, max_size=3),
    outputs=st.sampled_from([["x"], ["x", "y"], ["y", "x"]]),
    seed=st.integers(0, 2**16),
    threshold_override=st.sampled_from([None, 0.0, 0.5]),
    keep_all_scores=st.booleans(),
)
def test_set_at_a_time_stage_matches_the_per_tuple_loop(
    pipeline, paper_engine, documents, clauses, excluding, outputs, seed,
    threshold_override, keep_all_scores,
):
    """Random clause mixes: value-only, document-reading, both, non-output
    variables (``v``, ``w``), several clauses on one variable, empty and
    missing bindings, values that differ only in case."""
    import random

    rng = random.Random(seed)
    corpus = pipeline.annotate_corpus(
        {
            f"d{index}": " ".join(" ".join(words) + " ." for words in sentences)
            for index, sentences in enumerate(documents)
        }
    )
    candidates = []
    for document in corpus:
        candidate_tuples = []
        for sentence in document:
            for _ in range(rng.randint(0, 6)):
                assignment = {}
                for variable in ("x", "y", "v", "w"):
                    roll = rng.random()
                    if roll < 0.08:
                        continue  # unbound
                    start = rng.randrange(len(sentence))
                    end = start - 1 if roll < 0.16 else min(
                        len(sentence) - 1, start + rng.randint(0, 2)
                    )
                    assignment[variable] = Binding(sentence.sid, start, end)
                candidate_tuples.append((sentence, assignment))
        candidates.append((document, candidate_tuples))
    query = KokoQuery(
        outputs=[OutputVar(name, "Str") for name in outputs],
        satisfying=clauses,
        excluding=ExcludingClause(excluding) if excluding is not None else None,
    )
    ctx = ExecutionContext(
        query=query,
        corpus=corpus,
        indexes=paper_engine.indexes,
        by_sid={},
        resources=paper_engine.resources,
        threshold_override=threshold_override,
        keep_all_scores=keep_all_scores,
    )
    ctx.parsed, ctx.aggregation, ctx.candidates = query, plan_aggregation(query), candidates
    AggregateStage().run(ctx)
    assert as_rows(ctx.result) == [
        (t.doc_id, t.sid, t.values, t.scores) for t in reference_aggregate(ctx)
    ]


def test_dateofbirth_scores_each_value_once_and_never_reads_the_document(
    wiki_corpus, monkeypatch
):
    """The work is per distinct value, not per tuple (fails before the rewrite)."""
    engine = KokoEngine(wiki_corpus)
    ctx = engine.make_context(
        compile_query(evaluation_queries.DATEOFBIRTH_QUERY), threshold_override=0.0
    )
    for stage in (NormalizeStage(), DpliStage(), LoadStage(), ExtractStage()):
        stage.run(ctx)
    assignments = [a for _, pairs in ctx.candidates for _, a in pairs]
    assert len(assignments) > 500
    bindings = {(b.sid, b.start, b.end) for a in assignments for b in a.values()}
    verbs = {
        sentence.span_text(a["v"].start, a["v"].end)
        for _, pairs in ctx.candidates
        for sentence, a in pairs
    }

    calls = {"occurrences": 0, "detokenize": 0, "similar_to": []}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    def similar_to(self, condition, value):
        calls["similar_to"].append(value)
        return real_similar_to(self, condition, value)

    real_similar_to = ConditionScorer._score_similar_to
    monkeypatch.setattr(
        conditions_module.DocumentEvidence,
        "occurrences",
        counting("occurrences", conditions_module.DocumentEvidence.occurrences),
    )
    monkeypatch.setattr(
        types_module, "detokenize", counting("detokenize", types_module.detokenize)
    )
    monkeypatch.setattr(ConditionScorer, "_score_similar_to", similar_to)
    AggregateStage().run(ctx)

    assert len(ctx.result) > 100
    assert calls["occurrences"] == 0
    assert calls["detokenize"] <= len(bindings)
    assert sorted(calls["similar_to"]) == sorted(verbs)  # once per distinct value
