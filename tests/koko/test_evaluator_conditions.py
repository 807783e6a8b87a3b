"""Tests for the sentence evaluator and the satisfying/excluding conditions."""

from __future__ import annotations

import pytest

from repro.embeddings.expansion import DescriptorExpander
from repro.embeddings.pretrained import build_default_vectors
from repro.errors import KokoSemanticError
from repro.koko.aggregate import EvidenceAggregator, plan_aggregation
from repro.koko.ast import (
    AdjacencyCondition,
    DescriptorCondition,
    InDictCondition,
    NearCondition,
    SimilarToCondition,
    StrCondition,
)
from repro.koko.conditions import (
    ConditionScorer,
    EvidenceResources,
    find_occurrences,
    prepare_condition,
)
from repro.koko.engine import KokoEngine, compile_query
from repro.koko.dpli import run_dpli
from repro.koko.evaluator import SentenceEvaluator
from repro.koko.normalize import normalize
from repro.koko.parser import parse_query


@pytest.fixture(scope="module")
def scorer():
    return ConditionScorer(
        EvidenceResources(
            expander=DescriptorExpander(),
            vectors=build_default_vectors(),
            dictionaries={"location": {"portland", "london"}},
        )
    )


@pytest.fixture(scope="module")
def cafe_doc(pipeline):
    text = (
        "Velvet Fox Collective opened on a quiet corner of Portland. "
        "Velvet Fox Collective pours a remarkably silky espresso all day. "
        "The shop also sells seasonal cappuccinos and little pastries. "
        "La Marzocco machines gleam behind the bar."
    )
    return pipeline.annotate(text, doc_id="cafe")


def _evaluate(query_text, corpus, indexes, sentence, use_gsp=True):
    normalized = normalize(parse_query(query_text))
    dpli = run_dpli(normalized, indexes)
    return SentenceEvaluator(normalized, use_gsp=use_gsp).evaluate(sentence, dpli)


class TestSentenceEvaluator:
    def test_example_2_1_bindings(self, paper_corpus, paper_indexes, paper_sentence_1):
        query = """
        extract e:Entity, d:Str from input.txt if
        (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))
        """
        assignments = _evaluate(query, paper_corpus, paper_indexes, paper_sentence_1)
        assert len(assignments) == 1
        assignment = assignments[0]
        assert paper_sentence_1.span_text(
            assignment["e"].start, assignment["e"].end
        ) == "chocolate ice cream"
        assert paper_sentence_1.span_text(
            assignment["d"].start, assignment["d"].end
        ) == "a chocolate ice cream, which was delicious"

    def test_example_4_1_span_alignment(self, paper_corpus, paper_indexes, paper_sentence_2):
        query = """
        extract a:Str,b:Str,c:Str from input.txt if (
        /ROOT:{ a = Entity, b = //verb[text="ate"], c = b/dobj, d = c//"delicious",
        e = a + ^ + b + ^ + c })
        """
        assignments = _evaluate(query, paper_corpus, paper_indexes, paper_sentence_2)
        values = {
            (
                paper_sentence_2.span_text(a["a"].start, a["a"].end),
                paper_sentence_2.span_text(a["b"].start, a["b"].end),
                paper_sentence_2.span_text(a["c"].start, a["c"].end),
            )
            for a in assignments
        }
        assert ("Anna", "ate", "cheesecake") in values

    def test_gsp_and_nogsp_agree(self, paper_corpus, paper_indexes, paper_sentence_2):
        query = """
        extract a:Str,b:Str,c:Str from input.txt if (
        /ROOT:{ a = Entity, b = //verb[text="ate"], c = b/dobj,
        e = a + ^ + b + ^ + c })
        """
        with_gsp = _evaluate(query, paper_corpus, paper_indexes, paper_sentence_2, True)
        without = _evaluate(query, paper_corpus, paper_indexes, paper_sentence_2, False)
        key = lambda a: (a["a"].start, a["b"].start, a["c"].start, a["e"].start, a["e"].end)
        assert {key(a) for a in with_gsp} <= {key(a) for a in without}
        assert with_gsp

    def test_constraint_failure_prunes(self, paper_corpus, paper_indexes, paper_sentence_1):
        # (a) in (e): the verb "ate" is never inside an entity span
        query = """
        extract e:Entity from input.txt if
        (/ROOT:{ a = //verb[text="ate"] } (a) in (e))
        """
        assignments = _evaluate(query, paper_corpus, paper_indexes, paper_sentence_1)
        assert assignments == []

    def test_token_sequence_atom(self, paper_corpus, paper_indexes, paper_sentence_2):
        query = """
        extract s:Str from input.txt if (
        /ROOT:{ s = "grocery store" })
        """
        assignments = _evaluate(query, paper_corpus, paper_indexes, paper_sentence_2)
        assert len(assignments) == 1
        binding = assignments[0]["s"]
        assert paper_sentence_2.span_text(binding.start, binding.end) == "grocery store"

    def test_empty_sentence_no_assignments(self, paper_corpus, paper_indexes, pipeline):
        sentence = pipeline.annotate_sentence("", sid=99)
        query = 'extract x:Entity from "t" if ()'
        assert _evaluate(query, paper_corpus, paper_indexes, sentence) == []


class TestConditions:
    def test_str_contains_word_level(self, scorer, cafe_doc):
        # Section 4.4.1: "chocolate ice cream" contains "ice", mentions "choc",
        # but does not contain "choc"
        assert scorer.score(StrCondition("x", "contains", "ice"), "chocolate ice cream", [], cafe_doc) == 1.0
        assert scorer.score(StrCondition("x", "contains", "choc"), "chocolate ice cream", [], cafe_doc) == 0.0
        assert scorer.score(StrCondition("x", "mentions", "choc"), "chocolate ice cream", [], cafe_doc) == 1.0

    def test_str_matches_regex(self, scorer, cafe_doc):
        assert scorer.score(StrCondition("x", "matches", "[Ll]a Marzocco"), "La Marzocco", [], cafe_doc) == 1.0

    def test_in_dict(self, scorer, cafe_doc):
        assert scorer.score(InDictCondition("x", "Location"), "Portland", [], cafe_doc) == 1.0
        assert scorer.score(InDictCondition("x", "Location"), "Velvet Fox", [], cafe_doc) == 0.0

    def test_adjacency_after(self, scorer, cafe_doc):
        occurrences = find_occurrences(cafe_doc, "Velvet Fox Collective")
        condition = AdjacencyCondition("x", "opened", side="after")
        assert scorer.score(condition, "Velvet Fox Collective", occurrences, cafe_doc) == 1.0

    def test_adjacency_before(self, scorer, cafe_doc):
        occurrences = find_occurrences(cafe_doc, "Portland")
        condition = AdjacencyCondition("x", "corner of", side="before")
        assert scorer.score(condition, "Portland", occurrences, cafe_doc) == 1.0

    def test_near_score_decreases_with_distance(self, scorer, cafe_doc):
        occurrences = find_occurrences(cafe_doc, "Velvet Fox Collective")
        near_espresso = scorer.score(NearCondition("x", "espresso"), "Velvet Fox Collective", occurrences, cafe_doc)
        near_opened = scorer.score(NearCondition("x", "opened"), "Velvet Fox Collective", occurrences, cafe_doc)
        assert 0 < near_espresso < 1
        assert near_opened == 1.0

    def test_descriptor_matches_paraphrase_with_gaps(self, scorer, cafe_doc):
        occurrences = find_occurrences(cafe_doc, "Velvet Fox Collective")
        condition = DescriptorCondition("x", "serves espresso", side="after")
        score = scorer.score(condition, "Velvet Fox Collective", occurrences, cafe_doc)
        assert score > 0.0

    def test_descriptor_no_evidence(self, scorer, cafe_doc):
        occurrences = find_occurrences(cafe_doc, "La Marzocco")
        condition = DescriptorCondition("x", "employs baristas", side="after")
        assert scorer.score(condition, "La Marzocco", occurrences, cafe_doc) == 0.0

    def test_similar_to(self, scorer, cafe_doc):
        assert scorer.score(SimilarToCondition("x", "city"), "Tokyo", [], cafe_doc) > 0.4
        assert scorer.score(SimilarToCondition("x", "city"), "Japan", [], cafe_doc) < 0.3

    def test_find_occurrences_counts_every_mention(self, cafe_doc):
        occurrences = find_occurrences(cafe_doc, "Velvet Fox Collective")
        assert len(occurrences) == 2


class TestAggregation:
    def test_weighted_sum_and_threshold(self, scorer, cafe_doc):
        query = parse_query(
            'extract x:Entity from "t" if () satisfying x '
            '(str(x) contains "Collective" {0.4}) or '
            '(x [["pours espresso"]] {0.4}) '
            "with threshold 0.5"
        )
        aggregator = EvidenceAggregator(scorer)
        outcome = aggregator.evaluate_clause(
            query.satisfying[0], "Velvet Fox Collective", cafe_doc
        )
        assert outcome.score > 0.5
        assert outcome.passed

    def test_threshold_override(self, scorer, cafe_doc):
        query = parse_query(
            'extract x:Entity from "t" if () satisfying x '
            '(str(x) contains "Collective" {0.4}) with threshold 0.9'
        )
        aggregator = EvidenceAggregator(scorer)
        assert not aggregator.evaluate_clause(query.satisfying[0], "Velvet Fox Collective", cafe_doc).passed
        assert aggregator.evaluate_clause(
            query.satisfying[0], "Velvet Fox Collective", cafe_doc, threshold_override=0.3
        ).passed

    def test_excluding(self, scorer, cafe_doc):
        query = parse_query(
            'extract x:Entity from "t" if () satisfying x (str(x) contains "a" {1}) '
            'excluding (str(x) matches "[Ll]a Marzocco")'
        )
        aggregator = EvidenceAggregator(scorer)
        assert aggregator.is_excluded(query.excluding, "La Marzocco", cafe_doc)
        assert not aggregator.is_excluded(query.excluding, "Velvet Fox Collective", cafe_doc)


class TestQueryTimePreparation:
    """What ``compile_query`` decides once about the satisfying/excluding clauses."""

    def test_value_only_and_document_reading_conditions_are_told_apart(self):
        value_only = [
            StrCondition("x", "contains", "Cafe"),
            StrCondition("x", "mentions", "caf"),
            StrCondition("x", "matches", "^C"),
            InDictCondition("x", "Location"),
            SimilarToCondition("x", "city"),
        ]
        document_reading = [
            AdjacencyCondition("x", "cafe called", side="before"),
            NearCondition("x", ", a cafe"),
            DescriptorCondition("x", "serves coffee", side="after"),
        ]
        assert not any(prepare_condition(c).reads_document for c in value_only)
        assert all(prepare_condition(c).reads_document for c in document_reading)
        assert prepare_condition(document_reading[1]).needle == (",", "a", "cafe")
        assert prepare_condition(value_only[2]).pattern.pattern == "^C"

    def test_clause_reads_the_document_iff_one_of_its_conditions_does(self):
        plan = compile_query(
            'extract x:Entity, y:Entity from "t" if () '
            'satisfying x (str(x) contains "Cafe" {1}) or (x ~ "cafe" {1}) with threshold 0.5 '
            'satisfying y (str(y) contains "Cafe" {1}) or (y near "coffee" {1}) with threshold 0.5 '
            'excluding (str(x) matches "^[a-z]")'
        ).aggregation
        assert plan.variables == ("x", "y") and plan.outputs == 2
        assert [clause.reads_document for clause in plan.clauses] == [False, True]
        assert not plan.excluding.reads_document

    def test_first_satisfying_clause_of_a_variable_scores_it(self):
        query = parse_query(
            'extract x:Entity from "t" if (/ROOT:{ v = //verb }) '
            'satisfying v (str(v) contains "a" {1}) with threshold 0.1 '
            'satisfying v (str(v) contains "b" {1}) with threshold 0.9'
        )
        plan = plan_aggregation(query)
        assert plan.variables == ("x", "v", "v")
        assert plan.clauses[0] is None
        assert plan.clauses[1] is plan.clauses[2] and plan.clauses[1].threshold == 0.1

    def test_invalid_regular_expression_fails_at_compile_time(self):
        with pytest.raises(KokoSemanticError, match="invalid regular expression"):
            compile_query('extract x:Entity from "t" if () excluding (str(x) matches "[a-")')

    def test_descriptor_expansions_outlive_the_query(self, cafe_corpus, monkeypatch):
        engine = KokoEngine(cafe_corpus)
        expanded: list[str] = []
        real = engine.resources.expander.expand

        def counting(descriptor):
            expanded.append(descriptor)
            return real(descriptor)

        monkeypatch.setattr(engine.resources.expander, "expand", counting)
        query = (
            'extract x:Entity from "blogs" if () satisfying x '
            '(x [["serves coffee"]] {0.5}) or ([["baristas of"]] x {0.5}) with threshold 0.3'
        )
        first = engine.execute(query)
        second = engine.execute(query)
        assert sorted(expanded) == ["baristas of", "serves coffee"]  # once per engine
        assert [t.scores for t in first] == [t.scores for t in second]
