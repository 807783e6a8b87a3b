"""Tests for path decomposition, DPLI-style lookup, and the baseline indexes."""

from __future__ import annotations

import pytest

from repro.indexing.baselines import (
    AdvInvertedIndex,
    InvertedIndex,
    KokoMultiIndex,
    SubtreeIndex,
    UnsupportedQueryError,
    all_index_designs,
)
from repro.indexing.decompose import decompose_path, lookup_decomposed_block
from repro.indexing.exact import (
    count_extractions,
    match_path_in_sentence,
    matching_sentences,
    sentence_matches_query,
)
from repro.indexing.query_ir import (
    CHILD,
    DESCENDANT,
    KIND_ANY,
    KIND_PARSE_LABEL,
    KIND_POS,
    KIND_WORD,
    TreePatternQuery,
    path,
    step,
)
from repro.evaluation.metrics import index_effectiveness

# //verb/dobj//"delicious" — the running example path of Section 4.2
DELICIOUS_PATH = path(
    step(DESCENDANT, "verb", KIND_POS),
    step(CHILD, "dobj", KIND_PARSE_LABEL),
    step(DESCENDANT, "delicious", KIND_WORD),
)
DELICIOUS_QUERY = TreePatternQuery(name="delicious", paths=[DELICIOUS_PATH])


class TestDecomposition:
    def test_example_4_2(self):
        """The decomposition of Example 4.2: PL, POS and word views."""
        decomposed = decompose_path(DELICIOUS_PATH)
        assert decomposed.parse_label_path.render() == "//*/dobj//*"
        assert decomposed.pos_path.render() == "//verb/*//*"
        assert [w for w, _ in decomposed.word_steps] == ["delicious"]

    def test_word_chain_gaps(self):
        p = path(
            step(DESCENDANT, "ate", KIND_WORD),
            step(CHILD, "*", KIND_ANY),
            step(DESCENDANT, "delicious", KIND_WORD),
        )
        decomposed = decompose_path(p)
        assert decomposed.word_steps == (("ate", 0), ("delicious", 2))

    def test_lookup_decomposed_matches_exact(self, paper_corpus, paper_indexes, block_words):
        block = lookup_decomposed_block(paper_indexes, DELICIOUS_PATH)
        exact_sids = matching_sentences(paper_corpus, DELICIOUS_QUERY)
        assert set(block.sid.tolist()) == exact_sids
        assert block_words(paper_corpus, block) == {"delicious"}

    def test_lookup_word_final_step(self, paper_indexes):
        p = path(step(DESCENDANT, "ate", KIND_WORD))
        assert lookup_decomposed_block(paper_indexes, p).size == 3

    def test_lookup_pos_final_step_under_word(self, paper_corpus, paper_indexes, block_words):
        # //"ate"/dobj — dobj children under the word "ate"
        p = path(
            step(DESCENDANT, "ate", KIND_WORD),
            step(CHILD, "dobj", KIND_PARSE_LABEL),
        )
        block = lookup_decomposed_block(paper_indexes, p)
        assert block_words(paper_corpus, block) >= {"cream", "cheesecake"}

    def test_candidate_sentences_completeness(self, happy_corpus):
        """Index candidates must be a superset of the truly matching sentences."""
        from repro.corpora.synthetic_queries import generate_tree_benchmark

        indexes = KokoMultiIndex().build(happy_corpus)
        for benchmark_query in generate_tree_benchmark(happy_corpus, queries_per_setting=1)[:40]:
            truth = matching_sentences(happy_corpus, benchmark_query.query)
            candidates = indexes.candidate_sentences(benchmark_query.query)
            assert truth <= candidates, benchmark_query.query.render()


class TestExactMatching:
    def test_match_path_in_sentence(self, paper_sentence_1):
        matches = match_path_in_sentence(paper_sentence_1, DELICIOUS_PATH)
        assert matches == [9]

    def test_root_anchored_path(self, paper_sentence_2):
        p = path(step(CHILD, "root", KIND_PARSE_LABEL), step(CHILD, "dobj", KIND_PARSE_LABEL))
        assert match_path_in_sentence(paper_sentence_2, p) == [4]

    def test_no_match(self, paper_sentence_2):
        p = path(step(DESCENDANT, "zebra", KIND_WORD))
        assert match_path_in_sentence(paper_sentence_2, p) == []

    def test_sentence_matches_query_all_paths(self, paper_sentence_1):
        query = TreePatternQuery(
            name="q",
            paths=[
                path(step(DESCENDANT, "verb", KIND_POS)),
                path(step(DESCENDANT, "zebra", KIND_WORD)),
            ],
        )
        assert not sentence_matches_query(paper_sentence_1, query)

    def test_count_extractions(self, paper_corpus):
        assert count_extractions(paper_corpus, DELICIOUS_QUERY) == 2


class TestBaselineIndexes:
    def test_all_designs_listed(self):
        names = [cls().name for cls in all_index_designs()]
        assert names == ["INVERTED", "ADVINVERTED", "SUBTREE", "KOKO"]

    def test_inverted_ignores_structure(self, paper_corpus):
        index = InvertedIndex().build(paper_corpus)
        # both sentences contain "ate" + dobj + delicious labels somewhere,
        # so the structure-agnostic index returns both
        candidates = index.candidate_sentences(DELICIOUS_QUERY)
        assert candidates == {0, 1}

    def test_advinverted_checks_structure(self, paper_corpus):
        index = AdvInvertedIndex().build(paper_corpus)
        truth = matching_sentences(paper_corpus, DELICIOUS_QUERY)
        assert index.candidate_sentences(DELICIOUS_QUERY) == truth

    def test_subtree_rejects_words_and_wildcards(self, paper_corpus):
        index = SubtreeIndex().build(paper_corpus)
        assert not index.supports(DELICIOUS_QUERY)
        with pytest.raises(UnsupportedQueryError):
            index.candidate_sentences(DELICIOUS_QUERY)

    def test_subtree_supports_label_only_queries(self, paper_corpus):
        index = SubtreeIndex().build(paper_corpus)
        query = TreePatternQuery(
            name="labels",
            paths=[path(step(CHILD, "root", KIND_PARSE_LABEL), step(CHILD, "dobj", KIND_PARSE_LABEL))],
        )
        assert index.supports(query)
        assert index.candidate_sentences(query) == {0, 1}

    def test_koko_adapter_matches_exact_on_paper_query(self, paper_corpus):
        index = KokoMultiIndex().build(paper_corpus)
        truth = matching_sentences(paper_corpus, DELICIOUS_QUERY)
        assert index.candidate_sentences(DELICIOUS_QUERY) == truth

    def test_size_ordering_matches_paper(self, happy_corpus):
        """Figure 6(b): KOKO smallest, INVERTED < ADVINVERTED < SUBTREE."""
        sizes = {
            cls().name: cls().build(happy_corpus).approximate_bytes()
            for cls in all_index_designs()
        }
        assert sizes["KOKO"] < sizes["INVERTED"]
        assert sizes["INVERTED"] < sizes["ADVINVERTED"]
        assert sizes["ADVINVERTED"] < sizes["SUBTREE"]

    def test_effectiveness_ordering_matches_paper(self, happy_corpus):
        """Figures 7-8 (b): KOKO ~ ADVINVERTED ~ 1.0 > INVERTED."""
        from repro.corpora.synthetic_queries import generate_tree_benchmark

        queries = generate_tree_benchmark(happy_corpus, queries_per_setting=1)[:30]
        indexes = {cls().name: cls().build(happy_corpus) for cls in all_index_designs()}
        effectiveness = {name: [] for name in indexes}
        for benchmark_query in queries:
            truth = matching_sentences(happy_corpus, benchmark_query.query)
            for name, index in indexes.items():
                if not index.supports(benchmark_query.query):
                    continue
                candidates = index.candidate_sentences(benchmark_query.query)
                effectiveness[name].append(index_effectiveness(candidates, truth))
        mean = {n: sum(v) / len(v) for n, v in effectiveness.items() if v}
        assert mean["KOKO"] >= 0.95
        assert mean["ADVINVERTED"] >= 0.95
        assert mean["INVERTED"] < mean["KOKO"]

    def test_build_records_time(self, paper_corpus):
        index = InvertedIndex().build(paper_corpus)
        assert index.build_seconds >= 0.0
