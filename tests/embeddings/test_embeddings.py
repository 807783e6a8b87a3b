"""Tests for the embedding substrate: vectors, PPMI, retrofit, expansion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.embeddings.vectors as vectors_module
from repro.embeddings.cooccurrence import CooccurrenceCounter
from repro.embeddings.expansion import DescriptorExpander
from repro.embeddings.ontology import DomainOntology, default_ontology
from repro.embeddings.paraphrase import CounterFitter, ParaphraseLexicon
from repro.embeddings.ppmi import PpmiSvdEmbedder
from repro.embeddings.pretrained import build_default_vectors
from repro.embeddings.vectors import VectorStore
from repro.errors import EmbeddingError


class TestVectorStore:
    def test_add_and_similarity(self):
        store = VectorStore(dimensions=4)
        store.add("a", np.array([1.0, 0, 0, 0]))
        store.add("b", np.array([1.0, 0, 0, 0]))
        store.add("c", np.array([0, 1.0, 0, 0]))
        assert store.similarity("a", "b") == pytest.approx(1.0)
        assert store.similarity("a", "c") == pytest.approx(0.0)

    def test_identical_word_similarity_is_one(self):
        store = VectorStore(dimensions=4)
        assert store.similarity("zzz", "ZZZ") == 1.0

    def test_unknown_word_backfill_deterministic(self):
        store = VectorStore(dimensions=8)
        assert np.allclose(store.vector("mystery"), store.vector("mystery"))

    def test_backfill_is_memoised_bit_identically_and_bounded(self, monkeypatch):
        store = VectorStore(dimensions=8)
        first = store.vector("Mystery")
        assert store.vector("mystery") is first  # remembered, case-folded
        assert first.tobytes() == vectors_module._hash_vector("mystery", 8).tobytes()
        assert store.copy().vector("mystery") is not first  # memo not shared
        # a word added later wins over its remembered back-fill
        store.add("mystery", np.arange(1.0, 9.0))
        assert store.vector("mystery") is not first
        # past the limit the memo restarts instead of growing
        monkeypatch.setattr(vectors_module, "_BACKFILL_MEMO_LIMIT", 3)
        small = VectorStore(dimensions=4)
        for word in "abcdefg":
            assert (
                small.vector(word).tobytes()
                == vectors_module._hash_vector(word, 4).tobytes()
            )
            assert len(small._backfill) <= 3

    def test_backfill_disabled_raises(self):
        store = VectorStore(dimensions=4, backfill_unknown=False)
        with pytest.raises(EmbeddingError):
            store.vector("unknown")

    def test_wrong_dimension_rejected(self):
        store = VectorStore(dimensions=4)
        with pytest.raises(EmbeddingError):
            store.add("a", np.ones(3))

    def test_nearest(self):
        store = VectorStore(dimensions=3)
        store.add("a", np.array([1.0, 0, 0]))
        store.add("b", np.array([0.9, 0.1, 0]))
        store.add("c", np.array([0, 0, 1.0]))
        nearest = store.nearest("a", k=1)
        assert nearest[0][0] == "b"

    def test_phrase_similarity(self):
        store = VectorStore(dimensions=3)
        store.add("serves", np.array([1.0, 0, 0]))
        store.add("coffee", np.array([0, 1.0, 0]))
        store.add("sells", np.array([1.0, 0.05, 0]))
        assert store.phrase_similarity("serves coffee", "sells coffee") > 0.9

    def test_copy_independent(self):
        store = VectorStore(dimensions=3)
        store.add("a", np.array([1.0, 0, 0]))
        clone = store.copy()
        clone.add("a", np.array([0, 1.0, 0]))
        assert store.similarity("a", "a") == 1.0
        assert abs(float(np.dot(store.vector("a"), clone.vector("a")))) < 0.01

    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_backfilled_vectors_are_unit_norm(self, word):
        store = VectorStore(dimensions=16)
        assert np.linalg.norm(store.vector(word)) == pytest.approx(1.0)


class TestCooccurrenceAndPpmi:
    SENTENCES = [
        ["the", "cafe", "serves", "coffee"],
        ["the", "cafe", "serves", "espresso"],
        ["the", "shop", "sells", "coffee"],
        ["the", "shop", "sells", "espresso"],
        ["dogs", "chase", "cats", "daily"],
    ] * 3

    def test_counts_symmetric(self):
        counts = CooccurrenceCounter(window=2, min_count=1).count_token_lists(self.SENTENCES)
        assert counts.pair_counts[("cafe", "serves")] == counts.pair_counts[("serves", "cafe")]

    def test_min_count_filters_vocabulary(self):
        counts = CooccurrenceCounter(window=2, min_count=100).count_token_lists(self.SENTENCES)
        assert counts.vocabulary == []

    def test_ppmi_svd_shapes(self):
        counts = CooccurrenceCounter(window=2, min_count=1).count_token_lists(self.SENTENCES)
        store = PpmiSvdEmbedder(dimensions=8).fit(counts)
        assert len(store) == len(counts.vocabulary)
        assert store.vector("coffee").shape == (min(8, len(counts.vocabulary)),)

    def test_ppmi_distributional_similarity(self):
        counts = CooccurrenceCounter(window=2, min_count=1).count_token_lists(self.SENTENCES)
        store = PpmiSvdEmbedder(dimensions=8).fit(counts)
        # coffee and espresso share contexts; coffee and cats do not
        assert store.similarity("coffee", "espresso") > store.similarity("coffee", "cats")

    def test_empty_vocabulary_rejected(self):
        counts = CooccurrenceCounter(min_count=5).count_token_lists([["one", "off"]])
        with pytest.raises(EmbeddingError):
            PpmiSvdEmbedder().fit(counts)


class TestParaphraseAndCounterFitting:
    def test_lexicon_synonyms(self):
        lexicon = ParaphraseLexicon()
        assert "sell" in lexicon.synonyms("serve")
        assert lexicon.are_paraphrases("employ", "hire")
        assert not lexicon.are_paraphrases("coffee", "tea")

    def test_lexicon_antonyms(self):
        lexicon = ParaphraseLexicon()
        assert lexicon.are_antonyms("happy", "sad")
        assert not lexicon.are_antonyms("happy", "glad")

    def test_counterfit_pulls_synonyms_together(self):
        store = VectorStore(dimensions=16)
        rng = np.random.default_rng(0)
        for word in ["serve", "sell", "coffee", "tea"]:
            store.add(word, rng.standard_normal(16))
        before = store.similarity("serve", "sell")
        fitted = CounterFitter(iterations=5).fit(store)
        assert fitted.similarity("serve", "sell") > before

    def test_counterfit_pushes_topical_nonparaphrases_apart(self):
        store = build_default_vectors()
        assert store.similarity("coffee", "tea") < store.similarity("coffee", "espresso")

    def test_default_vectors_city_country(self):
        store = build_default_vectors()
        assert store.similarity("tokyo", "city") > store.similarity("tokyo", "country")
        assert store.similarity("china", "country") > store.similarity("china", "city")


class TestOntologyAndExpansion:
    def test_default_ontology_groups(self):
        onto = default_ontology()
        assert "cappuccino" in onto.related("coffee")
        assert onto.group_of("espresso") == "coffee_drinks"

    def test_custom_ontology(self):
        onto = DomainOntology()
        onto.add_group("drinks", {"mead", "cider"})
        assert onto.related("mead") == {"cider"}

    def test_expansion_includes_original_first(self):
        expanded = DescriptorExpander().expand("serves coffee")
        assert expanded[0].phrase == "serves coffee"
        assert expanded[0].score == 1.0

    def test_expansion_reaches_paraphrases(self):
        phrases = {e.phrase for e in DescriptorExpander().expand("serves coffee")}
        assert any("sell" in p for p in phrases)
        assert any("espresso" in p or "cappuccino" in p for p in phrases)

    def test_expansion_avoids_tea(self):
        phrases = {e.phrase for e in DescriptorExpander().expand("serves coffee")}
        assert "serves tea" not in phrases

    def test_expansion_respects_max(self):
        expander = DescriptorExpander(max_expansions=3)
        assert len(expander.expand("serves coffee")) <= 3

    def test_expansion_scores_in_unit_interval(self):
        for expanded in DescriptorExpander().expand("employs baristas"):
            assert 0.0 <= expanded.score <= 1.0

    def test_empty_descriptor(self):
        assert DescriptorExpander().expand("") == []

    def test_expansion_with_vectors_scores_by_similarity(self):
        vectors = build_default_vectors()
        expander = DescriptorExpander(vectors=vectors)
        expanded = {e.phrase: e.score for e in expander.expand("serves coffee")}
        assert expanded["serves coffee"] == 1.0
        others = [s for p, s in expanded.items() if p != "serves coffee"]
        assert others and all(s <= 1.0 for s in others)
