"""Tests for postings, the word/entity indexes, and the hierarchy indexes."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexing.columnar import join_ancestor_block
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.reference import ReferenceIndexSet
from repro.indexing.postings import (
    Posting,
    ancestor_of,
    join_ancestor,
    join_same_token,
    parent_of,
    posting_for_token,
    union,
)


def _mention_texts(corpus, mentions) -> list[str]:
    """Each ``(sid, left, right, etype)`` mention's text: its sentence's span."""
    sentences = {sentence.sid: sentence for _, sentence in corpus.all_sentences()}
    return [sentences[sid].span_text(left, right) for sid, left, right, _ in mentions]


class TestPostings:
    def test_posting_for_token_matches_paper_example(self, paper_sentence_2):
        # Example 3.2: ate in sentence 1 -> (1,1,0-12,0)
        posting = posting_for_token(paper_sentence_2, 1)
        assert (posting.tid, posting.left, posting.right, posting.depth) == (1, 0, 12, 0)

    def test_delicious_posting(self, paper_sentence_1):
        posting = posting_for_token(paper_sentence_1, 9)
        assert posting.word == "delicious"
        assert posting.depth >= 2

    def test_parent_of_rule(self, paper_sentence_2):
        ate = posting_for_token(paper_sentence_2, 1)
        cheesecake = posting_for_token(paper_sentence_2, 4)
        assert parent_of(ate, cheesecake)
        assert not parent_of(cheesecake, ate)

    def test_ancestor_of_with_gap(self, paper_sentence_1):
        ate = posting_for_token(paper_sentence_1, 1)
        delicious = posting_for_token(paper_sentence_1, 9)
        assert ancestor_of(ate, delicious, min_gap=2)
        assert not ancestor_of(ate, delicious, min_gap=5)

    def test_union_deduplicates_and_sorts(self):
        a = Posting(0, 1, 0, 5, 0)
        b = Posting(0, 1, 0, 5, 0)
        c = Posting(1, 0, 0, 0, 1)
        merged = union([[a], [b, c]])
        assert merged == [a, c]

    def test_comparisons_ignore_word(self):
        """Regression: ``word`` is a display annotation, not identity —
        identical quintuples with different surface case (original token
        text vs a restored lower-cased W key) must compare and hash equal,
        so sort order never depends on posting provenance."""
        a = Posting(0, 1, 0, 5, 0, "Ate")
        b = Posting(0, 1, 0, 5, 0, "ate")
        assert a == b
        assert hash(a) == hash(b)
        assert not (a < b) and not (b < a)
        # and ordering is driven purely by the quintuple fields
        c = Posting(0, 0, 0, 5, 0, "zzz")
        assert sorted([a, c]) == [c, a]

    def test_join_same_token(self):
        a = Posting(0, 3, 3, 3, 2, "x")
        b = Posting(0, 3, 3, 3, 2, "y")
        c = Posting(0, 4, 4, 4, 2)
        assert join_same_token([a, c], [b]) == [a]

    def test_join_ancestor_example_4_4(self, paper_corpus, paper_indexes, posting_rows):
        """Example 4.4: join 'ate' and 'delicious' postings with gap 2."""
        index = ReferenceIndexSet().build(paper_corpus).word_index
        ate = index.lookup("ate")
        delicious = index.lookup("delicious")
        joined = join_ancestor(ate, delicious, min_gap=2)
        assert {(p.sid, p.word) for p in joined} == {(0, "delicious"), (1, "delicious")}
        # the production columns join to the very same rows
        words = paper_indexes.word_index
        block = join_ancestor_block(words.lookup("ate"), words.lookup("delicious"), 2)
        assert posting_rows(block) == posting_rows(joined)

    @given(
        st.integers(0, 5), st.integers(0, 20), st.integers(0, 20), st.integers(0, 6),
        st.integers(0, 5), st.integers(0, 20), st.integers(0, 20), st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_parent_implies_ancestor(self, s1, l1, r1, d1, s2, l2, r2, d2):
        if r1 < l1 or r2 < l2:
            return
        p = Posting(s1, l1, l1, r1, d1)
        c = Posting(s2, l2, l2, r2, d2)
        if parent_of(p, c):
            assert ancestor_of(p, c)


class TestWordAndEntityIndexes:
    def test_word_index_lookup_case_insensitive(self, paper_indexes):
        index = paper_indexes.word_index
        assert index.lookup("ATE").size == 3  # twice in sentence 0, once in sentence 1

    def test_word_index_vocabulary(self, paper_indexes):
        index = paper_indexes.word_index
        assert "delicious" in index
        assert "zebra" not in index

    def test_entity_index_by_text_and_type(self, paper_corpus, paper_indexes, mention_rows):
        index = paper_indexes.entity_index
        mentions = mention_rows(index)
        assert _mention_texts(paper_corpus, mentions).count("cheesecake") == 1
        assert len(index.lookup_type("Entity")[0]) == len(index) == len(mentions)
        people = mention_rows(index, index.lookup_type("Person"))
        assert people and all(etype == "PERSON" for _, _, _, etype in people)

    def test_entity_index_example_3_2(self, paper_corpus, paper_indexes, mention_rows):
        mentions = mention_rows(paper_indexes.entity_index)
        chunk = [
            (left, right)
            for (_, left, right, _), text in zip(mentions, _mention_texts(paper_corpus, mentions))
            if text == "chocolate ice cream"
        ]
        assert chunk == [(3, 5)]


class TestHierarchyIndexes:
    def test_merging_reduces_nodes(self, happy_corpus):
        index = KokoIndexSet().build(happy_corpus).pl_index
        assert index.node_count < index.token_count
        assert 0.0 < index.compression_ratio() < 1.0

    def test_pl_index_has_single_root_child(self, paper_indexes):
        index = paper_indexes.pl_index
        top_labels = {
            node.label for node in index.nodes() if node.depth == 0
        }
        assert top_labels == {"root"}

    def test_example_3_3_merged_postings(self, paper_corpus, paper_indexes, block_words):
        """/root/dobj posting list contains cheesecake and cream (Example 3.3)."""
        index = paper_indexes.pl_index
        block = index.lookup_path([("/", "root"), ("/", "dobj")])
        assert {"cream", "cheesecake"} <= block_words(paper_corpus, block)

    def test_wildcard_lookup(self, paper_corpus, paper_indexes):
        index = paper_indexes.pl_index
        all_tokens = index.lookup_path([("//", "*")])
        assert all_tokens.size == paper_corpus.num_tokens

    def test_missing_path_returns_empty(self, paper_indexes):
        index = paper_indexes.pl_index
        assert index.lookup_path([("/", "root"), ("/", "xcomp"), ("/", "xcomp")]).size == 0

    def test_pos_index_lookup(self, paper_corpus, paper_indexes, block_words):
        index = paper_indexes.pos_index
        verbs = index.lookup_path([("//", "VERB")])
        assert {word.lower() for word in block_words(paper_corpus, verbs)} >= {
            "ate", "was", "bought"
        }

    def test_node_id_recorded_per_token(
        self, paper_corpus, paper_indexes, recorded_node_ids
    ):
        sentence = paper_corpus.documents[0].sentences[0]
        node_ids = recorded_node_ids(paper_indexes)
        for token in sentence:
            plid, posid = node_ids[(sentence.sid, token.index)]
            assert paper_indexes.pl_index.node_by_id(plid).label == token.label
            assert paper_indexes.pos_index.node_by_id(posid).label == token.pos

    def test_unique_paths(self, paper_indexes):
        index = paper_indexes.pl_index
        paths = [node.path() for node in index.nodes()]
        assert len(paths) == len(set(paths))


class TestKokoIndexSet:
    def test_statistics(self, paper_indexes):
        stats = paper_indexes.statistics()
        assert stats.sentences == 2
        assert stats.tokens == 30
        assert stats.word_postings == 30
        assert stats.pl_nodes > 0
        assert stats.approximate_bytes > 0

    def test_word_index_carries_hierarchy_node_ids(self, paper_indexes, recorded_node_ids):
        plid, posid = recorded_node_ids(paper_indexes)[(0, 1)]
        assert plid >= 0 and posid >= 0
        assert paper_indexes.pl_index.node_by_id(plid).label == "root"
