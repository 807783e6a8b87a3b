"""Tests for the columnar postings engine.

Three layers, mirroring ``src/repro/indexing/columnar.py``:

* :class:`ColumnarPostings` — the delta/main store itself (append order,
  compaction, sid removal, identity keys);
* the ``join_*_block`` vectorized posting algebra, compared against the
  object-list joins of ``repro.indexing.postings`` and against ancestry
  walked up random ``heads`` arrays;
* equivalence — ``KokoIndexSet()`` must be observationally identical to
  the object-list reference build (postings, hierarchy paths, node ids,
  statistics) across batch builds, incremental adds, removals and
  single-sentence splices.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora.wikipedia import WikipediaConfig, generate_wikipedia_corpus
from repro.indexing.columnar import (
    ColumnarPostings,
    PostingBlock,
    join_ancestor_block,
    join_same_token_block,
    under_words_block,
)
from repro.indexing.hierarchy import parse_label_index
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.postings import Posting, join_ancestor, join_same_token
from repro.indexing.reference import ReferenceIndexSet
from repro.nlp.types import Document


def _int(values):
    return np.asarray(list(values), np.int64)


def _block(postings: list[Posting]) -> PostingBlock:
    ordered = sorted(postings)  # join blocks require ascending sentence ids
    columns = ("sid", "tid", "left", "right", "depth")
    return PostingBlock(*(_int(getattr(p, name) for p in ordered) for name in columns))


class TestColumnarPostings:
    def test_first_column_must_be_sid(self):
        with pytest.raises(ValueError, match="sid"):
            ColumnarPostings(("tid", "sid"))

    def test_per_key_rows_keep_insertion_order_across_compaction(self):
        store = ColumnarPostings(("sid", "tid"))
        kid_a = store.intern_key("a")
        kid_b = store.intern_key("b")
        store.append_batch([kid_a, kid_b, kid_a], ([0, 0, 1], [3, 1, 2]))
        before = tuple(col.tolist() for col in store.arrays_for_key(kid_a))
        store.compact()
        after = tuple(col.tolist() for col in store.arrays_for_key(kid_a))
        assert before == after == ([0, 1], [3, 2])
        # appends after compaction land in the delta and still read back
        store.append_batch([kid_a], ([2], [7]))
        assert store.arrays_for_key(kid_a)[1].tolist() == [3, 2, 7]
        assert store.arrays_for_key(kid_b)[1].tolist() == [1]

    def test_remove_sid_drops_rows_for_every_key(self):
        store = ColumnarPostings(("sid", "tid"))
        kids = [store.intern_key(k) for k in ("a", "b", "a")]
        store.append_batch(kids, ([0, 0, 1], [0, 1, 2]))
        store.remove_sids(_int([0]))
        assert store.total_rows == 1
        assert store.arrays_for_key(kids[0])[0].tolist() == [1]
        assert store.key_count(kids[1]) == 0
        assert store.live_key_ids() == [kids[0]]

    def test_remove_sids_drops_several_sentences_in_one_compaction(self, monkeypatch):
        store = ColumnarPostings(("sid", "tid"))
        kids = [store.intern_key(k) for k in ("a", "b", "a", "b", "a")]
        store.append_batch(kids, ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]))
        compactions = []
        compact = ColumnarPostings.compact
        monkeypatch.setattr(
            ColumnarPostings, "compact", lambda self: compactions.append(1) or compact(self)
        )
        store.remove_sids(_int([1, 2, 7]))  # 7 holds no row
        assert compactions == [1]
        assert store.arrays_for_key(kids[0])[0].tolist() == [0, 4]
        assert store.arrays_for_key(kids[1])[0].tolist() == [3]
        store.remove_sids(_int([]))
        assert compactions == [1] and store.total_rows == 3

    def test_identity_keys(self):
        store = ColumnarPostings(("sid",), identity_keys=True)
        with pytest.raises(ValueError, match="non-negative"):
            store.intern_key(-1)
        store.ensure_key_capacity(5)
        store.append_batch([4, 2], ([0], [1]))
        assert store.key_id(4) == 4
        assert store.key_id(7) is None
        assert store.key_of(2) == 2

    def test_large_batches_trigger_automatic_compaction(self):
        store = ColumnarPostings(("sid", "tid"))
        kid = store.intern_key("a")
        rows = 5000  # past the 4096-row delta threshold
        store.append_batch([kid] * rows, (list(range(rows)), [0] * rows))
        assert store.total_rows == rows
        assert not store._delta_kid  # the delta was folded into main
        assert store.arrays_for_key(kid)[0].tolist() == list(range(rows))


class TestBlockAlgebra:
    def test_join_ancestor_block_matches_object(self, paper_corpus, posting_rows):
        index = ReferenceIndexSet().build(paper_corpus).word_index
        ate = index.lookup("ate")
        delicious = index.lookup("delicious")
        for gap in (1, 2, 5):
            expected = posting_rows(sorted(join_ancestor(ate, delicious, min_gap=gap)))
            got = join_ancestor_block(_block(ate), _block(delicious), min_gap=gap)
            assert sorted(posting_rows(got)) == expected

    def test_join_same_token_block_matches_object(self, posting_rows):
        left = [Posting(0, 3, 3, 3, 2, "x"), Posting(0, 4, 4, 4, 2), Posting(1, 3, 3, 3, 1)]
        right = [Posting(0, 3, 3, 3, 2, "y"), Posting(1, 0, 0, 5, 0)]
        expected = posting_rows(sorted(join_same_token(left, right)))
        got = join_same_token_block(_block(left), _block(right))
        assert sorted(posting_rows(got)) == expected


# ----------------------------------------------------------------------
# the interval predicates against ancestry walked up random heads arrays
# ----------------------------------------------------------------------
@st.composite
def _trees(draw):
    """A random dependency tree as a ``heads`` array (``-1`` = the root).

    Tokens are attached in a random order, each under one attached
    before it, so every heads array is a tree, projective or not.
    """
    size = draw(st.integers(1, 9))
    order = draw(st.permutations(range(size)))
    heads = [-1] * size
    for at in range(1, size):
        heads[order[at]] = order[draw(st.integers(0, at - 1))]
    return heads


def _region_encoding(heads: list[int]) -> list[tuple[int, int, int]]:
    """Per token ``(left, right, depth)``: the pre-order region encoding of
    XML twig joins (DMR-XPath), where ``left`` is the token's pre-order rank,
    ``right`` the last rank of its subtree and ``depth`` its level — so
    containment is ancestry on any tree, projective or not."""
    children: list[list[int]] = [[] for _ in heads]
    for tid, head in enumerate(heads):
        if head != -1:
            children[head].append(tid)
    encoding = [(0, 0, 0)] * len(heads)
    rank = 0

    def visit(tid: int, depth: int) -> None:
        nonlocal rank
        left = rank
        rank += 1
        for child in children[tid]:
            visit(child, depth + 1)
        encoding[tid] = (left, rank - 1, depth)

    visit(heads.index(-1), 0)
    return encoding


def _distance(heads: list[int], ancestor: int, token: int) -> int | None:
    """Edges from *token* up to *ancestor* by walking heads; ``None`` if
    *ancestor* is not on the way to the root (0 when they are the same)."""
    steps = 0
    while token != -1:
        if token == ancestor:
            return steps
        token, steps = heads[token], steps + 1
    return None


@st.composite
def _forests(draw):
    """Random trees (one per sentence id) and two random token subsets."""
    trees = draw(st.lists(_trees(), min_size=1, max_size=3))
    tokens = [(sid, tid) for sid, heads in enumerate(trees) for tid in range(len(heads))]
    subsets = [draw(st.lists(st.sampled_from(tokens), unique=True)) for _ in range(2)]
    return trees, subsets


def _encoded_block(trees, tokens) -> PostingBlock:
    """A ``(sid, tid)``-sorted block of *tokens* in the region encoding."""
    encodings = [_region_encoding(heads) for heads in trees]
    rows = [(sid, tid, *encodings[sid][tid]) for sid, tid in sorted(tokens)]
    if not rows:
        return PostingBlock.empty()
    return PostingBlock(*(_int(column) for column in zip(*rows)))


def _labelled(pairs) -> PostingBlock:
    """A block of ``(sid, tid)`` *pairs* whose ``left`` column is the row number."""
    sid, tid = (_int(column) for column in zip(*pairs)) if pairs else (_int(()), _int(()))
    rows = np.arange(len(sid))
    return PostingBlock(sid, tid, rows, rows, rows)


_ids = st.integers(0, 40)
_sorted_runs = st.lists(
    st.lists(st.tuples(_ids, _ids), max_size=12).map(sorted), max_size=8
).map(lambda runs: [pair for run in runs for pair in run])


class TestSortPositional:
    """``sort_positional`` returns exactly ``np.lexsort((tid, sid))``'s permutation."""

    @staticmethod
    def _check(pairs) -> None:
        block = _labelled(pairs)
        ordered = block.sort_positional()
        expected = np.lexsort((block.tid, block.sid))
        assert ordered.left.tolist() == expected.tolist()
        assert ordered.sid.tolist() == block.sid[expected].tolist()
        assert ordered.tid.tolist() == block.tid[expected].tolist()

    @settings(max_examples=200, deadline=None)
    @given(_sorted_runs)
    def test_concatenated_sorted_runs_with_duplicate_keys(self, pairs):
        """What a gather hands it: per-key runs, each sorted, keys repeating."""
        self._check(pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**32 - 1))))
    def test_arbitrary_rows(self, pairs):
        self._check(pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(2**31, 0), (1, 5), (2**31, 0), (0, 7)],  # a planned sid past 2**31
            [(3, 2**32), (3, 1), (2, 2**32 + 1), (3, 1)],  # a tid that does not fit
            [(2**40, 2**33), (5, 0), (2**40, 1)],
        ],
    )
    def test_ids_that_do_not_pack_take_the_lexsort(self, pairs, monkeypatch):
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
        block = _labelled(pairs)
        assert block.sort_positional().left.tolist() == real((block.tid, block.sid)).tolist()
        assert calls

    def test_packable_ids_never_call_lexsort(self, monkeypatch):
        monkeypatch.setattr(np, "lexsort", None)
        block = _labelled([(2**31 - 1, 2**32 - 1), (0, 3), (2**31 - 1, 0), (0, 3)])
        assert block.sort_positional().left.tolist() == [1, 3, 2, 0]


class TestIntervalOracle:
    """The vectorised interval predicates agree with ancestry derived by
    walking random ``heads`` arrays, whatever the tree's shape."""

    @settings(max_examples=60, deadline=None)
    @given(forest=_forests(), min_gap=st.integers(1, 3))
    def test_join_ancestor_block(self, forest, min_gap):
        trees, (ancestors, descendants) = forest
        got = join_ancestor_block(
            _encoded_block(trees, ancestors), _encoded_block(trees, descendants), min_gap
        )
        expected = [
            (sid, tid)
            for sid, tid in sorted(descendants)
            if any(
                a_sid == sid and (_distance(trees[sid], a_tid, tid) or 0) >= min_gap
                for a_sid, a_tid in ancestors
            )
        ]
        assert list(zip(got.sid.tolist(), got.tid.tolist())) == expected

    @settings(max_examples=60, deadline=None)
    @given(forest=_forests())
    def test_under_words_block(self, forest):
        trees, (candidates, words) = forest
        got = under_words_block(
            _encoded_block(trees, candidates), _encoded_block(trees, words)
        )
        expected = [
            (sid, tid)
            for sid, tid in sorted(candidates)
            if any(
                w_sid == sid and _distance(trees[sid], w_tid, tid) is not None
                for w_sid, w_tid in words
            )
        ]
        assert list(zip(got.sid.tolist(), got.tid.tolist())) == expected

    @settings(max_examples=60, deadline=None)
    @given(forest=_forests())
    def test_join_same_token_block(self, forest):
        trees, (left, right) = forest
        got = join_same_token_block(_encoded_block(trees, left), _encoded_block(trees, right))
        assert list(zip(got.sid.tolist(), got.tid.tolist())) == sorted(set(left) & set(right))


class TestBackendEquivalence:
    @pytest.mark.parametrize("corpus_fixture", ["paper_corpus", "happy_corpus"])
    def test_build_matches_object_backend(
        self, corpus_fixture, request, assert_equivalent_indexes
    ):
        corpus = request.getfixturevalue(corpus_fixture)
        columnar = KokoIndexSet().build(corpus)
        object_backed = ReferenceIndexSet().build(corpus)
        assert_equivalent_indexes(columnar, object_backed)
        # the columnar trie walk reproduces the recursive merge order, so
        # even the hierarchy node ids coincide
        assert {n.node_id for n in columnar.pl_index.nodes()} == {
            n.node_id for n in object_backed.pl_index.nodes()
        }

    def test_incremental_add_matches_batch_build(
        self, paper_corpus, assert_equivalent_indexes
    ):
        incremental = KokoIndexSet()
        for document in paper_corpus:
            incremental.add_document(document)
        assert_equivalent_indexes(
            incremental, KokoIndexSet().build(paper_corpus)
        )

    def test_sentence_splice_matches_batch_build(
        self, paper_corpus, assert_equivalent_indexes
    ):
        """Splicing one sentence at a time builds what the batch splice does."""
        one_by_one = KokoIndexSet()
        for document, sentence in paper_corpus.all_sentences():
            one_by_one.add_document(Document(document.doc_id, [sentence]))
        assert_equivalent_indexes(
            one_by_one, KokoIndexSet().build(paper_corpus)
        )

    def test_remove_matches_add_only_survivors(
        self, paper_corpus, assert_equivalent_indexes
    ):
        full = KokoIndexSet().build(paper_corpus)
        full.remove_document(paper_corpus.documents[0])
        survivors = KokoIndexSet()
        for document in paper_corpus.documents[1:]:
            survivors.add_document(document)
        assert_equivalent_indexes(full, survivors)

    def test_removing_a_multi_sentence_document_equals_a_rebuild_without_it(
        self, pipeline, assert_equivalent_indexes, monkeypatch
    ):
        corpus = generate_wikipedia_corpus(
            WikipediaConfig(articles=6, seed=3), pipeline=pipeline
        )
        documents = corpus.documents
        victim = max(documents[1:-1], key=len)  # not the first, nor the last
        assert len(victim) >= 3 and any(s.entity_rows for s in victim)
        full = KokoIndexSet().build(corpus)
        passes = []
        remove_sids = ColumnarPostings.remove_sids
        monkeypatch.setattr(
            ColumnarPostings,
            "remove_sids",
            lambda self, sids: passes.append(len(sids)) or remove_sids(self, sids),
        )
        full.remove_document(victim)
        monkeypatch.undo()
        # one pass per store (W, E, PL, POS) for the document
        assert len(passes) == 4
        rebuilt = KokoIndexSet()
        for document in documents:
            if document is not victim:
                rebuilt.add_document(document)
        assert_equivalent_indexes(full, rebuilt)
        assert full.unrooted_sids().tolist() == rebuilt.unrooted_sids().tolist()

    def test_size_model_after_removals_matches_a_rebuild_without_them(self, happy_corpus):
        """The E store keeps no mention text, so the size model counts its
        bytes as it goes: a removal takes back exactly what the splice
        added, down to an empty index set's size once every document is
        gone."""
        documents = happy_corpus.documents
        victims = [d for d in documents if any(s.entity_rows for s in d)][::2]
        assert victims
        full = KokoIndexSet().build(happy_corpus)
        built = full.approximate_bytes()
        for document in victims:
            full.remove_document(document)
        rebuilt = KokoIndexSet()
        for document in documents:
            if document not in victims:
                rebuilt.add_document(document)
        assert full.approximate_bytes() == rebuilt.approximate_bytes() < built
        for document in documents:
            if document not in victims:
                full.remove_document(document)
        assert full.approximate_bytes() == KokoIndexSet().approximate_bytes()


class TestMergeMemo:
    def test_identical_tree_shapes_share_the_walk(self):
        index = parse_label_index()
        children = ((1, 2), (), ())
        labels = ["root", "nsubj", "dobj"]
        first = index.merge_tree(0, children, labels)
        second = index.merge_tree(0, children, labels)
        assert second is first  # memo hit returns the cached list itself
        assert index.merge_tree(0, children, ["root", "dobj", "nsubj"]) != first

    def test_remove_clears_the_memo(self, paper_corpus):
        indexes = KokoIndexSet().build(paper_corpus)
        assert indexes.pl_index._merge_memo
        indexes.remove_document(paper_corpus.documents[0])
        assert not indexes.pl_index._merge_memo
        assert not indexes.pos_index._merge_memo

    def test_readd_after_remove_matches_fresh_build(
        self, paper_corpus, assert_equivalent_indexes
    ):
        """Node pruning invalidates memoised ids; re-merging must rebuild."""
        indexes = KokoIndexSet().build(paper_corpus)
        indexes.remove_document(paper_corpus.documents[0])
        indexes.add_document(paper_corpus.documents[0])
        assert_equivalent_indexes(
            indexes, KokoIndexSet().build(paper_corpus)
        )
