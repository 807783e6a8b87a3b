"""Tests for the columnar postings engine.

Three layers, mirroring ``src/repro/indexing/columnar.py``:

* :class:`ColumnarPostings` — the delta/main store itself (append order,
  compaction, sid removal, identity keys);
* the ``join_*_block`` vectorized posting algebra, compared against the
  object-backed joins of ``repro.indexing.postings``;
* backend equivalence — ``KokoIndexSet(columnar=True)`` must be
  observationally identical to the object-backed build (postings,
  hierarchy paths, node ids, statistics) across batch builds, incremental
  adds, removals, single-sentence splices and the ``to_arrays`` /
  ``from_arrays`` round trip a snapshot takes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.indexing.columnar import (
    ColumnarPostings,
    PostingBlock,
    StringInterner,
    join_ancestor_block,
    join_same_token_block,
    pack_strings,
    parent_of_block,
    unpack_strings,
)
from repro.indexing.hierarchy import parse_label_index
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.postings import (
    Posting,
    join_ancestor,
    join_same_token,
    parent_of,
    posting_for_token,
)
from repro.indexing.word_index import WordIndex


def _int(values):
    return np.asarray(list(values), np.int64)


def _block(postings: list[Posting], interner: StringInterner) -> PostingBlock:
    ordered = sorted(postings)  # join blocks require ascending sentence ids
    return PostingBlock(
        _int(p.sid for p in ordered),
        _int(p.tid for p in ordered),
        _int(p.left for p in ordered),
        _int(p.right for p in ordered),
        _int(p.depth for p in ordered),
        _int(interner.intern(p.word) for p in ordered),
        interner,
    )


class TestStringInterner:
    def test_intern_many_matches_intern(self):
        a, b = StringInterner(), StringInterner()
        texts = ["ate", "pie", "ate", "Anna", "pie"]
        assert a.intern_many(texts) == [b.intern(t) for t in texts]
        assert [a.text(i) for i in range(len(a))] == ["ate", "pie", "Anna"]


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
        store.remove_sid(0)
        assert store.total_rows == 1
        assert store.arrays_for_key(kids[0])[0].tolist() == [1]
        assert store.key_count(kids[1]) == 0
        assert store.live_key_ids() == [kids[0]]

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


    def test_load_compacts_rows_in_any_order(self):
        """Rows captured as main + delta tail land key-sorted, order kept."""
        live = ColumnarPostings(("sid", "tid"))
        kid_a, kid_b = live.intern_key("a"), live.intern_key("b")
        live.append_batch([kid_a, kid_b], ([0, 0], [3, 1]))
        live.compact()
        live.append_batch([kid_a], ([1], [2]))  # un-compacted tail
        kid, cols = live.all_arrays_with_keys()
        loaded = ColumnarPostings(("sid", "tid"))
        loaded.load(kid.astype(np.uint8), [c.astype(np.int16) for c in cols], keys=live.keys())
        assert not loaded._delta_kid
        assert loaded.key_id("b") == kid_b
        assert loaded.arrays_for_key(kid_a)[1].tolist() == [3, 2]
        assert all(col.dtype == np.int64 for col in loaded.all_arrays())
        # a key interned after the restore continues the id sequence
        assert loaded.intern_key("c") == live.intern_key("c")

    @pytest.mark.parametrize(
        "kids, cols, keys",
        [
            ([0, 1], ([0, 0],), ["a", "b"]),  # missing column
            ([0, 1], ([0, 0], [1]), ["a", "b"]),  # length mismatch
            ([0, 2], ([0, 0], [1, 1]), ["a", "b"]),  # key id past the key table
            ([0, -1], ([0, 0], [1, 1]), ["a", "b"]),  # negative key id
            ([0, 1], ([0, 0], [1, 1]), ["a", "a"]),  # duplicate keys
            ([0.0, 1.0], ([0, 0], [1, 1]), ["a", "b"]),  # not integers
        ],
    )
    def test_load_rejects_malformed_columns(self, kids, cols, keys):
        store = ColumnarPostings(("sid", "tid"))
        with pytest.raises(ValueError):
            store.load(np.asarray(kids), [np.asarray(c) for c in cols], keys=keys)

    def test_packed_strings_round_trip(self):
        texts = ["", "Tōkyō", "a\x00b", "\udc80", "pie"]
        arrays = pack_strings("t", texts)
        assert sorted(arrays) == ["t", "t.ends"] and arrays["t"].dtype == np.uint8
        assert unpack_strings(arrays, "t") == texts
        assert unpack_strings(pack_strings("t", []), "t") == []
        arrays["t.ends"] = arrays["t.ends"][:-1]  # offsets stop short of the bytes
        with pytest.raises(ValueError):
            unpack_strings(arrays, "t")


class TestBlockAlgebra:
    def test_join_ancestor_block_matches_object(self, paper_corpus):
        index = WordIndex()
        index.add_corpus(paper_corpus)
        interner = StringInterner()
        ate = index.lookup("ate")
        delicious = index.lookup("delicious")
        for gap in (1, 2, 5):
            expected = sorted(join_ancestor(ate, delicious, min_gap=gap))
            got = join_ancestor_block(
                _block(ate, interner), _block(delicious, interner), min_gap=gap
            ).materialize()
            assert sorted(got) == expected

    def test_join_same_token_block_matches_object(self):
        interner = StringInterner()
        left = [Posting(0, 3, 3, 3, 2, "x"), Posting(0, 4, 4, 4, 2), Posting(1, 3, 3, 3, 1)]
        right = [Posting(0, 3, 3, 3, 2, "y"), Posting(1, 0, 0, 5, 0)]
        expected = sorted(join_same_token(left, right))
        got = join_same_token_block(
            _block(left, interner), _block(right, interner)
        ).materialize()
        assert sorted(got) == expected

    def test_parent_of_block_matches_object(self, paper_sentence_2):
        interner = StringInterner()
        postings = [posting_for_token(paper_sentence_2, t) for t in range(len(paper_sentence_2))]
        ate = [posting_for_token(paper_sentence_2, 1)]
        mask = parent_of_block(_block(ate, interner), _block(postings, interner))
        block = _block(postings, interner)
        for kept, child in zip(mask.tolist(), block.materialize()):
            assert kept == parent_of(ate[0], child)


class TestBackendEquivalence:
    @pytest.mark.parametrize("corpus_fixture", ["paper_corpus", "happy_corpus"])
    def test_build_matches_object_backend(
        self, corpus_fixture, request, assert_equivalent_indexes
    ):
        corpus = request.getfixturevalue(corpus_fixture)
        columnar = KokoIndexSet(columnar=True).build(corpus)
        object_backed = KokoIndexSet().build(corpus)
        assert_equivalent_indexes(columnar, object_backed)
        # the columnar trie walk reproduces the recursive merge order, so
        # even the hierarchy node ids coincide
        assert {n.node_id for n in columnar.pl_index.nodes()} == {
            n.node_id for n in object_backed.pl_index.nodes()
        }

    def test_incremental_add_matches_batch_build(
        self, paper_corpus, assert_equivalent_indexes
    ):
        incremental = KokoIndexSet(columnar=True)
        for document in paper_corpus:
            incremental.add_document(document)
        assert_equivalent_indexes(
            incremental, KokoIndexSet(columnar=True).build(paper_corpus)
        )

    def test_sentence_splice_matches_batch_build(
        self, paper_corpus, assert_equivalent_indexes
    ):
        """The single-sentence splice is the batch splice of one sentence."""
        one_by_one = KokoIndexSet(columnar=True)
        for _, sentence in paper_corpus.all_sentences():
            one_by_one.add_sentence(sentence)
        assert_equivalent_indexes(
            one_by_one, KokoIndexSet(columnar=True).build(paper_corpus)
        )

    def test_remove_matches_add_only_survivors(
        self, paper_corpus, assert_equivalent_indexes
    ):
        full = KokoIndexSet(columnar=True).build(paper_corpus)
        full.remove_document(paper_corpus.documents[0])
        survivors = KokoIndexSet(columnar=True)
        for document in paper_corpus.documents[1:]:
            survivors.add_document(document)
        assert_equivalent_indexes(full, survivors)

    def test_arrays_round_trip(self, paper_corpus, assert_equivalent_indexes):
        """``from_arrays(to_arrays())`` — the snapshot payload — is lossless."""
        columnar = KokoIndexSet(columnar=True).build(paper_corpus)
        arrays = columnar.to_arrays()
        assert not any(name.startswith(("PL.sid", "POS.sid")) for name in arrays)
        restored = KokoIndexSet.from_arrays(arrays, build_seconds=1.5)
        assert restored.columnar and restored.build_seconds == 1.5
        assert_equivalent_indexes(restored, columnar)
        assert_equivalent_indexes(restored, KokoIndexSet().build(paper_corpus))
        for original, rebuilt in (
            (columnar.pl_index, restored.pl_index),
            (columnar.pos_index, restored.pos_index),
        ):
            assert {n.node_id: n.path() for n in rebuilt.nodes()} == {
                n.node_id: n.path() for n in original.nodes()
            }


    def test_columnar_indexes_refuse_the_object_splice(self, paper_sentence_2):
        """One columnar splice (KokoIndexSet's batch path), not one per index."""
        indexes = KokoIndexSet(columnar=True)
        for index in (
            indexes.word_index, indexes.entity_index, indexes.pl_index, indexes.pos_index
        ):
            with pytest.raises(RuntimeError, match="columnar"):
                index.add_sentence(paper_sentence_2)
        assert indexes.statistics().tokens == 0


class TestMergeMemo:
    def test_identical_tree_shapes_share_the_walk(self):
        index = parse_label_index(columnar=True)
        children = ((1, 2), (), ())
        labels = ["root", "nsubj", "dobj"]
        first = index.merge_tree(0, children, labels)
        second = index.merge_tree(0, children, labels)
        assert second is first  # memo hit returns the cached list itself
        assert index.merge_tree(0, children, ["root", "dobj", "nsubj"]) != first

    def test_remove_clears_the_memo(self, paper_corpus):
        indexes = KokoIndexSet(columnar=True).build(paper_corpus)
        assert indexes.pl_index._merge_memo
        indexes.remove_document(paper_corpus.documents[0])
        assert not indexes.pl_index._merge_memo
        assert not indexes.pos_index._merge_memo

    def test_readd_after_remove_matches_fresh_build(
        self, paper_corpus, assert_equivalent_indexes
    ):
        """Node pruning invalidates memoised ids; re-merging must rebuild."""
        indexes = KokoIndexSet(columnar=True).build(paper_corpus)
        indexes.remove_document(paper_corpus.documents[0])
        indexes.add_document(paper_corpus.documents[0])
        assert_equivalent_indexes(
            indexes, KokoIndexSet(columnar=True).build(paper_corpus)
        )
