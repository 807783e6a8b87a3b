"""Tests for hash-partitioned index storage (indexing/sharding.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.indexing.koko_index import IndexStatistics, KokoIndexSet
from repro.indexing.sharding import ShardedIndexSet, shard_of
from repro.koko.engine import compile_query
from repro.nlp.types import Corpus


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for doc_id in ("doc0", "doc1", "a-very-long-identifier", ""):
            for n in (1, 2, 4, 8):
                first = shard_of(doc_id, n)
                assert 0 <= first < n
                assert shard_of(doc_id, n) == first  # deterministic

    def test_shard_of_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            shard_of("doc0", 0)
        with pytest.raises(ValueError):
            ShardedIndexSet(0)

    def test_routing_spreads_documents(self):
        counts = [0, 0, 0, 0]
        for index in range(200):
            counts[shard_of(f"doc{index}", 4)] += 1
        assert all(count > 0 for count in counts)  # no empty shard at 200 docs

    def test_shard_for_matches_shard_id(self):
        sharded = ShardedIndexSet(4)
        assert len(sharded) == 4 and sharded.num_shards == 4
        for doc_id in ("a", "b", "c"):
            assert sharded.shard_for(doc_id) is sharded.shards[sharded.shard_id(doc_id)]


# ----------------------------------------------------------------------
# incremental maintenance per shard
# ----------------------------------------------------------------------
class TestShardedMaintenance:
    def test_build_routes_every_document_once(self, cafe_corpus):
        sharded = ShardedIndexSet(4).build(cafe_corpus)
        merged = sharded.statistics()
        unsharded = KokoIndexSet().build(cafe_corpus).statistics()
        assert merged.sentences == unsharded.sentences
        assert merged.tokens == unsharded.tokens
        assert merged.word_postings == unsharded.word_postings
        assert merged.entity_postings == unsharded.entity_postings
        # partitioning can only reduce cross-document node merging
        assert merged.pl_nodes >= unsharded.pl_nodes
        assert merged.pos_nodes >= unsharded.pos_nodes

    def test_incremental_add_equals_build(self, cafe_corpus, assert_equivalent_indexes):
        built = ShardedIndexSet(3).build(cafe_corpus)
        incremental = ShardedIndexSet(3)
        for document in cafe_corpus:
            incremental.add_document(document)
        for shard_built, shard_incremental in zip(built.shards, incremental.shards):
            assert_equivalent_indexes(shard_incremental, shard_built)

    def test_remove_restores_prior_state(self, cafe_corpus, assert_equivalent_indexes):
        documents = cafe_corpus.documents
        reference = ShardedIndexSet(2)
        for document in documents[:-1]:
            reference.add_document(document)
        mutated = ShardedIndexSet(2)
        for document in documents:
            mutated.add_document(document)
        touched = mutated.remove_document(documents[-1])
        assert touched is mutated.shard_for(documents[-1].doc_id)
        for shard_reference, shard_mutated in zip(reference.shards, mutated.shards):
            assert_equivalent_indexes(shard_mutated, shard_reference)

    def test_statistics_by_shard_and_bytes(self, paper_corpus):
        sharded = ShardedIndexSet(2).build(paper_corpus)
        per_shard = sharded.statistics_by_shard()
        assert len(per_shard) == 2
        assert sum(s.sentences for s in per_shard) == sharded.statistics().sentences
        assert sharded.approximate_bytes() == sum(
            s.approximate_bytes for s in per_shard
        )


# ----------------------------------------------------------------------
# statistics merging
# ----------------------------------------------------------------------
class TestMergedStatistics:
    def test_merged_recomputes_compression_from_totals(self):
        parts = [
            IndexStatistics(
                sentences=2, tokens=100, build_seconds=0.5, word_postings=100,
                entity_postings=5, pl_nodes=10, pos_nodes=20,
                pl_compression=0.9, pos_compression=0.8, approximate_bytes=1000,
            ),
            IndexStatistics(
                sentences=3, tokens=300, build_seconds=0.25, word_postings=300,
                entity_postings=7, pl_nodes=30, pos_nodes=60,
                pl_compression=0.9, pos_compression=0.8, approximate_bytes=3000,
            ),
        ]
        merged = IndexStatistics.merged(parts)
        assert merged.sentences == 5 and merged.tokens == 400
        assert merged.word_postings == 400 and merged.entity_postings == 12
        assert merged.build_seconds == pytest.approx(0.75)
        assert merged.pl_compression == pytest.approx(1.0 - 40 / 400)
        assert merged.pos_compression == pytest.approx(1.0 - 80 / 400)
        assert merged.approximate_bytes == 4000

    def test_merged_of_empty_parts_is_zero(self):
        merged = IndexStatistics.merged([])
        assert merged.tokens == 0
        assert merged.pl_compression == 0.0 and merged.pos_compression == 0.0


# ----------------------------------------------------------------------
# DPLI lookups over a view of several shards
# ----------------------------------------------------------------------
LOOKUP_QUERY = (
    'extract e:Entity, x:Location, d:Str from "b" if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = //"coffee", d = (b.subtree) } (b) in (e))'
)


class TestUnionLookups:
    """A view answers exactly what one index set over its documents answers."""

    @pytest.mark.parametrize("shard_ids", [[0, 1, 2, 3], [1, 3], [2]])
    def test_view_lookups_equal_one_index_set_over_the_same_documents(
        self, cafe_corpus, detach_last_token, mention_rows, shard_ids
    ):
        documents = list(cafe_corpus.documents)
        # one sentence with a token no hierarchy holds, for unrooted_sids
        first = documents[0]
        documents[0] = type(first)(
            first.doc_id, [detach_last_token(first.sentences[0]), *first.sentences[1:]]
        )
        sharded = ShardedIndexSet(4).build(Corpus("cafe", documents))
        view = sharded.view(shard_ids)
        mine = [d for d in documents if sharded.shard_id(d.doc_id) in shard_ids]
        single = KokoIndexSet().build(Corpus("mine", mine))
        assert view.unrooted_sids().tolist() == single.unrooted_sids().tolist()
        if 0 in shard_ids and sharded.shard_id(first.doc_id) in shard_ids:
            assert len(view.unrooted_sids())

        normalized = compile_query(LOOKUP_QUERY).normalized
        for etype in ("Entity", "Location", "Person"):
            got_sids, got = view.entity_candidates(etype)
            want_sids, want = single.entity_candidates(etype)
            assert got_sids.tolist() == want_sids.tolist()
            rows = sorted(zip(*(column.tolist() for column in got[:3])))
            assert rows == sorted(zip(*(column.tolist() for column in want[:3])))
            # the union is the shards' columns in shard order; each shard's
            # string ids decode through that shard's own table
            parts = [shard.entity_index.lookup_type(etype) for shard in view.shards]
            for column, *shard_columns in zip(got, *parts):
                assert column.tolist() == [v for part in shard_columns for v in part.tolist()]
            decoded = [
                row
                for shard, part in zip(view.shards, parts)
                for row in mention_rows(shard.entity_index, part)
            ]
            assert sorted(decoded) == sorted(mention_rows(single.entity_index, want))
        for variable in normalized.absolute_paths:
            path, decomposed = normalized.tree_paths[variable], normalized.decomposed.get(variable)
            got_sids, got = view.path_candidates(path, decomposed)
            want_sids, want = single.path_candidates(path, decomposed)
            assert want.size > 0
            assert got_sids.tolist() == want_sids.tolist()
            for name in ("sid", "tid", "left", "right", "depth"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("shard_ids", [[0, 1, 2, 3], [1, 3], [2]])
    def test_a_limited_view_answers_for_its_sids_alone(self, cafe_corpus, shard_ids):
        documents = list(cafe_corpus.documents)
        sharded = ShardedIndexSet(4).build(Corpus("cafe", documents))
        # every other shard of the view is limited to one of its documents
        limits, mine = [], []
        for at, shard_id in enumerate(shard_ids):
            held = [d for d in documents if sharded.shard_id(d.doc_id) == shard_id]
            if at % 2:
                limits.append(None)
                mine.extend(held)
            else:
                kept = held[-1:]
                limits.append(np.array([s.sid for d in kept for s in d], np.int64))
                mine.extend(kept)
        view = sharded.view(shard_ids, limits)
        mine.sort(key=lambda d: d.sentences[0].sid)
        single = KokoIndexSet().build(Corpus("mine", mine))
        assert view.unrooted_sids().tolist() == single.unrooted_sids().tolist()
        normalized = compile_query(LOOKUP_QUERY).normalized
        for etype in ("Entity", "Location", "Person"):
            got_sids, got = view.entity_candidates(etype)
            want_sids, want = single.entity_candidates(etype)
            assert got_sids.tolist() == want_sids.tolist()
            rows = sorted(zip(*(column.tolist() for column in got[:3])))
            assert rows == sorted(zip(*(column.tolist() for column in want[:3])))
        for variable in normalized.absolute_paths:
            path, decomposed = normalized.tree_paths[variable], normalized.decomposed.get(variable)
            got_sids, got = view.path_candidates(path, decomposed)
            want_sids, want = single.path_candidates(path, decomposed)
            assert got_sids.tolist() == want_sids.tolist()
            for name in ("sid", "tid", "left", "right", "depth"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
