"""Tests for hash-partitioned index storage (indexing/sharding.py)."""

from __future__ import annotations

import pytest

from repro.indexing.koko_index import IndexStatistics, KokoIndexSet
from repro.indexing.sharding import ShardedIndexSet, shard_of
from repro.storage.database import Database


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
# materialisation
# ----------------------------------------------------------------------
def test_to_database_writes_suffixed_relations(paper_corpus):
    sharded = ShardedIndexSet(2).build(paper_corpus)
    database = sharded.to_database(Database("sharded"))
    for shard_index in range(2):
        for relation in ("W", "E", "PL", "POS"):
            assert f"{relation}.{shard_index}" in database
