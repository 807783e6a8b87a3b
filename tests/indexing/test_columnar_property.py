"""Property tests: the columnar representation is observationally invisible,
in memory and across a snapshot.

For randomly generated corpora:

* the columnar index set agrees with the object-backed one that a plain
  :class:`~repro.koko.engine.KokoEngine` builds — identical posting sets,
  hierarchy paths and statistics (the shared equivalence assertion of
  ``tests/conftest.py``);
* :class:`~repro.service.KokoService` at 1 and 4 shards answers every query
  with the tuples of that engine, in the same order;
* after ``checkpoint()`` → ``close()`` → ``open()`` every shard's index set
  is equivalent to the never-restarted one, and the next ingested sentence
  mints the same hierarchy node ids and word ids on both.  The add/remove
  interleavings put the cases a snapshot must carry in front of the
  capture: an un-compacted delta tail, trie nodes pruned by removals
  (non-contiguous node ids) and tokens unreachable from the root
  (``plid == -1``).

Corpora are drawn from the same word pool as the incremental-maintenance
property test, so the trees exercise repeated shapes (the merge-memo hit
path) as well as fresh ones.
"""

from __future__ import annotations

import itertools
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indexing.koko_index import KokoIndexSet
from repro.koko.engine import KokoEngine
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus
from repro.persistence import CheckpointPolicy
from repro.service import KokoService

QUERIES = (
    'extract e:Entity, d:Str from "t" if '
    '(/ROOT:{ a = //verb, b = a/dobj, d = (b.subtree) })',
    'extract x:Entity from "t" if (/ROOT:{ a = //"ate" })',
    'extract x:Entity from "t" if ()',
)

_WORDS = [
    "Anna", "ate", "delicious", "cheesecake", "the", "cafe", "in", "Tokyo",
    "serves", "coffee", "Paolo", "visited", "Beijing", "and", "pie",
]

_sentences = st.lists(st.sampled_from(_WORDS), min_size=3, max_size=8).map(
    lambda words: " ".join(words) + "."
)
_documents = st.lists(_sentences, min_size=1, max_size=3).map(" ".join)
_corpora = st.lists(_documents, min_size=1, max_size=4)

_PIPELINE = Pipeline()


def _rows(result):
    return [(t.doc_id, t.sid, t.values) for t in result]


def _oracle_rows(documents):
    """Every query's tuples from a fresh unsharded, object-backed engine."""
    engine = KokoEngine(
        Corpus(name="oracle", documents=list(documents)), use_default_vectors=False
    )
    return [_rows(engine.execute(query)) for query in QUERIES]


def _shard_indexes(service) -> list[KokoIndexSet]:
    indexes = service.indexes
    return [indexes] if isinstance(indexes, KokoIndexSet) else list(indexes.shards)


def _minted_ids(index_set: KokoIndexSet):
    """Everything the next splice's id assignment depends on."""
    return (
        {n.path(): n.node_id for n in index_set.pl_index.nodes()},
        {n.path(): n.node_id for n in index_set.pos_index.nodes()},
        index_set._interner.texts(),
        index_set.word_index._store.keys(),
    )


@settings(max_examples=8, deadline=None)
@given(texts=_corpora)
def test_columnar_and_object_backends_agree(texts, assert_equivalent_indexes):
    corpus = _PIPELINE.annotate_corpus(texts, name="random")
    assert_equivalent_indexes(
        KokoIndexSet(columnar=True).build(corpus), KokoIndexSet().build(corpus)
    )
    expected = _oracle_rows(corpus.documents)
    for shards in (1, 4):
        with KokoService(shards=shards, use_default_vectors=False) as service:
            for document in corpus.documents:
                service.add_annotated_document(document)
            assert [_rows(service.query(query)) for query in QUERIES] == expected


@settings(max_examples=8, deadline=None)
@example(  # all three at once: pruned nodes, a delta tail, a detached token
    before=["Anna ate pie in Tokyo.", "Paolo visited the cafe and ate."],
    removed={1},
    after=["The cafe serves delicious coffee."],
    tail="Paolo visited Beijing and Anna ate cheesecake.",
    detach=True,
)
@given(
    before=_corpora,
    removed=st.sets(st.integers(0, 3)),
    after=st.lists(_documents, max_size=2),
    tail=_documents,
    detach=st.booleans(),
)
def test_reopened_service_matches_the_never_restarted_one(
    before, removed, after, tail, detach, assert_equivalent_indexes
):
    for shards in (1, 4):
        with tempfile.TemporaryDirectory() as storage_dir:
            live = KokoService(shards=shards, use_default_vectors=False)
            durable = KokoService(
                shards=shards,
                storage_dir=storage_dir,
                checkpoint_policy=CheckpointPolicy.disabled(),
                use_default_vectors=False,
            )
            mirror = {}
            doc_ids = (f"doc{number}" for number in itertools.count())

            def ingest(text):
                document = _PIPELINE.annotate(
                    text, doc_id=next(doc_ids), first_sid=live.next_sid()
                )
                if detach and not mirror:
                    # a second root: the last token hangs off no tree, so
                    # its W row carries plid == posid == -1
                    sentence = document.sentences[0]
                    sentence.tokens[-1].head = -1
                    sentence.invalidate_caches()
                for service in (live, durable):
                    service.add_annotated_document(document)
                mirror[document.doc_id] = document

            try:
                for text in before:
                    ingest(text)
                for position in sorted(removed):
                    if position < len(before):  # removal compacts and prunes
                        doc_id = f"doc{position}"
                        live.remove_document(doc_id)
                        durable.remove_document(doc_id)
                        del mirror[doc_id]
                for text in after:  # lands in the delta tail
                    ingest(text)
                durable.checkpoint()
                durable.close()
                durable = KokoService.open(
                    storage_dir,
                    checkpoint_policy=CheckpointPolicy.disabled(),
                    use_default_vectors=False,
                )
                for restored, original in zip(
                    _shard_indexes(durable), _shard_indexes(live)
                ):
                    assert_equivalent_indexes(restored, original)
                ingest(tail)
                for restored, original in zip(
                    _shard_indexes(durable), _shard_indexes(live)
                ):
                    assert _minted_ids(restored) == _minted_ids(original)
                    assert_equivalent_indexes(restored, original)
                expected = _oracle_rows(mirror.values())
                for service in (live, durable):
                    assert [_rows(service.query(q)) for q in QUERIES] == expected
            finally:
                live.close()
                durable.close()
