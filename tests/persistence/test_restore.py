"""A restore rebuilds every shard's indexes from the snapshot's documents.

Snapshots persist the annotated documents only; the four indexes are
derived data.  ``Shard.adopt`` splices a restored shard's documents into a
fresh ``KokoIndexSet`` with ``build`` — the splice every write, WAL replay
and replica apply runs.  Pinned here:

* a reopened shard is exactly a fresh build of its documents (ids
  included) and has the shape the shard had before close (ids aside);
* a replica bootstrapped from shipped snapshot bytes has the primary's
  shapes;
* a reopen answers the ledger's queries as the service did before close;
* a checkpoint never reads an index, and writes corpus segments only;
* a current-version manifest naming an index file is refused;
* nothing under ``repro.persistence`` imports ``repro.indexing``, and no
  module under ``src/repro`` reads or writes index columns any more.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro.errors import PersistenceError
from repro.evaluation.queries import SCALEUP_QUERIES
from repro.indexing.koko_index import KokoIndexSet
from repro.nlp.types import Corpus
from repro.persistence import (
    CheckpointPolicy,
    StorageLayout,
    read_snapshot_payloads,
    state_from_payloads,
)
from repro.service import KokoService

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PERSISTENCE_MODULES = sorted((SRC / "persistence").glob("*.py"))

SERVICE_KWARGS = dict(
    checkpoint_policy=CheckpointPolicy.disabled(),
    use_default_vectors=False,
    trace_sample_rate=0.0,
)
LOCATION_QUERY = 'extract a:Location from "w" if ()'


@pytest.fixture(scope="module")
def articles(wiki_corpus):
    return list(wiki_corpus.documents)[:12]


def _shards(service) -> list[KokoIndexSet]:
    indexes = service.indexes
    return list(getattr(indexes, "shards", [indexes]))


def _rows(result) -> list:
    return [(t.doc_id, t.sid, t.values, repr(t.scores)) for t in result]


def _minted_ids(index_set: KokoIndexSet) -> tuple:
    """Node ids by path and the W key table."""
    store = index_set.word_index._store
    return (
        {n.path(): n.node_id for n in index_set.pl_index.nodes()},
        {n.path(): n.node_id for n in index_set.pos_index.nodes()},
        [store.key_of(kid) for kid in range(len(store._keys))],
    )


def _history(path: Path, shards: int, articles) -> KokoService:
    """A durable service that saw adds, removes (trie nodes pruned, ids left
    with gaps) and adds after the last checkpoint (a WAL tail)."""
    service = KokoService(shards=shards, storage_dir=path, **SERVICE_KWARGS)
    for document in articles[:8]:
        service.add_annotated_document(document)
    service.checkpoint()
    for document in articles[1:8:3]:
        service.remove_document(document.doc_id)
    for document in articles[8:]:
        service.add_annotated_document(document)
    return service


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_a_reopened_shard_is_a_fresh_build_of_its_documents(
    tmp_path, articles, index_shape, shards
):
    service = _history(tmp_path / "svc", shards, articles)
    before = [index_shape(shard) for shard in _shards(service)]
    service.close()
    with KokoService.open(tmp_path / "svc", **SERVICE_KWARGS) as reopened:
        assert [index_shape(shard) for shard in _shards(reopened)] == before
        for shard, corpus in zip(_shards(reopened), reopened.corpora):
            fresh = KokoIndexSet().build(Corpus("fresh", list(corpus.documents)))
            assert _minted_ids(shard) == _minted_ids(fresh)
            assert index_shape(shard) == index_shape(fresh)
            assert shard.build_seconds > 0.0  # the rebuild is timed


@pytest.mark.parametrize("shards", [1, 4])
def test_a_bootstrapped_replica_has_the_primary_shapes(
    tmp_path, articles, index_shape, shards
):
    with _history(tmp_path / "svc", shards, articles) as primary:
        sealed = primary.checkpoint()
        shapes = [index_shape(shard) for shard in _shards(primary)]
        manifest, payloads = read_snapshot_payloads(StorageLayout(tmp_path / "svc"), sealed)
    assert all(name.endswith(".seg") for name in payloads)
    state = state_from_payloads(manifest, payloads)
    with KokoService(bootstrap_snapshot=state, use_default_vectors=False) as replica:
        assert [index_shape(shard) for shard in _shards(replica)] == shapes


@pytest.mark.parametrize("name", [*SCALEUP_QUERIES, "Location"])
def test_a_reopen_answers_as_the_service_did_before_close(tmp_path, articles, name):
    query = SCALEUP_QUERIES.get(name, LOCATION_QUERY)
    service = _history(tmp_path / "svc", 4, articles)
    before = _rows(service.query(query, threshold_override=0.0))
    service.close()
    with KokoService.open(tmp_path / "svc", **SERVICE_KWARGS) as reopened:
        assert _rows(reopened.query(query, threshold_override=0.0)) == before


def test_unrooted_sentences_survive_a_reopen(tmp_path, pipeline, detach_last_token):
    document = pipeline.annotate("Anna ate a pie in Tokyo.", doc_id="d", first_sid=0)
    document.sentences[0] = detach_last_token(document.sentences[0])
    with KokoService(storage_dir=tmp_path / "svc", **SERVICE_KWARGS) as service:
        service.add_annotated_document(document)
        unrooted = service.indexes.unrooted_sids().tolist()
    assert unrooted == [document.sentences[0].sid]
    with KokoService.open(tmp_path / "svc", **SERVICE_KWARGS) as reopened:
        assert reopened.indexes.unrooted_sids().tolist() == unrooted


class _NoIndex:
    """Stands in for a shard's index set: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"a checkpoint read the index ({name})")


def test_a_checkpoint_never_reads_an_index(tmp_path, articles, monkeypatch):
    with KokoService(shards=2, storage_dir=tmp_path / "svc", **SERVICE_KWARGS) as service:
        for document in articles[:4]:
            service.add_annotated_document(document)
        service.checkpoint()
        service.add_annotated_document(articles[4])
        service.remove_document(articles[0].doc_id)
        for shard in service._shards:
            monkeypatch.setattr(shard, "indexes", _NoIndex())
        assert service.checkpoint() is not None
        monkeypatch.undo()


@pytest.mark.parametrize("shards", [1, 4])
def test_checkpoints_write_corpus_segments_only(tmp_path, articles, shards):
    with _history(tmp_path / "svc", shards, articles) as service:
        service.checkpoint()
        layout = StorageLayout(service.storage_dir)
        names = [p.name for p in layout.segments_dir.iterdir()]
    assert names and all(re.fullmatch(r"corpus-\d+-\d{10}\.seg", n) for n in names)


def test_a_current_manifest_naming_an_index_file_is_refused(tmp_path, articles):
    with KokoService(storage_dir=tmp_path / "svc", **SERVICE_KWARGS) as service:
        service.add_annotated_document(articles[0])
        sealed = service.checkpoint()
    manifest, payloads = read_snapshot_payloads(StorageLayout(tmp_path / "svc"), sealed)
    name = f"segments/indexes-0-{sealed:010d}.npz"
    hostile = json.loads(json.dumps(manifest))
    hostile["files"][name] = "0" * 64
    hostile["shards"][0]["indexes"] = name
    with pytest.raises(PersistenceError, match="unsafe"):
        state_from_payloads(hostile, {**payloads, name: b""})


@pytest.mark.parametrize("module", PERSISTENCE_MODULES, ids=lambda path: path.stem)
def test_persistence_imports_nothing_from_indexing(module):
    tree = ast.parse(module.read_text("utf-8"))
    imported = [
        node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert not [name for name in imported if "indexing" in name.split(".")]


def test_no_source_module_reads_or_writes_index_columns():
    pattern = re.compile(
        r"to_arrays|from_arrays|load_arrays|rows_by_node|index_arrays|\.npz|np\.load"
    )
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
