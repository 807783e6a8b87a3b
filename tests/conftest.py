"""Shared fixtures for the test suite.

Expensive objects (the pipeline, annotated corpora, index sets, engines) are
session scoped so the suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import dataclasses
import signal
import socket
import threading
import time
from typing import NamedTuple

import pytest
from hypothesis import settings

from repro.corpora.cafe_blogs import BARISTAMAG, generate_cafe_corpus
from repro.corpora.happydb import generate_happydb_corpus
from repro.corpora.wikipedia import generate_wikipedia_corpus
from repro.indexing.columnar import PostingBlock
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.reference import (
    ReferenceEntityIndex,
    ReferenceHierarchyIndex,
    ReferenceIndexSet,
)
from repro.koko.engine import KokoEngine
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Sentence

# Budgets of the tests that take theirs from the Hypothesis profile (the
# model-based state machine, the binding-table property, the span-text
# property of ``test_stages.py``): ``tier1`` for the
# tier-1 suite, ``--hypothesis-profile ci`` for CI's longer run.  Tests that
# set ``max_examples`` themselves keep it under either.
settings.register_profile("tier1", max_examples=8, stateful_step_count=20)
settings.register_profile("ci", max_examples=60, stateful_step_count=40)
settings.load_profile("tier1")

# The two running-example sentences of the paper (Figure 1 / Example 3.1).
PAPER_SENTENCE_1 = (
    "I ate a chocolate ice cream, which was delicious, and also ate a pie."
)
PAPER_SENTENCE_2 = (
    "Anna ate some delicious cheesecake that she bought at a grocery store."
)


@pytest.fixture(scope="session")
def pipeline() -> Pipeline:
    return Pipeline()


@pytest.fixture(scope="session")
def paper_corpus(pipeline):
    """The two sentences of the paper's running example, annotated."""
    return pipeline.annotate_corpus(
        {"doc0": PAPER_SENTENCE_1, "doc1": PAPER_SENTENCE_2}, name="paper"
    )


@pytest.fixture(scope="session")
def paper_sentence_1(paper_corpus):
    return paper_corpus.documents[0].sentences[0]


@pytest.fixture(scope="session")
def paper_sentence_2(paper_corpus):
    return paper_corpus.documents[1].sentences[0]


@pytest.fixture(scope="session")
def paper_indexes(paper_corpus) -> KokoIndexSet:
    return KokoIndexSet().build(paper_corpus)


@pytest.fixture(scope="session")
def paper_engine(paper_corpus) -> KokoEngine:
    return KokoEngine(paper_corpus)


@pytest.fixture(scope="session")
def happy_corpus(pipeline):
    """A small HappyDB-like corpus for index / benchmark-generator tests."""
    return generate_happydb_corpus(moments=120, pipeline=pipeline)


@pytest.fixture(scope="session")
def wiki_corpus(pipeline):
    """A small Wikipedia-like corpus."""
    return generate_wikipedia_corpus(articles=40, pipeline=pipeline)


@pytest.fixture(scope="session")
def cafe_corpus(pipeline):
    """A small BARISTAMAG-like cafe corpus with gold labels."""
    return generate_cafe_corpus(BARISTAMAG, pipeline=pipeline, articles=12)


@pytest.fixture(scope="session")
def cafe_engine(cafe_corpus) -> KokoEngine:
    return KokoEngine(cafe_corpus)


# ----------------------------------------------------------------------
# postings as rows: production columns and reference objects alike
# ----------------------------------------------------------------------
_QUINTUPLE = ("sid", "tid", "left", "right", "depth")


def _posting_rows(postings) -> list[tuple[int, ...]]:
    """``(sid, tid, left, right, depth)`` rows, in order, of a production
    :class:`PostingBlock` or a reference posting list."""
    if isinstance(postings, PostingBlock):
        return list(zip(*(getattr(postings, name).tolist() for name in _QUINTUPLE)))
    return [tuple(getattr(p, name) for name in _QUINTUPLE) for p in postings]


def _mention_rows(entity_index, mentions=None) -> list[tuple]:
    """``(sid, left, right, etype)`` rows, in order, of *mentions*
    (default: every mention *entity_index* holds).

    Production mentions are ``lookup_type`` columns, each row typed by the
    store key it is held under; reference mentions are ``EntityPosting``
    objects.  A mention's text is its sentence's span, so rows leave it out.
    """
    if isinstance(entity_index, ReferenceEntityIndex):
        postings = entity_index.all_postings() if mentions is None else mentions
        return [(p.sid, p.left, p.right, p.etype) for p in postings]
    store = entity_index._store
    etype_of = {
        row: store.key_of(kid)
        for kid in store.live_key_ids()
        for row in zip(*(column.tolist() for column in store.arrays_for_key(kid)))
    }
    columns = entity_index.lookup_type("Entity") if mentions is None else mentions
    return [(*row, etype_of[row]) for row in zip(*(column.tolist() for column in columns))]


def _block_words(corpus, block) -> set[str]:
    """The surface words of a block's tokens, read from *corpus*: the
    production index keeps word ids in W alone, not in its lookup blocks."""
    sentences = {sentence.sid: sentence for _, sentence in corpus.all_sentences()}
    return {
        sentences[sid][tid].text for sid, tid in zip(block.sid.tolist(), block.tid.tolist())
    }


@pytest.fixture(scope="session")
def block_words():
    """The surface words of a block's tokens, as a fixture."""
    return _block_words


@pytest.fixture(scope="session")
def posting_rows():
    """Postings as ``(sid, tid, left, right, depth)`` rows, as a fixture."""
    return _posting_rows


@pytest.fixture(scope="session")
def mention_rows():
    """Entity mentions as ``(sid, left, right, etype, text)`` rows, as a fixture."""
    return _mention_rows


# ----------------------------------------------------------------------
# index-set equivalence (shared by incremental-index and service tests)
# ----------------------------------------------------------------------
def _node_rows(hierarchy, node_id: int) -> list[tuple[int, ...]]:
    """The posting rows one hierarchy node holds."""
    if isinstance(hierarchy, ReferenceHierarchyIndex):
        return _posting_rows(hierarchy.node_postings(node_id))
    return _posting_rows(PostingBlock(*hierarchy._store.arrays_for_key(node_id)))


def _hierarchy_shape(hierarchy):
    """Map node path -> sorted posting rows (id-independent node identity)."""
    return {
        node.path(): sorted(_node_rows(hierarchy, node.node_id))
        for node in hierarchy.nodes()
    }


def _recorded_node_ids(index_set) -> dict[tuple[int, int], tuple[int, int]]:
    """``(sid, tid) -> (plid, posid)`` of every token the hierarchies hold.

    Production reads them from the PL and POS stores, whose rows are keyed
    by node id; the reference records them per token.
    """
    if isinstance(index_set, ReferenceIndexSet):
        return index_set.word_index._node_ids

    def node_ids(hierarchy) -> dict[tuple[int, int], int]:
        kids, (sids, tids, *_) = hierarchy._store.all_arrays_with_keys()
        return dict(zip(zip(sids.tolist(), tids.tolist()), kids.tolist()))

    plids, posids = node_ids(index_set.pl_index), node_ids(index_set.pos_index)
    return {token: (plid, posids[token]) for token, plid in plids.items()}


@pytest.fixture(scope="session")
def recorded_node_ids():
    """Each token's ``(plid, posid)`` per index set, as a fixture."""
    return _recorded_node_ids


def _word_shape(index_set):
    """Word posting rows plus each occurrence's PL/POS node *paths*."""
    recorded = _recorded_node_ids(index_set)
    shape = {}
    for word in index_set.word_index.vocabulary():
        rows = []
        for row in sorted(_posting_rows(index_set.word_index.lookup(word))):
            node_ids = recorded.get(row[:2])
            paths = (None, None)
            if node_ids is not None:
                plid, posid = node_ids
                paths = (
                    index_set.pl_index.node_by_id(plid).path(),
                    index_set.pos_index.node_by_id(posid).path(),
                )
            rows.append((row, paths))
        shape[word] = rows
    return shape


def index_set_shape(index_set) -> tuple:
    """What an index set holds, independent of its node and word-key ids:
    word rows with their node paths, mention rows, each hierarchy's paths
    and rows, and the statistics with build time set aside."""
    return (
        _word_shape(index_set),
        sorted(_mention_rows(index_set.entity_index)),
        _hierarchy_shape(index_set.pl_index),
        _hierarchy_shape(index_set.pos_index),
        dataclasses.replace(index_set.statistics(), build_seconds=0.0),
    )


def assert_index_sets_equivalent(actual: KokoIndexSet, expected: KokoIndexSet) -> None:
    """Same postings, hierarchy paths and statistics (build time aside)."""
    actual_shape, expected_shape = index_set_shape(actual), index_set_shape(expected)
    for part, (got, want) in enumerate(zip(actual_shape, expected_shape)):
        assert got == want, f"index set shapes differ in part {part}"


@pytest.fixture(scope="session")
def index_shape():
    """:func:`index_set_shape`, as a fixture."""
    return index_set_shape


@pytest.fixture(scope="session")
def assert_equivalent_indexes():
    """The index-set equivalence assertion, as an injectable fixture."""
    return assert_index_sets_equivalent


def detached_last_token(sentence: Sentence) -> Sentence:
    """*sentence* rebuilt from its columns with the last token a second root:
    it hangs off no tree, so no hierarchy holds it."""
    return Sentence.from_columns(
        sentence.sid,
        sentence.words,
        sentence.pos_tags,
        sentence.labels,
        sentence.heads[:-1] + (-1,),
        sentence.lemmas,
        sentence.entity_types,
        sentence.entity_rows,
        sentence.text,
    )


@pytest.fixture(scope="session")
def detach_last_token():
    """:func:`detached_last_token`, as an injectable fixture."""
    return detached_last_token


# ----------------------------------------------------------------------
# per-test timeout (hand-rolled: pytest-timeout is not in the image)
# ----------------------------------------------------------------------
_DEFAULT_TEST_TIMEOUT = 120.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Abort any single test body that runs past its timeout.

    A wedged network test (listener never accepting, replica never
    catching up) fails with a ``TimeoutError`` traceback pointing at the
    stuck line instead of hanging the whole suite.  Override per test
    with ``@pytest.mark.timeout(seconds)``.  SIGALRM only fires on the
    main thread of Unix platforms; elsewhere this is a no-op.
    """
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker and marker.args else _DEFAULT_TEST_TIMEOUT
    usable = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s timeout (see the traceback "
            "for the line it was stuck on)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# network helpers (ephemeral ports + listener readiness)
# ----------------------------------------------------------------------
def wait_for_listen(host: str, port: int, timeout: float = 10.0) -> tuple[str, int]:
    """Block until ``host:port`` accepts TCP connections; returns the pair.

    The companion to the bind-port-0 idiom every listener in this repo
    uses: the server picks an ephemeral port and returns it, and tests
    call this before dialing so a slow-starting accept loop cannot turn
    into a flaky connect failure.  The probe connection carries no bytes
    and is closed immediately.
    """
    deadline = time.monotonic() + timeout
    last_error: OSError | None = None
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return host, port
        except OSError as exc:
            last_error = exc
            time.sleep(0.01)
    raise TimeoutError(
        f"nothing listening on {host}:{port} after {timeout:g}s: {last_error}"
    )


class ExplodingPipeline:
    """A pipeline stub proving a code path never re-runs NLP annotation."""

    def annotate(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("this path must never re-annotate")


class TcpCluster(NamedTuple):
    """One primary + one caught-up TCP replica (+ router), for e2e tests."""

    primary: object
    shipper: object
    replica: object
    router: object
    host: str
    port: int


@pytest.fixture
def make_tcp_cluster(tmp_path, monkeypatch):
    """Factory for the canonical e2e cluster: primary + TCP replica + router.

    ``make_tcp_cluster(shards=..., texts=[...])`` ingests *texts* as
    ``doc0..docN`` on the primary, ships them to a TCP replica behind an
    ephemeral port (``wait_for_listen`` guarded), waits for catch-up, and
    wraps both in a ``ReplicaSet`` router.  The shipper heartbeats every
    50 ms, so replica lag and clock offset settle quickly.  Everything is
    torn down in reverse order at test exit.  Call it multiple times for
    multi-cluster tests; each call gets its own storage directory.
    """
    from repro.replication import LogShipper, ReplicaService, connect_tcp
    from repro.replication import shipper as shipper_module
    from repro.replication.router import ReplicaSet
    from repro.service import KokoService

    monkeypatch.setattr(shipper_module, "HEARTBEAT_SECONDS", 0.05)
    clusters: list[TcpCluster] = []

    def _make(
        shards: int = 2,
        texts=(),
        auth_token=None,
        **service_kwargs,
    ) -> TcpCluster:
        primary = KokoService(
            shards=shards,
            storage_dir=tmp_path / f"cluster{len(clusters)}",
            **service_kwargs,
        )
        for index, text in enumerate(texts):
            primary.add_document(text, f"doc{index}")
        shipper = LogShipper(primary)
        host, port = shipper.listen(auth_token=auth_token)
        wait_for_listen(host, port)
        replica = ReplicaService(
            connect_tcp(host, port, auth_token=auth_token),
            pipeline=ExplodingPipeline(),
            name="tcp-replica",
        )
        assert replica.wait_caught_up(primary.wal_position(), timeout=30)
        router = ReplicaSet(primary, [replica])
        cluster = TcpCluster(primary, shipper, replica, router, host, port)
        clusters.append(cluster)
        return cluster

    try:
        yield _make
    finally:
        for cluster in reversed(clusters):
            cluster.replica.close()
            cluster.shipper.close()
            cluster.primary.close()


@pytest.fixture
def tcp_cluster(make_tcp_cluster):
    """The default e2e cluster: two shards, no documents preloaded."""
    return make_tcp_cluster()


@pytest.fixture(scope="session")
def listen_ready():
    """The :func:`wait_for_listen` helper, as an injectable fixture."""
    return wait_for_listen


@pytest.fixture
def run_threads():
    """Run ``work(thread_index)`` on N threads behind a start barrier.

    Used by the concurrency tests (staged ingest, WAL group commit):
    threads start together, and the first raised exception is re-raised
    in the test thread after every thread joined.
    """
    import threading

    def _run(count: int, work) -> None:
        errors: list[BaseException] = []
        barrier = threading.Barrier(count)

        def runner(index: int) -> None:
            try:
                barrier.wait()
                work(index)
            except BaseException as exc:  # pragma: no cover - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=runner, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    return _run
