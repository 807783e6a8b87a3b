"""A model-based state machine over the durable, RPC-served service.

The **model** is a dict of annotated documents; it answers a query with a
fresh ``KokoEngine`` over the object-list ``ReferenceIndexSet``, which
shares no index, extraction or storage code with the service.  The
**system** is a durable ``KokoService`` (1 and 4 shards) behind an
``RpcServer``, driven through an ``RpcClient``.  Hypothesis interleaves
adds, bulk adds, removes, re-adds of removed ids, a live id replaced by
a new document under the same id, churn on one shard past its change
log's reach, cold and repeated
queries (the repeat is answered on the server's event loop from the
result cache, and the client reuses its decode of the same bytes), the
last query asked again after writes or a reopen, checkpoints and
close/reopen, and after every step checks
what the service promises: tuple identity with the model, scores
compared as ``repr``; equal candidate and evaluated sentence counts;
sentence ids that never move; no ingest bytes left in flight; shard
partials computed only where needed — a query computes one partial per
shard whose generation moved since that query last ran and reuses the
rest, patches each such partial whose shard's change log (as long as the
shard's live document count) still reaches back to it, and runs one
pass exactly when some shard has no usable partial or gained a document;
and, on every shard, remembered PL and POS trie walks that equal a
fresh walk of the trie as it stands.  A reopen rebuilds every shard's
indexes from the snapshot's documents: node and word-key ids may differ
from the ones before close (removals leave gaps), but each shard's
id-independent shape (``index_set_shape`` of ``tests/conftest.py``) must
not.

The budget comes from the Hypothesis profile: the small ``tier1`` one
by default, ``--hypothesis-profile ci`` for the long run.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from conftest import index_set_shape
from repro.corpora.wikipedia import WikipediaConfig, generate_wikipedia_corpus
from repro.evaluation import queries as evaluation_queries
from repro.indexing.sharding import shard_of
from repro.koko.engine import KokoEngine
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus
from repro.rpc import RpcClient, RpcServer
from repro.service import KokoService

QUERIES = {
    **evaluation_queries.SCALEUP_QUERIES,  # the ledger's three
    "in": 'extract e:Entity from "w" if (/ROOT:{ a = //noun } (a) in (e))',
    "eq": 'extract e:Entity from "w" if (/ROOT:{ a = //propn } (a) eq (e))',
    "parentOf": (
        'extract x:Person from "w" if (/ROOT:{ v = //verb, s = v/nsubj } (s) in (x))'
    ),
    "ancestorOf": 'extract x:Entity, o:Str from "w" if (/ROOT:{ v = //verb, o = v//pobj })',
    "leftOf": 'extract a:Person, v:Str from "w" if (/ROOT:{ v = //verb, c = a + ^ + v })',
    "location": 'extract a:Location from "w" if ()',
}
OVERRIDES = [(None, False), (0.0, True)]
#: trie patterns (child, descendant and ``*`` steps; parse labels and POS
#: tags) whose remembered walk every shard's PL and POS index is checked on
TRIE_PATTERNS = [
    [("/", "root")],
    [("/", "root"), ("/", "*")],
    [("/", "root"), ("//", "pobj")],
    [("//", "*"), ("/", "det")],
    [("//", "VERB"), ("/", "*")],
    [("/", "*"), ("//", "noun")],
]
DOC_IDS = [f"d{index}" for index in range(6)]


@functools.lru_cache(maxsize=None)
def _pipeline() -> Pipeline:
    return Pipeline()


@functools.lru_cache(maxsize=None)
def _texts() -> tuple[str, ...]:
    """Short wiki articles (a birth date, a nickname, chocolate) plus places."""
    config = WikipediaConfig(
        articles=10, chocolate_fraction=0.3, called_fraction=0.3, seed=5
    )
    corpus = generate_wikipedia_corpus(config, pipeline=_pipeline())
    return tuple(document.text for document in corpus) + (
        "Alice visited Riverside Stadium in Paris.",
        "Bob flew to Paris and walked through Central Park.",
    )


def rows(result) -> list:
    return [(t.doc_id, t.sid, t.values, repr(t.scores)) for t in result]


class ServiceMachine(RuleBasedStateMachine):
    """The durable service against the dict-of-documents model."""

    shards = 1

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="koko-machine-"))
        self.model: dict = {}  # doc id -> annotated Document, in sid order
        self.removed: set[str] = set()
        self.next_sid = 0
        self._oracle: KokoEngine | None = None
        self.last_query: tuple[str, float | None, bool] | None = None
        #: the last query asked, kept across writes and reopens
        self.asked: tuple[str, float | None, bool] | None = None
        self.texts: dict[str, str] = {}  # doc id -> the text it was added with
        # per query key, the generations it last ran at, and the partials
        # (computed, patched) and passes the service should have run since
        # it (re)opened
        self.stamps: dict[tuple, tuple[int, ...]] = {}
        self.partials_expected = self.patched_expected = self.passes_expected = 0
        # per shard: its generation, and the writes its change log holds as
        # (generation, added, doc id), trimmed to its live document count
        self.generations = [0] * self.shards
        self.logs: list[list[tuple[int, bool, str]]] = [[] for _ in range(self.shards)]
        self.service = KokoService(shards=self.shards, storage_dir=self.directory)
        self._connect()

    # -- plumbing ---------------------------------------------------------
    def _connect(self) -> None:
        self.server = RpcServer(self.service)
        self.client = RpcClient(*self.server.start())
        self.passes = 0
        read = self.service._read
        run_pass = read._run_pass

        def counted(*args, **kwargs):
            self.passes += 1
            return run_pass(*args, **kwargs)

        read._run_pass = counted

    def _disconnect(self) -> None:
        self.client.close()
        self.server.close()

    def teardown(self) -> None:
        self._disconnect()
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _admit(self, doc_id: str, text: str) -> None:
        """Annotate *text* as the service will: the next free sid range."""
        pipeline = _pipeline()
        self.model[doc_id] = pipeline.annotate(text, doc_id=doc_id, first_sid=self.next_sid)
        self.next_sid += len(pipeline.tokenizer.split_sentences(text))
        self.texts[doc_id] = text
        self.removed.discard(doc_id)
        self._logged(doc_id, True)

    def _drop(self, doc_id: str) -> None:
        del self.model[doc_id]
        self.removed.add(doc_id)
        self._logged(doc_id, False)

    def _shard(self, doc_id: str) -> int:
        return shard_of(doc_id, self.shards)

    def _logged(self, doc_id: str, added: bool) -> None:
        """One write to *doc_id*'s shard: a generation and a log entry."""
        shard = self._shard(doc_id)
        self.generations[shard] += 1
        log = self.logs[shard]
        log.append((self.generations[shard], added, doc_id))
        live = sum(self._shard(other) == shard for other in self.model)
        del log[: max(0, len(log) - live)]
        self._changed()

    def _changed(self) -> None:
        """A write moved a generation: the oracle and the cached answer are stale."""
        self._oracle = None
        self.last_query = None

    def _oracle_engine(self) -> KokoEngine:
        if self._oracle is None:
            self._oracle = KokoEngine(Corpus("model", list(self.model.values())))
        return self._oracle

    def _check_query(self, name: str, threshold: float | None, keep_all: bool) -> None:
        text = QUERIES[name]
        key = (text, threshold, keep_all)
        stamp, seen = self.service.generations, self.stamps.get(key)
        assert stamp == tuple(self.generations)
        runs = False
        for shard, now in enumerate(stamp):
            then = None if seen is None else seen[shard]
            if then == now:
                continue
            self.partials_expected += 1
            log = self.logs[shard]
            if then is None or not log or log[0][0] > then + 1:
                runs = True  # no usable partial: the shard is computed whole
                continue
            self.patched_expected += 1
            fresh: set[str] = set()
            for generation, added, doc_id in log:
                if generation > then:
                    (fresh.add if added else fresh.discard)(doc_id)
            runs = runs or bool(fresh)
        self.passes_expected += runs
        self.stamps[key] = stamp
        got = self.client.query(text, threshold_override=threshold, keep_all_scores=keep_all)
        want = self._oracle_engine().execute(
            text, threshold_override=threshold, keep_all_scores=keep_all
        )
        assert rows(got) == rows(want), name
        assert got.candidate_sentences == want.candidate_sentences, name
        assert got.evaluated_sentences == want.evaluated_sentences, name
        self.last_query = self.asked = (name, threshold, keep_all)

    def _free_ids(self) -> list[str]:
        return [doc_id for doc_id in DOC_IDS if doc_id not in self.model]

    # -- writes -------------------------------------------------------------
    @precondition(lambda self: self._free_ids())
    @rule(data=st.data(), text=st.integers(0, 11))
    def add(self, data, text):
        doc_id = data.draw(st.sampled_from(self._free_ids()))
        ack = self.client.add_document(_texts()[text], doc_id=doc_id)
        assert ack["doc_id"] == doc_id
        self._admit(doc_id, _texts()[text])

    @precondition(lambda self: len(self._free_ids()) >= 2)
    @rule(data=st.data())
    def bulk_add(self, data):
        free = self._free_ids()
        ids = data.draw(st.lists(st.sampled_from(free), min_size=2, max_size=3, unique=True))
        texts = [_texts()[data.draw(st.integers(0, 11))] for _ in ids]
        ack = self.client.add_documents(texts, doc_ids=ids)
        assert ack["doc_ids"] == ids
        for doc_id, text in zip(ids, texts):
            self._admit(doc_id, text)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        doc_id = data.draw(st.sampled_from(sorted(self.model)))
        self.client.remove_document(doc_id)
        self._drop(doc_id)

    @precondition(lambda self: self.removed)
    @rule(data=st.data(), text=st.integers(0, 11))
    def re_add_a_removed_id(self, data, text):
        doc_id = data.draw(st.sampled_from(sorted(self.removed)))
        self.client.add_document(_texts()[text], doc_id=doc_id)
        self._admit(doc_id, _texts()[text])

    @precondition(lambda self: self.model)
    @rule(data=st.data(), text=st.integers(0, 11))
    def replace_a_document(self, data, text):
        """A live id removed and added again with new text: a query that
        patches across both must never keep the old document's rows."""
        doc_id = data.draw(st.sampled_from(sorted(self.model)))
        self.client.remove_document(doc_id)
        self._drop(doc_id)
        self.client.add_document(_texts()[text], doc_id=doc_id)
        self._admit(doc_id, _texts()[text])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def churn_past_the_log(self, data):
        """More writes to one shard than it has live documents: its log
        no longer reaches any partial cached before them."""
        doc_id = data.draw(st.sampled_from(sorted(self.model)))
        live = sum(self._shard(other) == self._shard(doc_id) for other in self.model)
        for _ in range(live // 2 + 1):
            self.client.remove_document(doc_id)
            self._drop(doc_id)
            self.client.add_document(self.texts[doc_id], doc_id=doc_id)
            self._admit(doc_id, self.texts[doc_id])

    # -- reads --------------------------------------------------------------
    @rule(name=st.sampled_from(sorted(QUERIES)), override=st.sampled_from(OVERRIDES))
    def cold_query(self, name, override):
        self._check_query(name, *override)

    @precondition(lambda self: self.last_query is not None)
    @rule()
    def repeated_query(self):
        """The same request again: a result-cache hit, answered on the loop
        with the bytes the client decoded last time, so it decodes nothing."""
        hits = self.service.metrics.get("koko_result_cache_hits_total")
        before, decoded = hits.value, self.client.stats()["bodies_decoded"]
        self._check_query(*self.last_query)
        assert hits.value == before + 1
        assert self.client.stats()["bodies_decoded"] == decoded

    @precondition(lambda self: self.asked is not None and self.last_query is None)
    @rule()
    def query_after_a_change(self):
        """The last query again after a write or a reopen: the model's
        answer as it stands, whatever bodies the client holds decoded."""
        self._check_query(*self.asked)

    # -- durability ---------------------------------------------------------
    @rule()
    def checkpoint(self):
        self.service.checkpoint()

    def _shard_shapes(self) -> list[tuple]:
        indexes = self.service.indexes
        return [index_set_shape(shard) for shard in getattr(indexes, "shards", [indexes])]

    @rule()
    def close_and_reopen(self):
        self._disconnect()
        before = self._shard_shapes()
        self.service.close()
        self.service = KokoService.open(self.directory)
        assert self.service.shard_count == self.shards
        assert self._shard_shapes() == before
        self._connect()
        self.last_query = None
        # fresh caches, counters and change logs (close checkpointed, so
        # the reopen replayed nothing)
        self.stamps = {}
        self.partials_expected = self.patched_expected = self.passes_expected = 0
        self.logs = [[] for _ in range(self.shards)]

    # -- after every step ---------------------------------------------------
    @invariant()
    def documents_and_sids_are_the_models(self):
        assert sorted(self.service.document_ids()) == sorted(self.model)
        assert self.service.next_sid() == self.next_sid
        live = {
            document.doc_id: [sentence.sid for sentence in document]
            for corpus in self.service.corpora
            for document in corpus
        }
        assert live == {
            doc_id: [sentence.sid for sentence in document]
            for doc_id, document in self.model.items()
        }

    @invariant()
    def partials_are_computed_for_exactly_the_moved_shards(self):
        metrics = self.service.metrics
        computed = metrics.get("koko_shard_partials_computed_total")
        patched = metrics.get("koko_shard_partials_patched_total")
        assert computed.value == self.partials_expected
        assert patched.value == self.patched_expected
        assert self.passes == self.passes_expected

    @invariant()
    def nothing_is_in_flight(self):
        assert self.service.inflight_ingest_bytes == 0

    @invariant()
    def remembered_trie_walks_are_fresh(self):
        """A write, removal or reopen drops exactly the stale memo entries."""
        indexes = self.service.indexes
        for shard in getattr(indexes, "shards", [indexes]):
            for hierarchy in (shard.pl_index, shard.pos_index):
                for steps in TRIE_PATTERNS:
                    remembered = hierarchy._matched(steps)[0].tolist()
                    assert remembered == hierarchy._walk_nodes(steps), (hierarchy.name, steps)


class FourShardMachine(ServiceMachine):
    shards = 4


_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestOneShard = ServiceMachine.TestCase
TestOneShard.settings = _SETTINGS
TestFourShards = FourShardMachine.TestCase
TestFourShards.settings = _SETTINGS
