"""A write patches the shard partials it staled; it does not drop them.

A stale shard partial whose shard's change log still reaches back to it
is brought up to date by dropping the rows of the documents removed since
and running one pass over the documents added since.  These tests pin
that the patched answer is the uncached one:

* a Hypothesis property over random add / remove / re-add-under-the-same-id
  / query interleavings at 1 and 4 shards, checking each answer against
  the ``explain=True`` re-execution (no cache) and a fresh ``KokoEngine``
  over the live documents — rows, scores (as ``repr``) and both sentence
  counts;
* exact counts of passes, patched parts and recomputed parts for the
  cases the property only samples: a shard that only lost documents, a
  document re-added under its old id, and a partial older than the log.
"""

from __future__ import annotations

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpora.wikipedia import WikipediaConfig, generate_wikipedia_corpus
from repro.evaluation import queries as evaluation_queries
from repro.koko.engine import KokoEngine
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus
from repro.service import KokoService
from repro.service.read import ReadPath

QUERIES = {
    **evaluation_queries.SCALEUP_QUERIES,
    "in": 'extract e:Entity from "w" if (/ROOT:{ a = //noun } (a) in (e))',
    "unpruned": 'extract b:Str from "w" if (/ROOT:{ b = ^ + "chocolate" })',
}
OVERRIDES = [(None, False), (0.0, True)]
DOC_IDS = [f"p{index}" for index in range(8)]


@functools.lru_cache(maxsize=None)
def _texts() -> tuple[str, ...]:
    config = WikipediaConfig(articles=10, chocolate_fraction=0.3, called_fraction=0.3, seed=7)
    corpus = generate_wikipedia_corpus(config, pipeline=Pipeline())
    return tuple(document.text for document in corpus)


def rows(result) -> list:
    return [(t.doc_id, t.sid, t.values, repr(t.scores)) for t in result]


def live_engine(service: KokoService) -> KokoEngine:
    documents = [document for corpus in service.corpora for document in corpus]
    documents.sort(key=lambda document: document.sentences[0].sid if len(document) else -1)
    return KokoEngine(Corpus("live", documents))


def assert_uncached(service: KokoService, text: str, threshold, keep_all) -> None:
    got = service.query(text, threshold_override=threshold, keep_all_scores=keep_all)
    plain = service.query(
        text, threshold_override=threshold, keep_all_scores=keep_all, explain=True
    ).result
    want = live_engine(service).execute(
        text, threshold_override=threshold, keep_all_scores=keep_all
    )
    for other in (plain, want):
        assert rows(got) == rows(other)
        assert got.candidate_sentences == other.candidate_sentences
        assert got.evaluated_sentences == other.evaluated_sentences


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(DOC_IDS), st.integers(0, 9)),
        st.tuples(st.just("remove"), st.sampled_from(DOC_IDS), st.just(0)),
        st.tuples(st.just("readd"), st.sampled_from(DOC_IDS), st.integers(0, 9)),
        st.tuples(st.just("query"), st.sampled_from(sorted(QUERIES)), st.sampled_from(range(2))),
    ),
    min_size=4,
    max_size=24,
)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shards=st.sampled_from([1, 4]), steps=_steps)
def test_patched_answers_equal_uncached_answers(shards, steps):
    with KokoService(shards=shards, trace_sample_rate=0.0) as service:
        live: set[str] = set()
        for kind, name, number in steps:
            if kind == "query":
                assert_uncached(service, QUERIES[name], *OVERRIDES[number])
            elif kind == "add" and name not in live:
                service.add_document(_texts()[number], name)
                live.add(name)
            elif kind == "remove" and name in live:
                service.remove_document(name)
                live.discard(name)
            elif kind == "readd" and name in live:
                # the same id, a different document: never the old rows
                service.remove_document(name)
                service.add_document(_texts()[number], name)
        for name in sorted(QUERIES):
            assert_uncached(service, QUERIES[name], None, False)


# ----------------------------------------------------------------------
# exact counts
# ----------------------------------------------------------------------
def _passes(monkeypatch) -> list[list[int]]:
    seen: list[list[int]] = []
    run_pass = ReadPath._run_pass

    def spied(self, shard_ids, *args, **kwargs):
        seen.append(list(shard_ids))
        return run_pass(self, shard_ids, *args, **kwargs)

    monkeypatch.setattr(ReadPath, "_run_pass", spied)
    return seen


def _counters(service: KokoService) -> tuple[int, int, int]:
    """``(computed, patched, reused)`` shard partials so far."""
    get = service.metrics.get
    return (
        get("koko_shard_partials_computed_total").value,
        get("koko_shard_partials_patched_total").value,
        get("koko_shard_partials_reused_total").value,
    )


def _loaded(shards: int) -> KokoService:
    service = KokoService(shards=shards, trace_sample_rate=0.0)
    for index, text in enumerate(_texts()):
        service.add_document(text, f"w{index}")
    return service


def test_a_shard_that_only_lost_documents_runs_no_pass(monkeypatch):
    with _loaded(4) as service:
        text = QUERIES["DateOfBirth"]
        first = service.query(text)
        passes = _passes(monkeypatch)
        service.remove_document(first[0].doc_id)
        assert_uncached(service, text, None, False)
        # the repeat patched one part without a pass; explain then ran one
        assert passes == [[0, 1, 2, 3]]
        assert _counters(service) == (5, 1, 3)
        assert first[0].doc_id not in {t.doc_id for t in service.query(text)}


def test_a_document_re_added_under_its_id_never_keeps_its_old_rows(monkeypatch):
    with _loaded(4) as service:
        text = QUERIES["DateOfBirth"]
        first = service.query(text)
        doc_id = first[0].doc_id
        shard = service.shard_of(doc_id)
        passes = _passes(monkeypatch)
        # a text with no birth date under the same id: the old rows must go
        service.remove_document(doc_id)
        service.add_document("Maria ate a delicious pie in Tokyo.", doc_id)
        again = service.query(text)
        assert doc_id not in {t.doc_id for t in again}
        assert passes == [[shard]]  # the re-added document alone
        assert _counters(service) == (5, 1, 3)
        # and back again: the rows return with the new document's sids
        service.remove_document(doc_id)
        readded = service.add_document(_texts()[int(doc_id[1:])], doc_id)
        sids = {sentence.sid for sentence in readded}
        back = [t for t in service.query(text) if t.doc_id == doc_id]
        assert back and {t.sid for t in back} <= sids
        assert_uncached(service, text, None, False)


def test_a_partial_older_than_the_log_is_computed_whole(monkeypatch):
    with KokoService(shards=1, trace_sample_rate=0.0) as service:
        service.add_document(_texts()[0], "w0")
        text = QUERIES["DateOfBirth"]
        service.query(text)
        # one live document keeps one log entry: three writes outrun it
        service.add_document(_texts()[1], "w1")
        service.remove_document("w1")
        service.add_document(_texts()[2], "w2")
        assert len(service._shards[0].changes) == len(service._shards[0].documents) == 2
        passes = _passes(monkeypatch)
        stale = service.metrics.get("koko_shard_cache_stale_evictions_total")
        service.query(text)
        assert passes == [[0]]
        assert _counters(service) == (2, 0, 0)
        assert stale.values() == {0: 1}
        assert_uncached(service, text, None, False)
