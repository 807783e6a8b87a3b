"""One pipeline pass per cold query, over the union of the missing shards.

A sharded service probes every shard's partial cache, then runs the stage
pipeline **once** over the shards it could not serve and splits that
pass's result back per shard.  These tests pin what the split must keep:

* tuples identical — scores compared as ``repr`` — to a plain
  ``KokoEngine`` over the object-list reference, at 2, 3 and 4 shards,
  for the three ledger queries and for a query DPLI cannot prune (no
  index-supported variable: the candidate set is the corpus, in corpus
  order), with equal candidate and evaluated sentence counts;
* per-shard partials that hold exactly their shard's rows and sentence
  counts, so that after a write to one shard a repeat query patches that
  shard's partial — no pass for a removal, a pass over the added
  document alone for an add — and reuses the other N−1;
* parts that hold their rows as a selection of the answer they were
  cached with, so a query takes each answer its parts come from once,
  however many readers reuse them at the same moment.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import pytest

from repro.corpora.wikipedia import WikipediaConfig, generate_wikipedia_corpus
from repro.evaluation import queries as evaluation_queries
from repro.koko.engine import KokoEngine
from repro.koko.results import ResultColumns
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus
from repro.service import KokoService
from repro.service.read import ReadPath, _gather

#: no entity variable and no node path: DPLI leaves ``candidate_sids`` None
UNPRUNED_QUERY = 'extract b:Str from "w" if (/ROOT:{ b = ^ + "chocolate" })'
QUERIES = {**evaluation_queries.SCALEUP_QUERIES, "unpruned": UNPRUNED_QUERY}


@functools.lru_cache(maxsize=None)
def _texts() -> tuple[str, ...]:
    config = WikipediaConfig(articles=16, chocolate_fraction=0.3, called_fraction=0.3, seed=11)
    return tuple(document.text for document in generate_wikipedia_corpus(config, pipeline=Pipeline()))


def rows(result) -> list:
    return [(t.doc_id, t.sid, t.values, repr(t.scores)) for t in result]


def loaded(shards: int) -> tuple[KokoService, list]:
    service = KokoService(shards=shards, trace_sample_rate=0.0)
    mirror = [service.add_document(text, f"w{index}") for index, text in enumerate(_texts())]
    return service, mirror


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_the_union_pass_is_tuple_identical_to_the_reference_engine(shards):
    service, mirror = loaded(shards)
    with service:
        assert len({service.shard_of(d.doc_id) for d in mirror}) == shards
        reference = KokoEngine(Corpus("reference", mirror))
        for name, text in QUERIES.items():
            for threshold, keep_all in ((None, False), (0.0, True)):
                got = service.query(text, threshold_override=threshold, keep_all_scores=keep_all)
                want = reference.execute(text, threshold_override=threshold, keep_all_scores=keep_all)
                assert rows(got) == rows(want), (name, threshold)
                assert got.candidate_sentences == want.candidate_sentences, name
                assert got.evaluated_sentences == want.evaluated_sentences, name
        assert len(service.query(UNPRUNED_QUERY)) > 0
        unpruned = service.query(UNPRUNED_QUERY, threshold_override=0.5)
        assert unpruned.candidate_sentences == sum(len(d) for d in mirror)


def _passes(monkeypatch) -> list[list[int]]:
    """Record the shard ids of every pipeline pass."""
    seen: list[list[int]] = []
    run_pass = ReadPath._run_pass

    def spied(self, shard_ids, *args, **kwargs):
        seen.append(list(shard_ids))
        return run_pass(self, shard_ids, *args, **kwargs)

    monkeypatch.setattr(ReadPath, "_run_pass", spied)
    return seen


def test_a_write_to_one_shard_recomputes_one_partial_and_reuses_the_rest(monkeypatch):
    service, mirror = loaded(4)
    with service:
        passes = _passes(monkeypatch)
        computed = service.metrics.get("koko_shard_partials_computed_total")
        reused = service.metrics.get("koko_shard_partials_reused_total")
        patched = service.metrics.get("koko_shard_partials_patched_total")
        text = QUERIES["DateOfBirth"]
        first = service.query(text)
        assert passes == [[0, 1, 2, 3]]
        assert (computed.value, patched.value, reused.value) == (4, 0, 0)

        # a removal: the touched shard's partial drops the victim's rows, no pass
        victim = next(d for d in mirror if d.doc_id == first[-1].doc_id)
        service.remove_document(victim.doc_id)
        mirror.remove(victim)
        touched = service.shard_of(victim.doc_id)
        again = service.query(text)
        assert passes[1:] == []
        assert (computed.value, patched.value, reused.value) == (5, 1, 3)
        want = KokoEngine(Corpus("reference", mirror)).execute(text)
        assert rows(again) == rows(want)
        assert again.candidate_sentences == want.candidate_sentences
        assert again.evaluated_sentences == want.evaluated_sentences
        assert victim.doc_id not in {t.doc_id for t in again}

        # the document back: one pass over the touched shard, limited to it
        mirror.append(service.add_document(victim.text, victim.doc_id))
        back = service.query(text)
        assert passes[1:] == [[touched]]
        assert (computed.value, patched.value, reused.value) == (6, 2, 6)
        want = KokoEngine(Corpus("reference", mirror)).execute(text)
        assert rows(back) == rows(want)
        assert back.candidate_sentences == want.candidate_sentences
        assert back.evaluated_sentences == want.evaluated_sentences
        assert victim.doc_id in {t.doc_id for t in back}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_each_partial_holds_its_own_rows_and_counts(monkeypatch, name):
    service, mirror = loaded(4)
    with service:
        text = QUERIES[name]
        takes = []
        take = ResultColumns.take
        monkeypatch.setattr(
            ResultColumns, "take", lambda self, rows: takes.append(len(rows)) or take(self, rows)
        )
        merged = service.query(text)
        assert takes == []  # a cold query caches its parts without splitting them
        # one pass covered every shard: one partial-cache miss each
        misses = service.metrics.get("koko_shard_cache_misses_total").values()
        assert misses == {shard_id: 1 for shard_id in range(4)}
        parts = [
            service._read._shard_caches[shard_id].get(
                (text, None, False), service.generations[shard_id]
            )
            for shard_id in range(4)
        ]
        assert sum(part.candidates for part in parts) == merged.candidate_sentences
        assert all(part.source.columns is merged.columns for part in parts)
        partials = [_gather([part])[0] for part in parts]
        assert len(takes) == 4
        assert sum(1 for partial in partials if len(partial)) > 1
        for shard_id, partial in enumerate(partials):
            mine = [d for d in mirror if service.shard_of(d.doc_id) == shard_id]
            want = KokoEngine(Corpus("shard", mine)).execute(text)
            assert rows(partial) == rows(want)
            assert partial.candidate_sentences == want.candidate_sentences
            assert partial.evaluated_sentences == want.evaluated_sentences
            # the string tables were compacted to the shard's own rows
            assert set(partial.columns.doc_ids) == {t.doc_id for t in want}
            for at, table in enumerate(partial.columns.strings):
                assert set(table) == {t.values[at][1] for t in want}
        assert merged.candidate_sentences == sum(p.candidate_sentences for p in partials)


def test_concurrent_readers_take_each_shared_answer_once_per_query(monkeypatch):
    service, mirror = loaded(4)
    with service:
        text = QUERIES["DateOfBirth"]
        first = service.query(text)  # four parts cached, all over this answer
        victim = next(d for d in mirror if d.doc_id == first[0].doc_id)
        service.remove_document(victim.doc_id)
        mirror.remove(victim)
        want = rows(KokoEngine(Corpus("reference", mirror)).execute(text))
        hits = service.metrics.get("koko_result_cache_hits_total")
        patched = service.metrics.get("koko_shard_partials_patched_total")
        hits_before = hits.value
        takes = []
        take = ResultColumns.take

        def slow_take(self, rows):  # widens the window concurrent readers share
            takes.append(self)
            time.sleep(0.01)
            return take(self, rows)

        monkeypatch.setattr(ResultColumns, "take", slow_take)
        got: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [
                threading.Thread(target=lambda: got.append(rows(service.query(text))))
                for _ in range(8)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert got == [want] * 8
        # every reader that missed the result cache executed: it patched
        # the touched shard (the victim's rows dropped, no pass) or reused
        # a part another reader had patched, and took the rows of the
        # parts cached with the first answer from it in ONE take — three
        # or four parts, however many readers did so at once
        executed = 8 - (hits.value - hits_before)
        assert 1 <= patched.value <= executed
        assert sum(source is first.columns for source in takes) == executed
