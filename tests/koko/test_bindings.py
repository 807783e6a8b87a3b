"""The binding table: columnar extraction against the per-sentence oracle.

``KokoEngine`` over ``KokoIndexSet`` builds its binding table from DPLI's
blocks (``koko/bindings.py``); over ``ReferenceIndexSet`` it runs the
per-sentence ``SentenceEvaluator`` and converts the assignments.  The two
tables must agree row for row.
"""

from __future__ import annotations

import functools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.koko.evaluator as evaluator_module
from repro.corpora.wikipedia import WikipediaConfig, generate_wikipedia_corpus
from repro.evaluation import queries as evaluation_queries
from repro.indexing.decompose import row_lookup
from repro.indexing.exact import match_path_in_sentence, path_reaches_token
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.query_ir import (
    CHILD,
    DESCENDANT,
    KIND_ANY,
    KIND_PARSE_LABEL,
    KIND_POS,
    KIND_WORD,
    TreePath,
    TreeStep,
)
from repro.indexing.reference import ReferenceIndexSet
from repro.koko.ast import VarConstraint
from repro.koko.engine import KokoEngine, compile_query
from repro.koko.evaluator import Binding
from repro.koko.stages import DpliStage, ExtractStage, LoadStage, NormalizeStage
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus, Document, Sentence
from repro.service import KokoService

#: one query per shape the extraction distinguishes
QUERY_FAMILY = {
    "entities_and_verb": evaluation_queries.DATEOFBIRTH_QUERY,
    "chocolate": evaluation_queries.CHOCOLATE_QUERY,
    "title": evaluation_queries.TITLE_QUERY,
    "in": 'extract e:Entity from "w" if (/ROOT:{ a = //noun } (a) in (e))',
    "eq": 'extract e:Entity from "w" if (/ROOT:{ a = //propn } (a) eq (e))',
    "parent_of": 'extract x:Person from "w" if (/ROOT:{ v = //verb, s = v/nsubj } (s) in (x))',
    "ancestor_of": 'extract x:Entity, o:Str from "w" if (/ROOT:{ v = //verb, o = v//pobj })',
    "word_then_pos": 'extract p:Str from "w" if (/ROOT:{ p = //"born"/prep })',
    "mixed_pl_pos": 'extract s:Str from "w" if (/ROOT:{ s = //nsubj/propn })',
    "pl_then_pos": 'extract s:Str from "w" if (/ROOT:{ s = /root/*/noun })',
    "root_word": 'extract s:Str from "w" if (/ROOT:{ s = /"was" })',
    "any_root": 'extract s:Str from "w" if (/ROOT:{ s = /* })',
    "descendant_any": 'extract s:Str from "w" if (/ROOT:{ v = //verb, s = v//* })',
    "conditions": (
        'extract s:Str, x:Str from "w" if (/ROOT:{ s = //noun[regex="^[A-Z]"], '
        'x = //*[etype="Person"], y = //verb[pos="verb"] })'
    ),
    "location_alias": 'extract a:Location from "w" if ()',
    "organization_alias": 'extract a:Org, b:Date from "w" if ()',
    "span_terms": (
        'extract a:Person, b:Str from "w" if (/ROOT:{ v = //verb, b = v/prep, '
        "c = a + ^ + v })"
    ),
}


@functools.lru_cache(maxsize=None)
def _corpus(seed: int, articles: int) -> Corpus:
    config = WikipediaConfig(articles=articles, chocolate_fraction=0.2, seed=seed)
    return generate_wikipedia_corpus(config, pipeline=_pipeline())


@functools.lru_cache(maxsize=None)
def _pipeline() -> Pipeline:
    return Pipeline()


def _detached(corpus: Corpus, document_index: int, detach) -> Corpus:
    """*corpus* with the last token of one document's first sentence detached."""
    documents = list(corpus.documents)
    document = documents[document_index]
    first, *rest = document.sentences
    documents[document_index] = Document(
        document.doc_id, [detach(first), *rest], document.text
    )
    return Corpus(name=corpus.name, documents=documents)


def _compiled(name: str, left_of: bool):
    query = QUERY_FAMILY[name]
    if not left_of:
        return compile_query(query)
    # leftOf is otherwise only derived inside span terms; pin its array form
    parsed = compile_query(query).parsed
    variables = [d.name for d in parsed.declarations] + parsed.output_names()
    parsed.constraints.append(VarConstraint(variables[0], "leftOf", variables[-1]))
    return compile_query(parsed)


def _extracted(engine: KokoEngine, plan):
    ctx = engine.make_context(plan)
    for stage in (NormalizeStage(), DpliStage(), LoadStage(), ExtractStage()):
        stage.run(ctx)
        if ctx.finished:
            break
    return ctx


def table_rows(table) -> list:
    """The table row by row: document, sentence and each bound variable."""
    if table is None:
        return []
    rows = []
    for row in range(len(table)):
        bound = {
            name: tuple(column[:, row].tolist())
            for name, column in table.columns.items()
            if column[0, row] >= 0
        }
        rows.append((table.documents[table.doc[row]].doc_id, int(table.sid[row]), bound))
    return rows


@pytest.mark.parametrize("name", sorted(QUERY_FAMILY))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(seed=0, detach=None, cap=None, left_of=False)
@example(seed=1, detach=2, cap=2, left_of=True)
@given(
    seed=st.integers(0, 6),
    detach=st.none() | st.integers(0, 5),
    cap=st.sampled_from([None, None, 1, 2, 7]),
    left_of=st.booleans(),
)
def test_columnar_table_equals_the_evaluators_row_for_row(
    detach_last_token, name, seed, detach, cap, left_of
):
    corpus = _corpus(seed, 6)
    if detach is not None:
        corpus = _detached(corpus, detach, detach_last_token)
    plan = _compiled(name, left_of)
    production = KokoEngine(
        corpus, indexes=KokoIndexSet().build(corpus), use_default_vectors=False
    )
    reference = KokoEngine(
        corpus, indexes=ReferenceIndexSet().build(corpus), use_default_vectors=False
    )
    limit = cap or evaluator_module._MAX_ASSIGNMENTS_PER_SENTENCE
    with mock.patch.object(evaluator_module, "_MAX_ASSIGNMENTS_PER_SENTENCE", limit):
        got, want = _extracted(production, plan), _extracted(reference, plan)
    assert table_rows(got.bindings) == table_rows(want.bindings)
    assert got.result.candidate_sentences == want.result.candidate_sentences
    assert got.result.evaluated_sentences == want.result.evaluated_sentences
    assert got.fallback_sentences <= got.result.candidate_sentences


# ----------------------------------------------------------------------
# the exactness rule and the per-row re-check
# ----------------------------------------------------------------------
_STEPS = st.one_of(
    st.builds(
        TreeStep,
        axis=st.sampled_from([CHILD, DESCENDANT]),
        label=st.sampled_from(["root", "nsubj", "prep", "pobj", "det", "nn", "dobj"]),
        kind=st.just(KIND_PARSE_LABEL),
    ),
    st.builds(
        TreeStep,
        axis=st.sampled_from([CHILD, DESCENDANT]),
        label=st.sampled_from(["VERB", "NOUN", "PROPN", "ADP", "NUM", "DET"]),
        kind=st.just(KIND_POS),
    ),
    st.builds(
        TreeStep,
        axis=st.sampled_from([CHILD, DESCENDANT]),
        label=st.sampled_from(["was", "born", "in", "the", "called", "chocolate"]),
        kind=st.just(KIND_WORD),
    ),
    st.builds(
        TreeStep,
        axis=st.sampled_from([CHILD, DESCENDANT]),
        label=st.just("*"),
        kind=st.just(KIND_ANY),
    ),
)
_PATHS = st.lists(_STEPS, min_size=1, max_size=3).map(lambda s: TreePath(tuple(s)))


@settings(max_examples=60, deadline=None)
@given(tree_path=_PATHS, seed=st.integers(0, 3))
def test_row_lookup_holds_every_match_and_only_them_when_exact(tree_path, seed):
    """Per sentence with one root: lookup rows ⊇ matches, = when exact; and
    the per-row re-check keeps exactly the matches."""
    corpus = _corpus(seed, 4)
    indexes = KokoIndexSet().build(corpus)
    lookup = row_lookup(tree_path)
    block = indexes.path_candidates(lookup.path, lookup.decomposed)[1]
    rows: dict[int, set[int]] = {}
    for sid, tid in zip(block.sid.tolist(), block.tid.tolist()):
        rows.setdefault(sid, set()).add(tid)
    for _, sentence in corpus.all_sentences():
        matches = set(match_path_in_sentence(sentence, tree_path))
        held = rows.get(sentence.sid, set())
        assert matches <= held, tree_path.render()
        if lookup.exact:
            assert held == matches, tree_path.render()
        assert {t for t in held if path_reaches_token(sentence, tree_path, t)} == matches


@settings(max_examples=40, deadline=None)
@given(tree_path=_PATHS, seed=st.integers(0, 3))
def test_path_reaches_token_is_the_forward_match(detach_last_token, tree_path, seed):
    corpus = _detached(_corpus(seed, 4), 0, detach_last_token)
    for _, sentence in corpus.all_sentences():
        matches = set(match_path_in_sentence(sentence, tree_path))
        every = {t for t in range(len(sentence)) if path_reaches_token(sentence, tree_path, t)}
        assert every == matches, tree_path.render()


# ----------------------------------------------------------------------
# DateOfBirth on the production path: no fallback, no Binding object
# ----------------------------------------------------------------------
def test_dateofbirth_takes_every_row_from_the_blocks(wiki_corpus, monkeypatch):
    engine = KokoEngine(wiki_corpus, indexes=KokoIndexSet().build(wiki_corpus))
    constructed = []
    real_init = Binding.__init__

    def counting(self, *args, **kwargs):
        constructed.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Binding, "__init__", counting)
    ctx = engine.make_context(compile_query(evaluation_queries.DATEOFBIRTH_QUERY))
    result = engine.pipeline.run(ctx)
    assert len(ctx.bindings) > 500 and len(result) > 100
    assert ctx.fallback_sentences == 0
    assert constructed == []


def test_span_terms_and_unrooted_sentences_are_counted_as_fallback(
    wiki_corpus, detach_last_token
):
    title = compile_query(evaluation_queries.TITLE_QUERY)
    engine = KokoEngine(wiki_corpus, indexes=KokoIndexSet().build(wiki_corpus))
    ctx = engine.make_context(title)
    engine.pipeline.run(ctx)
    assert 0 < ctx.fallback_sentences <= ctx.result.candidate_sentences

    detached = _detached(wiki_corpus, 0, detach_last_token)
    engine = KokoEngine(detached, indexes=KokoIndexSet().build(detached))
    ctx = engine.make_context(compile_query('extract s:Str from "w" if (/ROOT:{ s = //* })'))
    engine.pipeline.run(ctx)
    assert ctx.fallback_sentences == 1  # the one sentence with a second root


# ----------------------------------------------------------------------
# entity-type aliases: one table for both indexes and the evaluator
# ----------------------------------------------------------------------
LOCATION_QUERY = 'extract a:Location from "t" if ()'


@pytest.mark.parametrize("index_set", [KokoIndexSet, ReferenceIndexSet])
def test_a_location_variable_binds_a_gpe_mention(pipeline, index_set):
    corpus = pipeline.annotate_corpus({"d": "Alice was born in Paris in 1990."})
    mentions = corpus.documents[0].sentences[0].entity_rows
    assert [(text, etype) for _, _, etype, text in mentions if etype != "OTHER"] == [
        ("Paris", "GPE"), ("1990", "DATE"),
    ]
    engine = KokoEngine(corpus, indexes=index_set().build(corpus))
    assert [t.value("a") for t in engine.execute(LOCATION_QUERY)] == ["Paris"]


@pytest.mark.parametrize("index_set", [KokoIndexSet, ReferenceIndexSet])
def test_an_alias_of_several_types_binds_them_in_sentence_order(pipeline, index_set):
    """FACILITY and GPE rows gathered type by type still bind in mention order."""
    corpus = pipeline.annotate_corpus(
        {
            "d0": "Alice visited Riverside Stadium in Paris.",
            "d1": "Bob flew to Paris and walked through Central Park.",
        }
    )
    engine = KokoEngine(corpus, indexes=index_set().build(corpus))
    assert [(t.doc_id, t.value("a")) for t in engine.execute(LOCATION_QUERY)] == [
        ("d0", "Riverside Stadium"), ("d0", "Paris"), ("d1", "Paris"), ("d1", "Central Park"),
    ]


def test_the_service_answers_a_location_query_with_the_gpe_mention():
    with KokoService(shards=2) as service:
        service.add_document("Alice was born in Paris in 1990.", "d")
        assert [t.value("a") for t in service.query(LOCATION_QUERY)] == ["Paris"]


def test_ancestor_of_is_confirmed_on_the_heads_of_a_non_projective_tree():
    """Token 3's extent lies inside token 4's and deeper, yet 4 is no ancestor
    of 3: the interval test alone would admit the pair.  Token 6, also an
    ``nn``, is 3's true ancestor, so DPLI keeps the sentence."""
    sentence = Sentence.from_columns(
        0,
        words=["w0", "w1", "w2", "w3", "w4", "w5", "w6"],
        pos_tags=["NOUN"] * 7,
        labels=["dep", "root", "dep", "dobj", "nn", "dep", "nn"],
        heads=[1, -1, 4, 6, 0, 1, 5],
        lemmas=["w0", "w1", "w2", "w3", "w4", "w5", "w6"],
    )
    _, spans, depths = sentence.tree_columns()
    assert spans[4] == (2, 4) and depths[3] > depths[4]
    assert not sentence.is_ancestor(4, 3) and sentence.is_ancestor(6, 3)
    corpus = Corpus(name="t", documents=[Document("d", [sentence])])
    query = 'extract o:Str from "t" if (/ROOT:{ v = //nn, o = v//dobj })'
    engines = [
        KokoEngine(corpus, indexes=index_set().build(corpus), use_default_vectors=False)
        for index_set in (KokoIndexSet, ReferenceIndexSet)
    ]
    tables = [table_rows(_extracted(engine, compile_query(query)).bindings) for engine in engines]
    assert tables[0] == tables[1] == [("d", 0, {"v": (6, 6, 6), "o": (3, 3, 3)})]
