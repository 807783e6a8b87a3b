"""The object-list reference index set, and where it may be used.

:class:`~repro.indexing.reference.ReferenceIndexSet` is the independent
implementation the production (columnar) :class:`KokoIndexSet` is checked
against.  These tests pin the reference's own behaviour on the paper's
running example (Examples 3.2–4.4), that the two answer the paper's
lookups alike — word, entity and hierarchy lookups one by one, the
SyntheticTree queries of Figures 6–8 and the DPLI lookups of the Section
6.3 queries — and that the reference stays out of the serving path: under
``src/`` only the plain engine's default build imports it, and the
production indexes import no object postings at all.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.corpora.synthetic_queries import generate_tree_benchmark
from repro.evaluation.queries import SCALEUP_QUERIES
from repro.indexing.decompose import candidate_sentences_for_query
from repro.indexing.exact import matching_sentences
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.query_ir import (
    CHILD,
    DESCENDANT,
    KIND_ANY,
    KIND_PARSE_LABEL,
    KIND_POS,
    KIND_WORD,
    path,
    step,
)
from repro.indexing.reference import ReferenceHierarchyIndex, ReferenceIndexSet
from repro.koko.dpli import run_dpli
from repro.koko.engine import compile_query

SRC = Path(repro.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def paper_reference(paper_corpus) -> ReferenceIndexSet:
    return ReferenceIndexSet().build(paper_corpus)


def _detached(pipeline, detach):
    """Example text whose last token hangs off no tree (a second root)."""
    corpus = pipeline.annotate_corpus(
        ["Paolo visited Beijing and Anna ate cheesecake."], name="detached"
    )
    sentences = corpus.documents[0].sentences
    sentences[0] = detach(sentences[0])
    return corpus, sentences[0]


def _word(axis, label):
    return step(axis, label, KIND_WORD)


def _label(axis, label):
    return step(axis, label, KIND_PARSE_LABEL)


# ----------------------------------------------------------------------
# the reference on its own: the paper's running example
# ----------------------------------------------------------------------
class TestReferenceWordIndex:
    def test_lookup_is_case_insensitive(self, paper_reference):
        # twice in sentence 0, once in sentence 1
        assert len(paper_reference.word_index.lookup("ATE")) == 3

    def test_unseen_word_has_no_postings(self, paper_reference):
        assert paper_reference.word_index.lookup("zebra") == []

    def test_lookup_returns_a_copy(self, paper_reference):
        paper_reference.word_index.lookup("ate").clear()
        assert len(paper_reference.word_index.lookup("ate")) == 3

    def test_vocabulary_is_every_lowercased_token(self, paper_corpus, paper_reference):
        words = {
            token.text.lower()
            for _, sentence in paper_corpus.all_sentences()
            for token in sentence
        }
        assert paper_reference.word_index.vocabulary() == sorted(words)

    def test_len_counts_every_token(self, paper_corpus, paper_reference):
        assert len(paper_reference.word_index) == paper_corpus.num_tokens

    def test_node_ids_name_the_merged_nodes(self, paper_corpus, paper_reference):
        for _, sentence in paper_corpus.all_sentences():
            for token in sentence:
                plid, posid = paper_reference.word_index.node_ids(
                    sentence.sid, token.index
                )
                assert paper_reference.pl_index.node_by_id(plid).label == token.label
                assert paper_reference.pos_index.node_by_id(posid).label == token.pos

    def test_unreachable_token_has_no_node_ids(self, pipeline, detach_last_token):
        corpus, sentence = _detached(pipeline, detach_last_token)
        word_index = ReferenceIndexSet().build(corpus).word_index
        assert word_index.node_ids(sentence.sid, len(sentence) - 1) is None
        assert word_index.node_ids(sentence.sid, 0) is not None
        assert len(word_index) == len(sentence)

    def test_remove_sentence_drops_postings_and_node_ids(self, paper_corpus):
        indexes = ReferenceIndexSet().build(paper_corpus)
        removed = paper_corpus.documents[1].sentences[0]
        indexes.word_index.remove_sentence(removed)
        assert [p.sid for p in indexes.word_index.lookup("ate")] == [0, 0]
        assert all(
            indexes.word_index.node_ids(removed.sid, token.index) is None
            for token in removed
        )
        assert len(indexes.word_index) == len(paper_corpus.documents[0].sentences[0])

    def test_remove_sentence_forgets_emptied_words(self, paper_corpus):
        indexes = ReferenceIndexSet().build(paper_corpus)
        indexes.word_index.remove_sentence(paper_corpus.documents[1].sentences[0])
        vocabulary = indexes.word_index.vocabulary()
        assert "cheesecake" not in vocabulary and "anna" not in vocabulary
        assert "ate" in vocabulary and "delicious" in vocabulary


class TestReferenceEntityIndex:
    def test_entity_matches_every_mention(self, paper_reference):
        index = paper_reference.entity_index
        assert index.lookup_type("Entity") == index.all_postings()
        assert len(index) == 5

    def test_lookup_type_canonicalises_the_name(self, paper_reference):
        people = paper_reference.entity_index.lookup_type("Person")
        assert [(p.sid, p.left, p.right, p.text) for p in people] == [
            (1, 0, 0, "Anna")
        ]

    def test_unknown_type_has_no_mentions(self, paper_reference):
        assert paper_reference.entity_index.lookup_type("Location") == []

    def test_example_3_2_chunk_spans_its_tokens(self, paper_reference):
        chunk = [
            p
            for p in paper_reference.entity_index.all_postings()
            if p.text == "chocolate ice cream"
        ]
        assert [(p.sid, p.left, p.right) for p in chunk] == [(0, 3, 5)]

    def test_remove_sentence_drops_its_mentions(self, paper_corpus):
        index = ReferenceIndexSet().build(paper_corpus).entity_index
        index.remove_sentence(paper_corpus.documents[0].sentences[0])
        assert {p.sid for p in index.all_postings()} == {1}
        assert len(index) == 3


class TestReferenceHierarchyIndex:
    def test_pl_index_has_single_root_child(self, paper_reference):
        top = {node.label for node in paper_reference.pl_index.nodes() if node.depth == 0}
        assert top == {"root"}

    def test_example_3_3_merged_postings(self, paper_reference):
        """/root/dobj holds both cream and cheesecake after merging."""
        postings = paper_reference.pl_index.lookup_path([("/", "root"), ("/", "dobj")])
        assert {"cream", "cheesecake"} <= {p.word for p in postings}

    def test_descendant_wildcard_reaches_every_token(self, paper_corpus, paper_reference):
        everything = paper_reference.pl_index.lookup_path([("//", "*")])
        assert len(everything) == paper_corpus.num_tokens
        assert everything == sorted(everything)

    def test_child_axis_is_anchored_at_the_dummy(self, paper_reference):
        assert paper_reference.pl_index.lookup_path([("/", "dobj")]) == []
        assert paper_reference.pl_index.lookup_path([("//", "dobj")])

    def test_labels_match_case_insensitively(self, paper_reference):
        pl_index = paper_reference.pl_index
        assert pl_index.lookup_path([("/", "ROOT")]) == pl_index.lookup_path(
            [("/", "root")]
        )

    def test_missing_path_is_empty(self, paper_reference):
        steps = [("/", "root"), ("/", "xcomp"), ("/", "xcomp")]
        assert paper_reference.pl_index.lookup_path(steps) == []

    def test_match_nodes_come_sorted_by_id(self, paper_reference):
        ids = [node.node_id for node in paper_reference.pl_index.match_nodes([("//", "*")])]
        assert ids == sorted(ids) and len(ids) == paper_reference.pl_index.node_count

    def test_pos_index_lookup(self, paper_reference):
        verbs = paper_reference.pos_index.lookup_path([("//", "VERB")])
        assert {p.word.lower() for p in verbs} == {"ate", "was", "bought"}

    def test_merging_reduces_nodes(self, paper_reference):
        pl_index = paper_reference.pl_index
        assert pl_index.node_count < pl_index.token_count
        assert 0.0 < pl_index.compression_ratio() < 1.0

    def test_unique_paths(self, paper_reference):
        paths = [node.path() for node in paper_reference.pl_index.nodes()]
        assert len(paths) == len(set(paths))

    def test_empty_trie_has_no_compression(self):
        empty = ReferenceHierarchyIndex(lambda token: token.label, "PL")
        assert empty.node_count == empty.token_count == 0
        assert empty.compression_ratio() == 0.0

    def test_remove_prunes_nodes_left_without_postings(self, paper_corpus):
        first, second = (d.sentences[0] for d in paper_corpus.documents)
        pl_index = ReferenceHierarchyIndex(lambda token: token.label, "PL")
        pl_index.add_sentence(first)
        merged = pl_index.add_sentence(second)
        pl_index.remove_sentence(second)
        alone = ReferenceHierarchyIndex(lambda token: token.label, "PL")
        alone.add_sentence(first)
        assert sorted(n.path() for n in pl_index.nodes()) == sorted(
            n.path() for n in alone.nodes()
        )
        assert pl_index.lookup_path([("//", "pobj")]) == []
        with pytest.raises(KeyError):  # the store/pobj node was pruned
            pl_index.node_by_id(merged[len(second) - 2])

    def test_removing_every_sentence_empties_the_trie(self, paper_corpus):
        pl_index = ReferenceHierarchyIndex(lambda token: token.label, "PL")
        sentences = [sentence for _, sentence in paper_corpus.all_sentences()]
        for sentence in sentences:
            pl_index.add_sentence(sentence)
        for sentence in sentences:
            pl_index.remove_sentence(sentence)
        assert pl_index.node_count == 0 and list(pl_index.nodes()) == []

    def test_unreachable_token_is_not_merged(self, pipeline, detach_last_token):
        corpus, sentence = _detached(pipeline, detach_last_token)
        pl_index = ReferenceHierarchyIndex(lambda token: token.label, "PL")
        merged = pl_index.add_sentence(sentence)
        assert len(sentence) - 1 not in merged
        assert pl_index.token_count == len(sentence) - 1


class TestReferenceIndexSet:
    def test_statistics_count_the_corpus(self, paper_corpus, paper_reference):
        stats = paper_reference.statistics()
        assert stats.sentences == 2
        assert stats.tokens == stats.word_postings == paper_corpus.num_tokens
        assert stats.entity_postings == 5
        assert stats.approximate_bytes == paper_reference.approximate_bytes() > 0

    def test_remove_document_restores_the_statistics(self, paper_corpus):
        survivors = ReferenceIndexSet().add_document(paper_corpus.documents[0])
        indexes = ReferenceIndexSet().build(paper_corpus)
        indexes.remove_document(paper_corpus.documents[1])
        assert dataclasses.replace(indexes.statistics(), build_seconds=0.0) == (
            dataclasses.replace(survivors.statistics(), build_seconds=0.0)
        )

    def test_entity_candidates_carry_a_sorted_sid_column(self, paper_reference):
        sids, postings = paper_reference.entity_candidates("Entity")
        assert sids.tolist() == sorted(p.sid for p in postings)

    def test_path_candidates_sid_column_follows_the_postings(self, paper_reference):
        dobj = path(_label(CHILD, "root"), _label(CHILD, "dobj"))
        sids, postings = paper_reference.path_candidates(dobj)
        assert sids.tolist() == [p.sid for p in postings] == [0, 1]
        assert [p.word for p in postings] == ["cream", "cheesecake"]


# ----------------------------------------------------------------------
# production and reference, lookup by lookup
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "word", ["ate", "ATE", "delicious", "cheesecake", "a", ",", "zebra"]
)
def test_word_lookups_agree(word, paper_indexes, paper_reference, posting_rows):
    assert posting_rows(paper_indexes.word_index.lookup(word)) == posting_rows(
        paper_reference.word_index.lookup(word)
    )


@pytest.mark.parametrize("etype", ["Entity", "Person", "PERSON", "Other", "Location"])
def test_entity_candidates_agree(etype, paper_indexes, paper_reference, mention_rows):
    sids, columns = paper_indexes.entity_candidates(etype)
    expected_sids, expected = paper_reference.entity_candidates(etype)
    assert np.array_equal(sids, expected_sids)
    assert sorted(mention_rows(paper_indexes.entity_index, columns)) == sorted(
        mention_rows(paper_reference.entity_index, expected)
    )


_HIERARCHY_LOOKUPS = {
    "pl_index": [
        [("/", "root")],
        [("/", "root"), ("/", "dobj")],
        [("//", "dobj")],
        [("//", "*")],
        [("/", "root"), ("//", "det")],
        [("//", "rcmod"), ("/", "*")],
        [("/", "root"), ("/", "xcomp")],
    ],
    "pos_index": [
        [("//", "VERB")],
        [("/", "VERB"), ("/", "NOUN")],
        [("//", "NOUN"), ("//", "ADJ")],
    ],
}


@pytest.mark.parametrize(
    "hierarchy, steps",
    [(name, steps) for name, lookups in _HIERARCHY_LOOKUPS.items() for steps in lookups],
    ids=lambda value: value if isinstance(value, str) else "".join(map("".join, value)),
)
def test_hierarchy_lookups_agree(
    hierarchy, steps, paper_indexes, paper_reference, posting_rows
):
    production = getattr(paper_indexes, hierarchy)
    reference = getattr(paper_reference, hierarchy)
    assert posting_rows(production.lookup_path(steps)) == posting_rows(
        reference.lookup_path(steps)
    )
    assert [node.path() for node in production.match_nodes(steps)] == [
        node.path() for node in reference.match_nodes(steps)
    ]


_PATHS = [
    path(_label(CHILD, "root")),
    path(*(_label(CHILD, label) for label in ("root", "dobj", "rcmod", "acomp"))),
    path(_word(DESCENDANT, "ate")),
    path(_word(DESCENDANT, "ate"), _word(DESCENDANT, "delicious")),  # Example 4.4
    path(_label(DESCENDANT, "dobj"), _word(CHILD, "cheesecake")),
    path(_word(DESCENDANT, "ate"), _label(CHILD, "dobj")),
    path(step(DESCENDANT, "VERB", KIND_POS), step(CHILD, "NOUN", KIND_POS)),
    path(step(DESCENDANT, "*", KIND_ANY)),
    path(_word(DESCENDANT, "ate"), step(DESCENDANT, "*", KIND_ANY)),
    path(_word(DESCENDANT, "zebra")),
]


@pytest.mark.parametrize("tree_path", _PATHS, ids=lambda p: p.render())
def test_path_candidates_agree(tree_path, paper_indexes, paper_reference, posting_rows):
    sids, block = paper_indexes.path_candidates(tree_path)
    expected_sids, expected = paper_reference.path_candidates(tree_path)
    assert np.array_equal(sids, expected_sids)
    assert posting_rows(block) == posting_rows(expected)


@pytest.mark.parametrize("corpus_fixture", ["happy_corpus", "wiki_corpus"])
def test_production_and_reference_agree_on_synthetic_tree_queries(
    corpus_fixture, request, posting_rows
):
    corpus = request.getfixturevalue(corpus_fixture)
    production = KokoIndexSet().build(corpus)
    reference = ReferenceIndexSet().build(corpus)
    queries = generate_tree_benchmark(corpus, queries_per_setting=1)
    assert len(queries) == 56
    for benchmark_query in queries:
        query = benchmark_query.query
        candidates = candidate_sentences_for_query(production, query)
        assert candidates == candidate_sentences_for_query(reference, query), query.render()
        assert matching_sentences(corpus, query) <= candidates, query.render()
        for path in query.paths:
            sids, block = production.path_candidates(path)
            expected_sids, expected = reference.path_candidates(path)
            assert np.array_equal(sids, expected_sids)
            assert posting_rows(block) == posting_rows(expected)
    built = production.approximate_bytes()
    assert built == reference.approximate_bytes()
    # removals keep the size model on the reference's count
    for document in corpus.documents[::5]:
        production.remove_document(document)
        reference.remove_document(document)
    assert production.approximate_bytes() == reference.approximate_bytes() < built


@pytest.mark.parametrize("name", sorted(SCALEUP_QUERIES))
def test_run_dpli_answers_alike_over_both_index_sets(
    name, wiki_corpus, posting_rows, mention_rows
):
    """One ``run_dpli`` body: the index set supplies sid columns + postings."""
    normalized = compile_query(SCALEUP_QUERIES[name]).normalized
    production_indexes = KokoIndexSet().build(wiki_corpus)
    reference_indexes = ReferenceIndexSet().build(wiki_corpus)
    production = run_dpli(normalized, production_indexes)
    reference = run_dpli(normalized, reference_indexes)
    assert np.array_equal(production.candidate_sids, reference.candidate_sids)
    assert production.provably_empty == reference.provably_empty
    assert production.sid_columns.keys() == reference.sid_columns.keys()
    for variable, column in reference.sid_columns.items():
        assert np.array_equal(production.sid_columns[variable], column), variable
    for variable, postings in reference.path_bindings.items():
        block = production.path_bindings[variable]
        assert posting_rows(block) == posting_rows(postings), variable
    for variable, postings in reference.entity_bindings.items():
        columns = production.entity_bindings[variable]
        assert sorted(mention_rows(production_indexes.entity_index, columns)) == sorted(
            mention_rows(reference_indexes.entity_index, postings)
        ), variable


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module *path* imports (relative ones resolved)."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *(node.module.split(".") if node.module else ())))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_plain_engine_imports_the_reference():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.joinpath("repro").rglob("*.py")
        if "repro.indexing.reference" in _imported_modules(path)
    }
    assert importers == {"repro/koko/engine.py"}


@pytest.mark.parametrize(
    "module",
    ["columnar", "word_index", "entity_index", "hierarchy", "koko_index", "sharding"],
)
def test_production_indexes_import_no_object_postings(module):
    """Object postings belong to the reference: production answers in columns."""
    imported = _imported_modules(SRC / "repro" / "indexing" / f"{module}.py")
    assert not {
        name
        for name in imported
        if name == "repro.indexing.postings" or name.startswith("repro.indexing.postings.")
    }
