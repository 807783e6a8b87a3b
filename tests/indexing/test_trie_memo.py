"""The hierarchy index remembers its trie walks — and forgets them on time.

``HierarchyIndex`` memoises, per case-folded ``(axis, label)`` pattern, the
ids of the matched trie nodes.  The answer depends on the trie's structure
alone, so the memo must be dropped exactly when a node is minted or pruned
and must survive every other write.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexing import hierarchy
from repro.indexing.hierarchy import HierarchyIndex
from repro.indexing.koko_index import KokoIndexSet
from repro.indexing.reference import ReferenceIndexSet
from repro.koko.engine import compile_query
from repro.nlp.pipeline import Pipeline
from repro.service import KokoService

_PIPELINE = Pipeline()

_WORDS = [
    "Anna", "ate", "delicious", "cheesecake", "the", "cafe", "in", "Tokyo",
    "serves", "coffee", "Paolo", "visited", "Beijing", "and", "pie",
]
_sentences = st.lists(st.sampled_from(_WORDS), min_size=3, max_size=8).map(
    lambda words: " ".join(words) + "."
)
_documents = st.lists(_sentences, min_size=1, max_size=3).map(" ".join)

#: parse labels and POS tags in the spellings a query may use, plus the wildcard
_LABELS = ["*", "root", "ROOT", "nsubj", "NSubj", "dobj", "det", "prep", "pobj",
           "verb", "VERB", "Noun", "propn", "adj", "DET", "adp"]
_steps = st.lists(
    st.tuples(st.sampled_from(["/", "//"]), st.sampled_from(_LABELS)),
    min_size=1,
    max_size=3,
)
#: an operation: add a document, or remove the n-th live one
_operations = st.lists(
    st.one_of(_documents, st.integers(0, 5)), min_size=1, max_size=8
)

ENTITY_QUERY = (
    'extract e:Entity, d:Str from input.txt if '
    '(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))'
)
TEXTS = [
    "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
    "Anna ate some delicious cheesecake that she bought at a grocery store.",
    "cities in asian countries such as Beijing and Tokyo.",
    "Paolo visited Beijing and ate a delicious croissant.",
    "Maria ate a delicious pie in Tokyo.",
    "The barista in Osaka served a delicious espresso.",
]
VERBS = [("//", "verb")]
ROOT_CHILDREN = [("/", "root"), ("/", "*")]


def _paths(nodes) -> list[str]:
    return sorted(node.path() for node in nodes)


def _assert_lookups_agree(
    columnar: KokoIndexSet, oracle: ReferenceIndexSet, patterns, rows
) -> None:
    for name in ("pl_index", "pos_index"):
        index, reference = getattr(columnar, name), getattr(oracle, name)
        for steps in patterns:
            remembered = [node.node_id for node in index.match_nodes(steps)]
            assert remembered == index._walk_nodes(steps)
            assert _paths(index.match_nodes(steps)) == _paths(reference.match_nodes(steps))
            assert rows(index.lookup_path(steps)) == rows(reference.lookup_path(steps))


@settings(max_examples=25, deadline=None)
@given(operations=_operations, patterns=st.lists(_steps, min_size=1, max_size=6))
def test_memoised_lookups_track_adds_and_removes(posting_rows, operations, patterns):
    columnar, oracle = KokoIndexSet(), ReferenceIndexSet()
    live = []
    next_sid = 0
    for number, operation in enumerate(operations):
        if isinstance(operation, str):
            document = _PIPELINE.annotate(operation, doc_id=f"doc{number}", first_sid=next_sid)
            next_sid += len(document.sentences)
            live.append(document)
            columnar.add_document(document)
            oracle.add_document(document)
        elif live:
            document = live.pop(operation % len(live))
            columnar.remove_document(document)
            oracle.remove_document(document)
        # the same patterns after every write: a stale memo would answer here
        _assert_lookups_agree(columnar, oracle, patterns, posting_rows)
        for index in (columnar.pl_index, columnar.pos_index):
            assert len(index._match_memo) <= hierarchy._MATCH_MEMO_LIMIT


@pytest.fixture
def walks(monkeypatch) -> list[str]:
    """Names of the indexes whose trie was actually walked, in call order."""
    calls: list[str] = []
    walk = HierarchyIndex._walk_nodes

    def counting(self, steps):
        calls.append(self.name)
        return walk(self, steps)

    monkeypatch.setattr(HierarchyIndex, "_walk_nodes", counting)
    return calls


def test_second_identical_query_walks_no_trie_on_any_shard(walks):
    with KokoService(shards=4) as service:
        for index, text in enumerate(TEXTS):
            service.add_document(text, f"doc{index}")
        plan = compile_query(ENTITY_QUERY)  # a compiled plan bypasses every result cache
        walks.clear()
        first = service.query(plan)
        assert walks  # the first execution walked, on every shard it looked at
        walked = len(walks)
        second = service.query(plan)
        assert len(walks) == walked
        assert [t.values for t in second] == [t.values for t in first]


def test_memo_survives_a_splice_that_mints_no_node_and_not_one_that_does(walks):
    indexes = KokoIndexSet()
    indexes.add_document(_PIPELINE.annotate(TEXTS[1], doc_id="a", first_sid=0))
    pl = indexes.pl_index
    before = _paths(pl.match_nodes(VERBS) + pl.match_nodes(ROOT_CHILDREN))
    rows = pl.lookup_path(ROOT_CHILDREN).size
    walks.clear()

    nodes = pl.node_count
    twin = _PIPELINE.annotate(TEXTS[1], doc_id="b", first_sid=10)
    indexes.add_document(twin)  # same trees again: rows only, no new node
    assert pl.node_count == nodes
    assert _paths(pl.match_nodes(VERBS) + pl.match_nodes(ROOT_CHILDREN)) == before
    assert pl.lookup_path(ROOT_CHILDREN).size == 2 * rows  # the gather sees the new rows
    assert walks == []  # ...with both patterns answered from the memo

    indexes.remove_document(twin)  # its nodes keep the first document's rows: no prune
    assert pl.node_count == nodes
    pl.match_nodes(VERBS)
    assert walks == []

    novel = _PIPELINE.annotate(TEXTS[2], doc_id="c", first_sid=20)
    indexes.add_document(novel)  # new shapes: nodes minted
    assert pl.node_count > nodes
    assert pl._match_memo == {}
    pl.match_nodes(VERBS)
    assert walks == ["PL"]

    indexes.remove_document(novel)  # and pruned again
    assert pl.node_count == nodes
    assert pl._match_memo == {}
    assert _paths(pl.match_nodes(VERBS) + pl.match_nodes(ROOT_CHILDREN)) == before


def test_a_removal_keeps_the_merge_memo_unless_it_prunes_a_node():
    indexes = KokoIndexSet()
    indexes.add_document(_PIPELINE.annotate(TEXTS[1], doc_id="a", first_sid=0))
    pl = indexes.pl_index
    twin = _PIPELINE.annotate(TEXTS[1], doc_id="b", first_sid=10)
    indexes.add_document(twin)
    remembered = dict(pl._merge_memo)
    assert remembered

    indexes.remove_document(twin)  # the first document keeps every node alive
    assert pl._merge_memo == remembered
    again = _PIPELINE.annotate(TEXTS[1], doc_id="c", first_sid=20)
    nodes = pl.node_count
    indexes.add_document(again)  # merges through the kept memo: no new node
    assert pl.node_count == nodes

    novel = _PIPELINE.annotate(TEXTS[2], doc_id="d", first_sid=30)
    indexes.add_document(novel)
    indexes.remove_document(novel)  # its nodes are pruned
    live = set(pl._nodes)
    assert all(
        node_id in live for node_ids in pl._merge_memo.values() for node_id in node_ids
    )
    indexes.add_document(_PIPELINE.annotate(TEXTS[2], doc_id="e", first_sid=40))
    assert _paths(pl.match_nodes(VERBS)) == _paths(
        [pl.node_by_id(node_id) for node_id in pl._walk_nodes(VERBS)]
    )


def test_memo_is_bounded_by_its_constant():
    indexes = KokoIndexSet()
    indexes.add_document(_PIPELINE.annotate(TEXTS[0], doc_id="a", first_sid=0))
    pl = indexes.pl_index
    for number in range(hierarchy._MATCH_MEMO_LIMIT + 10):
        pl.match_nodes([("//", f"label{number}")])
        assert len(pl._match_memo) <= hierarchy._MATCH_MEMO_LIMIT
    assert _paths(pl.match_nodes(VERBS)) == _paths(
        pl.node_by_id(node_id) for node_id in pl._walk_nodes(VERBS)
    )


def test_patterns_that_differ_only_in_case_share_one_entry():
    indexes = KokoIndexSet()
    indexes.add_document(_PIPELINE.annotate(TEXTS[0], doc_id="a", first_sid=0))
    pos = indexes.pos_index
    upper = pos.match_nodes([("//", "VERB")])
    assert upper and pos.match_nodes([("//", "verb")]) == upper
    assert len(pos._match_memo) == 1


def test_callers_cannot_corrupt_a_remembered_walk(posting_rows):
    indexes = KokoIndexSet()
    for number, text in enumerate(TEXTS[:3]):
        indexes.add_document(_PIPELINE.annotate(text, doc_id=f"d{number}", first_sid=10 * number))
    pl = indexes.pl_index
    ids, member = pl._matched(ROOT_CHILDREN)
    for array in (ids, member):
        with pytest.raises(ValueError):
            array[0] = 0
    nodes = pl.match_nodes(ROOT_CHILDREN)
    expected = list(nodes)
    nodes.clear()
    assert pl.match_nodes(ROOT_CHILDREN) == expected
    block = pl.lookup_path(ROOT_CHILDREN)
    rows = posting_rows(block)
    block.sid[:] = -1
    block.tid[:] = -1
    assert posting_rows(pl.lookup_path(ROOT_CHILDREN)) == rows
    assert np.array_equal(pl._matched(ROOT_CHILDREN)[0], ids)
