"""The columnar sentence: annotation in tuples, tokens and mentions as views.

* A ``Pipeline``-annotated document is, to the garbage collector, the
  ``Document``, its sentence list and one ``Sentence`` each — and running
  the three Section 6.3 queries over the corpus leaves it so (views are
  never cached).
* A sentence built from random ``Token``/``EntityMention`` lists gives
  them back through iteration and ``.entities`` and survives ``pickle``.
* ``tree_columns()`` equals the per-token computation the object-graph
  sentence did, kept here as the reference.
* Views are read-only, and a pickle of the object-graph sentence (a
  ``__dict__`` holding ``tokens``) raises ``pickle.UnpicklingError`` — also
  inside a WAL record — never an ``AttributeError`` half-way through.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpora.wikipedia import generate_wikipedia_corpus
from repro.evaluation.queries import SCALEUP_QUERIES
from repro.indexing.koko_index import KokoIndexSet
from repro.koko.engine import KokoEngine
from repro.nlp.types import Document, EntityMention, Sentence, Token
from repro.persistence.wal import OP_ADD, WalRecord


def _tracked_reachable(root) -> int:
    """GC-tracked objects reachable from *root* (classes excluded)."""
    seen = {id(root)}
    stack = [root]
    tracked = 0
    while stack:
        obj = stack.pop()
        tracked += gc.is_tracked(obj)
        for referent in gc.get_referents(obj):
            if not isinstance(referent, type) and id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return tracked


def _settled() -> None:
    # a collection untracks one nesting level of tuples; the sentence's
    # caches nest two deep
    gc.collect()
    gc.collect()


# ----------------------------------------------------------------------
# the collector's view of an annotated corpus
# ----------------------------------------------------------------------
def test_a_document_is_its_list_and_one_object_per_sentence(pipeline):
    corpus = generate_wikipedia_corpus(articles=12, pipeline=pipeline)
    expected = [2 + len(document.sentences) for document in corpus.documents]
    _settled()
    assert [_tracked_reachable(d) for d in corpus.documents] == expected

    engine = KokoEngine(
        corpus, indexes=KokoIndexSet().build(corpus), use_default_vectors=False
    )
    answered = [len(engine.execute(query)) for query in SCALEUP_QUERIES.values()]
    assert any(answered)  # the queries did read sentences
    _settled()
    assert [_tracked_reachable(d) for d in corpus.documents] == expected


# ----------------------------------------------------------------------
# views round-trip
# ----------------------------------------------------------------------
_text = st.text(alphabet="abcXYZ.,", min_size=1, max_size=5)
_tag = st.sampled_from(["NOUN", "VERB", "PUNCT", "PROPN"])


@st.composite
def _tokens_and_mentions(draw):
    n = draw(st.integers(0, 8))
    tokens = [
        Token(
            index=i,
            text=draw(_text),
            pos=draw(_tag),
            label=draw(st.sampled_from(["root", "nsubj", "dobj", "p"])),
            head=draw(st.integers(-1, n - 1)),
            lemma=draw(st.one_of(st.just(""), _text)),
            entity_type=draw(st.one_of(st.none(), st.sampled_from(["GPE", "DATE"]))),
        )
        for i in range(n)
    ]
    mentions = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 10))
        end = draw(st.integers(start, start + 3))
        mentions.append(EntityMention(start, end, draw(_tag), draw(_text)))
    return tokens, mentions


@settings(max_examples=150, deadline=None)
@given(data=_tokens_and_mentions(), sid=st.integers(0, 10**6))
def test_views_give_back_what_the_sentence_was_built_from(data, sid):
    tokens, mentions = data
    sentence = Sentence(sid, tokens, mentions, text="some text")
    assert list(sentence) == tokens
    assert sentence.tokens == tokens
    assert [sentence[i] for i in range(len(tokens))] == tokens
    assert sentence.entities == mentions
    restored = pickle.loads(pickle.dumps(sentence, pickle.HIGHEST_PROTOCOL))
    assert (restored.sid, list(restored), restored.entities, restored.text) == (
        sid,
        tokens,
        mentions,
        "some text",
    )
    assert restored.tree_columns() == sentence.tree_columns()


def test_columns_and_constructor_build_the_same_sentence(paper_sentence_1):
    s = paper_sentence_1
    rebuilt = Sentence.from_columns(
        s.sid, s.words, s.pos_tags, s.labels, s.heads, s.lemmas,
        s.entity_types, s.entity_rows, s.text,
    )
    converted = Sentence(s.sid, list(s), s.entities, s.text)
    for other in (rebuilt, converted):
        assert list(other) == list(s) and other.entity_rows == s.entity_rows
    with pytest.raises(ValueError, match="differ in length"):
        Sentence.from_columns(0, ("a", "b"), ("X",), ("p",), (-1,), ("a",))


def test_views_are_read_only_and_fresh(paper_sentence_1):
    token = paper_sentence_1[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        token.head = -1
    with pytest.raises(dataclasses.FrozenInstanceError):
        paper_sentence_1.entities[0].etype = "PERSON"
    assert paper_sentence_1[1] == token and paper_sentence_1[1] is not token
    assert paper_sentence_1[-1] == paper_sentence_1[len(paper_sentence_1) - 1]
    with pytest.raises(IndexError):
        paper_sentence_1[len(paper_sentence_1)]


# ----------------------------------------------------------------------
# the tree cache against the per-token computation it replaced
# ----------------------------------------------------------------------
def _reference_tree(sentence: Sentence):
    """Children, subtree spans and depths token by token, over views."""
    tokens = list(sentence)
    n = len(tokens)
    children: list[list[int]] = [[] for _ in range(n)]
    for tok in tokens:
        if 0 <= tok.head < n and tok.head != tok.index:
            children[tok.head].append(tok.index)
    depths = [0] * n
    for i in range(n):
        depth = 0
        node = i
        while not tokens[node].is_root and depth <= n:
            node = tokens[node].head
            depth += 1
        depths[i] = depth
    spans = [(i, i) for i in range(n)]
    for i in sorted(range(n), key=lambda i: depths[i], reverse=True):
        first, last = spans[i]
        for child in children[i]:
            cf, cl = spans[child]
            first = min(first, cf)
            last = max(last, cl)
        spans[i] = (first, last)
    return children, spans, depths


def _as_lists(tree):
    children, spans, depths = tree
    return [list(c) for c in children], list(spans), list(depths)


def test_tree_columns_match_the_reference_on_annotated_text(wiki_corpus):
    for _, sentence in wiki_corpus.all_sentences():
        assert _as_lists(sentence.tree_columns()) == _reference_tree(sentence)


@settings(max_examples=300, deadline=None)
@given(heads=st.lists(st.integers(-1, 9), max_size=10).map(
    lambda heads: [min(h, len(heads) - 1) for h in heads]
))
def test_tree_columns_match_the_reference_on_any_heads(heads):
    """Forests, second roots, self-loops and head cycles included."""
    n = len(heads)
    sentence = Sentence.from_columns(
        0, ["w"] * n, ["X"] * n, ["dep"] * n, heads, ["w"] * n
    )
    assert _as_lists(sentence.tree_columns()) == _reference_tree(sentence)


# ----------------------------------------------------------------------
# the pickled form of the object-graph sentence fails closed
# ----------------------------------------------------------------------
class _Pickled:
    """Pickles as an instance of *cls* with the ``__dict__`` state *state*."""

    def __init__(self, cls, state) -> None:
        self.cls, self.state = cls, state

    def __reduce__(self):
        return (object.__new__, (self.cls,), self.state)


def _object_graph_sentence(sentence: Sentence) -> _Pickled:
    """*sentence* as the object-graph ``Sentence`` pickled it."""
    return _Pickled(
        Sentence,
        {
            "sid": sentence.sid,
            "tokens": [_Pickled(Token, vars(token)) for token in sentence],
            "entities": [_Pickled(EntityMention, vars(m)) for m in sentence.entities],
            "_text": sentence.text,
            "_children": None,
            "_subtree_spans": None,
            "_depths": None,
        },
    )


def test_an_object_graph_sentence_pickle_raises_the_codec_error(paper_corpus):
    document = paper_corpus.documents[1]
    old = _Pickled(
        Document,
        {
            "doc_id": document.doc_id,
            "sentences": [_object_graph_sentence(s) for s in document],
            "text": document.text,
        },
    )
    with pytest.raises(pickle.UnpicklingError, match="not a columnar Sentence"):
        pickle.loads(pickle.dumps(old, pickle.HIGHEST_PROTOCOL))
    payload = pickle.dumps((OP_ADD, document.doc_id, old), pickle.HIGHEST_PROTOCOL)
    with pytest.raises(pickle.UnpicklingError):
        WalRecord.from_payload(payload)
    # the current form of the same record decodes
    fresh = WalRecord(OP_ADD, document.doc_id, document).to_payload()
    assert list(WalRecord.from_payload(fresh).document[0]) == list(document[0])


@pytest.mark.parametrize(
    "state",
    [
        None,
        (0, (), (), (), (), ()),  # too short
        (0, ["a"], ("X",), ("p",), (-1,), ("a",), (None,), (), None),  # a list
        (0, ("a", "b"), ("X",), ("p",), (-1,), ("a",), (None,), (), None),
    ],
)
def test_a_malformed_sentence_state_raises_the_codec_error(state):
    sentence = Sentence.__new__(Sentence)
    with pytest.raises(pickle.UnpicklingError):
        sentence.__setstate__(state)
