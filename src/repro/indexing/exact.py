"""Exact tree-pattern matching against annotated sentences.

The index-effectiveness metric of Section 6.2.2 is the ratio of sentences
that truly contain bindings for all query variables to the sentences an
index returns.  The numerator needs an oracle that evaluates a tree-pattern
query exactly, independent of any index; that oracle lives here.  The KOKO
evaluator also uses it as the final validation step after index lookup
("these checks are necessary since ... the bindings obtained by evaluating
the indices with decomposed paths may still contain false answers").
"""

from __future__ import annotations

from ..nlp.types import Corpus, Sentence
from .query_ir import CHILD, TreePath, TreePatternQuery


def match_path_in_sentence(sentence: Sentence, tree_path: TreePath) -> list[int]:
    """Token indexes of *sentence* reachable through *tree_path* from the root.

    The first step is matched against the sentence root (child axis) or any
    token (descendant axis); each further step follows child or descendant
    edges of the dependency tree.  Reads the sentence's columns, never a
    token object.
    """
    if len(sentence) == 0 or not tree_path.steps:
        return []
    children, spans, _ = sentence.tree_columns()

    first = tree_path.steps[0]
    frontier = first.matching_tokens(
        sentence,
        (sentence.root_index(),) if first.axis == CHILD else range(len(sentence)),
    )
    for step in tree_path.steps[1:]:
        if step.axis == CHILD:
            candidates = [child for index in frontier for child in children[index]]
        else:  # proper descendants: the subtree extent minus the token itself
            candidates = [
                other
                for index in frontier
                for other in range(spans[index][0], spans[index][1] + 1)
                if other != index
            ]
        frontier = step.matching_tokens(sentence, candidates)
        if not frontier:
            return []
    return sorted(frontier)


def path_reaches_token(sentence: Sentence, tree_path: TreePath, tid: int) -> bool:
    """Whether ``tid in match_path_in_sentence(sentence, tree_path)``.

    Decided from the token back towards the root, so checking one
    candidate token costs its ancestry instead of a whole-sentence match:
    a child step's predecessor is the token's head, a descendant step's
    any other token whose subtree extent covers it (the extent the forward
    match enumerates).
    """
    steps = tree_path.steps
    if not steps or not steps[-1].matches(sentence, tid):
        return False
    heads = sentence.heads
    n = len(sentence)
    if all(step.axis == CHILD for step in steps[1:]):
        # one candidate chain: the token's ancestors, nearest first
        node = tid
        for step in reversed(steps[:-1]):
            head = heads[node]
            if not 0 <= head < n or head == node or not step.matches(sentence, head):
                return False
            node = head
        return steps[0].axis != CHILD or node == sentence.root_index()
    _, spans, _ = sentence.tree_columns()
    frontier = {tid}
    for index in range(len(steps) - 1, 0, -1):
        if steps[index].axis == CHILD:
            previous = {
                heads[t] for t in frontier if 0 <= heads[t] < n and heads[t] != t
            }
        else:
            previous = set()
            for t in frontier:
                previous.update(
                    other
                    for other, (first, last) in enumerate(spans)
                    if first <= t <= last and other != t
                )
        frontier = steps[index - 1].matching_tokens(sentence, previous)
        if not frontier:
            return False
    return steps[0].axis != CHILD or sentence.root_index() in frontier


def sentence_matches_query(sentence: Sentence, query: TreePatternQuery) -> bool:
    """True when every path of *query* has at least one binding in *sentence*."""
    return all(match_path_in_sentence(sentence, p) for p in query.paths)


def matching_sentences(corpus: Corpus, query: TreePatternQuery) -> set[int]:
    """Sentence ids of *corpus* in which the query has bindings for all paths."""
    result: set[int] = set()
    for _, sentence in corpus.all_sentences():
        if sentence_matches_query(sentence, query):
            result.add(sentence.sid)
    return result


def count_extractions(corpus: Corpus, query: TreePatternQuery) -> int:
    """Total number of bindings of the query's *last* path across the corpus.

    Used by the "lookup time / effectiveness vs. number of extractions"
    series of Figures 7(c,d) and 8(c,d): queries are bucketed by how many
    tuples they return.
    """
    total = 0
    for _, sentence in corpus.all_sentences():
        if not sentence_matches_query(sentence, query):
            continue
        total += len(match_path_in_sentence(sentence, query.paths[-1]))
    return total
