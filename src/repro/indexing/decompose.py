"""Path decomposition (Section 4.2.1) at the tree-pattern IR level.

A (dominant) path ``#l1#...#lm`` is decomposed into up to three paths, one
per index:

* the **parse-label path**: every step whose label is not a parse label is
  replaced by ``*``,
* the **POS-tag path**: every step whose label is not a POS tag is replaced
  by ``*``,
* the **word path**: the sub-sequence of word-labelled steps (used to probe
  the word index and join on ancestor/descendant relationships).

This module performs the decomposition and the index lookups + joins of
Section 4.2.2 against a :class:`~repro.indexing.koko_index.KokoIndexSet`,
as whole-array operations over posting blocks.  It serves the DPLI module
of the KOKO engine and the KOKO entry in the index-comparison experiments;
:mod:`repro.indexing.reference` holds the same steps over object lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .columnar import (
    PostingBlock,
    join_ancestor_block,
    join_same_token_block,
    under_words_block,
)
from .query_ir import (
    CHILD,
    DESCENDANT,
    KIND_ANY,
    KIND_PARSE_LABEL,
    KIND_POS,
    KIND_WORD,
    TreePath,
    TreePatternQuery,
    TreeStep,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (koko_index imports us)
    from .koko_index import KokoIndexSet

__all__ = [
    "DecomposedPath",
    "RowLookup",
    "candidate_sentences_for_query",
    "decompose_path",
    "is_trivial",
    "lookup_decomposed_block",
    "row_lookup",
]


@dataclass(frozen=True)
class DecomposedPath:
    """The three decomposed views of one path."""

    parse_label_path: TreePath
    pos_path: TreePath
    word_steps: tuple[tuple[str, int], ...]
    """Word steps as (word, minimum depth gap to the previous word step)."""


def decompose_path(path: TreePath) -> DecomposedPath:
    """Decompose *path* into parse-label, POS and word views."""
    pl_steps: list[TreeStep] = []
    pos_steps: list[TreeStep] = []
    word_steps: list[tuple[str, int]] = []
    gap_since_last_word = 0
    saw_word = False

    for step in path.steps:
        pl_label = step.label if step.kind == KIND_PARSE_LABEL else "*"
        pl_kind = KIND_PARSE_LABEL if step.kind == KIND_PARSE_LABEL else KIND_ANY
        pl_steps.append(TreeStep(axis=step.axis, label=pl_label, kind=pl_kind))

        pos_label = step.label if step.kind == KIND_POS else "*"
        pos_kind = KIND_POS if step.kind == KIND_POS else KIND_ANY
        pos_steps.append(TreeStep(axis=step.axis, label=pos_label, kind=pos_kind))

        gap_since_last_word += 1
        if step.kind == KIND_WORD:
            # The minimum depth gap between consecutive word-path entries is
            # the number of steps between them when all axes are child axes;
            # descendant axes only guarantee "at least that many" levels,
            # which is the same lower bound (Example 4.4: l2 >= l1 + 2).
            word_steps.append((step.label, gap_since_last_word if saw_word else 0))
            gap_since_last_word = 0
            saw_word = True

    return DecomposedPath(
        parse_label_path=TreePath(steps=tuple(pl_steps)),
        pos_path=TreePath(steps=tuple(pos_steps)),
        word_steps=tuple(word_steps),
    )


def is_trivial(path: TreePath) -> bool:
    """True for decomposed paths that constrain nothing (all-wildcard)."""
    return all(step.kind == KIND_ANY for step in path.steps)


@dataclass(frozen=True)
class RowLookup:
    """The lookup whose rows hold every exact match of a path.

    ``exact`` says the rows hold nothing else; otherwise each row must be
    re-checked.  ``decomposed`` is ``decompose_path(path)``.
    """

    path: TreePath
    decomposed: DecomposedPath
    exact: bool


def row_lookup(path: TreePath) -> RowLookup:
    """The :class:`RowLookup` of *path*.

    Exactness is decided from the path alone, conservatively, for
    sentences whose every token the hierarchies hold (one root, no head
    cycle; the caller evaluates any other sentence in full):

    * after the first step every axis is a child axis, so a token's
      chain of matched ancestors is fixed by the token — the PL and POS
      lookups, each exact for its own layer, then agree on that one
      chain, and the interval joins admit every true ancestor;
    * a word label sits, if anywhere, on the last step (the word chain
      of Section 4.2.2 bounds depth gaps from below only);
    * a hierarchy lookup carries the shape, unless the path is the single
      step ``//x``.

    A path that meets the first condition but not the others looks itself
    up: its rows are a superset, re-checked row by row.  A descendant axis
    after the first step is matched over a token's subtree *extent*
    (:func:`~repro.indexing.exact.match_path_in_sentence`), which the
    trie's true descendants do not cover on non-projective trees, so such
    a path reads every token carrying its last label (``//last``) and
    re-checks those.
    """
    steps = path.steps
    last = steps[-1]
    if any(step.axis == DESCENDANT for step in steps[1:]):
        lookup = TreePath(steps=(TreeStep(DESCENDANT, last.label, last.kind),))
        return RowLookup(lookup, decompose_path(lookup), False)
    decomposed = decompose_path(path)
    shaped = not (
        is_trivial(decomposed.parse_label_path) and is_trivial(decomposed.pos_path)
    )
    exact = all(step.kind != KIND_WORD for step in steps[:-1]) and (
        shaped or (len(steps) == 1 and last.axis == DESCENDANT)
    )
    return RowLookup(path, decomposed, exact)


def lookup_decomposed_block(
    indexes: "KokoIndexSet", path: TreePath, decomposed: DecomposedPath | None = None
) -> PostingBlock:
    """DPLI lookup of one path: decompose, access indexes, join (Section 4.2.2).

    Returns the candidate postings for the path's final step as a
    ``(sid, tid)``-sorted block; an empty block means the index proves
    there is no binding anywhere in the corpus.  Every access and join is a
    whole-array operation.  *decomposed* is ``decompose_path(path)`` when
    the caller already holds it (a compiled plan decomposes each path once,
    not once per shard).
    """
    if decomposed is None:
        decomposed = decompose_path(path)
    last_step = path.steps[-1]
    last_is_word = last_step.kind == KIND_WORD

    # P1 and P2: hierarchy-index lookups, joined on the same token.
    base: PostingBlock | None = None
    if not is_trivial(decomposed.parse_label_path):
        base = indexes.pl_index.lookup_path(
            [(s.axis, s.label) for s in decomposed.parse_label_path.steps]
        )
    if not is_trivial(decomposed.pos_path):
        pos_block = indexes.pos_index.lookup_path(
            [(s.axis, s.label) for s in decomposed.pos_path.steps]
        )
        base = pos_block if base is None else join_same_token_block(base, pos_block)

    # Q: the word-path lookup (already ancestor-joined along the word chain).
    word_result = _lookup_word_path_block(indexes, decomposed.word_steps)

    if base is None and word_result is None:
        # The path constrains nothing (e.g. "//*"); every token qualifies,
        # which the hierarchy index can enumerate cheaply.
        return indexes.pl_index.lookup_path([(DESCENDANT, "*")])

    # Join of P and Q (the two cases of Section 4.2.2): when the last path
    # element is a word, P and Q must refer to the very same token; when it
    # is not, the quintuples of Q are ancestors of the final token, so the
    # candidates are the P tokens dominated by (or equal to) a Q token.
    if base is None:
        if last_is_word:
            return word_result
        candidates = indexes.pl_index.lookup_path([(DESCENDANT, "*")])
        return under_words_block(candidates, word_result)

    result = base
    if word_result is not None:
        if last_is_word:
            result = join_same_token_block(result, word_result)
        else:
            result = under_words_block(result, word_result)
    return result


def _lookup_word_path_block(
    indexes: "KokoIndexSet", word_steps: tuple[tuple[str, int], ...]
) -> PostingBlock | None:
    """The word-path chain, ancestor-joined; None when it has no word steps."""
    if not word_steps:
        return None
    word, _ = word_steps[0]
    current = indexes.word_index.lookup(word)
    for word, gap in word_steps[1:]:
        nxt = indexes.word_index.lookup(word)
        current = join_ancestor_block(current, nxt, min_gap=max(1, gap))
        if current.size == 0:
            return current
    return current


def candidate_sentences_for_query(indexes, query: TreePatternQuery) -> set[int]:
    """Sentences the KOKO indexes return for a whole tree-pattern query.

    *indexes* is a :class:`~repro.indexing.koko_index.KokoIndexSet` or any
    other index set answering ``path_candidates(path)``.
    """
    candidates: set[int] | None = None
    for path in query.paths:
        sids = set(indexes.path_candidates(path)[0].tolist())
        candidates = sids if candidates is None else candidates & sids
        if not candidates:
            return set()
    return candidates or set()
