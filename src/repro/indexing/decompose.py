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
Section 4.2.2 against a :class:`~repro.indexing.koko_index.KokoIndexSet`.
It is shared by the DPLI module of the KOKO engine and by the KOKO entry in
the index-comparison experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .columnar import (
    PostingBlock,
    join_ancestor_block,
    join_same_token_block,
    under_words_block,
)
from .koko_index import KokoIndexSet
from .postings import Posting, join_ancestor, join_same_token
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


def lookup_decomposed(
    indexes: KokoIndexSet, path: TreePath
) -> list[Posting]:
    """DPLI lookup of one path: decompose, access indexes, join (Section 4.2.2).

    Returns the candidate postings for the path's final step.  An empty list
    means the index proves there is no binding anywhere in the corpus.
    Columnar index sets take the vectorized block pipeline
    (:func:`lookup_decomposed_block`) and materialise the result.
    """
    if getattr(indexes, "columnar", False):
        return lookup_decomposed_block(indexes, path).materialize()
    decomposed = decompose_path(path)
    last_step = path.steps[-1]
    last_is_word = last_step.kind == KIND_WORD

    # P1 and P2: hierarchy-index lookups, joined on the same token.
    base: list[Posting] | None = None
    if not is_trivial(decomposed.parse_label_path):
        base = indexes.pl_index.lookup_path(
            [(s.axis, s.label) for s in decomposed.parse_label_path.steps]
        )
    if not is_trivial(decomposed.pos_path):
        pos_postings = indexes.pos_index.lookup_path(
            [(s.axis, s.label) for s in decomposed.pos_path.steps]
        )
        base = pos_postings if base is None else join_same_token(base, pos_postings)

    # Q: the word-path lookup (already ancestor-joined along the word chain).
    word_result = _lookup_word_path(indexes, decomposed.word_steps)

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
            return sorted(word_result or [])
        candidates = indexes.pl_index.lookup_path([(DESCENDANT, "*")])
        return sorted(_under_words(candidates, word_result or []))

    result = base
    if word_result is not None:
        if last_is_word:
            result = join_same_token(result, word_result)
        else:
            result = _under_words(result, word_result)
    return sorted(result)


def _under_words(candidates: list[Posting], words: list[Posting]) -> list[Posting]:
    """Candidates whose token lies in the subtree of (or is) a word posting."""
    by_sentence: dict[int, list[Posting]] = {}
    for word in words:
        by_sentence.setdefault(word.sid, []).append(word)
    kept = []
    for posting in candidates:
        for word in by_sentence.get(posting.sid, ()):
            same_token = word.tid == posting.tid
            dominated = word.left <= posting.left and posting.right <= word.right
            if same_token or dominated:
                kept.append(posting)
                break
    return kept


def _lookup_word_path(
    indexes: KokoIndexSet, word_steps: tuple[tuple[str, int], ...]
) -> list[Posting] | None:
    """Look up and join the word path; None when the path has no word steps."""
    if not word_steps:
        return None
    word, _ = word_steps[0]
    current = indexes.word_index.lookup(word)
    for word, gap in word_steps[1:]:
        nxt = indexes.word_index.lookup(word)
        current = join_ancestor(current, nxt, min_gap=max(1, gap))
        if not current:
            return []
    return current


def lookup_decomposed_block(
    indexes: KokoIndexSet, path: TreePath, decomposed: DecomposedPath | None = None
) -> PostingBlock:
    """Vectorized DPLI lookup of one path over a columnar index set.

    Mirrors :func:`lookup_decomposed` step for step, but every access and
    join is a whole-array operation over ``(sid, tid)``-sorted posting
    blocks; the returned block is sorted the same way, so materialising it
    reproduces the object-backed result exactly.  *decomposed* is
    ``decompose_path(path)`` when the caller already holds it (a compiled
    plan decomposes each path once, not once per shard).
    """
    if decomposed is None:
        decomposed = decompose_path(path)
    last_step = path.steps[-1]
    last_is_word = last_step.kind == KIND_WORD

    # P1 and P2: hierarchy-index lookups, joined on the same token.
    base: PostingBlock | None = None
    if not is_trivial(decomposed.parse_label_path):
        base = indexes.pl_index.lookup_path_block(
            [(s.axis, s.label) for s in decomposed.parse_label_path.steps]
        )
    if not is_trivial(decomposed.pos_path):
        pos_block = indexes.pos_index.lookup_path_block(
            [(s.axis, s.label) for s in decomposed.pos_path.steps]
        )
        base = pos_block if base is None else join_same_token_block(base, pos_block)

    # Q: the word-path lookup (already ancestor-joined along the word chain).
    word_result = _lookup_word_path_block(indexes, decomposed.word_steps)

    if base is None and word_result is None:
        # The path constrains nothing (e.g. "//*"); every token qualifies,
        # which the hierarchy index can enumerate cheaply.
        return indexes.pl_index.lookup_path_block([(DESCENDANT, "*")])

    if base is None:
        if last_is_word:
            return word_result if word_result is not None else PostingBlock.empty()
        candidates = indexes.pl_index.lookup_path_block([(DESCENDANT, "*")])
        if word_result is None:
            return PostingBlock.empty()
        return under_words_block(candidates, word_result)

    result = base
    if word_result is not None:
        if last_is_word:
            result = join_same_token_block(result, word_result)
        else:
            result = under_words_block(result, word_result)
    return result


def _lookup_word_path_block(
    indexes: KokoIndexSet, word_steps: tuple[tuple[str, int], ...]
) -> PostingBlock | None:
    """Columnar word-path chain; None when the path has no word steps."""
    if not word_steps:
        return None
    word, _ = word_steps[0]
    current = indexes.word_index.lookup_block(word)
    for word, gap in word_steps[1:]:
        nxt = indexes.word_index.lookup_block(word)
        current = join_ancestor_block(current, nxt, min_gap=max(1, gap))
        if current.size == 0:
            return current
    return current


def candidate_sentences_for_query(
    indexes: KokoIndexSet, query: TreePatternQuery
) -> set[int]:
    """Sentences the KOKO indexes return for a whole tree-pattern query."""
    candidates: set[int] | None = None
    for path in query.paths:
        postings = lookup_decomposed(indexes, path)
        sids = {p.sid for p in postings}
        candidates = sids if candidates is None else candidates & sids
        if not candidates:
            return set()
    return candidates or set()
