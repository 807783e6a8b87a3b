"""Columnar (numpy-backed) posting storage and vectorized posting algebra.

One Python list of :class:`~repro.indexing.postings.Posting` dataclasses
per key (the design :mod:`repro.indexing.reference` keeps as the test
oracle) makes the ingest splice allocation-bound and the read-side joins
interpreter-bound.  Every production index stores its postings the way the
HTAP literature (Polynesia and its follow-ups) prescribes instead: a *main*
structure of flat, sorted ``int64`` column arrays fed by a small
append-only *delta* tail.

* :class:`ColumnarPostings` — a generic store of integer rows grouped by an
  interned key.  Appends go to per-column Python lists (O(batch));
  compaction merges the delta into the key-sorted main arrays and rebuilds
  the key-offset table, so per-key access is a ``searchsorted``-free slice.
* :class:`PostingBlock` — a bundle of parallel ``(sid, tid, left, right,
  depth)`` arrays: what every lookup returns and every join consumes.
* ``join_*_block`` functions — whole-array implementations of the paper's
  posting-list algebra (Section 4.2.2).  Ancestor axes are evaluated as
  interval/window range predicates over the ``left/right/depth`` encoding of
  the dependency trees — the DMR-XPath window-optimization trick.

Thread-safety: reads never mutate the main/delta split (lazy caches are
idempotent), so concurrent readers are safe; compaction only runs inside
append/remove calls, which the service serialises under its shard write
locks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ColumnarPostings",
    "PostingBlock",
    "distinct_sorted",
    "join_ancestor_block",
    "join_same_token_block",
    "under_words_block",
]

_INT = np.int64

#: compaction threshold: merge the delta once it outgrows max(this, |main|)
_MIN_COMPACT_ROWS = 4096


class ColumnarPostings:
    """Delta/main columnar storage of integer posting rows grouped by key.

    ``columns`` names the per-row integer columns (the first one must be
    ``"sid"`` — :meth:`remove_sids` filters on it).  Keys are arbitrary
    hashable values interned to dense ids unless ``identity_keys`` is set,
    in which case keys must already be dense non-negative ints (hierarchy
    node ids).

    The *main* structure is one ``int64`` array per column, stably sorted
    by key id so each key's rows form one contiguous slice addressed by the
    ``_offsets`` table; within a key, main preserves insertion order (for
    monotonically assigned sentence ids that is exactly ``(sid, tid)``
    order).  The *delta* is a set of plain Python lists so a batch append
    is O(batch); it is merged into main once it outgrows
    ``max(4096, |main|)`` (amortised O(n log n) total).
    """

    def __init__(
        self, columns: Sequence[str], identity_keys: bool = False
    ) -> None:
        if not columns or columns[0] != "sid":
            raise ValueError("first column must be 'sid'")
        self.columns = tuple(columns)
        self._identity = identity_keys
        self._key_ids: dict[object, int] = {}
        self._keys: list[object] = []
        self._nkeys = 0
        self._main_kid = np.empty(0, _INT)
        self._main = tuple(np.empty(0, _INT) for _ in self.columns)
        self._offsets = np.zeros(1, _INT)
        self._delta_kid: list[int] = []
        self._delta = tuple([] for _ in self.columns)
        self._delta_cache: tuple[np.ndarray, tuple[np.ndarray, ...]] | None = None

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def intern_key(self, key) -> int:
        """The dense id of *key*, assigning one on first sight."""
        if self._identity:
            kid = int(key)
            if kid < 0:
                raise ValueError(f"identity keys must be non-negative, got {key}")
            if kid >= self._nkeys:
                self._nkeys = kid + 1
            return kid
        kid = self._key_ids.get(key)
        if kid is None:
            kid = len(self._keys)
            self._key_ids[key] = kid
            self._keys.append(key)
            self._nkeys = kid + 1
        return kid

    def key_id(self, key) -> int | None:
        """The id of *key* if it was ever interned, else ``None``."""
        if self._identity:
            kid = int(key)
            return kid if 0 <= kid < self._nkeys else None
        return self._key_ids.get(key)

    def key_of(self, kid: int):
        """The key interned under id *kid* (identity stores return *kid*)."""
        return kid if self._identity else self._keys[kid]

    def ensure_key_capacity(self, nkeys: int) -> None:
        """Grow the key-id space of an identity-keyed store to *nkeys* ids.

        Batch writers that mint their own dense ids (hierarchy node ids)
        call this instead of interning every row's key individually.
        """
        if nkeys > self._nkeys:
            self._nkeys = nkeys

    def live_key_ids(self) -> list[int]:
        """Ids of keys that currently hold at least one row, ascending."""
        counts = np.zeros(self._nkeys, _INT)
        bounded = min(self._nkeys, len(self._offsets) - 1)
        if bounded > 0:
            counts[:bounded] = np.diff(self._offsets[: bounded + 1])
        if self._delta_kid:
            dkid, _ = self._delta_np()
            counts += np.bincount(dkid, minlength=self._nkeys)
        return np.flatnonzero(counts).tolist()

    # ------------------------------------------------------------------
    # writes (caller serialises; compaction happens only here)
    # ------------------------------------------------------------------
    def append_batch(self, kids: Sequence[int], cols: Sequence[Sequence[int]]) -> None:
        """Append rows keyed by *kids*, one parallel value list per column."""
        self._delta_kid.extend(kids)
        for store_col, new_col in zip(self._delta, cols):
            store_col.extend(new_col)
        self._delta_cache = None
        if len(self._delta_kid) > max(_MIN_COMPACT_ROWS, len(self._main_kid)):
            self.compact()

    def compact(self) -> None:
        """Merge the delta tail into the key-sorted main arrays."""
        if not self._delta_kid:
            return
        self._set_main(*self.all_arrays_with_keys())

    def _set_main(self, kid: np.ndarray, cols: Sequence[np.ndarray]) -> None:
        """Install *kid*/*cols* as the main arrays, key-sorted; drop the delta."""
        order = np.argsort(kid, kind="stable")  # keeps per-key insertion order
        self._main_kid = kid[order]
        self._main = tuple(col[order] for col in cols)
        self._offsets = np.searchsorted(self._main_kid, np.arange(self._nkeys + 1))
        self._delta_kid = []
        self._delta = tuple([] for _ in self.columns)
        self._delta_cache = None

    def remove_sids(self, sids: np.ndarray) -> None:
        """Drop every row whose sentence id is in the ascending array *sids*.

        One compaction and one mask per call, however many sentences go:
        a removed document passes all of its sids at once.
        """
        if not len(sids):
            return
        self.compact()
        column = self._main[0]
        nearest = np.minimum(np.searchsorted(sids, column), len(sids) - 1)
        mask = sids[nearest] != column
        if mask.all():
            return
        self._main_kid = self._main_kid[mask]
        self._main = tuple(col[mask] for col in self._main)
        self._offsets = np.searchsorted(self._main_kid, np.arange(self._nkeys + 1))

    # ------------------------------------------------------------------
    # reads (never mutate main/delta; safe under concurrent readers)
    # ------------------------------------------------------------------
    @property
    def total_rows(self) -> int:
        """Number of stored rows (main + delta)."""
        return len(self._main_kid) + len(self._delta_kid)

    def key_count(self, kid: int) -> int:
        """Number of rows currently held by key id *kid*."""
        count = 0
        if 0 <= kid < len(self._offsets) - 1:
            count = int(self._offsets[kid + 1] - self._offsets[kid])
        if self._delta_kid:
            dkid, _ = self._delta_np()
            count += int(np.count_nonzero(dkid == kid))
        return count

    def arrays_for_key(self, kid: int) -> tuple[np.ndarray, ...]:
        """The column arrays of key id *kid* (main slice + delta rows)."""
        main_lo = main_hi = 0
        if 0 <= kid < len(self._offsets) - 1:
            main_lo, main_hi = int(self._offsets[kid]), int(self._offsets[kid + 1])
        if not self._delta_kid:
            return tuple(col[main_lo:main_hi] for col in self._main)
        dkid, dcols = self._delta_np()
        sel = dkid == kid
        if not sel.any():
            return tuple(col[main_lo:main_hi] for col in self._main)
        return tuple(
            np.concatenate([col[main_lo:main_hi], dcol[sel]])
            for col, dcol in zip(self._main, dcols)
        )

    def arrays_for_keys(
        self, kids: np.ndarray, member: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Concatenated column arrays of several key ids: one gather.

        *kids* is the ascending array of wanted key ids and *member* the
        same set as a boolean table over every key id of the store
        (``member[k]`` iff ``k`` is wanted).  Main rows come first, grouped
        by key in *kids* order, then the delta rows in insertion order.
        """
        parts = self._main
        if len(self._main_kid):
            kids = kids[: np.searchsorted(kids, len(self._offsets) - 1)]
            starts = self._offsets[kids]
            counts = self._offsets[kids + 1] - starts
            # every wanted key's [start, start + count) range, concatenated
            main_idx = np.repeat(starts - np.cumsum(counts) + counts, counts)
            main_idx += np.arange(len(main_idx))
            parts = tuple(col[main_idx] for col in parts)
        if not self._delta_kid:
            return parts
        dkid, dcols = self._delta_np()
        sel = member[dkid]
        if not sel.any():
            return parts
        picked = tuple(dcol[sel] for dcol in dcols)
        if not len(parts[0]):
            return picked
        return tuple(np.concatenate(pair) for pair in zip(parts, picked))

    def all_arrays(self) -> tuple[np.ndarray, ...]:
        """Every row's column arrays (main order, then delta order)."""
        if not self._delta_kid:
            return self._main
        _, dcols = self._delta_np()
        return tuple(
            np.concatenate([col, dcol]) for col, dcol in zip(self._main, dcols)
        )

    def all_arrays_with_keys(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Like :meth:`all_arrays` but prefixed with the key-id array."""
        if not self._delta_kid:
            return self._main_kid, self._main
        dkid, dcols = self._delta_np()
        return (
            np.concatenate([self._main_kid, dkid]),
            tuple(np.concatenate([col, dcol]) for col, dcol in zip(self._main, dcols)),
        )

    def _delta_np(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        cached = self._delta_cache
        if cached is None:
            cached = (
                np.asarray(self._delta_kid, _INT),
                tuple(np.asarray(col, _INT) for col in self._delta),
            )
            self._delta_cache = cached
        return cached


class PostingBlock:
    """Parallel ``(sid, tid, left, right, depth)`` arrays for one posting set."""

    __slots__ = ("sid", "tid", "left", "right", "depth")

    def __init__(
        self,
        sid: np.ndarray,
        tid: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        depth: np.ndarray,
    ) -> None:
        self.sid = sid
        self.tid = tid
        self.left = left
        self.right = right
        self.depth = depth

    @classmethod
    def empty(cls) -> "PostingBlock":
        """A block with no rows."""
        e = np.empty(0, _INT)
        return cls(e, e, e, e, e)

    @property
    def size(self) -> int:
        """Number of postings in the block."""
        return len(self.sid)

    def take(self, selector) -> "PostingBlock":
        """A new block holding the rows selected by a mask or index array."""
        return PostingBlock(
            self.sid[selector],
            self.tid[selector],
            self.left[selector],
            self.right[selector],
            self.depth[selector],
        )

    def sort_positional(self) -> "PostingBlock":
        """The same rows ordered by ``(sid, tid)``, ties in row order.

        A gather concatenates per-key runs that are each ``(sid, tid)``-sorted,
        and one stable argsort of the packed key ``sid << 32 | tid`` merges
        them into exactly ``np.lexsort((tid, sid))``'s permutation, several
        times faster.  Ids that do not pack (a planned sid can pass 2³¹) take
        the lexsort.
        """
        if self.size <= 1:
            return self
        sid, tid = self.sid, self.tid
        if 0 <= sid.min() and sid.max() < 1 << 31 and 0 <= tid.min() and tid.max() < 1 << 32:
            return self.take(((sid << 32) | tid).argsort(kind="stable"))
        return self.take(np.lexsort((tid, sid)))


# ----------------------------------------------------------------------
# vectorized posting algebra (Section 4.2.2 as whole-array window ops)
# ----------------------------------------------------------------------
def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array (a boundary mask, no sort)."""
    if len(values) <= 1:
        return values
    keep = np.empty(len(values), bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _pair_indices(
    group_sids: np.ndarray, probe_sids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (probe row, group row) index pairs sharing a sentence id.

    *group_sids* must be sorted ascending.  Returns parallel arrays
    ``(probe_idx, group_idx)`` enumerating, for every probe row, each group
    row of the same sentence — the vectorized equivalent of the per-sid
    bucket loops of the object-backed joins.
    """
    starts = np.searchsorted(group_sids, probe_sids, side="left")
    ends = np.searchsorted(group_sids, probe_sids, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        e = np.empty(0, _INT)
        return e, e
    probe_idx = np.repeat(np.arange(len(probe_sids)), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    group_idx = np.repeat(starts, counts) + (
        np.arange(total) - np.repeat(offsets[:-1], counts)
    )
    return probe_idx, group_idx


def join_ancestor_block(
    ancestors: PostingBlock, descendants: PostingBlock, min_gap: int = 1
) -> PostingBlock:
    """Descendant rows that have a qualifying ancestor (Section 4.2.2).

    Both blocks must be sorted by sentence id.  The ancestor axis is the
    window predicate ``anc.left <= d.left and d.right <= anc.right and
    d.depth >= anc.depth + min_gap`` evaluated over all same-sentence pairs
    at once.
    """
    if ancestors.size == 0 or descendants.size == 0:
        return PostingBlock.empty()
    d_idx, a_idx = _pair_indices(ancestors.sid, descendants.sid)
    if len(d_idx) == 0:
        return PostingBlock.empty()
    hit = (
        (ancestors.left[a_idx] <= descendants.left[d_idx])
        & (ancestors.right[a_idx] >= descendants.right[d_idx])
        & (descendants.depth[d_idx] >= ancestors.depth[a_idx] + min_gap)
    )
    kept = np.zeros(descendants.size, bool)
    kept[d_idx[hit]] = True
    return descendants.take(kept)


def join_same_token_block(left: PostingBlock, right: PostingBlock) -> PostingBlock:
    """Rows of *left* whose ``(sid, tid)`` token also appears in *right*.

    *right* must be sorted by ``(sid, tid)`` (every lookup block is): its
    packed keys are then ascending and membership is one binary search.
    """
    if left.size == 0 or right.size == 0:
        return PostingBlock.empty()
    left_keys = left.sid * np.int64(2**32) + left.tid
    right_keys = right.sid * np.int64(2**32) + right.tid
    slot = np.searchsorted(right_keys, left_keys)
    slot[slot == len(right_keys)] = 0
    return left.take(right_keys[slot] == left_keys)


def under_words_block(candidates: PostingBlock, words: PostingBlock) -> PostingBlock:
    """Candidates whose token is (or lies in the subtree of) a word posting."""
    if candidates.size == 0 or words.size == 0:
        return PostingBlock.empty()
    c_idx, w_idx = _pair_indices(words.sid, candidates.sid)
    if len(c_idx) == 0:
        return PostingBlock.empty()
    hit = (words.tid[w_idx] == candidates.tid[c_idx]) | (
        (words.left[w_idx] <= candidates.left[c_idx])
        & (candidates.right[c_idx] <= words.right[w_idx])
    )
    kept = np.zeros(candidates.size, bool)
    kept[c_idx[hit]] = True
    return candidates.take(kept)
