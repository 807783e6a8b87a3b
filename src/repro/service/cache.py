"""Plan and result caches for :class:`~repro.service.KokoService`.

Two read-side caches, both keyed by query text:

* :class:`PlanCache` — memoises parse + normalise (the engine's Normalize
  stage) into :class:`~repro.koko.engine.CompiledQuery` objects.  Plans
  depend only on the query string, so this cache survives ingestion.
* :class:`ResultCache` — a generation-stamped LRU over full query results.
  Every ingest bumps the service's corpus generation; an entry stamped
  with an older generation is stale and treated as a miss (and evicted),
  so results never outlive the corpus snapshot they were computed from.
  An entry (:class:`CacheEntry`) has one optional slot for an encoding
  derived from its value, which therefore needs no cache of its own.

Both caches are guarded by their own mutex: many query threads hit them
concurrently under the service's *read* lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

from ..koko.engine import CompiledQuery, compile_query

__all__ = ["CacheEntry", "PlanCache", "ResultCache"]

V = TypeVar("V")


class CacheEntry(Generic[V]):
    """One :class:`ResultCache` entry: a value, the generation it was
    computed at, and one optional slot for an encoding derived from it.

    ``encoded`` is whatever the reader that serves the value wants to keep
    beside it (the RPC server keeps the value's wire bytes there).  The
    value is immutable, so the slot is write-once in effect — every writer
    would store equal bytes — and it has no lifetime of its own: evicting
    or staling the entry drops the only reference to both.
    """

    __slots__ = ("generation", "value", "encoded")

    def __init__(self, generation: Hashable, value: V) -> None:
        self.generation = generation
        self.value = value
        self.encoded: bytes | None = None


class _LruDict(Generic[V]):
    """A tiny thread-safe LRU mapping (capacity-bounded OrderedDict).

    ``on_evict`` (when given) observes every capacity eviction — called
    outside the mutex so observers may take their own locks freely.
    """

    def __init__(
        self, capacity: int, on_evict: Callable[[Hashable], None] | None = None
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self._on_evict = on_evict

    def get(self, key: Hashable) -> V | None:
        """The cached value for *key* (refreshing recency), else None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: V) -> None:
        """Insert/refresh *key*, evicting least-recently-used overflow."""
        evicted: list[Hashable] = []
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False)[0])
        if self._on_evict is not None:
            for evicted_key in evicted:
                self._on_evict(evicted_key)

    def evict(self, key: Hashable) -> bool:
        """Drop *key* if present; True when something was actually removed
        (so racing evictors can tell who won and count the eviction once)."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class PlanCache:
    """LRU cache of compiled query plans, keyed by query string."""

    def __init__(self, capacity: int = 256) -> None:
        self._plans: _LruDict[CompiledQuery] = _LruDict(capacity)

    def get_or_compile(self, query_text: str) -> tuple[CompiledQuery, bool]:
        """Return ``(plan, was_hit)`` for *query_text*, compiling on miss.

        A parse error propagates to the caller and caches nothing.
        """
        plan = self._plans.get(query_text)
        if plan is not None:
            return plan, True
        plan = compile_query(query_text)
        self._plans.put(query_text, plan)
        return plan, False

    def __len__(self) -> int:
        return len(self._plans)


class ResultCache(Generic[V]):
    """Generation-stamped LRU: entries from an older corpus generation miss.

    Staleness is checked lazily at lookup time, so ingestion never has to
    walk the cache — bumping a generation invalidates its entries at once.
    The stamp may be a plain int (one global generation) or a tuple of
    per-shard generations (the service stamps full results with the vector
    and per-shard partials with that shard's own counter).

    Evictions are observable through the optional ``on_evict(stale:
    bool)`` callback — ``True`` for a generation-mismatch eviction
    spotted at lookup, ``False`` for a capacity (lru) eviction — which
    the service wires into its per-shard
    :class:`~repro.service.stats.ServiceStats` counters, the raw inputs
    of cache-sizing decisions.  (Hits and misses are recorded by the
    caller, which knows which shard and query the lookup was for.)
    """

    def __init__(
        self, capacity: int = 256, on_evict: Callable[[bool], None] | None = None
    ) -> None:
        self._entries: _LruDict[CacheEntry[V]] = _LruDict(
            capacity, on_evict=self._forward_lru_eviction
        )
        self._on_evict = on_evict

    def _forward_lru_eviction(self, _key: Hashable) -> None:
        if self._on_evict is not None:
            self._on_evict(False)

    def entry(self, key: Hashable, generation: Hashable) -> CacheEntry[V] | None:
        """The entry cached under *key* at exactly *generation*, else None.

        An entry stamped with a different generation is stale: it is
        evicted on sight and reported as a miss.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.generation != generation:
            if self._entries.evict(key) and self._on_evict is not None:
                self._on_evict(True)
            return None
        return entry

    def latest(self, key: Hashable) -> CacheEntry[V] | None:
        """The entry cached under *key* at whatever generation, else None.

        For a caller that can bring a stale value up to date itself: a
        stale entry is neither evicted nor counted here, and the caller's
        :meth:`put` replaces it.
        """
        return self._entries.get(key)

    def get(self, key: Hashable, generation: Hashable) -> V | None:
        """The value of :meth:`entry`, else None."""
        entry = self.entry(key, generation)
        return None if entry is None else entry.value

    def put(self, key: Hashable, generation: Hashable, value: V) -> None:
        """Cache *value* under *key*, stamped with *generation*."""
        self._entries.put(key, CacheEntry(generation, value))

    def __len__(self) -> int:
        return len(self._entries)
