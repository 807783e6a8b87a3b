"""Admission control for the RPC tier: per-client token buckets.

PR 5's ingest admission is FIFO-ticketed *inside* the service — it orders
writers fairly once they are in the building.  The network tier needs the
complementary gate at the front door: **per-client rate limits**, so one
greedy client cannot monopolise the serving capacity of everyone sharing
the endpoint.  The generalisation is a classic token bucket per
``(client, kind)``:

* each bucket refills continuously at ``rate`` tokens/second up to a
  ``burst`` cap, so short bursts are absorbed but sustained overload is
  rejected with a typed :class:`~repro.errors.RpcRateLimited` fault —
  the client can back off instead of queueing blindly;
* *fairness falls out of the per-client split*: every client draws from
  its own bucket, so a rate-limited client is rejected while the others
  proceed untouched (tested explicitly in ``tests/rpc``);
* queries and ingests are limited independently (``kind``), matching how
  their costs differ by orders of magnitude.

Buckets are created lazily and the table is bounded: past
``max_tracked_clients`` the least-recently-seen client's bucket is
evicted (it re-admits at full burst later — a deliberate bias toward
availability over perfect memory).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import RpcRateLimited

__all__ = ["AdmissionController", "AdmissionPolicy", "TokenBucket"]


class TokenBucket:
    """A thread-safe token bucket refilling on the monotonic clock."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0 tokens/second, got {rate}")
        if burst <= 0:
            raise ValueError(f"burst must be > 0 tokens, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._refilled_at = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; False (no blocking) otherwise."""
        now = time.monotonic()
        with self._lock:
            elapsed = now - self._refilled_at
            self._refilled_at = now
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def tokens(self) -> float:
        """The current (refill-adjusted) token count."""
        now = time.monotonic()
        with self._lock:
            return min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Rate-limit knobs of one RPC endpoint (``None`` = unlimited).

    ``*_rate`` is the sustained per-client budget in operations/second;
    ``*_burst`` is the bucket depth (defaults to ``max(rate, 1)`` so a
    fresh client can always issue at least one operation immediately).
    """

    query_rate: float | None = None
    query_burst: float | None = None
    ingest_rate: float | None = None
    ingest_burst: float | None = None

    def limit_for(self, kind: str) -> tuple[float, float] | None:
        """The ``(rate, burst)`` pair for *kind*, or ``None`` (unlimited)."""
        rate = self.query_rate if kind == "query" else self.ingest_rate
        if rate is None:
            return None
        burst = self.query_burst if kind == "query" else self.ingest_burst
        return rate, burst if burst is not None else max(rate, 1.0)


class AdmissionController:
    """Per-client token-bucket admission with a bounded client table."""

    def __init__(
        self, policy: AdmissionPolicy, max_tracked_clients: int = 4096
    ) -> None:
        self.policy = policy
        self.max_tracked_clients = max_tracked_clients
        self._buckets: OrderedDict[tuple[str, str], TokenBucket] = OrderedDict()
        self._lock = threading.Lock()

    def admit(self, client_id: str, kind: str, cost: float = 1.0) -> None:
        """Admit one *kind* operation for *client_id* or raise.

        Raises :class:`RpcRateLimited` when the client's bucket lacks
        *cost* tokens.  Unlimited kinds admit without touching the table.
        """
        limit = self.policy.limit_for(kind)
        if limit is None:
            return
        rate, burst = limit
        key = (client_id, kind)
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(rate, burst)
                self._buckets[key] = bucket
            self._buckets.move_to_end(key)
            while len(self._buckets) > self.max_tracked_clients:
                self._buckets.popitem(last=False)
        if not bucket.try_acquire(cost):
            raise RpcRateLimited(
                f"client {client_id!r} exceeded its {kind} rate "
                f"({rate:g}/s, burst {burst:g}); retry later"
            )
