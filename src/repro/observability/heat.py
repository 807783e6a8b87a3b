"""Per-shard heat accounting: the input signal for split/rebalance work.

A sharded service routes queries to every shard but documents to exactly
one, so load skews: one shard can absorb most of the splice bytes, scan
most of the skip-plan candidates, or dominate stage latency.  The
:class:`ShardHeatAccumulator` threads four cheap signals through the
query fan-out and the staged write path:

* **queries** routed to the shard (and the seconds they took);
* **skip-plan candidates** — candidate sentences the shard's plan
  actually scanned, a direct measure of index work;
* **splice bytes** — payload bytes spliced into (or un-spliced from)
  the shard by ingest, removal and replica apply;
* **EWMA stage latency** — exponentially weighted moving averages of
  the per-shard query and splice stage times, so *current* slowness is
  visible even on a long-lived service.

:meth:`ShardHeatAccumulator.report` folds them into a
:class:`ShardHeatReport` whose per-shard ``heat_score`` is a weighted
blend of each shard's share of every active signal — the
split-victim-selection substrate for online shard split/rebalance
(``report.hottest()`` is the candidate victim).  The signals live only
in the service's :class:`~repro.observability.metrics.MetricsRegistry`
as ``shard``-labelled families, so ``/metrics`` scrapes and the report
read the same numbers.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from .metrics import MetricsRegistry

__all__ = [
    "EWMA_ALPHA",
    "HEAT_WEIGHTS",
    "ShardHeat",
    "ShardHeatAccumulator",
    "ShardHeatReport",
]

#: weight of the newest observation in the moving stage-latency averages
EWMA_ALPHA = 0.2

#: relative weight of each signal in the blended heat score
HEAT_WEIGHTS = {
    "queries": 0.35,
    "skip_candidates": 0.25,
    "splice_bytes": 0.25,
    "latency": 0.15,
}


@dataclass
class ShardHeat:
    """One shard's accumulated heat signals (a point-in-time row)."""

    shard_id: int
    queries: int
    query_seconds: float
    skip_candidates: int
    splices: int
    splice_bytes: int
    ewma_query_seconds: float
    ewma_splice_seconds: float
    heat_score: float = 0.0

    def to_dict(self) -> dict:
        """The row as a JSON-safe dict (for ``/shards`` and logs)."""
        return asdict(self)


@dataclass
class ShardHeatReport:
    """All shards' heat rows plus the blended-score ranking."""

    shards: list[ShardHeat]

    def hottest(self) -> int | None:
        """The shard id with the highest heat score (ties break low).

        ``None`` when no signal has been recorded yet — a cold service
        has no meaningful split victim.
        """
        best: ShardHeat | None = None
        for heat in self.shards:
            if heat.heat_score > 0.0 and (
                best is None or heat.heat_score > best.heat_score
            ):
                best = heat
        return best.shard_id if best is not None else None

    def shard(self, shard_id: int) -> ShardHeat:
        """The row for *shard_id* (raises ``KeyError`` when unknown)."""
        for heat in self.shards:
            if heat.shard_id == shard_id:
                return heat
        raise KeyError(f"no shard {shard_id} in this heat report")

    def to_dict(self) -> dict:
        """The report as a JSON-safe dict (the ``/shards`` payload)."""
        return {
            "hottest_shard": self.hottest(),
            "weights": dict(HEAT_WEIGHTS),
            "shards": [heat.to_dict() for heat in self.shards],
        }

    def __len__(self) -> int:
        return len(self.shards)


class ShardHeatAccumulator:
    """Records per-shard load into the registry and scores it.

    Every signal is a ``shard``-labelled family in *registry* (the
    service's): ``koko_shard_queries_total``,
    ``koko_shard_query_seconds_total``,
    ``koko_shard_skip_candidates_total``,
    ``koko_shard_documents_added_total`` /
    ``koko_shard_documents_removed_total`` (their sum is the splice
    count), ``koko_shard_splice_bytes_total`` and the two
    ``koko_shard_ewma_*_seconds`` gauges.  The accumulator keeps no copy:
    its lock only serialises the read-modify-write of an EWMA blend, and
    :meth:`report` reads the families back.

    Parameters
    ----------
    shards:
        Number of shards to account (fixed topology, so each shard's
        children are resolved once, here).
    registry:
        The :class:`~repro.observability.metrics.MetricsRegistry` the
        families are registered in.
    """

    def __init__(self, shards: int, *, registry: MetricsRegistry) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self._lock = threading.Lock()

        def children(family) -> list:
            return [family.labels(shard_id) for shard_id in range(shards)]

        shard = ("shard",)
        self._queries = children(
            registry.counter(
                "koko_shard_queries_total", "Per-shard query executions.", shard
            )
        )
        self._query_seconds = children(
            registry.counter(
                "koko_shard_query_seconds_total", "Per-shard execution seconds.", shard
            )
        )
        self._skip_candidates = children(
            registry.counter(
                "koko_shard_skip_candidates_total",
                "Per-shard skip-plan candidate sentences scanned.",
                shard,
            )
        )
        self._documents_added = children(
            registry.counter(
                "koko_shard_documents_added_total", "Per-shard document routing.", shard
            )
        )
        self._documents_removed = children(
            registry.counter(
                "koko_shard_documents_removed_total", "Per-shard removals.", shard
            )
        )
        self._splice_bytes = children(
            registry.counter(
                "koko_shard_splice_bytes_total",
                "Per-shard payload bytes spliced in or out.",
                shard,
            )
        )
        self._ewma_query = children(
            registry.gauge(
                "koko_shard_ewma_query_seconds",
                "EWMA of per-shard query-stage latency.",
                shard,
            )
        )
        self._ewma_splice = children(
            registry.gauge(
                "koko_shard_ewma_splice_seconds",
                "EWMA of per-shard splice-stage latency.",
                shard,
            )
        )

    @property
    def shard_count(self) -> int:
        """Number of shards being accounted."""
        return len(self._queries)

    def _blend(self, gauge, seconds: float) -> None:
        """Fold *seconds* into *gauge*'s moving average.

        A zero average is seeded with the observation as is, so the
        first one is not diluted by the empty start.
        """
        with self._lock:
            previous = gauge.value
            if previous == 0.0:
                gauge.set(seconds)
            else:
                gauge.set(EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * previous)

    def record_query(
        self, shard_id: int, seconds: float, *, skip_candidates: int = 0
    ) -> None:
        """Account one query executed on *shard_id*.

        ``skip_candidates`` is the candidate-sentence count the shard
        contributed to this execution (0 when unknown); *seconds* is the
        shard's part of its wall-clock.
        """
        self._queries[shard_id].inc()
        self._query_seconds[shard_id].inc(seconds)
        self._skip_candidates[shard_id].inc(skip_candidates)
        self._blend(self._ewma_query[shard_id], seconds)

    def record_splice(
        self, shard_id: int, nbytes: int, seconds: float = 0.0, *, removed: bool = False
    ) -> None:
        """Account one splice (``removed``: un-splice) of *nbytes* on *shard_id*.

        ``seconds`` is the splice-stage wall time when the caller timed
        it (the staged write path does); 0.0 leaves the EWMA untouched.
        """
        documents = self._documents_removed if removed else self._documents_added
        documents[shard_id].inc()
        self._splice_bytes[shard_id].inc(nbytes)
        if seconds > 0.0:
            self._blend(self._ewma_splice[shard_id], seconds)

    def report(self) -> ShardHeatReport:
        """Every shard's signals, read from the registry and scored.

        Each shard's ``heat_score`` is the weighted mean of its *share*
        of every signal that has any activity (signals with no activity
        anywhere are left out of the blend, so a query-only workload
        still ranks shards purely by query traffic).  Scores sum to
        ~1.0 across shards whenever anything was recorded.  Each value
        is read atomically; the rows are not one cut across signals.
        """
        rows = [
            ShardHeat(
                shard_id=shard_id,
                queries=self._queries[shard_id].value,
                query_seconds=float(self._query_seconds[shard_id].value),
                skip_candidates=self._skip_candidates[shard_id].value,
                splices=self._documents_added[shard_id].value
                + self._documents_removed[shard_id].value,
                splice_bytes=self._splice_bytes[shard_id].value,
                ewma_query_seconds=float(self._ewma_query[shard_id].value),
                ewma_splice_seconds=float(self._ewma_splice[shard_id].value),
            )
            for shard_id in range(self.shard_count)
        ]
        signals = {
            "queries": [float(row.queries) for row in rows],
            "skip_candidates": [float(row.skip_candidates) for row in rows],
            "splice_bytes": [float(row.splice_bytes) for row in rows],
            "latency": [
                row.ewma_query_seconds + row.ewma_splice_seconds for row in rows
            ],
        }
        active = {
            name: values
            for name, values in signals.items()
            if sum(values) > 0.0
        }
        total_weight = sum(HEAT_WEIGHTS[name] for name in active)
        if total_weight > 0.0:
            for index, row in enumerate(rows):
                score = 0.0
                for name, values in active.items():
                    score += HEAT_WEIGHTS[name] * (values[index] / sum(values))
                row.heat_score = score / total_weight
        return ShardHeatReport(shards=rows)
