"""Unit tests for per-shard heat accounting and the blended heat score."""

from __future__ import annotations

import pytest

from repro.observability.heat import (
    EWMA_ALPHA,
    HEAT_WEIGHTS,
    ShardHeat,
    ShardHeatAccumulator,
    ShardHeatReport,
)
from repro.observability.metrics import MetricsRegistry


def accumulator(shards: int) -> ShardHeatAccumulator:
    return ShardHeatAccumulator(shards, registry=MetricsRegistry())


def test_constructor_validates_topology():
    with pytest.raises(ValueError):
        accumulator(0)
    assert accumulator(3).shard_count == 3


def test_cold_accumulator_reports_no_hottest_shard():
    report = accumulator(4).report()
    assert len(report) == 4
    assert report.hottest() is None
    assert all(row.heat_score == 0.0 for row in report.shards)
    with pytest.raises(KeyError):
        report.shard(99)


def test_query_accounting_accumulates_and_seeds_ewma():
    heat = accumulator(2)
    heat.record_query(0, 0.100, skip_candidates=10)
    heat.record_query(0, 0.200, skip_candidates=30)
    row = heat.report().shard(0)
    assert row.queries == 2
    assert row.query_seconds == pytest.approx(0.300)
    assert row.skip_candidates == 40
    # first observation seeds; second blends
    assert row.ewma_query_seconds == pytest.approx(EWMA_ALPHA * 0.2 + (1 - EWMA_ALPHA) * 0.1)


def test_splice_accounting_tracks_bytes_and_optional_timing():
    heat = accumulator(2)
    heat.record_splice(1, 1000)  # untimed: EWMA untouched
    heat.record_splice(1, 500, 0.040)
    heat.record_splice(1, 500, 0.080, removed=True)
    row = heat.report().shard(1)
    assert row.splices == 3
    assert row.splice_bytes == 2000
    assert row.ewma_splice_seconds == pytest.approx(
        EWMA_ALPHA * 0.080 + (1 - EWMA_ALPHA) * 0.040
    )


def test_query_only_workload_ranks_by_query_traffic():
    heat = accumulator(3)
    for _ in range(8):
        heat.record_query(1, 0.010)
    heat.record_query(0, 0.010)
    heat.record_query(2, 0.010)
    report = heat.report()
    assert report.hottest() == 1
    assert report.shard(1).heat_score > report.shard(0).heat_score
    # scores across shards sum to ~1 whenever anything was recorded
    assert sum(row.heat_score for row in report.shards) == pytest.approx(1.0)


def test_blended_score_weighs_every_active_signal():
    heat = accumulator(2)
    # shard 0 dominates queries, shard 1 dominates splice bytes
    for _ in range(9):
        heat.record_query(0, 0.001)
    heat.record_query(1, 0.001)
    heat.record_splice(1, 9000)
    heat.record_splice(0, 1000)
    report = heat.report()
    shares = {row.shard_id: row.heat_score for row in report.shards}
    # queries weigh more than splice bytes, so shard 0 wins overall
    assert HEAT_WEIGHTS["queries"] > HEAT_WEIGHTS["splice_bytes"]
    assert report.hottest() == 0
    assert shares[0] + shares[1] == pytest.approx(1.0)


def test_report_serialises_for_the_shards_endpoint():
    heat = accumulator(2)
    heat.record_query(1, 0.020, skip_candidates=5)
    document = heat.report().to_dict()
    assert document["hottest_shard"] == 1
    assert document["weights"] == HEAT_WEIGHTS
    assert [row["shard_id"] for row in document["shards"]] == [0, 1]
    assert document["shards"][1]["skip_candidates"] == 5


def test_registry_mirroring_exposes_labeled_instruments():
    registry = MetricsRegistry()
    heat = ShardHeatAccumulator(2, registry=registry)
    heat.record_query(0, 0.010, skip_candidates=7)
    heat.record_splice(1, 2048, 0.005)
    text = registry.render_text()
    assert 'koko_shard_skip_candidates_total{shard="0"} 7' in text
    assert 'koko_shard_splice_bytes_total{shard="1"} 2048' in text
    assert 'koko_shard_ewma_query_seconds{shard="0"}' in text
    assert 'koko_shard_ewma_splice_seconds{shard="1"}' in text


def test_report_reads_the_registry_families_and_keeps_no_copy():
    registry = MetricsRegistry()
    heat = ShardHeatAccumulator(2, registry=registry)
    heat.record_query(1, 0.010, skip_candidates=3)
    heat.record_splice(0, 100, removed=True)
    # a count that reaches the families by any road shows up in the report
    registry.get("koko_shard_queries_total").labels(1).inc(4)
    registry.get("koko_shard_documents_added_total").labels(0).inc(2)
    report = heat.report()
    assert report.shard(1).queries == 5
    assert report.shard(0).splices == 3  # added + removed
    assert registry.get("koko_shard_documents_removed_total").values() == {0: 1, 1: 0}
    assert registry.get("koko_shard_query_seconds_total").values()[1] == pytest.approx(0.010)


def test_report_matches_the_list_based_accumulator_it_replaced():
    """A fixed sequence of records with injected seconds reports exactly
    what the accumulator that kept its own per-shard lists reported (the
    expected rows were recorded with it)."""
    heat = accumulator(4)
    for step in range(40):
        heat.record_query(
            (step * 7) % 4, 0.001 * (1 + step % 5), skip_candidates=(step * 13) % 9
        )
        if step % 3 == 0:
            heat.record_splice((step // 3) % 4, 100 + 17 * step, 0.0005 * (step % 4))
    heat.record_query(3, 0.25, skip_candidates=40)
    rows = [
        (0, 10, 0.03, 36, 4, 1624, 0.0027440404480000005, 0.0, 0.20417472025962374),
        (1, 10, 0.030000000000000002, 39, 4, 1828, 0.003152409088000001, 0.0015,
         0.22081965135448303),
        (2, 10, 0.03, 44, 3, 1218, 0.0032145530880000007, 0.001, 0.20083960818539892),
        (3, 11, 0.28, 80, 3, 1371, 0.052451414630400005, 0.0005, 0.3741660202004943),
    ]
    expected = ShardHeatReport(shards=[ShardHeat(*row) for row in rows]).to_dict()
    assert heat.report().to_dict() == expected


def test_report_is_a_consistent_standalone_value():
    heat = accumulator(1)
    heat.record_query(0, 0.010)
    before = heat.report()
    heat.record_query(0, 0.010)
    after = heat.report()
    assert isinstance(before, ShardHeatReport)
    assert before.shard(0).queries == 1  # unaffected by later records
    assert after.shard(0).queries == 2
