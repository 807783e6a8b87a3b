#!/usr/bin/env python3
"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py [--workload W] [--seed S] [--trace [0|1]]
                                     [--out DIR] [--repeat K] [--scale X]

With ``--workload`` it runs that workload once (or ``--repeat`` times),
prints every metric by name with its unit, and ends with one JSON object
on the last line of standard output::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}

``--trace 0`` (the default) reports the end-to-end metrics, measured with
no tracing installed; ``--trace 1`` runs the same operations with spans
recorded and reports the per-layer metrics.  Without ``--workload`` every
workload runs both ways.  The metric names, units and bounds are those of
``BENCHMARK.json`` at the repository root, and so is the length of the
timed section (``run_seconds``): it is not an argument, so that parent and
change are always measured alike.  (``--seconds`` is accepted because the
acceptance driver passes it, and refused unless it equals ``run_seconds``.)

One run, in order: generate inputs from the seed; set the serving stack up
three times (``setup_s`` is the median); on the first stack, five cycles of
{small ingest, ``checkpoint()``, ``close()``, ``KokoService.open()``, first
verified answer}; on the last stack, build the oracle, warm up, drive the
timed section, compare answers with the oracle on primary and replica;
close everything in reverse order and prove nothing leaked.  The exit code
is 0 only if every answer was right, no operation failed and no process,
thread, socket or directory outlived the run.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # executed as a script: become benchmarks.ledger.run
    _root = Path(__file__).resolve().parents[2]
    sys.path[0] = str(_root)  # instead of this directory, whose trace.py would shadow the stdlib's
    if (_root / "src").is_dir():
        sys.path.insert(1, str(_root / "src"))
    __package__ = "benchmarks.ledger"

import argparse
import contextlib
import functools
import gc
import json
import os
import shutil
import time
from statistics import median
import traceback

try:
    from . import stack as stack_module
    from . import workloads
    from .calibrate import ROUNDS as CALIBRATION_ROUNDS, local_factors, normalise, reference_seconds, speed_factor
    from .stack import LeakCheck, ServingStack, Watchdog, WATCHDOG_THREAD
    from .stats import InsufficientSamples, MIN_SAMPLES_BEYOND, counter_delta, percentile, ratio
    from .trace import Recorder, RootSummary, summarise
except ImportError as exc:  # no src/ beside the benchmark: nothing to measure
    sys.stderr.write(f"ledger: cannot import the program under test: {exc}\n")
    sys.exit(2)

_now = time.perf_counter

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_build"

SETUP_REPEATS = 3
CYCLES = 5
CYCLE_BATCH = 4
#: the timed section runs in back-to-back segments of this length with one
#: round of reference work per CPU between them (see calibrate.py) ...
SEGMENT_SECONDS = 0.25
#: ... and a segment's speed factor is the median of the references around
#: it and of this many more on either side
REFERENCE_REACH = 2
#: index into workloads.QUERIES of the first answer a restarted service gives
RESTART_QUERY = 2
#: the value a per-layer metric takes when its wrap point or counter is gone
MISSING = -1.0
#: a run may take this many times its expected duration before the watchdog
#: ends it; never more than the 180 s a single run is allowed
WATCHDOG_FACTOR = 4.0
WATCHDOG_CAP = 170.0


def load_contract() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# set-up and the durability cycles
# ----------------------------------------------------------------------
def build_stack(spec, seed: int, scale: float, directory: Path, name: str):
    """Corpus generation + load + server start + replica caught up, timed."""
    started = _now()
    corpus = workloads.generate_base_corpus(spec, seed, scale)

    def load(primary) -> None:
        for document in corpus.documents:
            if spec.raw_load:
                primary.add_document(document.text, doc_id=document.doc_id)
            else:
                primary.add_annotated_document(document)

    serving = ServingStack(directory, name).start(load)
    return serving, corpus, _now() - started


def base_oracle(serving, corpus) -> workloads.Oracle:
    sids = workloads.first_sids(serving.primary)
    return workloads.Oracle([(d.doc_id, d.text, sids[d.doc_id]) for d in corpus.documents])


def durability_cycles(serving, corpus, pool_texts, checks, recorder, reference, cycles: int) -> dict:
    """Checkpoint, restart and disk footprint of a store of fixed size.

    Measured on the first set-up's store rather than after the timed
    section, whose length in operations depends on how fast the program
    is: a faster ingest path must not look like a slower checkpoint.
    Each cycle is bracketed by speed calibrations.
    """
    oracle = base_oracle(serving, corpus)
    query_text = workloads.QUERIES[RESTART_QUERY][1]
    want_base = oracle.rows(RESTART_QUERY, None)
    serving.stop_serving()
    checkpoint_s: list[float] = []
    restart_s: list[float] = []
    cycle_texts: list[str] = []
    references = [reference()]
    if recorder is not None:
        recorder.record("on")
    try:
        for cycle in range(cycles):
            primary = serving.primary
            for item in range(CYCLE_BATCH):
                text = pool_texts[(cycle * CYCLE_BATCH + item) % len(pool_texts)]
                primary.add_document(text, doc_id=f"{workloads.CYCLE_PREFIX}{cycle}-{item}")
                cycle_texts.append(text)
            gc.collect()  # a restart begins with an empty heap, not mid-way to the next full collection
            started = _now()
            checkpoint_id = primary.checkpoint()
            checkpoint_s.append(_now() - started)
            checks.check(checkpoint_id is not None, f"cycle {cycle}: checkpoint() had nothing to fold")
            before = workloads.rows_of(primary.query(query_text))
            serving.primary = None
            primary.close()
            del primary
            gc.collect()
            started = _now()
            serving.primary = primary = stack_module.reopen_primary(serving.storage_dir)
            answer = primary.query(query_text)
            restart_s.append(_now() - started)
            checks.check(
                workloads.rows_of(answer) == before,
                f"cycle {cycle}: reopened service answers differently than before close()",
            )
            checks.check(
                workloads.rows_of(answer, skip_prefixes=(workloads.CYCLE_PREFIX,)) == want_base,
                f"cycle {cycle}: reopened service differs from the oracle",
            )
            references.append(reference())
    finally:
        if recorder is not None:
            recorder.record("off")
    sizes = stack_module.directory_bytes(serving.storage_dir)
    live_text = workloads.text_bytes(d.text for d in corpus.documents) + workloads.text_bytes(cycle_texts)
    return {
        "checkpoint_s": checkpoint_s,
        "restart_s": restart_s,
        "factors": [speed_factor(a, b) for a, b in zip(references, references[1:])],
        "disk_bytes": sizes,
        "live_text_bytes": live_text,
        # recording was off until here, so these are exactly the cycles' spans
        "span_count": len(recorder.spans) if recorder is not None else 0,
    }


# ----------------------------------------------------------------------
# one measured run
# ----------------------------------------------------------------------
def measure(spec, seed, seconds, scale, scratch: Path, recorder, addresses: list) -> dict:
    """Everything between "inputs generated" and "stack closed"."""
    checks = workloads.Checks()
    notes: list[str] = []
    # smoke runs only exercise the code path: one calibration round, three cycles
    smoke = scale < 1.0
    reference = functools.partial(reference_seconds, 1 if smoke else CALIBRATION_ROUNDS)
    pool_texts = workloads.generate_pool_texts(spec, seed, scale)
    setups: list[dict] = []
    out: dict = {"checks": checks, "notes": notes, "setups": setups}
    with contextlib.ExitStack() as cleanup:
        serving = corpus = None
        rss_before = stack_module.rss_megabytes()
        for repeat in range(SETUP_REPEATS):
            directory = scratch / f"store-{repeat}"
            reference_before = reference()
            serving, corpus, elapsed = build_stack(spec, seed, scale, directory, f"ledger-{spec.name}")
            cleanup.callback(serving.close)
            addresses.extend(serving.addresses())
            setups.append(
                {
                    "seconds": elapsed,
                    "load_s": serving.load_seconds,
                    "bootstrap_s": serving.bootstrap_seconds,
                    "factor": speed_factor(reference_before, reference()),
                }
            )
            digest = workloads.corpus_sha256(corpus)
            if repeat == 0:
                out["rss_delta_mb"] = stack_module.rss_megabytes() - rss_before
                out["corpus_sha256"] = digest
                if scale == 1.0 and seed == workloads.DEFAULT_SEED:
                    frozen = workloads.FROZEN_CORPUS_SHA256
                    checks.check(digest == frozen, f"default-seed corpus digest is {digest}, ledger was calibrated on {frozen}")
                out["durability"] = durability_cycles(
                    serving, corpus, pool_texts, checks, recorder, reference, 3 if smoke else CYCLES
                )
            else:
                checks.check(digest == out["corpus_sha256"], "the same seed generated a different corpus")
            if repeat < SETUP_REPEATS - 1:
                serving.close()
                shutil.rmtree(directory, ignore_errors=True)
                serving = corpus = None
                gc.collect()

        # ---- the last stack serves: oracle, warm-up, timed section
        oracle = base_oracle(serving, corpus)
        expected_rows = workloads.expected_for(spec, oracle)
        if spec.name == "cold_extract":
            workloads.check_cold_thresholds(oracle, checks)
        base_texts = {d.doc_id: d.text for d in corpus.documents}
        try:  # a public figure a refactor may move: then the layer metric is missing, nothing more
            out["index_bytes"] = serving.primary.indexes.approximate_bytes()
        except Exception as exc:
            out["index_bytes"] = None
            notes.append(f"indexes.approximate_bytes unavailable ({exc!r})")
        out["base_text_bytes"] = workloads.text_bytes(base_texts.values())
        state = workloads.make_state(spec, seed, pool_texts, recorder, expected_rows)
        cleanup.callback(state.close)  # the load generators' connections, before the server
        if spec.readers and spec.name != "cold_extract":
            workloads.prefill_hot_set(serving)
        warm = workloads.drive(serving, workloads.WARMUP_SECONDS * min(1.0, max(scale, 0.2)), state)
        gc.collect()

        before = serving.primary.metrics.snapshot()
        sections: list[workloads.Section] = []
        token = warm.token() or serving.loaded_token
        pause = functools.partial(reference_seconds, 1)  # one round on each CPU
        references = [pause()]
        if recorder is not None:
            recorder.record("blocks", 1.0)
        try:
            deadline = _now() + seconds  # the pauses are inside the run's length
            while _now() < deadline or len(sections) < 2:
                section = workloads.drive(serving, SEGMENT_SECONDS, state)
                token = section.token() or token
                # Nothing is drained between segments.  What a segment left in the
                # background (a checkpoint, the replica's backlog) runs on through
                # the pause, so such a pause is on the segment's clock.
                busy = serving.background_work(token)[1]
                references.append(pause())
                if busy or serving.background_work(token)[1]:
                    section.clock_until = _now()
                sections.append(section)
        finally:
            if recorder is not None:
                recorder.record("off")
        for section, factor in zip(sections, local_factors(references, REFERENCE_REACH)):
            section.speed_factor = factor
        after = serving.primary.metrics.snapshot()
        out.update(sections=sections, registry_before=before, registry_after=after, references=references)

        written: dict[str, str] = {}
        for part in [warm] + sections:
            for log in part.logs():
                written.update({doc_id: pool_texts[i] for doc_id, i in log.written})
            for log in part.logs():
                for doc_id in log.removed:
                    written.pop(doc_id, None)
        for log in warm.logs():  # warm-up operations are verified like any other
            checks.attempted += log.attempted
            checks.failed += log.failed
            checks.reasons.extend(log.errors[:3])
        workloads.verify_final(serving, base_texts, written, token, checks)
        out["live_written"] = len(written)
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(raw: dict, min_beyond: int, normalise_speed: bool) -> dict[str, float]:
    """The end-to-end figures, speed-normalised or exactly as timed."""

    def f(factor: float) -> float:
        return factor if normalise_speed else 1.0

    sections = raw["sections"]
    latencies = [v * f(sec.speed_factor) for sec in sections for log in sec.primary for v in log.latency]
    elapsed = sum(sec.elapsed() * f(sec.speed_factor) for sec in sections)
    completed = sum(log.attempted - log.failed for sec in sections for log in sec.primary)
    durability = raw["durability"]
    return {
        "setup_s": median(s["seconds"] * f(s["factor"]) for s in raw["setups"]),
        "ops_per_s": completed / elapsed,
        "op_p50_ms": 1000.0 * median(latencies),
        "op_p90_ms": 1000.0 * percentile(latencies, 90, min_beyond),
        "disk_bytes_per_text_byte": durability["disk_bytes"]["total"] / durability["live_text_bytes"],
    }


#: which phase's speed factor corrects a per-layer time (every other one: the timed section's)
SETUP_PHASE_METRICS = {"service.setup_splice_s", "replication.bootstrap_s"}
CYCLE_PHASE_METRICS = {
    "persistence.checkpoint_s", "persistence.restart_s",
    "persistence.snapshot_write_s", "persistence.recover_s", "service.open_self_s",
}


#: the trace layer each span-derived metric is read from
LAYER_OF_METRIC = {
    "rpc.result_bytes_per_op": "rpc.result_bytes",
    "service.query_self_ms_per_op": "service.query",
    "service.ingest_self_ms_per_doc": "service.ingest",
    "service.open_self_s": "service.open",
    "indexing.lookup_ms_per_op": "indexing.lookup",
    "indexing.splice_ms_per_doc": "indexing.splice",
    "indexing.unsplice_ms_per_doc": "indexing.unsplice",
    "nlp.annotate_ms_per_doc": "nlp.annotate",
    "persistence.wal_append_ms_per_doc": "persistence.wal_append",
    "persistence.snapshot_write_s": "persistence.snapshot_write",
    "persistence.recover_s": "persistence.recover",
    "replication.apply_ms_per_doc": "replication.apply",
    "replication.ship_wait_ms_per_doc": "replication.apply",
    "rpc.wire_ms_per_op": "rpc",
    **{f"koko.{stage}_ms_per_op": f"koko.{stage}" for stage in ("normalize", "dpli", "load", "extract", "aggregate")},
}


def phase_factors(raw: dict) -> dict[str, float]:
    """One speed factor per phase (time-weighted over the timed segments)."""
    sections = raw["sections"]
    elapsed = sum(sec.elapsed() for sec in sections)
    return {
        "setup": median(s["factor"] for s in raw["setups"]),
        "cycles": median(raw["durability"]["factors"]),
        "timed": sum(sec.elapsed() * sec.speed_factor for sec in sections) / elapsed if elapsed else 1.0,
    }


def per_layer_metrics(spec, raw: dict, recorder, min_beyond: int) -> dict[str, float | None]:
    """Every per-layer metric of BENCHMARK.json, as timed; None marks a missing one.

    Span-derived figures come from the traced half of the timed section
    (and, for checkpoint/restart layers, from the durability cycles);
    ratios come from registry counters read by name; the rest are the load
    generators' own observations.  A layer that does no work in this
    workload reports 0.
    """
    sections = raw["sections"]
    before, after = raw["registry_before"], raw["registry_after"]
    durability = raw["durability"]
    cycles = summarise(recorder.spans[: durability["span_count"]])
    timed = summarise(recorder.spans[durability["span_count"] :])

    def root(table, name):
        return table.get(name) or RootSummary()

    query = root(timed, "RpcClient.query")
    add = root(timed, "RpcClient.add_document")
    remove = root(timed, "RpcClient.remove_document")
    applied = root(timed, "KokoService.apply_replicated")
    checkpoint = root(cycles, "KokoService.checkpoint")
    reopen = root(cycles, "KokoService.open")
    primary_root = add if spec.name == "ingest_durable" else query
    writes = add.count + remove.count

    def per(total_seconds: float, count: int) -> float:
        return 1000.0 * total_seconds / count if count else 0.0

    def delta(name):
        return counter_delta(before, after, name)

    def plus(a, b):
        return None if a is None or b is None else a + b

    hits, misses = delta("koko_result_cache_hits_total"), delta("koko_result_cache_misses_total")
    reused, computed = delta("koko_shard_partials_reused_total"), delta("koko_shard_partials_computed_total")
    plan_hits, plan_misses = delta("koko_plan_cache_hits_total"), delta("koko_plan_cache_misses_total")
    reader_logs = [log for sec in sections for log in sec.readers]
    writer_logs = [log for sec in sections for log in sec.writers]
    docs_written = sum(len(log.written) + len(log.removed) for log in writer_logs)
    written_bytes = sum(log.text_bytes for log in writer_logs)
    write_latencies = [value for log in writer_logs for value in log.latency]
    lateness = [value for log in writer_logs for value in log.lateness]
    visible = [value for sec in sections for value in sec.visible]
    tuples = sum(log.tuples for log in reader_logs)
    evaluated = sum(log.evaluated for log in reader_logs)
    candidates = sum(log.candidates for log in reader_logs)
    # tracing's cost is judged on one kind of operation: queries where there are any
    overhead_logs = reader_logs or writer_logs
    traced = [v for log in overhead_logs for v, t in zip(log.latency, log.traced) if t]
    untraced = [v for log in overhead_logs for v, t in zip(log.latency, log.traced) if not t]
    response_kind = "dict" if spec.name == "ingest_durable" else "KokoResult"
    responses = recorder.counts.get(f"rpc.responses.{response_kind}", 0.0)
    visible_p50 = 1000.0 * median(visible) if visible else 0.0
    apply_ms = per(applied.seconds, applied.count)

    def supported(latencies, percent):
        """A percentile in ms; 0 without operations, None when the sample cannot support it."""
        if not latencies:
            return 0.0
        try:
            return 1000.0 * percentile(latencies, percent, min_beyond)
        except InsufficientSamples:
            return None

    op_latencies = [value for sec in sections for log in sec.primary for value in log.latency]

    metrics: dict[str, float | None] = {
        "rpc.wire_ms_per_op": primary_root.per_op_ms("rpc"),
        "rpc.result_bytes_per_op": ratio(recorder.counts.get(f"rpc.response_bytes.{response_kind}", 0.0), responses),
        "service.query_self_ms_per_op": query.per_op_ms("service.query"),
        "service.result_cache_hit_ratio": ratio(hits, plus(hits, misses)),
        "service.partial_cache_reuse_ratio": ratio(reused, plus(reused, computed)),
        "service.plan_cache_hit_ratio": ratio(plan_hits, plus(plan_hits, plan_misses)),
        "service.ingest_self_ms_per_doc": per(add.layers.get("service.ingest", 0.0) + remove.layers.get("service.ingest", 0.0), writes),
        "service.rss_delta_mb": raw["rss_delta_mb"],
        "service.setup_splice_s": median(s["load_s"] for s in raw["setups"]),
        "service.open_self_s": reopen.per_op_ms("service.open") / 1000.0,
        "koko.normalize_ms_per_op": query.per_op_ms("koko.normalize"),
        "koko.dpli_ms_per_op": query.per_op_ms("koko.dpli"),
        "koko.load_ms_per_op": query.per_op_ms("koko.load"),
        "koko.extract_ms_per_op": query.per_op_ms("koko.extract"),
        "koko.aggregate_ms_per_op": query.per_op_ms("koko.aggregate"),
        "koko.evaluated_sentences_per_tuple": ratio(evaluated, tuples),
        "koko.gsp_kept_share": ratio(evaluated, candidates),
        "indexing.lookup_ms_per_op": query.per_op_ms("indexing.lookup"),
        "indexing.splice_ms_per_doc": add.per_op_ms("indexing.splice"),
        "indexing.unsplice_ms_per_doc": remove.per_op_ms("indexing.unsplice"),
        "indexing.bytes_per_text_byte": ratio(raw["index_bytes"], raw["base_text_bytes"]),
        "nlp.annotate_ms_per_doc": add.per_op_ms("nlp.annotate"),
        "persistence.wal_append_ms_per_doc": per(add.layers.get("persistence.wal_append", 0.0) + remove.layers.get("persistence.wal_append", 0.0), writes),
        "persistence.wal_fsyncs_per_doc": ratio(delta("koko_wal_fsyncs_total"), docs_written),
        "persistence.wal_bytes_per_text_byte": ratio(delta("koko_wal_bytes_appended_total"), written_bytes),
        "persistence.checkpoint_s": median(durability["checkpoint_s"]),
        "persistence.restart_s": median(durability["restart_s"]),
        "persistence.snapshot_write_s": checkpoint.per_op_ms("persistence.snapshot_write") / 1000.0,
        "persistence.snapshot_bytes_per_text_byte": durability["disk_bytes"].get("snapshots", 0) / durability["live_text_bytes"],
        "persistence.background_checkpoints": delta("koko_checkpoints_completed_total"),
        "persistence.recover_s": reopen.per_op_ms("persistence.recover") / 1000.0,
        "replication.apply_ms_per_doc": apply_ms,
        "replication.ship_wait_ms_per_doc": max(0.0, visible_p50 - apply_ms) if visible else 0.0,
        "replication.bootstrap_s": median(s["bootstrap_s"] for s in raw["setups"]),
        "replication.visible_p50_ms": visible_p50,
        "write.p50_ms": 1000.0 * median(write_latencies) if write_latencies else 0.0,
        "write.p90_ms": supported(write_latencies, 90),
        "write.p99_ms": supported(write_latencies, 99),
        "op.p95_ms": supported(op_latencies, 95),
        "op.p99_ms": supported(op_latencies, 99),
        "loadgen.writer_late_p50_ms": 1000.0 * median(lateness) if lateness else 0.0,
        "loadgen.reader_ops": float(sum(len(log.latency) for log in reader_logs)),
        # medians: one checkpoint stall in either half would swamp a mean
        "trace_overhead_share": 1.0 - median(untraced) / median(traced) if traced and untraced else None,
        "machine.reference_ms": 1000.0 * median(raw["references"]),
    }
    # a wrap point that no longer resolves makes its layer's figure missing, not zero
    for metric, layer in LAYER_OF_METRIC.items():
        if layer in recorder.missing_layers:
            metrics[metric] = None
    raw["layer_share"] = _layer_shares(primary_root)
    return metrics


def normalise_layers(values: dict, units: dict, factors: dict[str, float]) -> dict:
    """Per-layer times as they would read on the quiet calibration box."""
    out = {}
    for name, value in values.items():
        phase = "setup" if name in SETUP_PHASE_METRICS else "cycles" if name in CYCLE_PHASE_METRICS else "timed"
        keep = value is None or name == "machine.reference_ms"  # the ruler itself is reported raw
        out[name] = value if keep else normalise(value, units.get(name, ""), factors[phase])
    return out


def _layer_shares(summary) -> dict[str, float]:
    """Each layer's share of the traced primary operations' round-trip time."""
    if not summary.seconds:
        return {}
    shares = {layer: seconds / summary.seconds for layer, seconds in sorted(summary.layers.items())}
    shares["(sum)"] = sum(summary.layers.values()) / summary.seconds
    return shares


# ----------------------------------------------------------------------
# running, reporting
# ----------------------------------------------------------------------
def run_once(spec, seed: int, seconds: float, trace: bool, scale: float, contract: dict, out_dir, index: int) -> dict:
    """One workload, one seed: measure, verify, tear down, prove no leak."""
    scratch = SCRATCH / f"ledger-{os.getpid()}-{spec.name}-{index}"
    scratch.mkdir(parents=True, exist_ok=True)
    expected = SETUP_REPEATS * 3.0 + seconds + workloads.WARMUP_SECONDS + 20.0
    watchdog = Watchdog(min(WATCHDOG_FACTOR * expected, WATCHDOG_CAP), cleanup_dirs=[scratch]).start()
    leak_check = LeakCheck(allowed_threads=(WATCHDOG_THREAD,))
    recorder = Recorder() if trace else None
    addresses: list = []
    min_beyond = MIN_SAMPLES_BEYOND if scale >= 1.0 else 0
    record = {
        "workload": spec.name, "seed": seed, "seconds": seconds, "scale": scale, "trace": int(trace),
        "correct": False, "attempted": 0, "failed": 0, "metrics": {}, "problems": [],
    }
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    wanted = [m["name"] for m in contract["per_layer" if trace else "end_to_end"]]
    try:
        if recorder is not None:
            recorder.install()
        raw = measure(spec, seed, seconds, scale, scratch, recorder, addresses)
        checks = raw["checks"]
        logs = [log for section in raw["sections"] for log in section.logs()]
        record["attempted"] = checks.attempted + sum(log.attempted for log in logs)
        record["failed"] = checks.failed + sum(log.failed for log in logs)
        record["problems"] += checks.reasons + [e for log in logs for e in log.errors[:3]][:20]
        reported = end_to_end_metrics(raw, min_beyond, normalise_speed=True)
        record["end_to_end_raw"] = end_to_end_metrics(raw, min_beyond, normalise_speed=False)
        factors = phase_factors(raw)
        if recorder is not None:
            record["end_to_end"] = reported
            reported = normalise_layers(per_layer_metrics(spec, raw, recorder, min_beyond), units, factors)
            record["warnings"] = recorder.warnings + raw["notes"]
            record["layer_share"] = raw.get("layer_share", {})
        missing = [name for name in wanted if name not in reported]
        if missing:
            record["problems"].append(f"metrics not produced: {missing}")
        record["metrics"] = {
            name: {"value": MISSING if reported[name] is None else float(reported[name]), "unit": units[name]}
            for name in wanted if name in reported
        }
        primary_logs = [log for section in raw["sections"] for log in section.primary]
        record["details"] = {
            "speed_factors": factors,
            "segment_factors": [section.speed_factor for section in raw["sections"]],
            "reference_ms": [1000.0 * value for value in raw["references"]],
            "corpus_sha256": raw["corpus_sha256"],
            "setup_s": [s["seconds"] for s in raw["setups"]],
            "checkpoint_s": raw["durability"]["checkpoint_s"],
            "restart_s": raw["durability"]["restart_s"],
            "disk_bytes": raw["durability"]["disk_bytes"],
            "ops": sum(len(log.latency) for log in primary_logs),
            "elapsed_s": sum(section.elapsed() for section in raw["sections"]),
            "live_written": raw["live_written"],
            "visible_samples": sum(len(section.visible) for section in raw["sections"]),
        }
        record["correct"] = record["failed"] == 0 and not missing
    except InsufficientSamples as exc:
        record["problems"].append(f"too few samples: {exc}")
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        record["problems"].append(f"run aborted: {exc!r}")
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it
        leaks = leak_check.problems(addresses, [scratch])
        watchdog.cancel()
    if leaks:
        record["correct"] = False
        record["problems"] += [f"leak: {leak}" for leak in leaks]
    if out_dir is not None:
        write_outputs(Path(out_dir), record, recorder, index)
    return record


def write_outputs(out_dir: Path, record: dict, recorder, index: int) -> None:
    """Append the run to ``runs.json``; write its spans beside it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runs_path = out_dir / "runs.json"
    runs = json.loads(runs_path.read_text(encoding="utf-8")) if runs_path.exists() else []
    runs.append(record)
    runs_path.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    if recorder is not None:
        recorder.write(out_dir / f"spans-{record['workload']}-seed{record['seed']}-{index}.jsonl")


def print_report(record: dict) -> None:
    """Every metric by name with its unit, then what went wrong (if anything)."""
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"# {record['workload']}  seed={record['seed']}  seconds={record['seconds']:g}  {kind}")
    for name, entry in record["metrics"].items():
        shown = "missing" if entry["value"] == MISSING else f"{entry['value']:.6g}"
        print(f"  {name:<42} {shown:>14} {entry['unit']}")
    details = record.get("details")
    if details:
        factors = " ".join(f"{phase}={value:.3f}" for phase, value in details["speed_factors"].items())
        print(f"  ({details['ops']} timed operations in {details['elapsed_s']:.2f} s; speed factors {factors}; corpus sha256 {details['corpus_sha256'][:16]})")
    for layer, share in record.get("layer_share", {}).items():
        print(f"  share of traced op time  {layer:<28} {share:8.4f}")
    for warning in record.get("warnings", []):
        print(f"  warning: {warning}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}", file=sys.stderr)


def result_line(record: dict) -> str:
    """The contract's last line: exactly correct, attempted, failed, metrics."""
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": max(1, int(record["attempted"])),
            "failed": int(record["failed"]),
            "metrics": record["metrics"],
        }
    )


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="accepted from the acceptance driver, which passes run_seconds; any other value is refused")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1))
    parser.add_argument("--out", default=None, help="directory for runs.json and span files")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload and mode (a run set for compare.py)")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink corpora and seconds (smoke runs; numbers mean nothing)")
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.repeat < 1:
        parser.error("--scale must be positive and --repeat at least 1")
    if args.seconds is not None and args.seconds != contract["run_seconds"]:
        # parent and change are always measured over the same length
        parser.error(f"the run length is fixed by BENCHMARK.json: --seconds can only be {contract['run_seconds']}")
    seconds = contract["run_seconds"] * args.scale
    if args.workload is not None:
        plan = [(args.workload, bool(args.trace))]
    else:
        modes = [False, True] if args.trace is None else [bool(args.trace)]
        plan = [(name, mode) for name in names for mode in modes]
    records = []
    index = 0
    for name, trace in plan:
        for _ in range(args.repeat):
            record = run_once(workloads.SPECS[name], args.seed, seconds, trace, args.scale, contract, args.out, index)
            index += 1
            records.append(record)
            print_report(record)
            if args.workload is not None:
                print(result_line(record), flush=True)
    if args.workload is None:
        merged = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{name}": entry for r in records for name, entry in r["metrics"].items()},
        }
        print(result_line(merged), flush=True)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
