"""Tests of the ledger itself (run explicitly; not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Unit tests pin the arithmetic the reported numbers rest on; the smoke pass
runs all four workloads at ``--scale 0.05`` in both modes and checks the
emitted names against ``BENCHMARK.json``; the failure-injection tests show
that nothing outlives a run that dies half-way.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time

import pytest

from . import calibrate, compare, run, stack, stats, trace, workloads

CONTRACT = run.load_contract()
SMOKE_SCALE = 0.05


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 95, min_beyond=0) == 95
    assert stats.percentile(values, 100, min_beyond=0) == 100
    assert stats.percentile([4, 1, 3, 2], 50, min_beyond=0) == 2  # a sample, never interpolated
    assert stats.percentile([7], 50, min_beyond=0) == 7


def test_percentile_refuses_without_ten_samples_beyond():
    assert stats.percentile(list(range(200)), 95) == 189  # rank 190, ten beyond
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(199)), 95)  # rank 190 of 199: nine beyond
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile([], 50)


def test_spread_matches_the_acceptance_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert compare.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)  # statistics.quantiles(n=4)
    assert compare.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)  # too few for quartiles: range


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def _span(span_id, layer, parent, start, end):
    span = trace.Span(span_id, layer, layer, parent, None if parent is None else parent.op, start)
    span.op = span.op if span.op is not None else span_id
    span.end = end
    return span


def test_self_time_is_duration_minus_children_on_one_thread():
    root = _span(1, "rpc", None, 0.0, 10.0)
    service = _span(2, "service", root, 1.0, 9.0)
    stage = _span(3, "koko", service, 2.0, 5.0)
    lookup = _span(4, "indexing", stage, 3.0, 4.0)
    totals = trace.self_time_by_layer([root, service, stage, lookup])
    assert totals == pytest.approx({"rpc": 2.0, "service": 5.0, "koko": 2.0, "indexing": 1.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_self_time_splits_overlapping_children_and_sums_to_the_root():
    root = _span(1, "service", None, 0.0, 10.0)
    shard_a = _span(2, "koko.dpli", root, 1.0, 5.0)  # two pool threads at once
    shard_b = _span(3, "koko.extract", root, 3.0, 8.0)
    totals = trace.self_time_by_layer([shard_b, root, shard_a])  # close order, not start order
    # [0,1] root, [1,3] a, [3,5] a and b share, [5,8] b, [8,10] root
    assert totals == pytest.approx({"service": 3.0, "koko.dpli": 3.0, "koko.extract": 4.0})
    assert sum(totals.values()) == pytest.approx(root.end - root.start)


def test_self_time_clips_a_child_that_outlives_its_root():
    root = _span(1, "rpc", None, 0.0, 4.0)
    late = _span(2, "service", root, 3.0, 6.0)
    assert trace.self_time_by_layer([root, late]) == pytest.approx({"rpc": 3.0, "service": 1.0})


def test_summarise_groups_by_root_name():
    first = _span(1, "rpc", None, 0.0, 2.0)
    child = _span(2, "service", first, 0.5, 1.5)
    second = _span(3, "rpc", None, 5.0, 6.0)
    table = trace.summarise([child, first, second])
    assert table["rpc"].count == 2
    assert table["rpc"].seconds == pytest.approx(3.0)
    assert table["rpc"].per_op_ms("service") == pytest.approx(500.0)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def test_open_loop_latency_runs_from_the_due_time():
    latency, lateness = stats.open_loop_times(due=1.0, sent=1.2, done=1.5)
    assert latency == pytest.approx(0.5)  # includes the 0.2 s the generator was behind
    assert lateness == pytest.approx(0.2)
    latency, lateness = stats.open_loop_times(due=1.0, sent=1.0, done=1.1)
    assert (latency, lateness) == (pytest.approx(0.1), 0.0)


def test_writer_sequence_alternates_and_keeps_the_corpus_level():
    sequence = workloads.WriterSequence()
    ops = [sequence.next() for _ in range(workloads.WRITER_LAG + 6)]
    assert ops[: workloads.WRITER_LAG] == [("add", n) for n in range(workloads.WRITER_LAG)]
    lag = workloads.WRITER_LAG
    assert ops[lag:] == [("add", lag), ("remove", 0), ("add", lag + 1), ("remove", 1), ("add", lag + 2), ("remove", 2)]
    live = set()
    for kind, number in ops:
        live.add(number) if kind == "add" else live.remove(number)
    assert len(live) == lag


class _FakeClient:
    """Stands in for ``RpcClient``: answers at once, remembers what it was asked."""

    def __init__(self):
        self.calls: list = []

    def query(self, text, threshold_override=None):
        return type("Result", (), {"tuples": (), "evaluated_sentences": 0, "candidate_sentences": 0, "__iter__": lambda self: iter(())})()

    def add_document(self, text, doc_id=None):
        self.calls.append(("add", doc_id))
        return {"doc_id": doc_id, "token": len(self.calls)}

    def remove_document(self, doc_id):
        self.calls.append(("remove", doc_id))
        return {"doc_id": doc_id, "token": len(self.calls)}


def test_every_fourth_answer_makes_one_write_due_across_sections():
    pace = workloads.WritePace()
    expected = {key: [] for key in range(len(workloads.HOT_KEYS))}
    plan = workloads.hot_plan(1, 0)
    logs = []
    for _ in range(3):  # the count of answers runs on from one section to the next
        log = workloads.ClientLog("reader")
        workloads.read_loop(_FakeClient(), plan, time.perf_counter() + 0.01, log, None, expected, True, 8, pace)
        logs.append(log)
    answers = sum(len(log.latency) for log in logs)
    due = list(pace.due.queue)
    assert all(log.failed == 0 for log in logs) and answers >= workloads.READS_PER_WRITE
    assert pace.answers == answers and len(due) == answers // workloads.READS_PER_WRITE
    assert due == sorted(due) and logs[0].first_start < due[0] <= logs[-1].last_done


def test_the_writer_times_each_write_from_when_it_fell_due():
    client = _FakeClient()
    inbox: queue.Queue = queue.Queue()
    first_due = time.perf_counter() - 0.5  # the writer was busy elsewhere for half a second
    for item in (first_due, first_due + 0.1, None):
        inbox.put(item)
    log = workloads.ClientLog("writer")
    workloads.paced_write_loop(client, ["a", "b"], workloads.WriterSequence(), inbox, log, None)
    assert client.calls == [("add", "mix-000000"), ("add", "mix-000001")]
    assert log.attempted == 2 and log.failed == 0
    assert log.latency[0] >= log.lateness[0] >= 0.5 and log.latency[1] >= log.lateness[1] >= 0.4
    assert [doc_id for doc_id, _ in log.written] == ["mix-000000", "mix-000001"]
    assert log.token == 2  # the last acknowledged write's


def test_writes_count_as_operations_and_a_busy_pause_stays_on_the_clock():
    reader, writer = workloads.ClientLog("reader"), workloads.ClientLog("writer")
    reader.completed(10.0, 10.2, 0.2, None)
    writer.completed(10.1, 10.4, 0.35, None)  # timed from when it was due, not from when it was sent
    section = workloads.Section(readers=[reader], writers=[writer])
    assert section.primary == [reader, writer]
    assert section.elapsed() == pytest.approx(0.4)  # first send to last answer, writes included
    section.clock_until = 10.45  # the stack was still busy through the pause that followed
    assert section.elapsed() == pytest.approx(0.45)


def test_cold_mix_is_exact_thirds_with_unique_thresholds():
    seen = set()
    for client in range(2):
        plan = workloads.cold_plan(7, client)
        keys = []
        for _ in range(600):
            key, text, threshold = next(plan)
            assert text == workloads.QUERIES[key][1]
            assert threshold not in seen
            seen.add(threshold)
            keys.append(key)
        for start in range(0, 600, 6):  # every shuffle holds two of each query
            assert sorted(keys[start : start + 6]) == [0, 0, 1, 1, 2, 2]
    assert max(seen) < workloads.COLD_THRESHOLD + 100_000_000 * workloads.COLD_STEP
    again, other = workloads.cold_plan(7, 0), workloads.cold_plan(8, 0)
    assert [next(again)[0] for _ in range(600)] != [next(other)[0] for _ in range(600)]  # the seed orders the mix


def test_strata_quotas_fix_the_amount_of_work_across_seeds():
    for articles in (24, 160, 400):
        quotas = workloads.strata_quotas(articles)
        assert sum(quotas.values()) == articles and min(quotas.values()) >= 1
    wanted = workloads.strata_quotas(24)
    for seed in (1, 2):
        corpus = workloads.generate_stratified_corpus(24, seed)
        kinds = corpus.gold["article_kind"]
        got: dict[str, int] = {}
        for document in corpus.documents:
            stratum = workloads.stratum_of(next(iter(kinds[document.doc_id])), document.text)
            got[stratum] = got.get(stratum, 0) + 1
        assert got == wanted


def test_hot_keys_are_32_pairs_with_every_query():
    assert len(workloads.HOT_KEYS) == len(set(workloads.HOT_KEYS)) == 32
    assert {query for query, _ in workloads.HOT_KEYS} == {0, 1, 2}
    assert workloads.QUERIES[workloads.HOT_KEYS[1][0]][0] == "DateOfBirth"  # the large result is rank 2


def test_hot_stream_holds_every_rank_in_its_zipf_share_whatever_the_seed():
    counts = workloads.HOT_BLOCK_COUNTS
    assert sum(counts) == workloads.HOT_BLOCK and min(counts) >= 1
    assert counts == sorted(counts, reverse=True)
    share = workloads.ZIPF_WEIGHTS[0] / sum(workloads.ZIPF_WEIGHTS)
    assert counts[0] == pytest.approx(share * workloads.HOT_BLOCK, abs=1)
    streams = []
    for seed in (1, 2):
        plan = workloads.hot_plan(seed, 0)
        keys = [next(plan)[0] for _ in range(2 * workloads.HOT_BLOCK)]
        for start in (0, workloads.HOT_BLOCK):
            block = keys[start : start + workloads.HOT_BLOCK]
            assert [block.count(rank) for rank in range(len(counts))] == counts
        streams.append(keys)
    assert streams[0] != streams[1]  # the seed orders the requests


# ----------------------------------------------------------------------
# speed normalisation
# ----------------------------------------------------------------------
def test_normalise_scales_times_and_rates_and_nothing_else():
    slow = calibrate.speed_factor(2 * calibrate.NOMINAL_REFERENCE_SECONDS, 2 * calibrate.NOMINAL_REFERENCE_SECONDS)
    assert slow == pytest.approx(0.5)  # the machine ran at half speed
    assert calibrate.normalise(100.0, "ms", slow) == pytest.approx(50.0)
    assert calibrate.normalise(3.0, "s", slow) == pytest.approx(1.5)
    assert calibrate.normalise(20.0, "1/s", slow) == pytest.approx(40.0)
    assert calibrate.normalise(45.3, "ratio", slow) == 45.3
    assert calibrate.normalise(7.0, "count", slow) == 7.0
    assert calibrate.reference_seconds(rounds=3) > 0


def test_a_segments_factor_is_the_median_of_the_references_around_it():
    nominal = calibrate.NOMINAL_REFERENCE_SECONDS
    # five references bracket four segments; the third was hit by a checkpoint
    references = [nominal, nominal, 5 * nominal, nominal, 2 * nominal]
    assert calibrate.local_factors(references, reach=1) == pytest.approx([1.0, 1.0, 1 / 1.5, 0.5])
    assert calibrate.local_factors(references, reach=0) == pytest.approx([1.0, 1 / 3, 1 / 3, 1 / 1.5])
    assert calibrate.local_factors([2 * nominal] * 3, reach=2) == pytest.approx([0.5, 0.5])


# ----------------------------------------------------------------------
# tolerant wrap points
# ----------------------------------------------------------------------
def test_a_missing_wrap_point_warns_and_everything_is_restored():
    from repro.rpc.client import RpcClient
    from repro.service.service import KokoService

    original_query = KokoService.__dict__["query"]
    gone = trace.WrapPoint("repro.service.service", "KokoService", "no_such_method", "service.gone", "entry")
    moved = trace.WrapPoint("repro.no_such_module", None, "f", "nowhere", "child")
    recorder = trace.Recorder()
    recorder.install(trace.WRAP_POINTS + (gone, moved))
    try:
        assert {"service.gone", "nowhere"} <= recorder.missing_layers
        assert len(recorder.warnings) == 2
        assert KokoService.__dict__["query"] is not original_query
        assert "query" in RpcClient.__dict__  # inherited method shadowed on the class itself
    finally:
        recorder.uninstall()
    assert KokoService.__dict__["query"] is original_query
    assert "query" not in RpcClient.__dict__


def test_a_missing_layer_is_reported_as_missing_not_as_failure(monkeypatch):
    points = tuple(p for p in trace.WRAP_POINTS if p.layer != "nlp.annotate")
    points += (trace.WrapPoint("repro.nlp.pipeline", "Pipeline", "annotate_renamed", "nlp.annotate", "child"),)
    monkeypatch.setattr(trace, "WRAP_POINTS", points)
    record = run.run_once(workloads.SPECS["ingest_durable"], 3, 0.5, True, SMOKE_SCALE, CONTRACT, None, 0)
    assert record["correct"], record["problems"]
    assert record["metrics"]["nlp.annotate_ms_per_doc"]["value"] == run.MISSING
    assert record["metrics"]["persistence.wal_append_ms_per_doc"]["value"] > 0
    assert any("annotate_renamed" in warning for warning in record["warnings"])


# ----------------------------------------------------------------------
# the smoke pass
# ----------------------------------------------------------------------
def test_all_workloads_emit_exactly_the_contracted_names(capsys):
    started = time.monotonic()
    assert set(workloads.SPECS) == {w["name"] for w in CONTRACT["workloads"]}
    for index, workload in enumerate(w["name"] for w in CONTRACT["workloads"]):
        for mode, kind in ((0, "end_to_end"), (1, "per_layer")):
            # the acceptance driver's form: --seconds is accepted when it is the contract's
            args = ["--workload", workload, "--seed", "5", "--seconds", str(CONTRACT["run_seconds"]), "--trace", str(mode)]
            code = run.main(args + ["--scale", str(SMOKE_SCALE)])
            line = capsys.readouterr().out.strip().splitlines()[-1]
            result = json.loads(line)
            assert code == 0 and result["correct"], line
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in CONTRACT[kind]]
            units = {m["name"]: m["unit"] for m in CONTRACT[kind]}
            assert {n: e["unit"] for n, e in result["metrics"].items()} == units
            if kind == "end_to_end":
                assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert time.monotonic() - started < 30.0


def test_a_second_seed_gives_other_inputs():
    spec = workloads.SPECS["cold_extract"]
    first = workloads.corpus_sha256(workloads.generate_base_corpus(spec, 1, SMOKE_SCALE))
    again = workloads.corpus_sha256(workloads.generate_base_corpus(spec, 1, SMOKE_SCALE))
    other = workloads.corpus_sha256(workloads.generate_base_corpus(spec, 2, SMOKE_SCALE))
    assert first == again != other


# ----------------------------------------------------------------------
# nothing outlives a run, even one that dies
# ----------------------------------------------------------------------
def _only_main_thread_left():
    return [t.name for t in threading.enumerate() if t is not threading.main_thread()] == []


def test_a_workload_that_raises_mid_run_leaks_nothing(monkeypatch, capsys):
    seen = {}

    def failing_drive(serving, seconds, state):
        seen["addresses"] = serving.addresses()
        seen["directory"] = serving.storage_dir
        raise RuntimeError("injected failure in the timed section")

    monkeypatch.setattr(workloads, "drive", failing_drive)
    code = run.main(["--workload", "mixed_rw", "--scale", str(SMOKE_SCALE), "--seed", "2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["metrics"] == {}
    assert len(seen["addresses"]) == 2  # the stack really was serving when it died
    checker = stack.LeakCheck()
    assert checker.problems(seen["addresses"], [seen["directory"]], settle_seconds=2.0) == []
    assert _only_main_thread_left()


def test_run_once_reports_the_injected_failure_not_a_leak(monkeypatch):
    def failing_verify(*args, **kwargs):
        raise RuntimeError("injected failure during verification")

    monkeypatch.setattr(workloads, "verify_final", failing_verify)
    record = run.run_once(workloads.SPECS["hot_serving"], 2, 0.5, False, SMOKE_SCALE, CONTRACT, None, 0)
    assert record["correct"] is False
    assert any("injected failure" in problem for problem in record["problems"])
    assert not any(problem.startswith("leak:") for problem in record["problems"])
    assert _only_main_thread_left()


def test_leak_check_sees_a_stray_thread_and_an_open_port():
    checker = stack.LeakCheck()
    release = threading.Event()
    stray = threading.Thread(target=release.wait, name="stray-worker")
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()
    stray.start()
    try:
        problems = checker.problems([address], [], settle_seconds=0.1)
    finally:
        release.set()
        stray.join(timeout=5.0)
        listener.close()
    assert any("stray-worker" in problem for problem in problems)
    assert any("still accepts connections" in problem for problem in problems)
    assert checker.problems([address], [], settle_seconds=1.0) == []


def test_watchdog_fires_when_not_cancelled_and_not_when_cancelled():
    fired = threading.Event()
    stack.Watchdog(0.05, on_expire=fired.set).start()
    assert fired.wait(timeout=5.0)
    quiet = threading.Event()
    dog = stack.Watchdog(30.0, on_expire=quiet.set).start()
    dog.cancel()
    assert not quiet.is_set()
    deadline = time.monotonic() + 5.0
    while not _only_main_thread_left() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _only_main_thread_left()


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady_a, [x * 1.20 for x in steady_a], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady_a, [x * 0.80 for x in steady_a], "lower", 0.10)[0] == "improved"
    assert compare.verdict(steady_a, [x * 0.80 for x in steady_a], "higher", 0.10)[0] == "regressed"
    assert compare.verdict(steady_a, [x * 1.02 for x in steady_a], "lower", 0.10)[0] == "unchanged"
    noisy = [60.0, 100.0, 140.0, 90.0, 120.0]
    assert compare.verdict(steady_a, noisy, "lower", 0.10)[0] == "unresolved"


def _run_set(path, scale, incorrect=(), failed=0):
    runs = [
        {
            "workload": w["name"], "trace": 0, "correct": i not in incorrect, "attempted": 100, "failed": failed,
            "metrics": {m["name"]: {"value": scale * (10.0 + i * 0.01), "unit": m["unit"]} for m in CONTRACT["end_to_end"]},
        }
        for w in CONTRACT["workloads"]
        for i in range(4)
    ]
    path.write_text(json.dumps(runs), encoding="utf-8")
    return str(path)


def test_compare_reads_run_sets(tmp_path):
    rows = len(CONTRACT["workloads"]) * (1 + len(CONTRACT["end_to_end"]))
    a = _run_set(tmp_path / "a.json", 1.0)
    lines, failed = compare.compare(a, _run_set(tmp_path / "b.json", 1.0), CONTRACT)
    assert failed is False and len(lines) == 1 + rows
    lines, failed = compare.compare(a, _run_set(tmp_path / "c.json", 2.0), CONTRACT)
    assert failed and len(lines) == 1 + rows


def test_compare_does_not_lose_incorrect_runs(tmp_path):
    a = _run_set(tmp_path / "a.json", 1.0)
    broken = _run_set(tmp_path / "b.json", 1.0, incorrect=(1,))
    lines, failed = compare.compare(a, broken, CONTRACT)
    correctness = [line for line in lines if " correctness " in line]
    assert failed and len(correctness) == len(CONTRACT["workloads"])
    assert all("B: 4 runs, 1 incorrect" in line and line.endswith("regressed") for line in correctness)
    assert all("(n=4,3)" in line for line in lines[1:] if " correctness " not in line)
    # the same values with more failed operations: every metric row is unchanged, the set is not
    lines, failed = compare.compare(a, _run_set(tmp_path / "c.json", 1.0, failed=2), CONTRACT)
    assert failed and all(line.endswith("regressed") for line in lines if " correctness " in line)
    # a baseline that is just as broken decides nothing
    lines, failed = compare.compare(broken, broken, CONTRACT)
    assert failed and all(line.endswith("unresolved") for line in lines if " correctness " in line)


def test_pairs_stay_aligned_when_a_run_is_missing():
    a = [100.0, 100.0, 100.0, 100.0, 100.0]
    b = [None, 90.0, 90.0, 90.0, 90.0]  # run 0 of B was incorrect: its pair is not played
    assert compare.verdict(a, b, "lower", 0.05)[0] == "improved"
    assert compare.verdict(b, a, "lower", 0.05)[0] == "regressed"


def test_the_run_length_is_not_a_knob(capsys):
    with pytest.raises(SystemExit) as refused:
        run.main(["--workload", "hot_serving", "--seconds", str(CONTRACT["run_seconds"] + 1)])
    assert refused.value.code == 2
    assert "fixed by BENCHMARK.json" in capsys.readouterr().err
