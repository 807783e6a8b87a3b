"""The four serving workloads: inputs, load generators, verification oracle.

Each workload is a traffic mix chosen so that a different set of layers
owns the time (see ``README.md`` for the full hot/idle table):

``cold_extract``
    closed loop, 1 RPC reader, every request a cache miss — ``koko`` and
    ``indexing`` do the work.
``hot_serving``
    closed loop, 2 RPC readers, Zipf over 32 cached (query, threshold)
    pairs — ``rpc`` and ``service`` caches do the work, ``koko`` is idle.
``ingest_durable``
    closed loop, 1 RPC writer of raw text with a TCP replica following —
    ``nlp``, ``persistence``, ``indexing`` splice and ``replication``.
``mixed_rw``
    1 closed-loop reader on the hot set beside 1 writer paced by it, one
    write due per ``READS_PER_WRITE`` reads, both counted as operations —
    the same caches and locks under invalidation.

Inputs come from ``--seed`` only: the corpus through
``generate_wikipedia_corpus(WikipediaConfig(articles=N, seed=...))``, the
order of the requests through ``random.Random``.  What does *not* depend on the seed
is the structure — query texts, how often each cached pair is asked, the
mix of the cold requests — so that runs with different seeds measure the
same work and can be compared.
"""

from __future__ import annotations

import hashlib
import itertools
import queue
import random
import threading
import time
from dataclasses import dataclass, field

from repro.corpora.wikipedia import WikipediaConfig, generate_wikipedia_corpus
from repro.koko import KokoEngine
from repro.nlp.pipeline import Pipeline
from repro.nlp.types import Corpus
from repro.rpc import RpcClient

from .stats import open_loop_times

_now = time.perf_counter

# ----------------------------------------------------------------------
# frozen query texts (copies of the Section 6.3 wiki queries: the benchmark
# must keep measuring the same requests if repro.evaluation.queries moves)
# ----------------------------------------------------------------------
CHOCOLATE_QUERY = """
extract c:Entity from "wiki" if (
/ROOT:{
v = //verb, o = v//pobj[text="chocolate"],
s = v/nsubj } (s) in (c))
satisfying v
(str(v) ~ "is" {1})
with threshold 0.5
"""

TITLE_QUERY = """
extract a:Person, b:Str from "wiki" if (
/ROOT:{
v = //"called", p = v/propn, b = p.subtree,
c = a + ^ + v + ^ + b})
"""

DATEOFBIRTH_QUERY = """
extract a:Person, b:Date from "wiki" if (
/ROOT:{ v = //verb })
satisfying v
(str(v) ~ "born" {1})
with threshold 0.2
"""

#: request order of the cold mix: equal thirds, fixed rotation
QUERIES: tuple[tuple[str, str], ...] = (
    ("Chocolate", CHOCOLATE_QUERY),
    ("Title", TITLE_QUERY),
    ("DateOfBirth", DATEOFBIRTH_QUERY),
)

#: every cold request overrides the threshold with this base plus a unique
#: nano-step, so neither the result cache nor a partial cache can ever hit
COLD_THRESHOLD = 0.3
COLD_STEP = 1e-9

#: the 32 cached pairs of the hot set, most popular first.  Rank r asks
#: QUERIES[(r + 1) % 3] — Title, DateOfBirth (the large result), Chocolate,
#: ... — at threshold 0.20 + 0.01 * (r // 3).
HOT_KEYS: tuple[tuple[int, float], ...] = tuple(
    ((rank + 1) % 3, round(0.20 + 0.01 * (rank // 3), 2)) for rank in range(32)
)
ZIPF_EXPONENT = 1.1
ZIPF_WEIGHTS = tuple(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(HOT_KEYS)))

#: document id prefixes of documents the benchmark writes after set-up
INGEST_PREFIX = "ing-"
WRITER_PREFIX = "mix-"
CYCLE_PREFIX = "cyc-"

#: writer of ``mixed_rw``: a write falls due each time the reader has
#: completed this many reads.  The schedule follows the reader and not the
#: wall clock because a fixed rate makes the share of reads that find their
#: answer invalidated depend on how fast the machine is that minute: on the
#: calibration box unchanged code then moved the reader's median by 20 %.
#: The writer is therefore open-loop towards the write path only; see
#: ``paced_write_loop``.
READS_PER_WRITE = 4
#: how many writer documents stay live (an add is removed this many adds later)
WRITER_LAG = 8

#: every Nth durable write is followed to the replica
VISIBILITY_STRIDE = 50
VISIBILITY_TIMEOUT = 10.0


#: documents in the service after set-up, on every workload (at ``--scale 1``)
BASE_ARTICLES = 128
#: untimed load before the timed section of every workload
WARMUP_SECONDS = 1.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Calibrated sizes of one workload (at ``--scale 1``)."""

    name: str
    why: str
    raw_load: bool  # set-up ingests raw text (durable add) instead of splicing
    pool_articles: int  # distinct texts the timed section may write
    readers: int
    verify_stride: int  # every Nth answer is compared tuple for tuple


SPECS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "cold_extract",
            "every request misses every cache, so koko stages and index lookups own the time and rpc/cache changes must not show",
            raw_load=False, pool_articles=40, readers=1,
            verify_stride=1,
        ),
        WorkloadSpec(
            "hot_serving",
            "Zipf over 32 cached pairs (>=95% result-cache hits), so rpc framing, admission and service.cache own the time and koko is idle",
            raw_load=False, pool_articles=40, readers=2,
            verify_stride=32,
        ),
        WorkloadSpec(
            "ingest_durable",
            "write-only durable raw-text ingest with a TCP replica following: nlp annotate, WAL fsync, index splice, ship/apply, checkpoints",
            raw_load=True, pool_articles=400, readers=0,
            verify_stride=1,
        ),
        WorkloadSpec(
            "mixed_rw",
            "hot-set reads beside a writer paced at one write per 4 reads, both counted: each write bumps a shard generation, so partial caches, delta tails and locks matter",
            raw_load=False, pool_articles=200, readers=1,
            verify_stride=8,
        ),
    )
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
#: SHA-256 of the default-seed base corpus at scale 1.  A mismatch means the
#: generator changed and old ledger entries no longer describe the same inputs.
DEFAULT_SEED = 1
FROZEN_CORPUS_SHA256 = "d09b74872623220b6a6c17a31f9f48bd49bef3fc620dbdb40f5795b6e1816709"


#: smallest corpus ``--scale`` can shrink to (every stratum still gets a document)
MIN_ARTICLES = 24


def scaled(count: int, scale: float) -> int:
    """*count* shrunk by ``--scale``, never below ``MIN_ARTICLES``."""
    return max(MIN_ARTICLES, int(round(count * scale)))


#: share of each article stratum in every generated corpus.  The generator
#: draws an article's family and optional sentences at random, so two seeds
#: of equal size differ by +-10 % in how many tuples the queries extract;
#: filling fixed quotas from a larger seeded pool keeps the seed in charge
#: of the content (names, dates, places) and out of the amount of work.
#: A stratum is the article family plus, for biographies, whether the text
#: has the "had been called" (Title) and "was married to" (a second "born"
#: clause) sentences.
STRATA_SHARES: tuple[tuple[str, float], ...] = (
    ("biography+called+married", 0.084),
    ("biography+called", 0.056),
    ("biography+married", 0.336),
    ("biography", 0.224),
    ("chocolate", 0.02),
    ("food", 0.08),
    ("place", 0.20),
)


def stratum_of(kind: str, text: str) -> str:
    if kind != "biography":
        return kind
    called = "+called" if " had been called " in text else ""
    married = "+married" if " was married to " in text else ""
    return f"biography{called}{married}"


def strata_quotas(articles: int) -> dict[str, int]:
    """Largest-remainder split of *articles* over ``STRATA_SHARES``, at least 1 each."""
    counts = largest_remainder([share for _, share in STRATA_SHARES], articles)
    return {name: count for (name, _), count in zip(STRATA_SHARES, counts)}


#: pool sizes tried, as multiples of the corpus wanted.  The first must do for
#: nearly every seed, because generating the pool is part of ``setup_s`` and a
#: seed that needs the second pays double: 3 fell short for one seed in sixty
#: (two chocolate articles wanted, one found), 4 for none.
POOL_FACTORS = (4, 8, 16, 32)


def generate_stratified_corpus(articles: int, seed: int) -> Corpus:
    """*articles* documents with fixed strata quotas, drawn from *seed*.

    Generates a pool ``POOL_FACTORS[0]`` times larger with
    ``generate_wikipedia_corpus(WikipediaConfig(articles=..., seed=seed))``
    and keeps, in generation order, the first documents of each stratum up
    to its quota; the pool grows until every quota can be met.
    """
    quotas = strata_quotas(articles)
    for factor in POOL_FACTORS:
        pool = generate_wikipedia_corpus(WikipediaConfig(articles=factor * articles, seed=seed))
        kinds = pool.gold["article_kind"]
        left = dict(quotas)
        picked = []
        for document in pool.documents:
            stratum = stratum_of(next(iter(kinds[document.doc_id])), document.text)
            if left.get(stratum, 0) > 0:
                left[stratum] -= 1
                picked.append(document)
        if not any(left.values()):
            gold = {"article_kind": {document.doc_id: kinds[document.doc_id] for document in picked}}
            return Corpus(name=pool.name, documents=picked, gold=gold)
    raise RuntimeError(f"the corpus generator no longer yields every stratum: {left}")


def generate_base_corpus(spec: WorkloadSpec, seed: int, scale: float) -> Corpus:
    """The documents a workload's service holds when the timed section starts."""
    return generate_stratified_corpus(scaled(BASE_ARTICLES, scale), seed)


def generate_pool_texts(spec: WorkloadSpec, seed: int, scale: float) -> list[str]:
    """Raw texts the timed section writes (a different seed than the base)."""
    corpus = generate_stratified_corpus(scaled(spec.pool_articles, scale), seed + 7919)
    return [document.text for document in corpus.documents]


def corpus_sha256(corpus: Corpus) -> str:
    """Digest of every document id and text, in corpus order."""
    digest = hashlib.sha256()
    for document in corpus.documents:
        digest.update(document.doc_id.encode("utf-8"))
        digest.update(b"\0")
        digest.update(document.text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def text_bytes(texts) -> int:
    """UTF-8 bytes of an iterable of texts."""
    return sum(len(text.encode("utf-8")) for text in texts)


# ----------------------------------------------------------------------
# verification oracle
# ----------------------------------------------------------------------
Row = tuple  # (doc_id, sid, values)


def rows_of(result, skip_prefixes: tuple[str, ...] = (), only_ids=None) -> list[Row]:
    """A result's tuples as comparable rows in sid-stable order.

    *skip_prefixes* drops documents written by the benchmark's own writer
    and *only_ids* keeps a sample of documents: an extraction tuple depends
    on its own document alone, so the rows of the remaining documents must
    equal what an engine over just those documents returns.
    """
    rows = [
        (t.doc_id, t.sid, t.values)
        for t in result
        if not (skip_prefixes and t.doc_id.startswith(skip_prefixes))
        and (only_ids is None or t.doc_id in only_ids)
    ]
    rows.sort(key=lambda row: row[1])
    return rows


class Oracle:
    """A fresh unsharded ``KokoEngine`` over independently annotated text.

    Takes ``(doc_id, text, first_sid)`` triples — the benchmark's own record
    of what is live, re-annotated here — so it shares nothing with the
    service under test except the sentence numbering.
    """

    def __init__(self, documents: list[tuple[str, str, int]]) -> None:
        pipeline = Pipeline()
        corpus = Corpus(name="oracle")
        for doc_id, text, first_sid in sorted(documents, key=lambda d: d[2]):
            corpus.documents.append(pipeline.annotate(text, doc_id=doc_id, first_sid=first_sid))
        self.doc_ids = {doc_id for doc_id, _, _ in documents}
        self.engine = KokoEngine(corpus)
        self._cache: dict[tuple[int, float | None], list[Row]] = {}

    def rows(self, query_index: int, threshold: float | None) -> list[Row]:
        key = (query_index, threshold)
        if key not in self._cache:
            result = self.engine.execute(QUERIES[query_index][1], threshold_override=threshold)
            self._cache[key] = rows_of(result)
        return self._cache[key]


def first_sids(service) -> dict[str, int]:
    """``doc_id -> first sentence id`` of every live document of *service*."""
    return {
        document.doc_id: document.sentences[0].sid
        for corpus in service.corpora
        for document in corpus.documents
        if document.sentences
    }


# ----------------------------------------------------------------------
# per-client logs and thread plumbing
# ----------------------------------------------------------------------
@dataclass
class ClientLog:
    """What one load-generator thread saw."""

    name: str
    latency: list[float] = field(default_factory=list)  # seconds, completed ops
    traced: list[bool] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)  # open loop only
    written: list[tuple[str, int]] = field(default_factory=list)  # (doc_id, pool index)
    removed: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    first_start: float = 0.0
    last_done: float = 0.0
    tuples: int = 0
    evaluated: int = 0
    candidates: int = 0
    text_bytes: int = 0
    token: object | None = None  # read-your-writes token of the last acknowledged write

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def completed(self, started: float, finished: float, latency: float, recorder) -> None:
        """Book one answered request (*latency* differs from the round trip in an open loop)."""
        if not self.latency:
            self.first_start = started
        self.last_done = finished
        self.latency.append(latency)
        self.traced.append(recorder.last_call_traced() if recorder is not None else False)


#: a client that fails this many requests in a row stops instead of spinning
MAX_CONSECUTIVE_FAILURES = 50


def run_threads(targets: list[tuple[str, object]], join_timeout: float) -> None:
    """Run ``(name, callable)`` pairs on named threads; re-raise their errors.

    Threads are non-daemon and always joined: a load generator that
    outlives its section would distort the next one and leak past the run.
    """
    errors: list[BaseException] = []

    def guarded(fn):
        def body():
            try:
                fn()
            except BaseException as exc:  # surfaced to the caller below
                errors.append(exc)

        return body

    threads = [threading.Thread(target=guarded(fn), name=name) for name, fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=join_timeout)
    alive = [thread.name for thread in threads if thread.is_alive()]
    if alive:
        raise RuntimeError(f"load generator threads did not finish: {alive}")
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# read plans
# ----------------------------------------------------------------------
def cold_plan(seed: int, client_no: int):
    """``(key, query text, threshold)`` forever: equal thirds, unique thresholds.

    Requests come in seeded shuffles of two of each query, so the mix is
    exact over every six requests but two closed-loop clients cannot fall
    into a fixed phase against each other (a rotation can lock step, and
    which phase it locks into changes the latencies from run to run).
    """
    rng = random.Random(seed * 1013 + client_no)
    block = [index for index in range(len(QUERIES)) for _ in range(2)]
    for n in itertools.count():
        if n % len(block) == 0:
            rng.shuffle(block)
        key = block[n % len(block)]
        threshold = COLD_THRESHOLD + (client_no * 10_000_000 + n) * COLD_STEP
        yield key, QUERIES[key][1], threshold


def largest_remainder(shares, total: int) -> list[int]:
    """*total* split in proportion to *shares*, at least 1 each, summing exactly."""
    scale = total / sum(shares)
    exact = [max(1.0, share * scale) for share in shares]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in itertools.cycle(by_remainder):
        if sum(counts) >= total:
            break
        counts[i] += 1
    return counts


#: requests per shuffle of the hot stream, and how many of them ask each rank
HOT_BLOCK = 256
HOT_BLOCK_COUNTS = largest_remainder(ZIPF_WEIGHTS, HOT_BLOCK)


def hot_plan(seed: int, client_no: int):
    """``(key, query text, threshold)`` forever: Zipf(1.1) over ``HOT_KEYS``.

    Requests come in seeded shuffles of a block that holds every rank in
    its Zipf share, so the seed decides the order of the requests and not
    how many of them ask for the large answers: independent draws made the
    expensive third of ``mixed_rw``'s thousand reads vary by several
    percent from seed to seed, and the throughput with it.
    """
    rng = random.Random(seed * 1009 + client_no)
    block = [rank for rank, count in enumerate(HOT_BLOCK_COUNTS) for _ in range(count)]
    while True:
        rng.shuffle(block)
        for key in block:
            query_index, threshold = HOT_KEYS[key]
            yield key, QUERIES[query_index][1], threshold


def read_loop(client, plan, stop_at, log, recorder, expected_rows, exact, stride, pace=None):
    """Closed loop: the next query is sent when the previous answer arrived.

    Every answer's tuple count is checked (equal to the oracle's for a
    static corpus, at least the base corpus's while a writer runs) and every
    *stride*-th answer is compared tuple for tuple — between requests,
    outside the timed round trip, and without keeping answers alive (a
    growing heap of kept results slows the collector and so the program).
    With *pace* (the ``mixed_rw`` writer's schedule) every
    ``READS_PER_WRITE``-th answer makes one write due.
    """
    consecutive = 0
    for n in itertools.count():
        started = _now()
        if started >= stop_at or consecutive >= MAX_CONSECUTIVE_FAILURES:
            break
        key, text, threshold = next(plan)
        log.attempted += 1
        try:
            result = client.query(text, threshold_override=threshold)
        except Exception as exc:  # a failed request is counted, not fatal
            consecutive += 1
            log.fail(f"query raised {exc!r}")
            continue
        finished = _now()
        consecutive = 0
        log.completed(started, finished, finished - started, recorder)
        if pace is not None:
            pace.answered(finished)
        count = len(result.tuples)
        log.tuples += count
        log.evaluated += result.evaluated_sentences
        log.candidates += result.candidate_sentences
        wanted = expected_rows[key]
        if (count != len(wanted)) if exact else (count < len(wanted)):
            log.fail(f"key {key}: {count} tuples, oracle has {len(wanted)}")
        elif n % stride == 0 and rows_of(result, skip_prefixes=(WRITER_PREFIX,)) != wanted:
            log.fail(f"key {key}: answer differs from the oracle")


# ----------------------------------------------------------------------
# write loops
# ----------------------------------------------------------------------
def ingest_loop(client, texts, next_index, stop_at, log, recorder, visibility):
    """Closed loop of durable single-document adds of raw text.

    *next_index* is a one-element list shared between warm-up and the timed
    section so document ids never repeat.  Every ``VISIBILITY_STRIDE``-th
    acknowledged write is handed to the visibility sampler.
    """
    consecutive = 0
    while consecutive < MAX_CONSECUTIVE_FAILURES:
        started = _now()
        if started >= stop_at:
            break
        index = next_index[0]
        next_index[0] += 1
        pool_index = index % len(texts)
        doc_id = f"{INGEST_PREFIX}{index:06d}"
        log.attempted += 1
        try:
            ack = client.add_document(texts[pool_index], doc_id=doc_id)
        except Exception as exc:
            consecutive += 1
            log.fail(f"add_document raised {exc!r}")
            continue
        finished = _now()
        consecutive = 0
        log.completed(started, finished, finished - started, recorder)
        log.written.append((doc_id, pool_index))
        log.text_bytes += len(texts[pool_index].encode("utf-8"))
        log.token = ack.get("token")
        if not ack.get("durable") or ack.get("doc_id") != doc_id:
            log.fail(f"{doc_id}: bad ack {ack!r}")
        elif visibility is not None and index % VISIBILITY_STRIDE == 0:
            visibility.put((ack["token"], finished))


def visibility_loop(replica, inbox: queue.Queue, visible: list[float], log: ClientLog) -> None:
    """Time primary ack -> ``replica.caught_up_to(token)`` for sampled writes.

    Runs beside the writer so the writer never waits for the replica; it
    polls at 0.5 ms, far below the shipper's own poll interval.
    """
    while True:
        item = inbox.get()
        if item is None:
            return
        token, acked = item
        give_up = acked + VISIBILITY_TIMEOUT
        while not replica.caught_up_to(token):
            if _now() > give_up:
                log.attempted += 1
                log.fail(f"replica never reached {token}")
                break
            time.sleep(0.0005)
        else:
            log.attempted += 1
            visible.append(_now() - acked)


class WriterSequence:
    """The ``mixed_rw`` writer's operations: add k, remove k - WRITER_LAG, ...

    After the first ``WRITER_LAG`` adds (consumed by warm-up) adds and
    removes alternate strictly, so the corpus size stays level.
    """

    def __init__(self) -> None:
        self.adds = 0
        self._pending_remove: int | None = None

    def next(self) -> tuple[str, int]:
        if self._pending_remove is not None:
            number, self._pending_remove = self._pending_remove, None
            return "remove", number
        number = self.adds
        self.adds += 1
        if number >= WRITER_LAG:
            self._pending_remove = number - WRITER_LAG
        return "add", number


class WritePace:
    """The ``mixed_rw`` writer's schedule: one write due per ``READS_PER_WRITE`` answers.

    The count of answers runs on from one section to the next, so the
    read : write mix is exact over the whole run however it is cut up.
    """

    def __init__(self) -> None:
        self.answers = 0
        self.due: queue.Queue = queue.Queue()

    def answered(self, finished: float) -> None:
        self.answers += 1
        if self.answers % READS_PER_WRITE == 0:
            self.due.put(finished)

    def reader_stopped(self) -> None:
        self.due.put(None)


def paced_write_loop(client, texts, sequence, due: queue.Queue, log, recorder):
    """A write is sent when it falls due, and timed from that moment.

    *due* delivers the moment each write fell due (the reader's clock
    reading after every ``READS_PER_WRITE``-th answer) and ``None`` when the
    reader has stopped.  A write falls due whether or not the previous one
    has finished, and each is timed from when it was due
    (``open_loop_times``), so a stall is charged to the operations it
    delayed; how late the generator itself ran is reported beside the
    latencies.  The schedule is open towards the write path only: it
    follows the reader, so a slower read path is offered fewer writes a
    second (at the same four reads to one write).
    """
    for due_at in iter(due.get, None):
        kind, number = sequence.next()
        doc_id = f"{WRITER_PREFIX}{number:06d}"
        pool_index = number % len(texts)
        log.attempted += 1
        sent = _now()
        try:
            if kind == "add":
                ack = client.add_document(texts[pool_index], doc_id=doc_id)
            else:
                ack = client.remove_document(doc_id)
        except Exception as exc:
            log.fail(f"{kind} {doc_id} raised {exc!r}")
            continue
        done = _now()
        log.token = ack.get("token")
        latency, late = open_loop_times(due_at, sent, done)
        log.completed(sent, done, latency, recorder)
        log.lateness.append(late)
        if kind == "add":
            log.written.append((doc_id, pool_index))
            log.text_bytes += len(texts[pool_index].encode("utf-8"))
        else:
            log.removed.append(doc_id)


# ----------------------------------------------------------------------
# driving one section (warm-up or timed) of a workload
# ----------------------------------------------------------------------
@dataclass
class DriveState:
    """What persists from warm-up through every section of one run.

    The RPC connections too: a closed-loop client keeps its connection for
    as long as it serves, however often the run pauses it.
    """

    spec: WorkloadSpec
    pool_texts: list[str]
    recorder: object | None
    expected_rows: dict[int, list]
    read_plans: list = field(default_factory=list)
    next_ingest: list[int] = field(default_factory=lambda: [0])
    writer_sequence: WriterSequence = field(default_factory=WriterSequence)
    write_pace: WritePace = field(default_factory=WritePace)
    clients: dict[str, RpcClient] = field(default_factory=dict)

    def client(self, serving, name: str) -> RpcClient:
        """The connection of load generator *name*, opened on first use."""
        if name not in self.clients:
            self.clients[name] = RpcClient(*serving.rpc_address, client_id=name)
        return self.clients[name]

    def close(self) -> None:
        while self.clients:
            self.clients.popitem()[1].close()


@dataclass
class Section:
    """Everything one section's load generators logged."""

    readers: list[ClientLog] = field(default_factory=list)
    writers: list[ClientLog] = field(default_factory=list)
    sampler: ClientLog | None = None
    visible: list[float] = field(default_factory=list)
    #: end of the pause after this section, when the stack was still working
    #: through what the section left behind (run.measure sets it)
    clock_until: float | None = None
    #: nominal / measured reference time around this section (see calibrate.py)
    speed_factor: float = 1.0

    @property
    def primary(self) -> list[ClientLog]:
        """The clients whose operations ``ops_per_s`` and ``op_*`` describe: all of them."""
        return self.readers + self.writers

    def logs(self) -> list[ClientLog]:
        extra = [self.sampler] if self.sampler is not None else []
        return self.primary + extra

    def token(self):
        """Token of this section's last acknowledged write; None when it wrote nothing."""
        return next((log.token for log in self.logs() if log.token is not None), None)

    def elapsed(self) -> float:
        """First request sent to last answer received — or to ``clock_until``.

        The clock runs on through the pause that follows while a background
        checkpoint or the replica is busy with what this section wrote:
        work that a change moves off the request path is still paid for.
        """
        active = [log for log in self.primary if log.latency]
        if not active:
            return 0.0
        end = max(log.last_done for log in active)
        if self.clock_until is not None:
            end = max(end, self.clock_until)
        return end - min(log.first_start for log in active)


def make_state(spec, seed, pool_texts, recorder, expected_rows) -> DriveState:
    state = DriveState(spec, pool_texts, recorder, expected_rows)
    if spec.name == "cold_extract":
        state.read_plans = [cold_plan(seed, n) for n in range(spec.readers)]
    else:
        state.read_plans = [hot_plan(seed, n) for n in range(spec.readers)]
    return state


def drive(serving, seconds: float, state: DriveState) -> Section:
    """Run the workload's load generators against *serving* for *seconds*."""
    spec, recorder = state.spec, state.recorder
    join_timeout = seconds + 60.0
    readers = [ClientLog(f"ledger-reader-{n}") for n in range(spec.readers)]
    writer = ClientLog("ledger-writer")
    clients = {log.name: state.client(serving, log.name) for log in readers}
    if spec.name in ("ingest_durable", "mixed_rw"):
        clients[writer.name] = state.client(serving, writer.name)
    mixed = spec.name == "mixed_rw"  # a running writer adds tuples of its own
    pace = state.write_pace if mixed else None
    stop_at = _now() + seconds

    def read(log, plan):
        try:
            read_loop(
                clients[log.name], plan, stop_at, log, recorder,
                state.expected_rows, not mixed, spec.verify_stride, pace,
            )
        finally:
            if pace is not None:
                pace.reader_stopped()  # always lets the writer thread end

    targets = [(log.name, lambda log=log, plan=plan: read(log, plan)) for log, plan in zip(readers, state.read_plans)]
    if spec.name == "ingest_durable":
        sampler = ClientLog("ledger-visibility")
        inbox: queue.Queue = queue.Queue()
        visible: list[float] = []

        def write_then_release():
            try:
                ingest_loop(
                    clients[writer.name], state.pool_texts, state.next_ingest,
                    stop_at, writer, recorder, inbox,
                )
            finally:
                inbox.put(None)  # always lets the sampler thread end

        run_threads(
            [
                (writer.name, write_then_release),
                (sampler.name, lambda: visibility_loop(serving.replica, inbox, visible, sampler)),
            ],
            join_timeout,
        )
        return Section(writers=[writer], sampler=sampler, visible=visible)
    if mixed:
        targets.append(
            (
                writer.name,
                lambda: paced_write_loop(
                    clients[writer.name], state.pool_texts, state.writer_sequence,
                    pace.due, writer, recorder,
                ),
            )
        )
        run_threads(targets, join_timeout)
        return Section(readers=readers, writers=[writer])
    run_threads(targets, join_timeout)
    return Section(readers=readers)


def prefill_hot_set(serving) -> None:
    """Ask every hot pair once so the timed section starts with a full cache."""
    with RpcClient(*serving.rpc_address, client_id="ledger-prefill") as client:
        for query_index, threshold in HOT_KEYS:
            client.query(QUERIES[query_index][1], threshold_override=threshold)


# ----------------------------------------------------------------------
# verification against the oracle
# ----------------------------------------------------------------------
class Checks:
    """Counts verification comparisons next to the load generators' own."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(why)
        return ok


def expected_for(spec: WorkloadSpec, oracle: Oracle) -> dict[int, list[Row]]:
    """Oracle rows for every key the workload's readers ask."""
    if spec.name == "cold_extract":
        keys = {index: (index, COLD_THRESHOLD) for index in range(len(QUERIES))}
    elif spec.readers:
        keys = dict(enumerate(HOT_KEYS))
    else:
        keys = {}
    return {key: oracle.rows(query_index, threshold) for key, (query_index, threshold) in keys.items()}


def check_cold_thresholds(oracle: Oracle, checks: Checks, span: int = 100_000_000) -> None:
    """The unique nano-steps must not change any answer.

    Cold answers are compared with the oracle at the base threshold, so the
    oracle must agree with itself across the whole range the steps can reach.
    """
    top = COLD_THRESHOLD + span * COLD_STEP
    for index, (name, _) in enumerate(QUERIES):
        checks.check(
            oracle.rows(index, COLD_THRESHOLD) == oracle.rows(index, top),
            f"{name}: oracle answer changes between thresholds {COLD_THRESHOLD} and {top}",
        )


#: the final oracle covers the base corpus and at most this many written documents
FINAL_SAMPLE_WRITTEN = 100


def verify_final(serving, base_texts: dict[str, str], live_written: dict[str, str], token, checks: Checks) -> None:
    """Primary (through RPC) and replica (directly) against a fresh oracle.

    *token* is the last acknowledged write's; the replica must reach it.
    (Not ``primary.wal_position()``: a checkpoint that rotates the log after
    the last write moves that to the start of a segment no record is in.)

    The benchmark's own bookkeeping says which documents must be live; the
    primary and the replica must list exactly those.  The oracle then
    re-annotates the base corpus plus an evenly spaced sample of the written
    documents and answers all three queries; the services' answers,
    restricted to the sampled documents, must match it tuple for tuple.
    """
    primary, replica = serving.primary, serving.replica
    checks.check(
        replica.wait_caught_up(token, timeout=30.0),
        "replica did not catch up with the primary at the end of the run",
    )
    wanted = set(base_texts) | set(live_written)
    checks.check(set(primary.document_ids()) == wanted, "primary's live documents differ from the writes acknowledged")
    checks.check(set(replica.document_ids()) == wanted, "replica's live documents differ from the primary's")
    written_ids = sorted(live_written)
    step = max(1, len(written_ids) // FINAL_SAMPLE_WRITTEN)
    sample = dict(base_texts)
    sample.update({doc_id: live_written[doc_id] for doc_id in written_ids[::step]})
    sids = first_sids(primary)
    missing = [doc_id for doc_id in sample if doc_id not in sids]
    if not checks.check(not missing, f"documents missing from the primary: {missing[:5]}"):
        return
    oracle = Oracle([(doc_id, text, sids[doc_id]) for doc_id, text in sample.items()])
    with RpcClient(*serving.rpc_address, client_id="ledger-verify") as client:
        for index, (name, text) in enumerate(QUERIES):
            want = oracle.rows(index, None)
            got = rows_of(client.query(text), only_ids=oracle.doc_ids)
            checks.check(got == want, f"primary answer to {name} differs from the oracle")
            got = rows_of(replica.query(text), only_ids=oracle.doc_ids)
            checks.check(got == want, f"replica answer to {name} differs from the oracle")
