"""Machine-speed calibration: the reference work and the speed factor.

The calibration box is a shared 2-vCPU VM whose speed wanders by tens of
percent from one second to the next (the same pure-Python loop was timed at
27 ms and at 47 ms within a minute, and ``cold_extract`` at 27 and at 17
queries per second half an hour apart).  Raw times measured there say more
about the neighbours than about the program, so every measured interval is
bracketed by a timing of a *fixed* piece of reference work, run in the main
thread on each CPU in turn while the load generators are paused.  The
reference time against the nominal time below is the interval's **speed
factor**; time metrics are multiplied by it (rates divided) before they are
reported, which removes the part of the noise that the program and the
reference work share.

The speed changes faster than a timed section lasts, so the section is cut
into quarter-second segments with one round of reference work per CPU
between them, and a segment's factor is read off the median of the rounds
within a second of it (``local_factors``).  Sampled that densely, the
ruler follows the machine: in a 90 s trial that alternated reference rounds
with a fixed in-process query, the medians of 10 s stretches spread by 11 %
as timed, by 6 % against a ruler read every 2 s and by 2 % against one read
every 0.1-0.25 s.

Raw values and every factor stay in the run record (``details`` and
``end_to_end_raw``), and ``machine.reference_ms`` reports the raw reference
time, so the correction is never hidden.

The reference work is Python bytecode, dict and list traffic and a pickle
round trip of small tuples — the same diet as the program — and must never
change: it is the ruler every ledger entry was measured with.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time

#: seconds one round of reference work takes on the calibration box when it
#: is quiet; factors are relative to this, so reported numbers read as "on
#: the quiet calibration box"
NOMINAL_REFERENCE_SECONDS = 0.0065

#: rounds per calibration, shared out over the CPUs: about 0.1 s
ROUNDS = 16

_ROWS = [(f"doc-{i}", i, (("a", "x" * (i % 13)), ("b", str(i)))) for i in range(1500)]


def reference_work() -> int:
    """The fixed work whose duration stands for the machine's speed."""
    total = 0
    table: dict[int, int] = {}
    for i in range(40_000):
        total += (i * i) % 7
        table[i & 255] = total
    rows = pickle.loads(pickle.dumps(_ROWS, protocol=pickle.HIGHEST_PROTOCOL))
    return total + len(table) + len(rows)


def reference_seconds(rounds: int = ROUNDS) -> float:
    """Wall-clock of one round of reference work, averaged over the CPUs.

    The calling thread is pinned to each CPU the process may use in turn,
    runs its share of *rounds* there and keeps the median;
    the result is the mean of those medians.  One virtual CPU of the
    calibration box is often a third slower than the other for seconds at a
    time; the program's threads move between both, so a reference taken on
    whichever CPU the main thread happens to sit on would read the speed of
    that one alone.

    Call it only while nothing else in the process is running: it measures
    the machine, not contention with the program.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # not Linux: time the rounds wherever the thread runs
        return _median_round(rounds)
    share = -(-rounds // len(cpus))  # rounded up
    try:
        medians = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            medians.append(_median_round(share))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(medians)


def _median_round(rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def speed_factor(*reference_times: float) -> float:
    """Nominal ÷ mean measured reference time: < 1 when the machine was slow."""
    return NOMINAL_REFERENCE_SECONDS / statistics.fmean(reference_times)


def local_factors(reference_times: list[float], reach: int) -> list[float]:
    """One speed factor per segment from the references taken between segments.

    ``reference_times[i]`` was measured just before segment *i* and
    ``reference_times[i + 1]`` just after it.  The factor of segment *i* is
    nominal ÷ the median of those two and *reach* more on either side: a
    single round is short enough to be hit by a background checkpoint or a
    scheduling hiccup, the median of its neighbourhood is not.
    """
    factors = []
    for i in range(len(reference_times) - 1):
        near = reference_times[max(0, i - reach) : i + 2 + reach]
        factors.append(NOMINAL_REFERENCE_SECONDS / statistics.median(near))
    return factors


def normalise(value: float, unit: str, factor: float) -> float:
    """A measured *value* as it would read on the quiet calibration box."""
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value
