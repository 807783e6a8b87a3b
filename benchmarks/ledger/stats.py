"""Small statistics the ledger reports with: percentiles, open-loop times, counters.

Everything here is a pure function so ``test_ledger.py`` can pin the
arithmetic (nearest-rank percentile, the ten-beyond rule, open-loop
due-time accounting) without starting a service.
"""

from __future__ import annotations

import math

#: a percentile is only reported when at least this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """Raised instead of reporting a percentile the sample cannot support."""


def percentile(values, percent: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """Nearest-rank percentile of *values* (``percent`` in (0, 100]).

    The rank is ``ceil(percent / 100 * n)``; the answer is the value at that
    rank in sorted order, always one of the samples.  Refuses (raises
    :class:`InsufficientSamples`) when fewer than *min_beyond* samples are
    larger in rank — a p95 of 40 samples would be decided by two of them.
    """
    ordered = sorted(values)
    if not ordered:
        raise InsufficientSamples(f"p{percent:g} of an empty sample")
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{percent:g} of {len(ordered)} samples leaves {beyond} beyond it; "
            f"{min_beyond} are required"
        )
    return ordered[rank - 1]


def open_loop_times(due: float, sent: float, done: float) -> tuple[float, float]:
    """``(latency, lateness)`` of one open-loop operation, in seconds.

    An open-loop operation is timed from when it was *due*, not from when
    the generator got round to sending it: a stall that delays later sends
    is charged to the operations it delayed.  ``lateness`` is how far behind
    schedule the generator itself ran.
    """
    return done - due, max(0.0, sent - due)


def counter_value(snapshot: dict, name: str) -> float | None:
    """Read one metric by *name* from a ``MetricsRegistry.snapshot()``.

    Plain counters and gauges are numbers; labelled families are dicts and
    are summed over their children.  ``None`` when the name is not
    registered, so a renamed counter degrades to a missing layer metric.
    """
    value = snapshot.get(name)
    if value is None:
        return None
    if isinstance(value, dict):
        numbers = [v for v in value.values() if isinstance(v, (int, float))]
        return float(sum(numbers))
    return float(value)


def counter_delta(before: dict, after: dict, name: str) -> float | None:
    """Growth of counter *name* between two registry snapshots."""
    end = counter_value(after, name)
    if end is None:
        return None
    return end - (counter_value(before, name) or 0.0)


def ratio(numerator: float | None, denominator: float | None) -> float | None:
    """``numerator / denominator``; 0.0 over an empty base, None when unknown."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0
