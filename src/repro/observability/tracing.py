"""Lightweight span-tree tracing for query and ingest paths.

A :class:`Span` is a named, monotonic-clock timing with attributes and
child spans — enough to reconstruct *where the time went* for one
operation: which pipeline stage, which shard, how long the WAL append
waited for its group-commit fsync.  Within a process the span is still
threaded explicitly through the call chain (``ExecutionContext.trace``,
``WalWriter.append(trace=...)``), which keeps the untraced path
completely allocation-free.

*Across* processes, :class:`TraceContext` is the propagation header: a
compact ``(trace_id, span_id, sampled)`` triple carried in
``RpcRequest`` headers and in WAL record metadata, so a server
continues the caller's trace (honouring the caller's sampling decision)
and a replica's apply span joins the trace of the ingest that produced
the WAL record.  Each node records its own *fragment* — a local span
tree plus the ids linking it to its parent fragment — into a
:class:`~repro.observability.tracestore.TraceStore`;
``ClusterTelemetry`` stitches fragments back into one cross-node tree.

:class:`Tracer` decides *whether* to trace: deterministic accumulator
sampling (no randomness, so traced workloads are reproducible) at a
configured ``sample_rate``; ``explain=True`` queries are always traced.

:class:`ExplainedResult` is what ``service.query(..., explain=True)``
returns — the ordinary result plus the finished span tree, with an
EXPLAIN ANALYZE-style text rendering.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "ExplainedResult",
    "Span",
    "TraceContext",
    "Tracer",
    "new_span_id",
    "new_trace_id",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id (32 random bits)."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class TraceContext:
    """The compact cross-process trace propagation header.

    ``trace_id`` names the end-to-end trace; ``span_id`` is the sender's
    span the receiver should parent its own fragment under; ``sampled``
    is the caller's sampling decision, which receivers honour instead of
    sampling locally.  Instances are immutable and pickle-stable, so the
    same object rides ``RpcRequest`` headers and WAL record metadata.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def root(cls, sampled: bool = True) -> "TraceContext":
        """A fresh root context: new trace id, new span id."""
        return cls(trace_id=new_trace_id(), span_id=new_span_id(), sampled=sampled)

    def child(self) -> "TraceContext":
        """Same trace and sampling decision, fresh span id.

        The returned context names a *new* span whose parent is
        ``self.span_id`` — pass it downstream so the next hop parents
        under the new span.
        """
        return TraceContext(
            trace_id=self.trace_id, span_id=new_span_id(), sampled=self.sampled
        )


class Span:
    """One timed node in a trace tree.

    Created running (``start`` taken from :func:`time.perf_counter`);
    :meth:`finish` freezes the duration.  Children may be added from
    multiple threads — the child list is guarded by a small per-span
    lock.
    """

    __slots__ = ("name", "attributes", "children", "_lock", "_start", "_elapsed")

    def __init__(self, name: str, **attributes: object) -> None:
        self.name = name
        self.attributes: dict[str, object] = dict(attributes)
        self.children: list[Span] = []
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self._elapsed: float | None = None

    # ------------------------------------------------------------------
    # building the tree
    # ------------------------------------------------------------------
    def child(self, name: str, **attributes: object) -> "Span":
        """Start and attach a child span (caller must ``finish()`` it)."""
        span = Span(name, **attributes)
        with self._lock:
            self.children.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator["Span"]:
        """Context manager: a child span finished on block exit."""
        child = self.child(name, **attributes)
        try:
            yield child
        finally:
            child.finish()

    def record(self, name: str, seconds: float, **attributes: object) -> "Span":
        """Attach an already-measured child of known duration."""
        span = Span.completed(name, seconds, **attributes)
        with self._lock:
            self.children.append(span)
        return span

    @classmethod
    def completed(cls, name: str, seconds: float, **attributes: object) -> "Span":
        """A standalone already-finished span of known duration.

        The root-span twin of :meth:`record`, for fragments measured
        before the span object exists (the shipper times the batch send,
        then builds one ship span per traced record it carried).
        """
        span = cls(name, **attributes)
        span._start = time.perf_counter() - seconds
        span._elapsed = seconds
        return span

    def annotate(self, **attributes: object) -> None:
        """Merge *attributes* into this span's attribute dict."""
        self.attributes.update(attributes)

    def finish(self) -> None:
        """Freeze the duration (idempotent — first finish wins)."""
        if self._elapsed is None:
            self._elapsed = time.perf_counter() - self._start

    # ------------------------------------------------------------------
    # reading the tree
    # ------------------------------------------------------------------
    @property
    def seconds(self) -> float:
        """Frozen duration, or time-so-far for a running span."""
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self._start

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant named *name*."""
        with self._lock:
            children = list(self.children)
        for child in children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def names(self) -> set[str]:
        """Every span name in this subtree (including this span's)."""
        out = {self.name}
        with self._lock:
            children = list(self.children)
        for child in children:
            out |= child.names()
        return out

    def span_count(self) -> int:
        """Number of spans in this subtree (including this span)."""
        with self._lock:
            children = list(self.children)
        return 1 + sum(child.span_count() for child in children)

    def to_dict(self) -> dict[str, object]:
        """A JSON-safe nested dict of the subtree (ms durations)."""
        with self._lock:
            children = list(self.children)
        node: dict[str, object] = {
            "name": self.name,
            "ms": round(self.seconds * 1000.0, 3),
        }
        if self.attributes:
            node["attrs"] = dict(self.attributes)
        if children:
            node["children"] = [child.to_dict() for child in children]
        return node

    def report(self) -> str:
        """EXPLAIN ANALYZE-style indented rendering of the subtree."""
        lines: list[str] = []
        self._render(lines, prefix="", child_prefix="")
        return "\n".join(lines)

    def _render(self, lines: list[str], prefix: str, child_prefix: str) -> None:
        attrs = ""
        if self.attributes:
            inner = ", ".join(f"{k}={v}" for k, v in self.attributes.items())
            attrs = f"  [{inner}]"
        lines.append(f"{prefix}{self.name}  {self.seconds * 1000.0:.3f} ms{attrs}")
        with self._lock:
            children = list(self.children)
        for index, child in enumerate(children):
            last = index == len(children) - 1
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            child._render(lines, child_prefix + connector, child_prefix + extension)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, ms={self.seconds * 1000.0:.3f})"


class Tracer:
    """Deterministic sampling decisions for always-on tracing.

    ``sample_rate`` in ``[0, 1]``: 0 disables sampling entirely (the
    hot path then allocates no spans at all), 1 traces every operation.
    Fractional rates use an error accumulator rather than a PRNG, so a
    rate of 0.25 traces exactly every 4th operation — reproducible and
    bias-free without touching ``random``.
    """

    def __init__(self, sample_rate: float = 0.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self.sampled_total = 0

    def should_sample(self) -> bool:
        """True when this operation should carry a span tree."""
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            with self._lock:
                self.sampled_total += 1
            return True
        with self._lock:
            self._accumulator += self.sample_rate
            if self._accumulator >= 1.0:
                self._accumulator -= 1.0
                self.sampled_total += 1
                return True
        return False


@dataclass
class ExplainedResult:
    """A query result bundled with its full trace (``explain=True``).

    Iterates and indexes like the underlying result so existing
    tuple-consuming code works unchanged on an explained query.
    """

    result: object
    trace: Span
    kind: str = field(default="query")

    def report(self) -> str:
        """The EXPLAIN ANALYZE-style text rendering of the trace."""
        return self.trace.report()

    def to_dict(self) -> dict[str, object]:
        """The trace as a JSON-safe nested dict."""
        return self.trace.to_dict()

    def __iter__(self):
        return iter(self.result)  # type: ignore[call-overload]

    def __len__(self) -> int:
        return len(self.result)  # type: ignore[arg-type]
