"""Spans recorded from outside the program, and self time per layer.

The ledger times layers without touching ``src/``: :class:`Recorder`
replaces public callables at class or module level with thin wrappers that
note *name, start, end, parent, op id*, keeps the spans in memory, and can
write them out when the run ends.  Layers are the repository's packages
(``rpc``, ``service``, ``koko``, ``indexing``, ``nlp``, ``persistence``,
``replication``).

**Linking.**  Spans nest through a per-thread stack.  Three links cross
threads: a request's server-side span finds its client span through the
``client_id`` the RPC server forwards to the service; work handed to a
thread pool (the per-shard fan-out) inherits the submitting thread's span
through a wrapped ``ThreadPoolExecutor.submit``; a replica's
``apply_replicated`` joins the write that caused it through the record's
``doc_id``.  All spans of one request share its ``op`` id.

**Self time.**  A layer's figure is the part of a request's wall-clock its
spans own: a span's duration minus what its child spans cover.  When
children run concurrently (four shard threads under one query) an instant
is split equally among the spans that are active with no active child, so
the layers of one request always sum to its round-trip time.

**Tolerance.**  Every wrap point is resolved by name at install time.  One
that a refactor has moved is skipped with a warning and its layer metric
is reported as missing; nothing else fails, and end-to-end numbers never
depend on this module.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

_now = time.perf_counter
_INHERITED = object()  # marks a wrapped attribute the owner did not define itself


class Span:
    """One timed interval: where it ran, what caused it, which request."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "root", "op", "thread")

    def __init__(self, span_id, name, layer, parent, op, start):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else span_id
        self.op = op
        self.thread = threading.get_ident()
        self.start = start
        self.end = start

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "op": self.op,
            "parent": self.parent,
            "root": self.root,
            "thread": self.thread,
            "start_ms": round((self.start - origin) * 1000.0, 4),
            "end_ms": round((self.end - origin) * 1000.0, 4),
        }


@dataclass(frozen=True)
class WrapPoint:
    """One public callable the recorder wraps, and the layer it stands for.

    ``kind`` decides when a call becomes a span: ``client`` opens a request
    (a new op id) whenever recording is on; ``entry`` joins the calling
    thread's span or the client request named by its ``client_id`` keyword;
    ``apply`` joins the write whose ``doc_id`` the record carries; ``root``
    records whenever recording is on; ``child`` records only inside an
    already-recorded span.  ``doc_arg`` says where a write's document id is
    (``"kw"``: the ``doc_id`` keyword, ``"pos"``: first positional).
    """

    module: str
    owner: str | None  # class name, or None for a module-level function
    attr: str
    layer: str
    kind: str
    doc_arg: str | None = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


#: layer of each stage of ``repro.koko.stages``, by the stage's ``name``
STAGE_LAYERS = {
    "normalize": "koko.normalize",
    "dpli": "koko.dpli",
    "load": "koko.load",
    "extract": "koko.extract",
    "aggregate": "koko.aggregate",
}

WRAP_POINTS: tuple[WrapPoint, ...] = (
    WrapPoint("repro.rpc.client", "RpcClient", "query", "rpc", "client"),
    WrapPoint("repro.rpc.client", "RpcClient", "add_document", "rpc", "client", "kw"),
    WrapPoint("repro.rpc.client", "RpcClient", "remove_document", "rpc", "client", "pos"),
    WrapPoint("repro.service.service", "KokoService", "query", "service.query", "entry"),
    WrapPoint("repro.service.service", "KokoService", "add_document", "service.ingest", "entry"),
    WrapPoint("repro.service.service", "KokoService", "remove_document", "service.ingest", "entry"),
    WrapPoint("repro.service.service", "KokoService", "apply_replicated", "replication.apply", "apply"),
    WrapPoint("repro.service.service", "KokoService", "checkpoint", "service.checkpoint", "root"),
    WrapPoint("repro.service.service", "KokoService", "open", "service.open", "root"),
    WrapPoint("repro.indexing.decompose", None, "lookup_decomposed_block", "indexing.lookup", "child"),
    WrapPoint("repro.nlp.pipeline", "Pipeline", "annotate", "nlp.annotate", "child"),
    WrapPoint("repro.indexing.koko_index", "KokoIndexSet", "add_document", "indexing.splice", "child"),
    WrapPoint("repro.indexing.koko_index", "KokoIndexSet", "remove_document", "indexing.unsplice", "child"),
    WrapPoint("repro.persistence.wal", "WriteAheadLog", "append", "persistence.wal_append", "child"),
    WrapPoint("repro.persistence.snapshot", None, "write_snapshot", "persistence.snapshot_write", "child"),
    WrapPoint("repro.persistence.recovery", "RecoveryManager", "recover", "persistence.recover", "child"),
)


class Recorder:
    """Installs the wrap points, holds the spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.warnings: list[str] = []
        self.missing_layers: set[str] = set()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._client_ops: dict[str, Span] = {}
        self._doc_ops: dict[str, int] = {}
        self._count_lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self._mode = "off"
        self._block_origin = 0.0
        self._block_seconds = 1.0

    # ------------------------------------------------------------------
    # recording state
    # ------------------------------------------------------------------
    def record(self, mode: str, block_seconds: float = 1.0) -> None:
        """Switch recording ``"off"``, ``"on"``, or on in alternate ``"blocks"``.

        In blocks mode requests that start in even blocks of
        *block_seconds* are traced and those in odd blocks are not, so one
        timed section yields both populations under the same state and
        noise — their latency difference is the tracing overhead.
        """
        if mode not in ("off", "on", "blocks"):
            raise ValueError(f"unknown recording mode {mode!r}")
        self._block_origin = _now()
        self._block_seconds = block_seconds
        self._mode = mode

    def is_on(self) -> bool:
        """Whether a request that starts now is traced."""
        if self._mode == "blocks":
            return int((_now() - self._block_origin) / self._block_seconds) % 2 == 0
        return self._mode == "on"

    def last_call_traced(self) -> bool:
        """Whether this thread's latest client call was recorded."""
        return getattr(self._tls, "last_traced", False)

    def add_count(self, name: str, amount: float) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name: str, layer: str, parent: Span | None, op: int | None = None) -> Span:
        span_id = next(self._ids)
        if op is None:
            op = parent.op if parent is not None else span_id
        return Span(span_id, name, layer, parent, op, _now())

    def _run(self, span: Span, stack: list, fn, args, kwargs):
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = _now()
            stack.pop()
            self.spans.append(span)

    # ------------------------------------------------------------------
    # wrappers, one per WrapPoint.kind
    # ------------------------------------------------------------------
    def _wrap(self, point: WrapPoint, fn):
        name, layer, rec = point.label, point.layer, self

        def client(*args, **kwargs):
            tls = rec._tls
            if not rec.is_on():
                tls.last_traced = False
                return fn(*args, **kwargs)
            tls.last_traced = True
            span = rec._open(name, layer, None)
            client_id = getattr(args[0], "client_id", None)
            rec._client_ops[client_id] = span
            doc_id = None
            if point.doc_arg == "kw":
                doc_id = kwargs.get("doc_id")
            elif point.doc_arg == "pos":
                doc_id = args[1] if len(args) > 1 else kwargs.get("doc_id")
            if doc_id is not None:
                rec._doc_ops[doc_id] = span.op
            try:
                return rec._run(span, rec._stack(), fn, args, kwargs)
            finally:
                rec._client_ops.pop(client_id, None)

        def entry(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else rec._client_ops.get(kwargs.get("client_id"))
            if parent is None:
                return fn(*args, **kwargs)
            return rec._run(rec._open(name, layer, parent), stack, fn, args, kwargs)

        def apply(*args, **kwargs):
            record = args[1] if len(args) > 1 else kwargs.get("record")
            op = rec._doc_ops.pop(getattr(record, "doc_id", None), None)
            if op is None:
                return fn(*args, **kwargs)
            return rec._run(rec._open(name, layer, None, op), rec._stack(), fn, args, kwargs)

        def root(*args, **kwargs):
            stack = rec._stack()
            if not stack and not rec.is_on():
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            return rec._run(rec._open(name, layer, parent), stack, fn, args, kwargs)

        def child(*args, **kwargs):
            stack = getattr(rec._tls, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            return rec._run(rec._open(name, layer, stack[-1]), stack, fn, args, kwargs)

        wrapper = {"client": client, "entry": entry, "apply": apply, "root": root, "child": child}[point.kind]
        wrapper.__name__ = getattr(fn, "__name__", point.attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _replace(self, owner, attr: str, replacement) -> None:
        # an inherited attribute is shadowed on *owner* only, and the shadow
        # is deleted again on uninstall
        self._installed.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def _miss(self, layer: str, what: str, exc: BaseException) -> None:
        self.missing_layers.add(layer)
        self.warnings.append(f"wrap point {what} not found ({exc!r}); layer {layer} is missing")

    def _install_point(self, point: WrapPoint) -> None:
        module = importlib.import_module(point.module)
        if point.owner is not None:
            owner = getattr(module, point.owner)
            raw = inspect.getattr_static(owner, point.attr)
            if isinstance(raw, classmethod):
                self._replace(owner, point.attr, classmethod(self._wrap(point, raw.__func__)))
            elif callable(raw):
                self._replace(owner, point.attr, self._wrap(point, raw))
            else:
                raise TypeError(f"{point.label} is not callable")
            return
        original = getattr(module, point.attr)
        self._replace_function(original, self._wrap(point, original))

    def _replace_function(self, original, wrapper) -> None:
        """Swap a module-level function in every ``repro`` module holding it.

        ``from x import f`` copies the binding, so replacing it only where
        it is defined would leave callers with the unwrapped function.
        """
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._replace(holder, key, wrapper)

    def _install_stages(self) -> None:
        """Wrap ``run`` of every pipeline stage class, keyed by stage name."""
        found: set[str] = set()
        try:
            module = importlib.import_module("repro.koko.stages")
            base = module.Stage
            for candidate in list(vars(module).values()):
                if not (isinstance(candidate, type) and issubclass(candidate, base)):
                    continue
                layer = STAGE_LAYERS.get(getattr(candidate, "name", None))
                if layer is None or "run" not in candidate.__dict__:
                    continue
                point = WrapPoint(module.__name__, candidate.__name__, "run", layer, "child")
                self._replace(candidate, "run", self._wrap(point, candidate.__dict__["run"]))
                found.add(layer)
        except Exception as exc:  # tolerate any shape a refactor leaves
            self.warnings.append(f"stage classes not found ({exc!r})")
        for layer in STAGE_LAYERS.values():
            if layer not in found:
                self._miss(layer, f"Stage.run[{layer}]", LookupError("no such stage"))

    def _install_submit(self) -> None:
        """Carry the submitting thread's span into pool threads."""
        rec = self
        original = ThreadPoolExecutor.__dict__["submit"]

        def submit(executor, fn, /, *args, **kwargs):
            stack = getattr(rec._tls, "stack", None)
            if not stack:
                return original(executor, fn, *args, **kwargs)
            parent = stack[-1]

            def run_under_parent():
                worker_stack = rec._stack()
                worker_stack.append(parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    worker_stack.pop()

            return original(executor, run_under_parent)

        self._replace(ThreadPoolExecutor, "submit", submit)

    def _install_response_bytes(self) -> None:
        """Count encoded response bytes by the type of value they carry."""
        rec = self
        try:
            module = importlib.import_module("repro.rpc.wire")
            original = module.encode_message
        except Exception as exc:
            self._miss("rpc.result_bytes", "repro.rpc.wire.encode_message", exc)
            return

        def encode_message(message, *args, **kwargs):
            payload = original(message, *args, **kwargs)
            if rec._mode != "off" and type(message).__name__ == "RpcResponse":
                kind = type(getattr(message, "value", None)).__name__
                rec.add_count(f"rpc.response_bytes.{kind}", len(payload))
                rec.add_count(f"rpc.responses.{kind}", 1)
            return payload

        self._replace_function(original, encode_message)

    def install(self, points: tuple[WrapPoint, ...] | None = None) -> None:
        """Wrap every point that still resolves; warn about the rest."""
        for point in WRAP_POINTS if points is None else points:
            try:
                self._install_point(point)
            except Exception as exc:
                self._miss(point.layer, f"{point.module}:{point.label}", exc)
        self._install_stages()
        self._install_submit()
        self._install_response_bytes()

    def uninstall(self) -> None:
        """Put every original back (reverse order; safe to call twice)."""
        self._mode = "off"
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """One JSON object per line, times in ms from the first span."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.to_dict(origin)) + "\n")


# ----------------------------------------------------------------------
# self-time attribution
# ----------------------------------------------------------------------
def self_time_by_layer(group: list[Span]) -> dict[str, float]:
    """Split one request's wall-clock among the layers of its spans.

    *group* is every span sharing one root.  Sweeping the span boundaries
    in time order, each elementary interval inside the root is owned by the
    spans active in it that have no active child — split equally when
    several threads work at once.  With one thread this is exactly
    "duration minus the part covered by children"; the values always sum to
    the root span's duration.
    """
    root = next(span for span in group if span.parent is None)
    lo, hi = root.start, root.end
    events = []
    for span in sorted(group, key=lambda s: s.id):
        start, end = max(span.start, lo), min(span.end, hi)
        if end < start:
            continue
        events.append((start, 1, span))
        events.append((end, 0, span))
    events.sort(key=lambda event: (event[0], event[1]))
    active: dict[int, Span] = {}
    active_children: dict[int, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    previous = lo
    for moment, opening, span in events:
        if moment > previous and active:
            owners = [s for s in active.values() if not active_children[s.id]]
            share = (moment - previous) / len(owners)
            for owner in owners:
                totals[owner.layer] += share
        previous = max(previous, moment)
        if opening:
            active[span.id] = span
            if span.parent is not None:
                active_children[span.parent] += 1
        else:
            del active[span.id]
            if span.parent is not None:
                active_children[span.parent] -= 1
    return dict(totals)


@dataclass
class RootSummary:
    """All requests that started at one wrap point, added up."""

    count: int = 0
    seconds: float = 0.0
    layers: dict = field(default_factory=lambda: defaultdict(float))

    def per_op_ms(self, layer: str) -> float:
        if not self.count:
            return 0.0
        return 1000.0 * self.layers.get(layer, 0.0) / self.count


def summarise(spans: list[Span]) -> dict[str, RootSummary]:
    """Root span name -> request count, wall-clock and per-layer self time."""
    groups: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        groups[span.root].append(span)
    out: dict[str, RootSummary] = {}
    for group in groups.values():
        root = next((span for span in group if span.parent is None), None)
        if root is None:
            continue  # a child whose root never closed (run was cut short)
        summary = out.setdefault(root.name, RootSummary())
        summary.count += 1
        summary.seconds += root.end - root.start
        for layer, seconds in self_time_by_layer(group).items():
            summary.layers[layer] += seconds
    return out
