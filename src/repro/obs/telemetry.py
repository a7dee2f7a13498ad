"""Structured telemetry: spans, counters, gauges, and the recorder.

The optimizer is a state-space search whose behaviour — states visited,
transitions fired, local-group phases, cost-model evaluations — was
previously invisible except for a handful of aggregate fields on
:class:`~repro.core.search.result.OptimizationResult`.  This module is the
measurement substrate every perf-facing subsystem reports through:

* :class:`Span` — one nested, monotonic-clocked, tagged measurement;
  spans form a tree via ``parent_id`` (per-thread stacks keep nesting
  correct under concurrent use);
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — named, tagged
  registries for event counts (transition applicability, transposition
  hits/misses), level measurements (ledger peak-resident rows), and
  latency distributions (serve request latency percentiles);
* :class:`Recorder` — the thread-safe sink.  Worker processes record
  into a private :class:`Recorder` and ship ``events()`` back with their
  results; the parent :meth:`Recorder.absorb`\\ s the buffer, so one JSONL
  file describes the whole run regardless of ``jobs``.

Recorders also carry *trace* context: :meth:`Recorder.trace` stamps
everything a thread records (and every buffer it absorbs) with a
``trace`` tag, so one serve request's span tree can be pulled back out
of a daemon-lifetime event stream that interleaves many requests.

Everything is stdlib-only.  Instrumented call sites obtain the active
recorder with :func:`get_recorder`; when telemetry is off that returns
the :data:`NULL_RECORDER`, whose every operation is a no-op, so
instrumentation costs almost nothing when disabled.

Serialization is JSON-lines through :func:`repro.io.atomic.atomic_write_text`
(temp file + ``os.replace``), so a crash mid-flush never leaves a torn
telemetry file behind.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.io.atomic import atomic_write_text

__all__ = [
    "FORMAT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "Recorder",
    "NULL_RECORDER",
    "get_recorder",
    "new_trace_id",
    "set_recorder",
    "use_recorder",
]

FORMAT_VERSION = 1

#: Tags are flattened to ``(key, value)`` tuples sorted by key — the
#: registry identity of a counter or gauge.
_TagKey = tuple[tuple[str, Any], ...]


def _tag_key(tags: dict[str, Any]) -> _TagKey:
    return tuple(sorted(tags.items()))


class Counter:
    """A monotonically increasing event count (e.g. transposition hits).

    Mutation is locked: registry instruments are shared between daemon
    worker threads, and ``self.value += amount`` is a read-modify-write
    across bytecodes — unlocked, two threads bumping the same counter
    can lose updates.
    """

    __slots__ = ("name", "tags", "value", "_lock")

    def __init__(self, name: str, tags: dict[str, Any]):
        self.name = name
        self.tags = tags
        self.value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def to_event(self) -> dict[str, Any]:
        return {
            "type": "counter",
            "name": self.name,
            "value": self.value,
            "tags": dict(self.tags),
        }


class Gauge:
    """A level measurement; remembers the last and the maximum value set."""

    __slots__ = ("name", "tags", "value", "max", "_lock")

    def __init__(self, name: str, tags: dict[str, Any]):
        self.name = name
        self.tags = tags
        self.value: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if self.max is None or value > self.max:
                self.max = value

    def to_event(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": "gauge",
                "name": self.name,
                "value": self.value,
                "max": self.max,
                "tags": dict(self.tags),
            }


def _bucket_index(value: float) -> int:
    # frexp gives value = m * 2**e with 0.5 <= m < 1; a value exactly on
    # a power of two (m == 0.5) belongs to the lower bucket so bounds
    # stay half-open: bucket i covers (2**(i-1), 2**i].
    mantissa, exponent = math.frexp(value)
    return exponent - 1 if mantissa == 0.5 else exponent


class Histogram:
    """A log2-bucketed latency/size distribution: mergeable, fixed error.

    Observations land in power-of-two buckets — index ``i`` covers
    ``(2**(i-1), 2**i]``, non-positive values a dedicated zero bucket —
    so the instrument needs no a-priori range configuration, quantile
    estimates are upper bounds with at most 2x relative error, and two
    histograms merge by summing per-index counts.  Merging is how worker
    buffers, daemon snapshots, and JSONL files combine (:meth:`merge_event`).
    """

    __slots__ = ("name", "tags", "count", "sum", "zero", "buckets", "_lock")

    def __init__(self, name: str, tags: dict[str, Any]):
        self.name = name
        self.tags = tags
        self.count = 0
        self.sum = 0.0
        self.zero = 0
        self.buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if value <= 0.0:
                self.zero += 1
                return
            index = _bucket_index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge_event(self, event: dict[str, Any]) -> None:
        """Fold a serialized histogram event into this instrument."""
        with self._lock:
            self.count += int(event.get("count", 0))
            self.sum += float(event.get("sum", 0.0))
            self.zero += int(event.get("zero", 0))
            for index, bucket_count in (event.get("buckets") or {}).items():
                key = int(index)
                self.buckets[key] = self.buckets.get(key, 0) + int(bucket_count)

    def _percentile_locked(self, quantile: float) -> float | None:
        if self.count == 0:
            return None
        rank = max(1, math.ceil(quantile * self.count))
        seen = self.zero
        if seen >= rank:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return float(2.0**index)
        return float(2.0 ** max(self.buckets))

    def percentile(self, quantile: float) -> float | None:
        """The bucket upper bound at ``quantile`` (0..1); None when empty."""
        with self._lock:
            return self._percentile_locked(quantile)

    def summary(self) -> dict[str, Any]:
        """count/sum/mean plus p50/p90/p99 as one JSON-able dict."""
        with self._lock:
            count = self.count
            total = self.sum
            p50 = self._percentile_locked(0.50)
            p90 = self._percentile_locked(0.90)
            p99 = self._percentile_locked(0.99)
        return {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else None,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }

    def to_event(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "name": self.name,
                "tags": dict(self.tags),
                "count": self.count,
                "sum": self.sum,
                "zero": self.zero,
                "buckets": {
                    str(index): bucket_count
                    for index, bucket_count in sorted(self.buckets.items())
                },
            }


@dataclass
class Span:
    """One finished measurement in the span tree."""

    name: str
    seconds: float
    span_id: str
    parent_id: str | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    def to_event(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "seconds": self.seconds,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tags": dict(self.tags),
        }


class Recorder:
    """Thread-safe telemetry sink: spans, events, counters, gauges, JSONL
    export.

    Span ids embed the recording process's pid; on top of that,
    :meth:`absorb` namespaces every absorbed buffer's ids (``w{n}:{id}``)
    so buffers from recycled pool workers — which restart their local id
    counters per task — never collide with the parent's ids or with each
    other, and the span tree stays well-formed across process boundaries.

    ``decisions=False`` keeps no decision log: the search records its
    ``search.transitions`` counters but builds no ``search.transition``
    event (see :func:`~repro.obs.provenance.record_transition`).
    """

    #: Instrumented call sites may branch on this to skip building tags.
    active = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        decisions: bool = True,
    ):
        self.decisions = decisions
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: list[dict[str, Any]] = []
        self._events: list[dict[str, Any]] = []
        self._counters: dict[tuple[str, _TagKey], Counter] = {}
        self._gauges: dict[tuple[str, _TagKey], Gauge] = {}
        self._histograms: dict[tuple[str, _TagKey], Histogram] = {}
        self._local = threading.local()
        self._trace = threading.local()
        self._ids = itertools.count(1)
        self._absorbed = itertools.count(1)
        self._origin = os.getpid()
        #: Optional live-progress hook: called with each finished span's
        #: event dict, outside the recorder lock, on the recording thread.
        #: The serve daemon streams ``search.*`` spans to clients this way.
        #: Callbacks must not raise; exceptions propagate to the span site.
        self.on_span: Callable[[dict[str, Any]], None] | None = None

    # -- span tree --------------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_span_id(self) -> str:
        with self._lock:
            return f"{self._origin}-{next(self._ids)}"

    def current_span_id(self) -> str | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- trace context ----------------------------------------------------------

    def current_trace_id(self) -> str | None:
        """The calling thread's active trace id, if inside :meth:`trace`."""
        return getattr(self._trace, "id", None)

    @contextmanager
    def trace(self, trace_id: str | None) -> Iterator[str | None]:
        """Stamp everything this thread records with ``trace=trace_id``.

        ``None`` clears the context for the block (records nothing), so
        worker tasks can wrap unconditionally with whatever trace id they
        were shipped — absent one included.

        Spans and structured events recorded inside the block — and every
        buffer absorbed inside it, which is how worker-process spans
        shipped back through :class:`WorkerPool` inherit the id — get a
        ``trace`` tag unless they already carry one, so a single serve
        request's tree stays reassemblable after the daemon's recorder
        has interleaved many requests into one stream.
        """
        previous = getattr(self._trace, "id", None)
        self._trace.id = trace_id
        try:
            yield trace_id
        finally:
            self._trace.id = previous

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[None]:
        """Measure the enclosed block on the monotonic clock."""
        trace = getattr(self._trace, "id", None)
        if trace is not None and "trace" not in tags:
            tags["trace"] = trace
        span_id = self._next_span_id()
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        started = self._clock()
        try:
            yield
        finally:
            seconds = self._clock() - started
            stack.pop()
            event = Span(
                name=name,
                seconds=seconds,
                span_id=span_id,
                parent_id=parent,
                tags=tags,
            ).to_event()
            with self._lock:
                self._spans.append(event)
            callback = self.on_span
            if callback is not None:
                callback(event)

    def record_span(self, name: str, seconds: float, **tags: Any) -> None:
        """Record an externally measured span (e.g. a worker-side timing)."""
        trace = getattr(self._trace, "id", None)
        if trace is not None and "trace" not in tags:
            tags["trace"] = trace
        event = Span(
            name=name,
            seconds=seconds,
            span_id=self._next_span_id(),
            parent_id=self.current_span_id(),
            tags=tags,
        ).to_event()
        with self._lock:
            self._spans.append(event)

    def record_event(self, name: str, **fields: Any) -> None:
        """Record a structured point-in-time event (e.g. a considered
        transition in the search provenance log).

        Unlike counters, events keep every occurrence with its full
        payload, so the JSONL file carries the decision log itself, not
        just its aggregates.
        """
        trace = getattr(self._trace, "id", None)
        if trace is not None and "trace" not in fields:
            fields["trace"] = trace
        event = {"type": "event", "name": name, "fields": fields}
        with self._lock:
            self._events.append(event)

    # -- registries -------------------------------------------------------------

    def counter(self, name: str, **tags: Any) -> Counter:
        key = (name, _tag_key(tags))
        with self._lock:
            found = self._counters.get(key)
            if found is None:
                found = Counter(name, tags)
                self._counters[key] = found
            return found

    def gauge(self, name: str, **tags: Any) -> Gauge:
        key = (name, _tag_key(tags))
        with self._lock:
            found = self._gauges.get(key)
            if found is None:
                found = Gauge(name, tags)
                self._gauges[key] = found
            return found

    def histogram(self, name: str, **tags: Any) -> Histogram:
        key = (name, _tag_key(tags))
        with self._lock:
            found = self._histograms.get(key)
            if found is None:
                found = Histogram(name, tags)
                self._histograms[key] = found
            return found

    # -- merge + export ---------------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        """A snapshot of everything recorded so far, as JSON-able dicts."""
        with self._lock:
            events = list(self._spans)
            events.extend(dict(e) for e in self._events)
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        events.extend(c.to_event() for c in counters)
        events.extend(g.to_event() for g in gauges)
        events.extend(h.to_event() for h in histograms)
        return events

    def absorb(self, events: list[dict[str, Any]] | None) -> None:
        """Merge a buffer shipped back from a worker (or another recorder).

        Span events are appended (parentless roots are re-parented under
        the caller's current span, so worker work nests under the phase
        that dispatched it); structured events are appended as-is; counter
        values are summed and gauges maxed into this recorder's registries.

        Absorbed span ids are namespaced ``w{n}:{id}`` with ``n`` unique
        per absorbed buffer: pool workers are recycled across tasks, so
        two tasks that ran on the same worker (or on any two workers after
        a fork) can ship buffers whose *local* span ids coincide — without
        the namespace those ids would collide in the parent's span tree.
        ``parent_id`` references internal to the buffer are remapped along
        with the ids they point at; references to spans outside the buffer
        (already-namespaced nested absorbs) are left untouched.

        When the absorbing thread is inside :meth:`trace`, absorbed spans
        and structured events missing a ``trace`` tag are stamped with the
        active id; tags the buffer already carries are preserved.
        """
        if not events:
            return
        with self._lock:
            namespace = f"w{next(self._absorbed)}"
        local_ids = {
            event["span_id"]
            for event in events
            if event.get("type") == "span" and event.get("span_id")
        }
        parent = self.current_span_id()
        trace = self.current_trace_id()
        for event in events:
            kind = event.get("type")
            if kind == "span":
                merged = dict(event)
                span_id = merged.get("span_id")
                if span_id is not None:
                    merged["span_id"] = f"{namespace}:{span_id}"
                parent_id = merged.get("parent_id")
                if parent_id is None:
                    merged["parent_id"] = parent
                elif parent_id in local_ids:
                    merged["parent_id"] = f"{namespace}:{parent_id}"
                if trace is not None:
                    tags = merged.get("tags") or {}
                    if "trace" not in tags:
                        merged["tags"] = {**tags, "trace": trace}
                with self._lock:
                    self._spans.append(merged)
            elif kind == "event":
                merged = dict(event)
                if trace is not None:
                    fields = merged.get("fields") or {}
                    if "trace" not in fields:
                        merged["fields"] = {**fields, "trace": trace}
                with self._lock:
                    self._events.append(merged)
            elif kind == "counter":
                self.counter(event["name"], **event.get("tags", {})).add(
                    event.get("value", 0)
                )
            elif kind == "gauge":
                gauge = self.gauge(event["name"], **event.get("tags", {}))
                for value in (event.get("value"), event.get("max")):
                    if value is not None:
                        gauge.set(value)
            elif kind == "histogram":
                self.histogram(
                    event["name"], **event.get("tags", {})
                ).merge_event(event)

    def flush_jsonl(self, path: str | os.PathLike) -> None:
        """Write all events as JSON lines, atomically (never a torn file)."""
        lines = [
            json.dumps(
                {"type": "meta", "format_version": FORMAT_VERSION},
                sort_keys=True,
            )
        ]
        lines.extend(
            json.dumps(event, sort_keys=True, default=str)
            for event in self.events()
        )
        atomic_write_text(os.fspath(path), "\n".join(lines) + "\n")


class _NullCounter:
    __slots__ = ()
    value = 0

    def add(self, amount: int = 1) -> None:
        return None


class _NullGauge:
    __slots__ = ()
    value = None
    max = None

    def set(self, value: float) -> None:
        return None


class _NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0
    zero = 0
    buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        return None

    def merge_event(self, event: dict[str, Any]) -> None:
        return None

    def percentile(self, quantile: float) -> float | None:
        return None

    def summary(self) -> dict[str, Any]:
        return {
            "count": 0,
            "sum": 0.0,
            "mean": None,
            "p50": None,
            "p90": None,
            "p99": None,
        }


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class _NullRecorder(Recorder):
    """The disabled recorder: every operation is a cheap no-op."""

    active = False

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[None]:
        yield

    def record_span(self, name: str, seconds: float, **tags: Any) -> None:
        return None

    def record_event(self, name: str, **fields: Any) -> None:
        return None

    def counter(self, name: str, **tags: Any) -> Counter:
        return _NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str, **tags: Any) -> Gauge:
        return _NULL_GAUGE  # type: ignore[return-value]

    def histogram(self, name: str, **tags: Any) -> Histogram:
        return _NULL_HISTOGRAM  # type: ignore[return-value]

    @contextmanager
    def trace(self, trace_id: str | None) -> Iterator[str | None]:
        yield trace_id

    def current_trace_id(self) -> str | None:
        return None

    def absorb(self, events: list[dict[str, Any]] | None) -> None:
        return None

    def events(self) -> list[dict[str, Any]]:
        return []


NULL_RECORDER = _NullRecorder(decisions=False)

_trace_ids = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (the daemon issues one per serve request)."""
    return f"t{os.getpid():x}-{next(_trace_ids):x}"

_active: Recorder = NULL_RECORDER

#: Per-thread recorder override (see :func:`use_recorder`).  The serve
#: daemon runs concurrent optimizations on worker threads, each under its
#: own recorder; a process-global slot would let one request's install
#: clobber another's mid-flight.
_thread_active = threading.local()


def get_recorder() -> Recorder:
    """The active recorder: this thread's :func:`use_recorder` override if
    one is in effect, else the process-wide :func:`set_recorder` slot
    (:data:`NULL_RECORDER` when off)."""
    override = getattr(_thread_active, "recorder", None)
    return override if override is not None else _active


def set_recorder(recorder: Recorder | None) -> Recorder:
    """Install ``recorder`` process-wide (``None`` disables); returns the
    previous process-wide recorder.  Threads inside a :func:`use_recorder`
    block keep their scoped recorder regardless."""
    global _active
    previous = _active
    _active = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Recorder | None) -> Iterator[Recorder]:
    """Temporarily install ``recorder`` as the *calling thread's* active
    recorder (``None`` silences telemetry for the block).

    The override is thread-scoped: concurrent threads can each record
    under their own recorder without interleaving, which is what keeps
    per-request telemetry separate in the serve daemon.  Single-threaded
    behaviour is unchanged.
    """
    previous = getattr(_thread_active, "recorder", None)
    _thread_active.recorder = (
        recorder if recorder is not None else NULL_RECORDER
    )
    try:
        yield get_recorder()
    finally:
        _thread_active.recorder = previous
