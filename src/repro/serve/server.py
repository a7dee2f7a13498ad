"""The optimizer-as-a-service daemon (stdlib asyncio, no dependencies).

One long-lived process answers optimize requests for many tenants over a
line-delimited JSON protocol (:mod:`repro.serve.protocol`) on TCP or a
UNIX socket.  The architecture is two planes joined by a bounded queue:

* the **asyncio plane** (one thread) accepts connections, parses and
  admits requests (:mod:`repro.serve.queue`), probes the request-level
  result memo (:mod:`repro.serve.memo`), and streams responses —
  it never runs a search, so admission and memo hits stay fast no
  matter how busy the workers are;
* the **worker plane** (``workers`` threads) pulls admitted jobs and
  runs them through :func:`~repro.core.search.parallel.run_search`, each
  thread owning one long-lived
  :class:`~repro.core.search.parallel.WorkerPool` (processes fork once,
  not per request) and all threads sharing one
  :class:`~repro.core.search.transposition.TranspositionCache` — Liu's
  shared-cache recipe: every request warms the cache for every later
  near-duplicate.  The cache keeps the :data:`MAX_CACHE_NAMESPACES` (16)
  most recently used workflow namespaces and flushes each to its on-disk
  layer, if any, before dropping it, so a long-lived daemon does not
  grow with every distinct workflow it serves; the result memo beside
  it is LRU-bounded too.

Determinism guarantee: a served result is byte-identical (cost, plan,
lineage) to a direct :func:`repro.optimize` call with the same effective
budget — the daemon only ever substitutes its shared cache, and cached
values replay exactly what the same deterministic computation would have
produced.

Progress streaming rides the obs layer: each request runs under a
private ``Recorder(decisions=False)`` whose ``on_span`` hook forwards
finished ``search.*`` spans to the client as ``event`` lines.  That
recorder keeps no decision log: the search counts its transitions in
``search.transitions`` but builds no ``search.transition`` event, in
the request thread or in a pool worker.  The daemon's own recorder
absorbs only the request's counters, gauges and histograms (for
``stats``, ``metrics`` and ``--telemetry``); its span tree goes to the
bounded exemplar rings, so the daemon's telemetry does not grow with
the number of requests served.

Production observability is three planes on top of that substrate:

* **metrics** — per-request latency, queue wait, search time, and memo
  lookup time feed daemon-level histograms; the ``metrics`` protocol op
  and the optional ``--metrics-port`` plain-HTTP ``GET /metrics``
  endpoint expose everything in Prometheus text format
  (:mod:`repro.obs.expose`), and ``repro top`` renders a live summary;
* **traces** — every request gets a ``trace_id`` (returned in its
  envelope) stamped onto all spans the request records, including
  worker-process buffers shipped back through the pool, so one
  request's tree is reassemblable from a mixed stream
  (``repro report --trace ID``);
* **exemplars** — a bounded ring of the slowest and most recently
  failed requests keeps full span trees for post-hoc p99 diagnosis
  (:mod:`repro.serve.exemplars`, the ``exemplars`` op).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.core.search.budget import SearchBudget
from repro.core.search.parallel import ALGORITHMS, WorkerPool, run_search
from repro.core.search.transposition import TranspositionCache
from repro.core.signature import workflow_fingerprint
from repro.obs import (
    CONTENT_TYPE,
    Histogram,
    Recorder,
    get_recorder,
    new_trace_id,
    render_prometheus,
    use_recorder,
)
from repro.serve.exemplars import DEFAULT_EXEMPLARS, ExemplarStore
from repro.serve.memo import DEFAULT_CAPACITY, ResultMemo, memo_key
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    budget_from_dict,
    budget_to_dict,
    decode,
    encode,
    model_key,
    request_field,
    resolve_model,
    result_to_dict,
    validate_request_workflow,
    workflow_from_request,
)
from repro.serve.queue import AdmissionError, Job, JobQueue, TenantPolicy

__all__ = ["ServeConfig", "OptimizerServer", "BackgroundServer"]

#: Longest request line either listener accepts (asyncio's default
#: ``StreamReader`` limit is 64 KiB — a workflow of ~270 activities).  A
#: longer line is answered ``too-large`` and its connection closed.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Transposition-cache namespaces (one per distinct workflow and cost
#: model) the daemon keeps, least recently used out first.  A namespace
#: holds HS's per-state costs and group explorations, about 0.5-0.7 KB
#: per visited state: at default budgets (tracemalloc, Python 3.11) tiny
#: seed 0 holds 0.33 MB, small seed 1 2.55 MB, medium seed 0 6.51 MB and
#: large seed 0 11.09 MB.  Above the 11 namespaces ``bench_e2e``'s
#: serve-mix creates (3 cold + 8 warm workflows).
MAX_CACHE_NAMESPACES = 16

#: The event types a request's recorder hands to the daemon-lifetime
#: recorder: they merge into fixed-size registries.  Spans would
#: accumulate per request (its recorder builds no decision events).
_INSTRUMENTS = frozenset({"counter", "gauge", "histogram"})


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon's operator decides.

    Attributes:
        host / port: TCP endpoint; ``port=0`` binds an ephemeral port
            (the bound address is reported by :attr:`OptimizerServer.address`).
        unix_socket: path for a UNIX-domain socket; overrides TCP.
        workers: optimizer worker threads (each owns one process pool).
        max_jobs: per-search worker-process ceiling — requests asking for
            more are clamped, so a client can never fork more of the host
            than the operator allowed.
        queue_size: bounded job-queue depth (admission control).
        tenant: per-tenant inflight/budget ceilings, uniform across
            tenants (a config file of per-tenant overrides can layer on
            later without touching the protocol).
        cache: transposition-cache spec, as accepted by
            :meth:`TranspositionCache.resolve` — ``None`` keeps the warm
            cache in-process only, a path adds the on-disk layer.
        memo_capacity: LRU bound on fully-memoized results.
        metrics_port: when set, also serve plain-HTTP ``GET /metrics``
            (Prometheus text exposition) on this TCP port; ``0`` binds
            an ephemeral port (see :attr:`OptimizerServer.metrics_address`).
            ``None`` (default) disables the endpoint — the ``metrics``
            protocol op works either way.
        exemplar_capacity: ring size for the slowest / most recently
            failed request exemplars kept for post-hoc diagnosis.
    """

    host: str = "127.0.0.1"
    port: int = 0
    unix_socket: str | None = None
    workers: int = 1
    max_jobs: int = 1
    queue_size: int = 64
    tenant: TenantPolicy = field(default_factory=TenantPolicy)
    cache: Any = None
    memo_capacity: int = DEFAULT_CAPACITY
    metrics_port: int | None = None
    exemplar_capacity: int = DEFAULT_EXEMPLARS


class _Connection:
    """Per-connection outbound state: one writer task drains ``out``."""

    def __init__(self) -> None:
        self.out: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()
        self.outstanding = 0
        self.drained = asyncio.Event()
        self.drained.set()

    def track(self) -> None:
        self.outstanding += 1
        self.drained.clear()

    def settle(self) -> None:
        self.outstanding -= 1
        if self.outstanding <= 0:
            self.drained.set()


class OptimizerServer:
    """The daemon: shared warm cache, result memo, bounded admission."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config if config is not None else ServeConfig()
        self.memo = ResultMemo(self.config.memo_capacity)
        self.queue = JobQueue(self.config.queue_size, self.config.tenant)
        #: The daemon's own instruments (stats and metrics source):
        #: counters, gauges and histograms only — request span trees live
        #: in :attr:`exemplars`.  Both are absorbed into any outer
        #: --telemetry recorder at shutdown.
        self.recorder = Recorder()
        self.exemplars = ExemplarStore(self.config.exemplar_capacity)
        self.cache: TranspositionCache | None = None
        self.address: tuple[str, int] | str | None = None
        self.metrics_address: tuple[str, int] | None = None
        self.started_at = time.monotonic()
        self._owned_cache = False
        self._server: asyncio.base_events.Server | None = None
        self._metrics_server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._threads: list[threading.Thread] = []
        self._tenant_requests: dict[str, int] = {}
        self._tenant_lock = threading.Lock()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the endpoint and start the worker threads."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.started_at = time.monotonic()
        self.cache, self._owned_cache = TranspositionCache.resolve(
            self.config.cache
        )
        for index in range(max(1, self.config.workers)):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.config.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.unix_socket,
                limit=MAX_REQUEST_BYTES,
            )
            self.address = self.config.unix_socket
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port,
                limit=MAX_REQUEST_BYTES,
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http,
                self.config.host,
                self.config.metrics_port,
            )
            sock = self._metrics_server.sockets[0]
            self.metrics_address = sock.getsockname()[:2]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`request_stop`)."""
        if self._stop_event is None:
            await self.start()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Threadsafe stop signal (used by :class:`BackgroundServer`)."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed: a shutdown op beat us to it

    async def _shutdown(self) -> None:
        """Stop accepting, drain in-flight work, release every resource."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        self.queue.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._join_workers)
        # Close lingering client connections so their handler tasks end
        # on EOF before the loop tears down (a cancelled handler would
        # log a spurious CancelledError from asyncio.streams).
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        while self._writers and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self.cache is not None and self._owned_cache:
            self.cache.flush()
        if self.config.unix_socket:
            try:
                os.unlink(self.config.unix_socket)
            except OSError:
                pass
        outer = get_recorder()
        if outer.active:
            outer.absorb(self.recorder.events())
            snapshot = self.exemplars.snapshot()
            for exemplar in snapshot["slowest"] + snapshot["failed"]:
                outer.absorb(exemplar["spans"])

    def _join_workers(self) -> None:
        for thread in self._threads:
            thread.join(timeout=60.0)
        self._threads.clear()

    def run(self) -> None:
        """Blocking entry point for ``repro serve``."""

        async def main() -> None:
            await self.start()
            await self.serve_until_shutdown()

        asyncio.run(main())

    # -- asyncio plane ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection()
        self._writers.add(writer)
        drain_task = asyncio.get_running_loop().create_task(
            self._drain(conn, writer)
        )
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over MAX_REQUEST_BYTES.  The rest of the stream is
                    # no longer line-aligned, so answer and close.
                    self.recorder.counter(
                        "serve.requests", outcome="too_large"
                    ).add()
                    conn.out.put_nowait(
                        {
                            "ok": False,
                            "code": "too-large",
                            "error": (
                                f"request line exceeds {MAX_REQUEST_BYTES} "
                                f"bytes"
                            ),
                        }
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._dispatch(line, conn)
            await conn.drained.wait()
        finally:
            # Loop teardown cancels this task while it waits on readline;
            # the writer task is told to finish and its own cancellation
            # (same teardown) is not an error worth re-raising.
            self._writers.discard(writer)
            conn.out.put_nowait(None)
            try:
                await drain_task
            except asyncio.CancelledError:
                pass

    async def _drain(
        self, conn: _Connection, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                message = await conn.out.get()
                if message is None:
                    break
                writer.write(encode(message))
                await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # the client went away; workers still settle the counter
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    def _dispatch(self, line: bytes, conn: _Connection) -> None:
        try:
            message = decode(line)
        except ProtocolError as exc:
            self._count_request("invalid")
            conn.out.put_nowait(
                {"ok": False, "code": "bad-request", "error": str(exc)}
            )
            return
        op = message.get("op")
        rid = message.get("id")
        if op == "optimize":
            self._handle_optimize(message, conn)
        elif op == "status":
            self._count_request("status")
            conn.out.put_nowait({"id": rid, "ok": True, **self.status()})
        elif op == "stats":
            self._count_request("stats")
            conn.out.put_nowait({"id": rid, "ok": True, **self.stats()})
        elif op == "metrics":
            self._count_request("metrics")
            conn.out.put_nowait(
                {
                    "id": rid,
                    "ok": True,
                    "content_type": CONTENT_TYPE,
                    "text": self.metrics_text(),
                }
            )
        elif op == "exemplars":
            self._count_request("exemplars")
            conn.out.put_nowait(
                {"id": rid, "ok": True, **self.exemplars.snapshot()}
            )
        elif op == "ping":
            self._count_request("ping")
            conn.out.put_nowait({"id": rid, "ok": True, "pong": True})
        elif op == "shutdown":
            self._count_request("shutdown")
            conn.out.put_nowait({"id": rid, "ok": True, "stopping": True})
            if self._stop_event is not None:
                self._stop_event.set()
        else:
            self._count_request("invalid")
            conn.out.put_nowait(
                {
                    "id": rid,
                    "ok": False,
                    "code": "bad-request",
                    "error": f"unknown op {op!r}",
                }
            )

    def _handle_optimize(
        self, message: dict[str, Any], conn: _Connection
    ) -> None:
        rid = message.get("id")
        accepted_at = time.monotonic()
        self._count_request("optimize")
        try:
            workflow = workflow_from_request(message.get("workflow"))
            requested = budget_from_dict(message.get("budget"))
            algorithm = str(message.get("algorithm", "heuristic")).lower()
            if algorithm not in ALGORITHMS:
                raise ProtocolError(
                    f"unknown algorithm {algorithm!r}; choose one of "
                    f"{sorted(set(ALGORITHMS))}"
                )
            model_name = message.get("model")
            resolve_model(model_name)  # validate eagerly, fail at the door
            tenant = request_field(message, "tenant", str, "default")
            stream = request_field(message, "stream", bool, False)
            effective = self.queue.policy.clamp(
                requested, self.config.max_jobs
            )
            fingerprint = workflow_fingerprint(workflow)
            key = memo_key(
                fingerprint, model_key(model_name), algorithm, effective
            )
            lookup_started = time.monotonic()
            cached = self.memo.get(key)
            self.recorder.histogram("serve.memo_lookup_seconds").observe(
                time.monotonic() - lookup_started
            )
            if cached is None:
                # A hit matched the fingerprint — nodes, parameters,
                # schemas, cardinalities and ports — of a workflow that
                # was valid, so only a miss validates.
                validate_request_workflow(workflow)
        except ProtocolError as exc:
            conn.out.put_nowait(
                {
                    "id": rid,
                    "ok": False,
                    "code": "bad-request",
                    "error": str(exc),
                }
            )
            return
        with self._tenant_lock:
            self._tenant_requests[tenant] = (
                self._tenant_requests.get(tenant, 0) + 1
            )
        trace_id = new_trace_id()
        if cached is not None:
            self.recorder.counter("serve.memo", outcome="hit").add()
            if stream:
                conn.out.put_nowait(
                    {"id": rid, "event": "memo-hit", "fingerprint": fingerprint}
                )
            latency = time.monotonic() - accepted_at
            self.recorder.histogram("serve.request_latency_seconds").observe(
                latency
            )
            conn.out.put_nowait(
                self._envelope(
                    rid,
                    cached,
                    served_from="memo",
                    # The whole request was one cache lookup: the memo hit
                    # itself plus whatever transposition hits the original
                    # run reported.
                    cache_hits=cached["cache_hits"] + 1,
                    fingerprint=fingerprint,
                    effective=effective,
                    latency=latency,
                    trace_id=trace_id,
                )
            )
            return
        self.recorder.counter("serve.memo", outcome="miss").add()
        conn.track()
        loop = self._loop
        assert loop is not None

        def deliver(envelope: dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._deliver_cb, conn, envelope)

        def emit(event: dict[str, Any]) -> None:
            if stream:
                loop.call_soon_threadsafe(
                    conn.out.put_nowait, {"id": rid, **event}
                )

        job = Job(
            tenant=tenant,
            payload={
                "id": rid,
                "workflow": workflow,
                "budget": effective,
                "algorithm": algorithm,
                "model": model_name,
                "memo_key": key,
                "fingerprint": fingerprint,
                "stream": stream,
                "accepted_at": accepted_at,
                "trace": trace_id,
                "tenant": tenant,
                "deliver": deliver,
                "emit": emit,
            },
            run=self._execute,
        )
        try:
            self.queue.submit(job)
        except AdmissionError as exc:
            conn.settle()
            self.recorder.counter("serve.rejected", code=exc.code).add()
            conn.out.put_nowait(
                {"id": rid, "ok": False, "code": exc.code, "error": str(exc)}
            )
            return
        if stream:
            conn.out.put_nowait(
                {
                    "id": rid,
                    "event": "queued",
                    "depth": self.queue.depth(),
                    "fingerprint": fingerprint,
                }
            )

    def _deliver_cb(self, conn: _Connection, envelope: dict[str, Any]) -> None:
        conn.out.put_nowait(envelope)
        conn.settle()

    def _envelope(
        self,
        rid: Any,
        payload: dict[str, Any],
        served_from: str,
        cache_hits: int,
        fingerprint: str,
        effective: SearchBudget,
        latency: float,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        return {
            "id": rid,
            "ok": True,
            "served_from": served_from,
            "cache_hits": cache_hits,
            "fingerprint": fingerprint,
            "budget": budget_to_dict(effective),
            "latency_seconds": latency,
            "trace_id": trace_id,
            "result": payload,
        }

    # -- worker plane -----------------------------------------------------------

    def _worker_loop(self) -> None:
        pool = WorkerPool(self.config.max_jobs)
        try:
            while True:
                job = self.queue.next_job(timeout=0.2)
                if job is None:
                    if self.queue.closed:  # drained and closed: exit
                        break
                    continue
                try:
                    job.run(job, pool)
                finally:
                    self.queue.task_done(job)
        finally:
            pool.close()

    def _execute(self, job: Job, pool: WorkerPool) -> None:
        payload = job.payload
        emit: Callable[[dict[str, Any]], None] = payload["emit"]
        deliver: Callable[[dict[str, Any]], None] = payload["deliver"]
        trace_id: str = payload["trace"]
        queued_seconds = time.monotonic() - job.enqueued_at
        emit({"event": "started", "queued_seconds": queued_seconds})
        # Instruments and spans only: the daemon keeps no decision log.
        local = Recorder(decisions=False)
        if payload["stream"]:

            def forward(span_event: dict[str, Any]) -> None:
                if span_event["name"].startswith("search."):
                    emit(
                        {
                            "event": "progress",
                            "span": span_event["name"],
                            "seconds": span_event["seconds"],
                            "tags": span_event.get("tags", {}),
                        }
                    )

            local.on_span = forward
        budget: SearchBudget = payload["budget"]
        search_started = time.monotonic()
        try:
            with use_recorder(local), local.trace(trace_id):
                with local.span(
                    "serve.request",
                    algorithm=payload["algorithm"],
                    tenant=job.tenant,
                ):
                    local.record_span("serve.queue_wait", queued_seconds)
                    with local.span("serve.search"):
                        result = run_search(
                            payload["algorithm"],
                            payload["workflow"],
                            model=resolve_model(payload["model"]),
                            budget=replace(budget, cache=self.cache),
                            pool=pool if budget.resolved_jobs() > 1 else None,
                        )
        except Exception as exc:  # a search bug must answer, not hang
            latency = time.monotonic() - payload["accepted_at"]
            self.recorder.counter("serve.errors").add()
            events = local.events()
            self._absorb_instruments(events)
            self._observe_request(queued_seconds, None, latency)
            self.exemplars.record(
                self._exemplar(
                    payload,
                    job,
                    events,
                    latency=latency,
                    queued_seconds=queued_seconds,
                    ok=False,
                    code="search-error",
                    error=f"{type(exc).__name__}: {exc}",
                ),
                failed=True,
            )
            deliver(
                {
                    "id": payload["id"],
                    "ok": False,
                    "code": "search-error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "trace_id": trace_id,
                }
            )
            return
        finally:
            self.cache.trim(MAX_CACHE_NAMESPACES)
        search_seconds = time.monotonic() - search_started
        serialized = result_to_dict(result)
        self.memo.put(payload["memo_key"], serialized)
        latency = time.monotonic() - payload["accepted_at"]
        events = local.events()
        self._absorb_instruments(events)
        self._observe_request(queued_seconds, search_seconds, latency)
        self.exemplars.record(
            self._exemplar(
                payload,
                job,
                events,
                latency=latency,
                queued_seconds=queued_seconds,
                ok=True,
            )
        )
        deliver(
            self._envelope(
                payload["id"],
                serialized,
                served_from="search",
                cache_hits=serialized["cache_hits"],
                fingerprint=payload["fingerprint"],
                effective=budget,
                latency=latency,
                trace_id=trace_id,
            )
        )

    def _absorb_instruments(self, events: list[dict[str, Any]]) -> None:
        self.recorder.absorb(
            [event for event in events if event["type"] in _INSTRUMENTS]
        )

    def _observe_request(
        self,
        queued_seconds: float,
        search_seconds: float | None,
        latency: float,
    ) -> None:
        self.recorder.histogram("serve.queue_wait_seconds").observe(
            queued_seconds
        )
        if search_seconds is not None:
            self.recorder.histogram("serve.search_seconds").observe(
                search_seconds
            )
        self.recorder.histogram("serve.request_latency_seconds").observe(
            latency
        )

    def _exemplar(
        self,
        payload: dict[str, Any],
        job: Job,
        events: list[dict[str, Any]],
        latency: float,
        queued_seconds: float,
        ok: bool,
        code: str | None = None,
        error: str | None = None,
    ) -> dict[str, Any]:
        exemplar = {
            "trace_id": payload["trace"],
            "tenant": job.tenant,
            "algorithm": payload["algorithm"],
            "fingerprint": payload["fingerprint"],
            "budget": budget_to_dict(payload["budget"]),
            "served_from": "search",
            "ok": ok,
            "latency_seconds": latency,
            "queued_seconds": queued_seconds,
            "spans": [e for e in events if e.get("type") == "span"],
        }
        if code is not None:
            exemplar["code"] = code
        if error is not None:
            exemplar["error"] = error
        return exemplar

    # -- introspection ----------------------------------------------------------

    def _count_request(self, op: str) -> None:
        self.recorder.counter("serve.requests", op=op).add()

    def status(self) -> dict[str, Any]:
        return {
            "protocol_version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self.started_at,
            "workers": len(self._threads),
            "max_jobs": self.config.max_jobs,
            "queue": self.queue.stats(),
            "metrics_address": (
                list(self.metrics_address) if self.metrics_address else None
            ),
        }

    def stats(self) -> dict[str, Any]:
        assert self.cache is not None
        transposition_total = self.cache.hits + self.cache.misses
        with self._tenant_lock:
            tenants = dict(self._tenant_requests)
        counters = {}
        histograms = {}
        for event in self.recorder.events():
            tags = event.get("tags", {})
            suffix = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
            name = event.get("name", "") + (f"[{suffix}]" if suffix else "")
            if event.get("type") == "counter":
                counters[name] = event["value"]
            elif event.get("type") == "histogram":
                merged = Histogram(event["name"], {})
                merged.merge_event(event)
                histograms[name] = merged.summary()
        return {
            "memo": self.memo.stats(),
            "transposition": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "merge_conflicts": self.cache.merge_conflicts,
                "namespaces": self.cache.namespace_count,
                "evictions": self.cache.evictions,
                "hit_rate": (
                    self.cache.hits / transposition_total
                    if transposition_total
                    else 0.0
                ),
            },
            "queue": self.queue.stats(),
            "tenants": tenants,
            "counters": counters,
            "histograms": histograms,
        }

    def metrics_text(self) -> str:
        """The full Prometheus exposition: recorder instruments plus
        synthesized operational gauges (queue, memo, cache, uptime)."""
        assert self.cache is not None

        def gauge(name: str, value: Any, **tags: Any) -> dict[str, Any]:
            return {
                "type": "gauge",
                "name": name,
                "value": value,
                "max": None,
                "tags": tags,
            }

        queue_stats = self.queue.stats()
        memo_stats = self.memo.stats()
        events = self.recorder.events()
        events.append(
            gauge(
                "serve.uptime_seconds",
                time.monotonic() - self.started_at,
            )
        )
        events.append(gauge("serve.queue_depth", queue_stats["depth"]))
        events.append(gauge("serve.queue_capacity", queue_stats["capacity"]))
        for tenant, inflight in sorted(queue_stats["inflight"].items()):
            events.append(
                gauge("serve.tenant_inflight", inflight, tenant=tenant)
            )
        for key in ("entries", "capacity", "hits", "misses", "hit_rate"):
            events.append(gauge(f"serve.memo_{key}", memo_stats[key]))
        transposition_total = self.cache.hits + self.cache.misses
        events.append(gauge("serve.transposition_hits", self.cache.hits))
        events.append(gauge("serve.transposition_misses", self.cache.misses))
        events.append(
            gauge(
                "serve.transposition_hit_rate",
                (
                    self.cache.hits / transposition_total
                    if transposition_total
                    else 0.0
                ),
            )
        )
        return render_prometheus(events)

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal plain-HTTP responder for ``GET /metrics`` scrapes.

        One request per connection (``Connection: close``); anything but
        a GET for ``/metrics`` gets a 404.  This is a scrape endpoint,
        not a web server — no keep-alive, no chunking, no TLS.
        """
        try:
            request_line = await reader.readline()
            while True:  # drain request headers until the blank line
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1].split("?")[0] if len(parts) > 1 else ""
            if len(parts) > 1 and parts[0] == "GET" and path == "/metrics":
                body = self.metrics_text().encode("utf-8")
                status_line = "HTTP/1.1 200 OK"
                content_type = CONTENT_TYPE
            else:
                body = b"not found\n"
                status_line = "HTTP/1.1 404 Not Found"
                content_type = "text/plain; charset=utf-8"
            head = (
                f"{status_line}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass


class BackgroundServer:
    """Run an :class:`OptimizerServer` on a background thread.

    The in-process harness tests and benchmarks drive: ``with
    BackgroundServer(config) as server: client = server.client(); ...``.
    The context manager guarantees the daemon is bound before the body
    runs and fully drained before it exits.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.server = OptimizerServer(config)
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve daemon failed to start within 30s")
        if self._failure is not None:
            raise RuntimeError(
                f"serve daemon failed to start: {self._failure}"
            ) from self._failure
        return self

    def _main(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.serve_until_shutdown()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced on stop()
            if self._failure is None:
                self._failure = exc

    @property
    def address(self) -> tuple[str, int] | str:
        address = self.server.address
        assert address is not None
        return address

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.address)

    def stop(self) -> None:
        self.server.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None

    def __exit__(self, *exc_info) -> None:
        self.stop()
