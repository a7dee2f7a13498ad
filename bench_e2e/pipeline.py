"""The benchmark's four workloads, driven through the program's public API.

A workflow goes in, a real ``python -m repro serve`` daemon returns the
heuristic-search plan, and the initial state S0 and the plan both run
on generated data through the default ``Executor.run()``.  Every layer
is timed from outside, around calls to public functions:
``ServeClient`` and the wire protocol, ``repro.io`` (de)serialization,
``optimize()``, ``estimate()``, ``Executor.run()`` and
``Batch.from_rows()``.

A run makes several *passes*.  Each pass starts a fresh daemon, timed
from spawn until it answers ``ping``, and sends it every workflow of
the workload's pool cold.  A cold search cannot repeat inside one
daemon, because the memo answers the second request, so passes are how
one run gets several cold samples of each workflow.  After each pass,
S0 and the plan of every workflow run on the data, alternating which
goes first.

The pools are picked by an observable property (category, has or
lacks an aggregation) from a fixed range of generator seeds and are
pinned by fingerprint in ``e2e_workloads.json``.  The benchmark seed
drives the source rows, the order of the loads and the phase of the
open-loop memo stream.  Keeping the workflows fixed is what lets runs
with different seeds agree within the bounds in ``BENCHMARK.json``:
cold search time differs up to sixfold between two generated workflows
of one category.

Every timed sample is also divided by the time of a fixed reference
computation measured around it (``common.Reference``), because the
speed of a shared host drifts by more than any bound worth setting.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import (
    NOMINAL_REFERENCE_S,
    ROOT,
    Reference,
    UnsupportedPercentile,
    percentile,
    self_times,
    unattributed,
)

from repro import ReproError, SearchBudget, estimate, optimize
from repro.core.cost.model import ProcessedRowsCostModel
from repro.core.signature import workflow_fingerprint
from repro.engine import Batch, ExecutionBudget, ExecutionStats, Executor, as_multiset
from repro.io import workflow_from_dict, workflow_to_dict
from repro.obs import NULL_RECORDER, Recorder, use_recorder
from repro.serve import ServeClient, ServeError
from repro.serve.protocol import decode, encode
from repro.templates import builtin
from repro.workloads import GeneratedWorkload, generate_workload

PINS_FILE = Path(__file__).resolve().parent / "e2e_workloads.json"

#: Rows per source whose SHA-256 pins ``make_generic_rows`` output.
PINNED_ROWS = 256

#: Category and rows per source of the workflows pre-warmed into the
#: serve-mix memo.
WARM_CATEGORY = "tiny"
WARM_ROWS = 200

#: Fresh-daemon passes over the pool, at least.
MIN_PASSES = 3

#: Daemon spawns per run, at least; ``setup_s`` is their median.
MIN_SPAWNS = 9

#: S0/plan load pairs per workflow after each pass on the search-bound
#: workloads, where loads are not the measured layer.  The load
#: workloads fill each cycle with loads instead.
LOAD_REPS = 3

#: Workflows of each pool whose search, cost and engine layers a traced
#: run analyses directly.
ANALYSED = 2

#: Alternating recorder-on/recorder-off HS runs behind
#: ``obs.recorder_overhead_pct``; each side counts its fastest run.
OVERHEAD_PAIRS = 3

#: A run stops making passes here whatever else it still wants, so it
#: stays well inside three minutes.
PASS_DEADLINE_S = 100.0


class DriftError(RuntimeError):
    """Generated inputs no longer match the pinned fingerprints."""


@dataclass(frozen=True)
class Mix:
    """The open-loop memo stream of ``serve-mix``."""

    rate: float  # memo requests per second
    warm_count: int  # workflows pre-warmed into each daemon's memo
    min_samples: int  # memo requests per run, at least


@dataclass(frozen=True)
class Spec:
    """One workload: which workflows, how much data, how they are driven."""

    name: str
    category: str
    aggregation: bool | None  # None: either
    rows: int  # rows per source
    count: int  # workflows in the pool
    workers: int  # daemon worker threads
    memo_repeats: int  # closed-loop memo hits after each cold plan
    search_bound: bool  # passes fill the run; else MIN_PASSES passes, loads fill the rest
    mix: Mix | None = None


def workload_specs(smoke: bool = False) -> dict[str, Spec]:
    """The four workloads; ``smoke`` swaps in tiny sizes for a fast check.

    Memo repeats are sized so that even ``MIN_PASSES`` passes give the
    200 memo samples a p95 needs.
    """
    if smoke:
        mix = Mix(rate=100.0, warm_count=4, min_samples=200)
        specs = [
            Spec("plan-cold", "tiny", None, 500, 2, 1, 35, True),
            Spec("load-rowwise", "tiny", False, 4000, 1, 1, 70, False),
            Spec("load-blocking", "tiny", True, 4000, 1, 1, 70, False),
            Spec("serve-mix", "small", None, 500, 1, 2, 0, True, mix),
        ]
    else:
        mix = Mix(rate=20.0, warm_count=8, min_samples=240)
        specs = [
            Spec("plan-cold", "small", None, 2000, 3, 1, 25, True),
            Spec("load-rowwise", "small", False, 25000, 2, 1, 35, False),
            Spec("load-blocking", "small", True, 25000, 2, 1, 35, False),
            Spec("serve-mix", "small", None, 2000, 3, 2, 0, True, mix),
        ]
    return {spec.name: spec for spec in specs}


# -- inputs --------------------------------------------------------------------


def has_aggregation(generated: GeneratedWorkload) -> bool:
    return any(
        activity.template.name == builtin.AGGREGATION.name
        for activity in generated.workflow.activities()
    )


def select_pool(
    category: str, aggregation: bool | None, rows: int, count: int
) -> list[GeneratedWorkload]:
    """The first ``count`` workflows from generator seed 0 with the property."""
    pool: list[GeneratedWorkload] = []
    for seed in range(1000):
        generated = generate_workload(category, seed=seed, rows_per_source=rows)
        if aggregation is None or has_aggregation(generated) == aggregation:
            pool.append(generated)
            if len(pool) == count:
                return pool
    raise RuntimeError(f"fewer than {count} {category} workflows with the property")


def pin_key(generated: GeneratedWorkload, rows: int) -> str:
    """``category:seed:rows``: the fingerprint depends on rows per source."""
    return f"{generated.category}:{generated.seed}:{rows}"


def rows_sha256(generated: GeneratedWorkload) -> str:
    """SHA-256 of the first ``PINNED_ROWS`` rows per source at data seed 0.

    The rows depend only on the source names, which every workflow of
    one category shares, so one digest pins a category.
    """
    rows = generated.make_data(0, n=PINNED_ROWS)
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def check_pins(pool: list[GeneratedWorkload], rows: int) -> list[str]:
    """Compare each workflow with its pins; returns printable lines."""
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    lines = []
    for generated in pool:
        key = pin_key(generated, rows)
        fingerprint = workflow_fingerprint(generated.workflow)
        lines.append(f"{key} {fingerprint}")
        if pins["fingerprints"].get(key) != fingerprint:
            raise DriftError(
                f"input drift for {key}: pinned fingerprint "
                f"{pins['fingerprints'].get(key)}, generated {fingerprint}; "
                "generate_workload changed"
            )
        digest = rows_sha256(generated)
        if pins["rows_sha256"].get(generated.category) != digest:
            raise DriftError(
                f"input drift for {key}: pinned rows "
                f"{pins['rows_sha256'].get(generated.category)}, generated "
                f"{digest}; make_generic_rows changed"
            )
    return lines


# -- the daemon ----------------------------------------------------------------


class Daemon:
    """A ``python -m repro serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, workers: int):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.client: ServeClient | None = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            self.address = (host, int(port))
            self.client = ServeClient(self.address, timeout=150.0)
            self.client.ping()
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        try:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except (OSError, ServeError):
                    pass
                self.client.close()
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


# -- one workflow through the pipeline -----------------------------------------


@dataclass
class Flow:
    """One pool workflow and everything measured about it."""

    index: int
    generated: GeneratedWorkload
    data: dict[str, list]
    trace: str
    document: dict[str, Any] | None = None
    request_bytes: int = 0
    reply: dict[str, Any] | None = None  # the first cold answer
    plan: Any = None  # its decoded best workflow
    stats: dict[str, ExecutionStats] = field(default_factory=dict)
    expected_targets: list | None = None
    #: Seconds per step: ``encode``, ``serve`` (the cold served plan),
    #: ``decode``, and the loads of ``S0`` and of the ``plan`` ...
    times: dict[str, list[float]] = field(default_factory=lambda: _steps())
    #: ... and the same samples in reference units, each with whether
    #: the bench recorder was on while it was taken.
    norm: dict[str, list[tuple[float, bool]]] = field(default_factory=lambda: _steps())
    unscaled: list[tuple[str, float, bool]] = field(default_factory=list)
    #: Per pass: the daemon's own search seconds, and what the client
    #: waited beyond them.
    searched: list[float] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)

    @property
    def source_rows(self) -> int:
        return sum(len(rows) for rows in self.data.values())

    def record(self, key: str, seconds: float, traced: bool) -> None:
        self.times[key].append(seconds)
        self.unscaled.append((key, seconds, traced))

    def settle(self, scale: float) -> None:
        for key, seconds, traced in self.unscaled:
            self.norm[key].append((seconds / scale, traced))
        self.unscaled.clear()

    def median(self, key: str, norm: bool = True, traced: bool | None = None) -> float:
        """Median of one step; ``traced`` keeps only samples taken with
        the bench recorder on (True) or off (False)."""
        if not norm:
            return statistics.median(self.times[key])
        return statistics.median(
            value for value, on in self.norm[key] if traced is None or on == traced
        )

    def e2e(self, norm: bool = True, traced: bool | None = None) -> float:
        """Encode + served plan + decode + plan load, each its median.

        ``traced`` picks the samples of the local steps.  The served plan
        always pools both kinds: the bench wraps it in a single span and
        the daemon's work does not depend on it, while its few cold
        samples would drown any difference tracing makes.
        """
        return self.median("serve", norm) + sum(
            self.median(key, norm, traced) for key in ("encode", "decode", "plan")
        )


def _steps() -> dict[str, list[float]]:
    return {key: [] for key in ("encode", "serve", "decode", "S0", "plan")}


class Run:
    """Counts, samples and spans of one workload run."""

    def __init__(self, traced: bool):
        #: The bench-side spans.  ``spans`` is ``recorder`` while tracing
        #: is on and ``NULL_RECORDER`` while it is off: a traced run
        #: alternates the two, so that ``bench.trace_overhead_pct``
        #: compares traced and untraced samples of the same run.
        self.recorder = Recorder() if traced else NULL_RECORDER
        self.spans = self.recorder
        self.ref: Reference | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.spawns: list[float] = []  # daemon set-up, seconds
        self.spawns_norm: list[float] = []  # ... in reference units
        self.rss: list[float] = []  # each pass's daemon peak RSS, MiB
        self.stats: dict[str, Any] = {}  # the last pass's daemon ``stats`` reply
        self.reps = 0  # load pairs per workflow
        self.memo: list[float] = []  # memo-hit latencies, seconds
        self.late: list[float] = []  # how late the open-loop sender ran
        self.extras: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def tracing(self, on: bool) -> None:
        self.spans = self.recorder if on else NULL_RECORDER

    def settle(self, flows: list[Flow]) -> float:
        """Measure the reference and express every sample taken since the
        last settle in reference units; returns the reference seconds."""
        with self.spans.span("bench.reference"):
            scale = self.ref.scale()
        for flow in flows:
            flow.settle(scale)
        return scale


def encode_request(flow: Flow, run: Run) -> None:
    """``repro.io`` serialization of the request."""
    started = time.perf_counter()
    with run.spans.span("io.encode"):
        flow.document = workflow_to_dict(flow.generated.workflow)
        flow.request_bytes = len(
            encode({"op": "optimize", "workflow": flow.document, "algorithm": "hs"})
        )
    flow.record("encode", time.perf_counter() - started, run.spans.active)


def accept_plan(flow: Flow, reply: dict, seconds: float, run: Run) -> None:
    """Take one cold answer; every pass must answer the same plan."""
    flow.record("serve", seconds, run.spans.active)
    flow.searched.append(reply["result"]["elapsed_seconds"])
    flow.overheads.append(seconds - flow.searched[-1])
    if reply["served_from"] != "search":
        run.fail(f"{flow.trace}: cold request served from {reply['served_from']}")
    if flow.reply is None:
        flow.reply = reply
    elif (reply["result"]["best_signature"], reply["result"]["best_cost"]) != (
        flow.reply["result"]["best_signature"], flow.reply["result"]["best_cost"]
    ):
        run.fail(f"{flow.trace}: two daemons served different plans")


def decode_plan(flow: Flow, reply: dict, run: Run) -> None:
    started = time.perf_counter()
    with run.spans.span("io.decode"):
        plan = workflow_from_dict(reply["result"]["best_workflow"])
    flow.record("decode", time.perf_counter() - started, run.spans.active)
    if flow.plan is None:
        flow.plan = plan


def check_memo_reply(reply: dict, expected: dict, label: str, run: Run) -> None:
    if reply["served_from"] != "memo":
        run.fail(f"{label}: repeated request served from {reply['served_from']}")
    elif reply["result"]["best_signature"] != expected["best_signature"]:
        run.fail(f"{label}: memo answer differs from the cold answer")


def serve_plan(client: ServeClient, flow: Flow, run: Run, memo_repeats: int) -> None:
    """Cold served HS for one workflow, then closed-loop memo repeats."""
    with run.spans.trace(flow.trace), run.spans.span("bench.workflow"):
        encode_request(flow, run)
        run.attempted += 1
        started = time.perf_counter()
        try:
            with run.spans.span("serve.optimize"):
                reply = client.optimize(flow.document, "hs")
        except ServeError as exc:
            run.fail(f"{flow.trace}: optimize answered {exc.code}: {exc}")
            return
        accept_plan(flow, reply, time.perf_counter() - started, run)
        decode_plan(flow, reply, run)
        run.settle([flow])
        for _ in range(memo_repeats):
            run.attempted += 1
            started = time.perf_counter()
            try:
                with run.spans.span("serve.memo"):
                    memo = client.optimize(flow.document, "hs")
            except ServeError as exc:
                run.fail(f"{flow.trace}: memo request answered {exc.code}: {exc}")
                continue
            run.memo.append(time.perf_counter() - started)
            check_memo_reply(memo, reply["result"], flow.trace, run)
        run.settle([flow])


def targets_multiset(result) -> list:
    return sorted((name, as_multiset(rows)) for name, rows in result.targets.items())


def load(flow: Flow, executor: Executor, which: str, run: Run) -> None:
    """Run S0 or the plan once, timed, then check its targets."""
    workflow = flow.generated.workflow if which == "S0" else flow.plan
    run.attempted += 1
    with run.spans.trace(flow.trace), run.spans.span("bench.load"):
        started = time.perf_counter()
        try:
            with run.spans.span(f"engine.run[{which}]"):
                result = executor.run(workflow, flow.data)
        except ReproError as exc:
            run.fail(f"{flow.trace}: {which} load raised {exc}")
            return
        flow.record(which, time.perf_counter() - started, run.spans.active)
        with run.spans.span("bench.check"):
            found = targets_multiset(result)
            if flow.expected_targets is None:
                flow.expected_targets = found
            elif found != flow.expected_targets:
                run.fail(f"{flow.trace}: {which} targets differ from the other plan's")
            flow.stats.setdefault(which, result.stats)


# -- serve-mix: two streams over one pipelined connection ----------------------


def serve_mix(
    daemon: Daemon, flows: list[Flow], warm: list[GeneratedWorkload], mix: Mix,
    rng: random.Random, run: Run,
) -> None:
    """Cold closed-loop HS requests beside an open-loop memo stream.

    The main thread sends both streams; one reader thread matches
    replies by ``id``.  A memo request is timed from when it was due, so
    a stall charges its wait to every request queued behind it.
    """
    documents = [workflow_to_dict(generated.workflow) for generated in warm]
    expected = []
    for document in documents:
        run.attempted += 1
        expected.append(daemon.client.optimize(document, "hs")["result"])

    by_index = {flow.index: flow for flow in flows}
    lock = threading.Lock()
    pending: dict[int, tuple[str, int, float]] = {}
    cold_done = threading.Event()
    arrivals: list[float] = []
    cold_windows: list[tuple[float, float]] = []
    replies: list[tuple[Flow, dict, float]] = []
    sock = socket.create_connection(daemon.address, timeout=150.0)
    lines = sock.makefile("rb")

    def on_reply(reply: dict, received: float) -> None:
        with lock:
            kind, index, sent = pending.pop(reply.get("id"), ("?", -1, 0.0))
        if not reply.get("ok") or kind == "?":
            run.fail(f"{kind} request {index} answered {reply.get('code')}")
        elif kind == "memo":
            run.memo.append(received - sent)
            arrivals.append(received)
            check_memo_reply(reply, expected[index], f"memo {index}", run)
        else:
            flow = by_index[index]
            accept_plan(flow, reply, received - sent, run)
            replies.append((flow, reply, received - sent))
            cold_windows.append((sent, received))
        if kind != "memo":
            cold_done.set()

    def read() -> None:
        try:
            for line in lines:
                on_reply(decode(line), time.perf_counter())
        except Exception:  # the reader must report, never die silently
            run.fail(f"serve-mix reader: {traceback.format_exc()}")
        finally:
            cold_done.set()

    def send(rid: int, document: dict, kind: str, index: int, due: float | None) -> None:
        payload = encode({"op": "optimize", "id": rid, "workflow": document,
                          "algorithm": "hs"})
        run.attempted += 1
        with lock:
            pending[rid] = (kind, index, time.perf_counter() if due is None else due)
        sock.sendall(payload)

    reader = threading.Thread(target=read, name="bench-mix-reader", daemon=True)
    reader.start()
    ids = itertools.count(1)
    interval = 1.0 / mix.rate
    next_due = time.perf_counter() + rng.uniform(0.0, interval)
    late: list[float] = []
    cold = iter(flows)
    cold_left = len(flows)
    cold_done.set()
    try:
        while reader.is_alive():
            now = time.perf_counter()
            if cold_done.is_set() and cold_left:
                cold_done.clear()
                # Bracket each cold request with a reference reading, as
                # the closed-loop workloads do; due memo requests wait.
                run.settle(flows)
                cold_left -= 1
                flow = next(cold)
                with run.spans.trace(flow.trace):
                    encode_request(flow, run)
                send(next(ids), flow.document, "cold", flow.index, None)
            elif now >= next_due:
                index = len(late) % len(documents)
                send(next(ids), documents[index], "memo", index, next_due)
                late.append(time.perf_counter() - next_due)
                next_due += interval
            elif not cold_left and cold_done.is_set():
                break
            else:
                cold_done.wait(timeout=max(0.0, next_due - now))
        sock.shutdown(socket.SHUT_WR)
        reader.join(timeout=60.0)
        if reader.is_alive():
            run.fail("serve-mix reader did not finish")
    finally:
        lines.close()
        sock.close()
    # A request and its reply are handled on two threads, so each cold
    # workflow's spans are roots, recorded here once the reader is gone.
    for flow, reply, seconds in replies:
        with run.spans.trace(flow.trace):
            run.spans.record_span("serve.optimize", seconds)
            decode_plan(flow, reply, run)
    # The reader thread is gone, so nothing appends to the samples now.
    run.settle(flows)

    arrivals.sort()
    stalls = [
        later - earlier
        for earlier, later in zip(arrivals, arrivals[1:])
        if any(start <= (earlier + later) / 2 <= end for start, end in cold_windows)
    ]
    run.extras["serve.stall_max_ms"] = max(
        run.extras.get("serve.stall_max_ms", 0.0), 1e3 * max(stalls, default=0.0)
    )
    run.late.extend(late)


# -- the traced layer analysis -------------------------------------------------


def qerrors(workflow, stats: ExecutionStats) -> list[float]:
    """Per-activity ``max(p/o, o/p)`` of estimated against observed rows.

    Both sides get one added, so an activity that outputs no rows still
    yields a finite error.
    """
    report = estimate(workflow, ProcessedRowsCostModel())
    errors = []
    for activity in workflow.activities():
        observed = stats.rows_output.get(activity.id)
        if observed is None:
            continue
        predicted = report.cardinalities[activity] + 1.0
        observed += 1.0
        errors.append(max(predicted / observed, observed / predicted))
    return errors


def analyse_search(flows: list[Flow], run: Run) -> dict[str, float]:
    """Direct ``optimize()`` on the first flows: phases, counters, gates."""
    analysed = flows[:ANALYSED]
    recorded: list[float] = []
    visited = 0
    for flow in analysed:
        # The program records its own spans into the bench recorder, as
        # children of the open bench span.
        with run.spans.trace(flow.trace), run.spans.span("bench.search"):
            started = time.perf_counter()
            with use_recorder(run.spans):
                result = optimize(flow.generated.workflow.copy(), "hs")
            recorded.append(time.perf_counter() - started)
        visited += result.visited_states
        served = flow.reply["result"]
        run.attempted += 1
        if (served["best_signature"], served["best_cost"]) != (
            result.best.signature, result.best.cost
        ):
            run.fail(f"{flow.trace}: served plan differs from direct optimize()")

    # Only these searches record search spans and counters here, so the
    # sums below are over the analysed workflows.
    phases = {"I": 0.0, "II": 0.0, "III": 0.0, "IV": 0.0}
    recost_nodes = 0
    transitions = {"applied": 0, "rejected": 0}
    for event in run.spans.events():
        if event["type"] == "span" and event["name"] == "search.phase":
            phases[event["tags"]["phase"]] += event["seconds"]
        elif event["type"] == "counter" and event["name"] == "search.transitions":
            outcome = event["tags"].get("outcome")
            transitions[outcome] = transitions.get(outcome, 0) + event["value"]
        elif event["type"] == "counter" and event["name"] == "search.delta_recost_nodes":
            recost_nodes += event["value"]

    first = analysed[0].generated.workflow
    run.attempted += 1
    timed: dict[bool, list[float]] = {True: [], False: []}
    for _ in range(OVERHEAD_PAIRS):
        for recorder in (Recorder(), NULL_RECORDER):
            started = time.perf_counter()
            with use_recorder(recorder):
                plain = optimize(first.copy(), "hs")
            timed[recorder.active].append(time.perf_counter() - started)
    unrecorded = min(timed[False])
    started = time.perf_counter()
    parallel = optimize(first.copy(), "hs", budget=SearchBudget(jobs=2))
    jobs2_seconds = time.perf_counter() - started
    if parallel.best.signature != plain.best.signature:
        run.fail(f"{analysed[0].trace}: jobs=2 plan differs from serial")

    hs_seconds = sum(recorded)
    considered = transitions["applied"] + transitions["rejected"]
    metrics = {
        "search.hs_s": hs_seconds,
        "search.visited_states": float(visited),
        "search.states_per_s": visited / hs_seconds,
        "search.unattributed_frac": 1.0 - sum(phases.values()) / hs_seconds,
        "search.transition_accept_ratio": (
            transitions["applied"] / considered if considered else 0.0
        ),
        "search.delta_recost_nodes": float(recost_nodes),
        "search.jobs2_speedup": unrecorded / jobs2_seconds,
        "obs.recorder_overhead_pct": 100.0 * (min(timed[True]) / unrecorded - 1.0),
    }
    for phase, seconds in phases.items():
        metrics[f"search.phase_{phase}_s"] = seconds
    return metrics


def analyse_cost(flows: list[Flow]) -> dict[str, float]:
    """``estimate()`` time and its cardinality error against the loads."""
    estimate_ms = []
    errors = []
    for flow in flows:
        for which, workflow in (("S0", flow.generated.workflow), ("plan", flow.plan)):
            started = time.perf_counter()
            estimate(workflow, ProcessedRowsCostModel())
            estimate_ms.append(1e3 * (time.perf_counter() - started))
            errors.extend(qerrors(workflow, flow.stats[which]))
    return {
        "cost.estimate_ms": statistics.median(estimate_ms),
        "cost.qerror_p50": statistics.median(errors),
        "cost.qerror_max": max(errors),
    }


def analyse_engine(flows: list[Flow], run: Run) -> dict[str, float]:
    """The plan of the first flow through the engine's other paths."""
    first = flows[0]
    executor = Executor(context=first.generated.context)
    started = time.perf_counter()
    for rows in first.data.values():
        Batch.from_rows(rows).columns
    metrics = {
        "engine.from_rows_s": time.perf_counter() - started,
        "engine.rows_processed_s0": float(
            sum(flow.stats["S0"].total_rows_processed for flow in flows)
        ),
        "engine.rows_processed_plan": float(
            sum(flow.stats["plan"].total_rows_processed for flow in flows)
        ),
    }
    for label, options in (
        ("streaming_s", {"budget": ExecutionBudget()}),
        ("shards2_s", {"shards": 2}),
    ):
        run.attempted += 1
        started = time.perf_counter()
        result = executor.run(first.plan, first.data, **options)
        metrics[f"engine.{label}"] = time.perf_counter() - started
        if targets_multiset(result) != first.expected_targets:
            run.fail(f"{first.trace}: engine.{label} targets differ from the default path")
    for label, options in (
        ("peak_alloc_mb", {}),
        ("stream_peak_alloc_mb", {"budget": ExecutionBudget()}),
    ):
        tracemalloc.start()
        try:
            result = executor.run(first.plan, first.data, **options)
            metrics[f"engine.{label}"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        if result.streaming is not None:
            metrics["engine.stream_peak_resident_rows"] = float(
                result.streaming.peak_resident_rows
            )
    return metrics


# -- one workload, end to end --------------------------------------------------


def run_workload(spec: Spec, seed: int, seconds: int, traced: bool) -> dict[str, Any]:
    """Set up, measure and check one workload; returns its record."""
    run = Run(traced)
    rng = random.Random(seed)
    pool = select_pool(spec.category, spec.aggregation, spec.rows, spec.count)
    inputs = check_pins(pool, spec.rows)
    warm: list[GeneratedWorkload] = []
    if spec.mix is not None:
        warm = select_pool(WARM_CATEGORY, None, WARM_ROWS, spec.mix.warm_count)
        inputs += check_pins(warm, WARM_ROWS)
    flows = [
        Flow(index, generated, generated.make_data(seed * 100 + index * 10),
             trace=f"{spec.name}-{index}")
        for index, generated in enumerate(pool)
    ]
    # The inputs live for the whole run: keep the collector from
    # rescanning them during every timed engine run.
    gc.collect()
    gc.freeze()
    # Each CPU of a shared host flips between fast and slow on its own,
    # so the reference only tracks the work when both run on one CPU:
    # pin the bench, and with it the daemons it spawns, to one CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    measured_cpus = len(os.sched_getaffinity(0))
    try:
        run.ref = Reference()
        measure(spec, flows, warm, seconds, rng, run)
    finally:
        os.sched_setaffinity(0, cpus)
        gc.unfreeze()

    metrics: dict[str, float] = {}
    if not run.failures:
        metrics.update(end_to_end(flows, run))
        metrics.update(layer_metrics(flows, run))
        if traced:
            table = self_times(run.recorder.events())
            metrics["bench.unattributed_pct"] = (
                100.0 * unattributed(table) / sum(table.values())
            )
            metrics["bench.trace_overhead_pct"] = 100.0 * (
                statistics.mean(flow.e2e(traced=True) for flow in flows)
                / statistics.mean(flow.e2e(traced=False) for flow in flows)
                - 1.0
            )
            run.tracing(True)
            metrics.update(analyse_search(flows, run))
            metrics.update(analyse_cost(flows))
            metrics.update(analyse_engine(flows, run))
        run.extras.update(seconds_metrics(flows, run))
    if run.late:
        run.extras["bench.generator_late_p95_ms"] = 1e3 * percentile(run.late, 0.95)
        run.extras["bench.memo_sent"] = float(len(run.late))
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "passes": len(run.rss),
        "load_reps": run.reps,
        "measured_cpus": measured_cpus,
        "workflows": inputs,
        "metrics": metrics,
        "extras": run.extras,
        "samples": {
            **{
                flow.trace: {
                    "seconds": flow.times,
                    "ref": {
                        key: [value for value, _ in samples]
                        for key, samples in flow.norm.items()
                    },
                }
                for flow in flows
            },
            "memo": {"seconds": run.memo},
        },
        "recorder": run.recorder,
    }


def measure(
    spec: Spec, flows: list[Flow], warm: list[GeneratedWorkload], seconds: int,
    rng: random.Random, run: Run,
) -> None:
    """Cycles until ``seconds`` is used up: a daemon spawned only to time
    its set-up, a fresh-daemon pass over the pool, then S0/plan load
    pairs of every workflow.

    Interleaving spreads every kind of sample over the whole run, so a
    slow stretch of a shared host moves each metric a little instead of
    one metric a lot.  Every pass sends the pool in the same order:
    peak RSS depends on it.
    """
    executors = {flow.index: Executor(context=flow.generated.context) for flow in flows}
    started = time.perf_counter()

    def spawn() -> Daemon:
        daemon = Daemon(spec.workers)
        run.spawns.append(daemon.setup_seconds)
        run.spawns_norm.append(daemon.setup_seconds / run.settle(flows))
        return daemon

    def wanted() -> bool:
        elapsed = time.perf_counter() - started
        if run.failures or elapsed > PASS_DEADLINE_S:
            return False
        if len(run.rss) < MIN_PASSES:
            return True
        if spec.mix is not None and len(run.memo) < spec.mix.min_samples:
            return True
        return spec.search_bound and elapsed * (1 + 1 / len(run.rss)) <= seconds

    while wanted():
        run.tracing(len(run.rss) % 2 == 0)
        spawn().close()
        daemon = spawn()
        try:
            if spec.mix is not None:
                serve_mix(daemon, flows, warm, spec.mix, rng, run)
            else:
                for flow in flows:
                    serve_plan(daemon.client, flow, run, spec.memo_repeats)
            run.stats = daemon.client.stats()
            run.rss.append(daemon.peak_rss_mb())
        finally:
            daemon.close()
        if run.failures:
            return
        if spec.search_bound:
            for _ in range(LOAD_REPS):
                load_pairs(flows, executors, rng, run)
        else:
            # The load workloads make MIN_PASSES cycles, each ending at
            # its share of ``seconds`` however long its pass took.
            until = started + seconds * len(run.rss) / MIN_PASSES
            load_pairs(flows, executors, rng, run)
            while time.perf_counter() < until:
                load_pairs(flows, executors, rng, run)
    while len(run.spawns) < MIN_SPAWNS:
        spawn().close()


def load_pairs(
    flows: list[Flow], executors: dict[int, Executor], rng: random.Random, run: Run
) -> None:
    """One S0/plan load pair of every workflow, in a random order."""
    # The order within a pair alternates every rep and tracing every
    # second rep, so that each order is measured traced and untraced.
    run.tracing(run.reps // 2 % 2 == 0)
    for flow in rng.sample(flows, len(flows)):
        pair = ("S0", "plan") if run.reps % 2 == 0 else ("plan", "S0")
        for which in pair:
            load(flow, executors[flow.index], which, run)
    run.settle(flows)
    run.reps += 1


def end_to_end(flows: list[Flow], run: Run) -> dict[str, float]:
    """The metrics of ``BENCHMARK.json``: times in reference units, set-up
    time in nominal seconds."""
    s0_load = sum(flow.median("S0") for flow in flows)
    plan_load = sum(flow.median("plan") for flow in flows)
    return {
        "setup_s": statistics.median(run.spawns_norm) * NOMINAL_REFERENCE_S,
        "plan_ref": statistics.mean(flow.median("serve") for flow in flows),
        "e2e_ref": statistics.mean(flow.e2e() for flow in flows),
        "load_rows_per_ref": sum(flow.source_rows for flow in flows) / plan_load,
        "realized_speedup": s0_load / plan_load,
        "predicted_speedup": (
            sum(flow.reply["result"]["initial_cost"] for flow in flows)
            / sum(flow.reply["result"]["best_cost"] for flow in flows)
        ),
        "rows_speedup": (
            sum(flow.stats["S0"].total_rows_processed for flow in flows)
            / sum(flow.stats["plan"].total_rows_processed for flow in flows)
        ),
        "daemon_rss_mb": statistics.median(run.rss),
    }


def seconds_metrics(flows: list[Flow], run: Run) -> dict[str, float]:
    """The timed end-to-end metrics again, in seconds as measured."""
    return {
        "setup_raw_s": statistics.median(run.spawns),
        "plan_s": statistics.mean(flow.median("serve", False) for flow in flows),
        "e2e_s": statistics.mean(flow.e2e(False) for flow in flows),
        "load_rows_per_s": sum(flow.source_rows for flow in flows)
        / sum(flow.median("plan", False) for flow in flows),
        "reference_ms": 1e3 * statistics.median(run.ref.seconds),
    }


def layer_metrics(flows: list[Flow], run: Run) -> dict[str, float]:
    """Per-layer numbers every run gives without extra work."""
    stats = run.stats
    histograms = stats["histograms"]

    def mean(name: str) -> float:
        summary = histograms.get(name) or {}
        return summary["sum"] / summary["count"] if summary.get("count") else 0.0

    metrics = {
        "serve.queue_wait_mean_ms": 1e3 * mean("serve.queue_wait_seconds"),
        "serve.memo_lookup_mean_us": 1e6 * mean("serve.memo_lookup_seconds"),
        "serve.memo_hit_rate": stats["memo"]["hit_rate"],
        "serve.search_p50_s": statistics.median(
            seconds for flow in flows for seconds in flow.searched
        ),
        "serve.overhead_p50_ms": 1e3 * statistics.median(
            seconds for flow in flows for seconds in flow.overheads
        ),
        "serve.memo_p50_ms": 1e3 * percentile(run.memo, 0.5),
        "io.request_bytes": statistics.mean(flow.request_bytes for flow in flows),
        "io.encode_ms": 1e3 * statistics.median(flow.median("encode", False) for flow in flows),
        "io.decode_ms": 1e3 * statistics.median(flow.median("decode", False) for flow in flows),
    }
    try:
        metrics["serve.memo_p95_ms"] = 1e3 * percentile(run.memo, 0.95)
    except UnsupportedPercentile as exc:
        run.fail(f"serve.memo_p95_ms: {exc}")
    return metrics
