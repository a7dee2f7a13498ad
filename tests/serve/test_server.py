"""End-to-end daemon coverage: determinism, memo, admission, streaming.

The serving guarantee under test: a served result is byte-identical to a
direct :func:`repro.optimize` call with the same budget — the daemon's
warm caches and memo change latency, never the answer.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import SearchBudget, optimize
from repro.core.workflow import ETLWorkflow
from repro.io.json_io import workflow_to_dict
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeConfig,
    ServeError,
    TenantPolicy,
)
from repro.serve.protocol import decode, encode, result_to_dict
from repro.serve.server import MAX_CACHE_NAMESPACES, MAX_REQUEST_BYTES
from repro.workloads import fig1_workflow, generate_workload

BUDGET = {"max_states": 300}


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(workers=2, queue_size=8, memo_capacity=64)
    with BackgroundServer(config) as background:
        yield background


def _workflow(seed: int = 0):
    return generate_workload("tiny", seed=seed).workflow


#: The result fields a served answer must share with a direct run.
RESULT_FIELDS = (
    "best_cost",
    "best_signature",
    "best_workflow",
    "initial_cost",
    "initial_signature",
    "lineage",
    "visited_states",
    "transition_mix",
    "completed",
)


class TestDeterminism:
    def test_served_equals_direct_optimize(self, server):
        """Cost, plan and lineage match a direct in-process run exactly."""
        direct = optimize(
            _workflow(), "hs", budget=SearchBudget(max_states=300)
        )
        with server.client() as client:
            reply = client.optimize(_workflow(), "hs", budget=BUDGET)
        served = reply["result"]
        expected = result_to_dict(direct)
        for field in RESULT_FIELDS:
            assert served[field] == expected[field], field
        # Byte-identical on the wire, not merely ==.
        assert encode(
            {k: served[k] for k in ("best_workflow", "lineage")}
        ) == encode({k: expected[k] for k in ("best_workflow", "lineage")})

    def test_memo_hit_replays_identically(self, server):
        wf = _workflow(seed=1)
        with server.client() as client:
            cold = client.optimize(wf.copy(), "hs", budget=BUDGET)
            warm = client.optimize(wf.copy(), "hs", budget=BUDGET)
        assert cold["served_from"] == "search"
        assert warm["served_from"] == "memo"
        assert warm["result"] == cold["result"]

    def test_jobs_do_not_change_the_answer_or_the_memo_key(self, server):
        wf = _workflow(seed=2)
        with server.client() as client:
            serial = client.optimize(
                wf.copy(), "hs", budget={**BUDGET, "jobs": 1}
            )
            parallel = client.optimize(
                wf.copy(), "hs", budget={**BUDGET, "jobs": 4}
            )
        # jobs is excluded from the memo key: the second request hits.
        assert parallel["served_from"] == "memo"
        assert parallel["result"] == serial["result"]


class TestJobsOnATwoJobDaemon:
    """A jobs=1 request that follows a jobs=2 one for the same workflow
    gets what a direct jobs=1 ``optimize()`` returns."""

    @pytest.fixture(scope="class")
    def two_job_server(self):
        with BackgroundServer(ServeConfig(max_jobs=2)) as background:
            yield background

    def _serial_after_parallel(self, server, workflow, algorithm):
        budget = {"max_states": 300}
        with server.client() as client:
            client.optimize(
                workflow.copy(), algorithm, budget={**budget, "jobs": 2}
            )
            return client.optimize(
                workflow.copy(), algorithm, budget={**budget, "jobs": 1}
            )

    def _assert_direct(self, reply, workflow, algorithm):
        direct = result_to_dict(
            optimize(
                workflow.copy(), algorithm, budget=SearchBudget(max_states=300)
            )
        )
        for field in (*RESULT_FIELDS, "jobs"):
            assert reply["result"][field] == direct[field], field

    def test_es_answer_does_not_depend_on_jobs(self, two_job_server):
        # Truncated at 300 states, where the stopping point decides the plan.
        workflow = generate_workload("medium", seed=0).workflow
        reply = self._serial_after_parallel(two_job_server, workflow, "es")
        assert reply["served_from"] == "memo"
        self._assert_direct(reply, workflow, "es")

    def test_sa_answer_does_not_depend_on_jobs(self, two_job_server):
        workflow = generate_workload("small", seed=0).workflow
        reply = self._serial_after_parallel(two_job_server, workflow, "sa")
        assert reply["served_from"] == "memo"
        self._assert_direct(reply, workflow, "sa")


class TestMemoLatency:
    def test_repeat_request_is_an_order_of_magnitude_faster(self, server):
        wf = generate_workload("small", seed=5).workflow
        with server.client() as client:
            started = time.perf_counter()
            cold = client.optimize(wf.copy(), "hs", budget={"max_states": 800})
            cold_latency = time.perf_counter() - started
            started = time.perf_counter()
            warm = client.optimize(wf.copy(), "hs", budget={"max_states": 800})
            warm_latency = time.perf_counter() - started
        assert cold["served_from"] == "search"
        assert warm["served_from"] == "memo"
        assert warm["cache_hits"] > 0
        # The daemon's own time from parse to reply: the client's wall
        # clock adds thread wake-ups that can cost a memo hit 10+ ms.
        assert warm["latency_seconds"] < cold["latency_seconds"] / 10, (
            f"memo hit took {warm['latency_seconds']:.4f}s vs cold "
            f"{cold['latency_seconds']:.4f}s in the daemon; client wall "
            f"times {warm_latency:.4f}s vs {cold_latency:.4f}s"
        )

    def test_envelope_reports_latency_and_hits(self, server):
        with server.client() as client:
            reply = client.optimize(_workflow(seed=3), "hs", budget=BUDGET)
        assert reply["latency_seconds"] >= 0
        assert reply["cache_hits"] >= 0
        assert len(reply["fingerprint"]) == 24
        assert reply["budget"]["max_states"] == BUDGET["max_states"]


def _invalid_fig1(defect):
    """A fig1 document that builds but fails validation."""
    document = workflow_to_dict(fig1_workflow().workflow)
    if defect == "union-branches":
        (source,) = [n for n in document["nodes"] if n["id"] == "1"]
        source["schema"].append("EXTRA")
    else:  # cycle: 6 feeds 5 instead of 4
        (edge,) = [e for e in document["edges"] if e["consumer"] == "5"]
        edge["provider"] = "6"
    return document


class TestMemoHitSkipsValidation:
    """A fingerprint covers nodes, parameters, schemas, cardinalities and
    ports, so a memo hit can only match a workflow that was valid: the
    daemon validates a request's workflow only on a miss."""

    def test_memo_hit_does_not_validate(self, server, monkeypatch):
        wf = _workflow(seed=5)
        validated = []
        validate = ETLWorkflow.validate

        def counting(self):
            validated.append(self)
            return validate(self)

        with server.client() as client:
            cold = client.optimize(wf.copy(), "hs", budget=BUDGET)
            monkeypatch.setattr(ETLWorkflow, "validate", counting)
            warm = client.optimize(wf.copy(), "hs", budget=BUDGET)
        assert cold["served_from"] == "search"
        assert warm["served_from"] == "memo"
        assert warm["result"] == cold["result"]
        assert validated == []

    @pytest.mark.parametrize("defect", ["union-branches", "cycle"])
    def test_invalid_workflow_is_still_a_bad_request(self, server, defect):
        request = {
            "op": "optimize",
            "workflow": _invalid_fig1(defect),
            "algorithm": "hs",
            "budget": BUDGET,
        }
        with server.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.request(request)
            assert excinfo.value.code == "bad-request"
            assert "invalid workflow document" in str(excinfo.value)
            assert client.ping()


class TestStreaming:
    def test_progress_events_arrive_before_the_result(self, server):
        events: list[dict] = []
        with server.client() as client:
            reply = client.optimize(
                _workflow(seed=4),
                "hs",
                budget=BUDGET,
                on_event=events.append,
            )
        assert reply["ok"]
        stages = [event["event"] for event in events]
        assert "queued" in stages
        assert "started" in stages
        # search.* telemetry spans are forwarded as progress events.
        assert any(stage == "progress" for stage in stages)
        assert all(event["id"] == reply["id"] for event in events)


class TestOps:
    def test_ping(self, server):
        with server.client() as client:
            assert client.ping()

    def test_status_shape(self, server):
        with server.client() as client:
            status = client.status()
        assert status["workers"] == 2
        assert status["protocol_version"] == 1
        assert status["uptime_seconds"] >= 0
        assert "queue" in status

    def test_stats_counts_memo_and_transposition(self, server):
        with server.client() as client:
            wf = _workflow(seed=6)
            client.optimize(wf.copy(), "hs", budget=BUDGET)
            client.optimize(wf.copy(), "hs", budget=BUDGET)
            stats = client.stats()
        assert stats["memo"]["hits"] >= 1
        assert stats["memo"]["entries"] >= 1
        assert "transposition" in stats
        assert stats["tenants"]["default"] >= 2

    def test_bad_requests_keep_the_connection_usable(self, server):
        with server.client() as client:
            sock = client._socket
            sock.sendall(b"this is not json\n")
            reply = decode(client._reader.readline())
            assert reply["code"] == "bad-request"
            sock.sendall(encode({"op": "frobnicate", "id": 1}))
            reply = decode(client._reader.readline())
            assert reply["code"] == "bad-request"
            # The stream did not desync: a real request still answers.
            assert client.ping()

    def test_unknown_budget_field_is_bad_request(self, server):
        with server.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.optimize(
                    _workflow(), "hs", budget={"max_statez": 100}
                )
            assert excinfo.value.code == "bad-request"

    def test_oversized_line_gets_a_typed_reply(self, server):
        counter = "serve.requests[outcome=too_large]"
        with server.client() as client:
            before = client.stats()["counters"].get(counter, 0)
        line = b'{"op": "ping", "pad": "' + b"x" * MAX_REQUEST_BYTES + b'"}\n'
        with socket.create_connection(server.address, timeout=30) as sock:
            try:
                sock.sendall(line)
            except OSError:
                pass  # the daemon may close before taking the whole line
            replies = sock.makefile("rb").read().splitlines()
        # One typed reply, then the daemon closed the connection.
        assert [decode(reply)["code"] for reply in replies] == ["too-large"]
        with server.client() as client:
            assert client.ping()
            assert client.stats()["counters"][counter] == before + 1

    def test_malformed_budgets_keep_the_connection_usable(self, server):
        """A budget value of the wrong type is answered ``bad-request``,
        never a dropped connection or a silently different search."""
        malformed = (
            '{"jobs": "2"}',
            '{"jobs": null}',
            '{"jobs": [2]}',
            '{"max_states": true}',
            '{"max_seconds": NaN}',
            '{"prune_dominated": "no"}',
            '{"beam_width": 8}',
        )
        with server.client() as client:
            for wire in malformed:
                with pytest.raises(ServeError) as excinfo:
                    client.optimize(
                        _workflow(), "es", budget={**BUDGET, **json.loads(wire)}
                    )
                assert excinfo.value.code == "bad-request", wire
                assert client.ping(), wire

    def test_malformed_request_fields_keep_the_connection_usable(
        self, server
    ):
        """``model`` must be a string, ``stream`` a bool and ``tenant`` a
        string; anything else is ``bad-request`` before the job queues."""
        malformed = (
            '{"model": ["linear"]}',
            '{"model": {"a": 1}}',
            '{"stream": "no"}',
            '{"tenant": null}',
        )
        document = workflow_to_dict(_workflow())
        with server.client() as client:
            for wire in malformed:
                events = []
                with pytest.raises(ServeError) as excinfo:
                    client.request(
                        {
                            "op": "optimize",
                            "workflow": document,
                            "algorithm": "es",
                            "budget": BUDGET,
                            **json.loads(wire),
                        },
                        on_event=events.append,
                    )
                assert excinfo.value.code == "bad-request", wire
                assert not events, wire
                assert client.ping(), wire

    def test_boolean_port_is_bad_request(self, server):
        """``"port": true`` equals 1 in Python but is not a port: it
        would fingerprint differently and miss the memo."""
        document = workflow_to_dict(fig1_workflow().workflow)
        (edge,) = [e for e in document["edges"] if e["port"] == 1]
        edge["port"] = True
        with server.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.request(
                    {
                        "op": "optimize",
                        "workflow": document,
                        "algorithm": "hs",
                        "budget": BUDGET,
                    }
                )
            assert excinfo.value.code == "bad-request"
            assert "port" in str(excinfo.value)
            assert client.ping()

    def test_removed_bound_knob_is_bad_request(self, server):
        with server.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.optimize(_workflow(), "hs", budget={"bound": True})
            assert excinfo.value.code == "bad-request"
            assert "bound" in str(excinfo.value)
            assert client.ping()

    def test_unknown_algorithm_is_bad_request(self, server):
        with server.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.optimize(_workflow(), "simplex", budget=BUDGET)
            assert excinfo.value.code == "bad-request"


class TestAdmission:
    def test_tenant_inflight_limit_rejects_the_second_request(self):
        config = ServeConfig(
            workers=1, queue_size=8, tenant=TenantPolicy(max_inflight=1)
        )
        # One slow job occupies the tenant slot; the second submit on the
        # same connection must bounce with tenant-limit while the first
        # still answers correctly.
        document = workflow_to_dict(generate_workload("small", seed=7).workflow)
        with BackgroundServer(config) as background:
            host, port = background.address
            with socket.create_connection((host, port), timeout=60) as sock:
                reader = sock.makefile("rb")
                for rid in (1, 2):
                    sock.sendall(
                        encode(
                            {
                                "op": "optimize",
                                "id": rid,
                                "workflow": document,
                                "algorithm": "hs",
                                "budget": {"max_states": 4000},
                            }
                        )
                    )
                replies = {}
                while len(replies) < 2:
                    line = reader.readline()
                    assert line, "daemon closed the connection"
                    message = decode(line)
                    if "event" in message:
                        continue
                    replies[message["id"]] = message
        assert replies[1]["ok"] is True
        assert replies[2]["ok"] is False
        assert replies[2]["code"] == "tenant-limit"

    def test_tenant_budget_ceiling_clamps_the_search(self):
        config = ServeConfig(
            workers=1, tenant=TenantPolicy(max_states=50)
        )
        with BackgroundServer(config) as background:
            with background.client() as client:
                reply = client.optimize(
                    generate_workload("small", seed=8).workflow,
                    "hs",
                    budget={"max_states": 100_000},
                )
        assert reply["result"]["visited_states"] <= 50
        assert reply["budget"]["max_states"] == 50


class TestShutdown:
    def test_shutdown_op_stops_the_daemon(self):
        with BackgroundServer(ServeConfig(workers=1)) as background:
            with background.client() as client:
                client.optimize(_workflow(), "hs", budget=BUDGET)
                reply = client.shutdown()
                assert reply["stopping"] is True
            background._thread.join(timeout=30.0)
            assert not background._thread.is_alive()


class TestBoundedCache:
    def test_distinct_workflows_past_the_bound(self):
        """The daemon keeps MAX_CACHE_NAMESPACES transposition namespaces,
        dropping the least recently used, and keeps answering exactly."""
        served = MAX_CACHE_NAMESPACES + 3
        with BackgroundServer(ServeConfig(workers=1)) as background:
            with background.client() as client:
                for seed in range(served):
                    client.optimize(_workflow(seed=seed), "hs", budget=BUDGET)
                stats = client.stats()["transposition"]
                # A new budget misses the memo: seed 0's namespace, long
                # dropped, is searched again.
                again = client.optimize(
                    _workflow(seed=0), "hs", budget={"max_states": 200}
                )
                assert client.ping()
                after = client.stats()["transposition"]
        assert stats["namespaces"] == MAX_CACHE_NAMESPACES
        assert stats["evictions"] == served - MAX_CACHE_NAMESPACES
        assert after["namespaces"] == MAX_CACHE_NAMESPACES
        assert after["evictions"] == stats["evictions"] + 1
        direct = result_to_dict(
            optimize(
                _workflow(seed=0), "hs", budget=SearchBudget(max_states=200)
            )
        )
        for field in RESULT_FIELDS:
            assert again["result"][field] == direct[field], field


class TestConcurrency:
    def test_many_clients_many_workflows(self):
        """4 threads × distinct workflows: every answer matches direct."""
        config = ServeConfig(workers=2, queue_size=32)
        seeds = list(range(4))
        direct = {
            seed: result_to_dict(
                optimize(
                    _workflow(seed=seed),
                    "hs",
                    budget=SearchBudget(max_states=300),
                )
            )
            for seed in seeds
        }
        failures: list[str] = []
        with BackgroundServer(config) as background:

            def hammer(seed: int) -> None:
                try:
                    with ServeClient(background.address) as client:
                        for _ in range(3):
                            reply = client.optimize(
                                _workflow(seed=seed), "hs", budget=BUDGET
                            )
                            for field in ("best_cost", "best_signature"):
                                if reply["result"][field] != direct[seed][field]:
                                    failures.append(
                                        f"seed {seed}: {field} diverged"
                                    )
                except Exception as exc:  # surfaced after join
                    failures.append(f"seed {seed}: {exc!r}")

            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            with background.client() as client:
                stats = client.stats()
        assert not failures, failures
        # 3 repeats per seed: at least the repeats hit the memo.
        assert stats["memo"]["hits"] >= len(seeds) * 2


class TestFig1:
    def test_paper_workflow_round_trips(self, server):
        """The paper's running example serves with its known improvement."""
        direct = optimize(
            fig1_workflow().workflow, "hs", budget=SearchBudget(max_states=300)
        )
        with server.client() as client:
            reply = client.optimize(
                fig1_workflow().workflow, "hs", budget=BUDGET
            )
        assert reply["result"]["best_cost"] == direct.best.cost
        assert reply["result"]["improvement_percent"] == pytest.approx(
            direct.improvement_percent
        )
