"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.io import load, save
from repro.workloads import fig1_workflow


@pytest.fixture
def fig1_json(tmp_path):
    path = str(tmp_path / "fig1.json")
    save(fig1_workflow().workflow, path)
    return path


class TestOptimizeCommand:
    def test_optimize_prints_summary(self, fig1_json, capsys):
        assert main(["optimize", fig1_json]) == 0
        out = capsys.readouterr().out
        assert "HS:" in out
        assert "((1.3)//(2.4.5.6)).7.8.9" in out

    def test_optimize_writes_output(self, fig1_json, tmp_path, capsys):
        out_path = str(tmp_path / "optimized.json")
        assert main(["optimize", fig1_json, "-o", out_path]) == 0
        optimized = load(out_path)
        ids = {a.id for a in optimized.activities()}
        assert "8_1" in ids  # the distributed selection

    def test_optimize_with_es_budget(self, fig1_json, capsys):
        assert main(
            ["optimize", fig1_json, "--algorithm", "es", "--max-states", "50"]
        ) == 0
        assert "ES:" in capsys.readouterr().out

    def test_greedy_algorithm(self, fig1_json, capsys):
        assert main(["optimize", fig1_json, "--algorithm", "greedy"]) == 0
        assert "HS-Greedy" in capsys.readouterr().out


class TestRenderCommand:
    def test_render_text(self, fig1_json, capsys):
        assert main(["render", fig1_json]) == 0
        assert "PARTS1 (source)" in capsys.readouterr().out

    def test_render_dot(self, fig1_json, capsys):
        assert main(["render", fig1_json, "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph etl {")


class TestLintCommand:
    def test_clean_workflow(self, fig1_json, capsys):
        assert main(["lint", fig1_json]) == 0
        assert "clean" in capsys.readouterr().out


class TestImpactCommand:
    def test_breaking_removal_exits_nonzero(self, fig1_json, capsys):
        assert main(
            ["impact", fig1_json, "--source", "PARTS2", "--attribute", "DCOST"]
        ) == 1
        assert "loses functionality" in capsys.readouterr().out

    def test_harmless_removal_exits_zero(self, fig1_json, capsys):
        assert main(
            ["impact", fig1_json, "--source", "PARTS2", "--attribute", "DEPT"]
        ) == 0
        assert "breaks nothing" in capsys.readouterr().out


class TestFuzzCommand:
    FAST = ["--seeds", "3", "--rows", "30", "--chain-length", "4",
            "--categories", "tiny"]

    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "3 seed(s)" in out
        assert "no equivalence or cost-conformance violations" in out

    def test_corpus_directory_is_written(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        assert main(["fuzz", *self.FAST, "--corpus", corpus]) == 0
        assert (tmp_path / "corpus" / "summary.json").exists()

    def test_violations_exit_nonzero(self, monkeypatch, capsys):
        from repro.core.transitions.swap import Swap

        real_rewire = Swap.rewire

        def broken_rewire(self, workflow):
            real_rewire(self, workflow)
            victim = self.first
            if getattr(victim.template, "name", None) != "selection":
                return
            provider = workflow.providers(victim)[0]
            consumer = workflow.consumers(victim)[0]
            port = workflow.edge_port(victim, consumer)
            workflow.remove_node(victim)
            workflow.add_edge(provider, consumer, port=port)

        monkeypatch.setattr(Swap, "rewire", broken_rewire)
        assert main(["fuzz", "--seeds", "10", "--rows", "30",
                     "--chain-length", "4", "--no-packaging"]) == 1
        assert "violating seed(s)" in capsys.readouterr().out

    def test_unknown_category_exits_two(self, capsys):
        assert main(["fuzz", "--categories", "bogus", "--seeds", "1"]) == 2
        assert "unknown workload categories" in capsys.readouterr().err

    def test_empty_categories_exit_two(self, capsys):
        assert main(["fuzz", "--categories", "", "--seeds", "1"]) == 2
        assert "at least one workload category" in capsys.readouterr().err

    def test_bad_chain_length_exits_two(self, capsys):
        assert main(["fuzz", "--chain-length", "0", "--seeds", "1"]) == 2
        assert "chain_length" in capsys.readouterr().err


class TestBadInput:
    """Every file-reading subcommand fails cleanly with exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "{path}"],
            ["render", "{path}"],
            ["lint", "{path}"],
            ["impact", "{path}", "--source", "S", "--attribute", "A"],
        ],
        ids=["optimize", "render", "lint", "impact"],
    )
    def test_missing_file(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = main([part.format(path=missing) for part in argv])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["render", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unsupported_format_version(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text(
            '{"format_version": 999, "nodes": [], "edges": []}',
            encoding="utf-8",
        )
        assert main(["lint", str(path)]) == 2
        assert "unsupported workflow format version" in capsys.readouterr().err


def test_unknown_command_rejected(fig1_json):
    with pytest.raises(SystemExit):
        main(["teleport", fig1_json])


def test_broken_pipe_is_not_an_error(fig1_json):
    """`repro render … | head` must exit 0 on EPIPE, not 2 (or 120)."""
    import os
    import subprocess
    import sys

    import repro

    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    read_end, write_end = os.pipe()
    os.close(read_end)  # writes into the pipe now raise EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "render", fig1_json],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


@pytest.fixture
def runnable_flow(tmp_path):
    """A workflow + data file executable with the default engine context."""
    import json

    from repro.core.activity import Activity
    from repro.core.recordset import RecordSet, RecordSetKind
    from repro.core.schema import Schema
    from repro.core.workflow import ETLWorkflow
    from repro.templates import default_library

    library = default_library()
    workflow = ETLWorkflow()
    source = RecordSet(
        "S", "S", Schema(("K", "V")), kind=RecordSetKind.SOURCE, cardinality=100
    )
    target = RecordSet("T", "T", Schema(("K", "V")), kind=RecordSetKind.TARGET)
    select = Activity(
        "a1",
        library.get("selection"),
        {"attr": "V", "op": ">", "value": 10},
        selectivity=0.5,
    )
    aggregate = Activity(
        "a2",
        library.get("aggregation"),
        {"group_by": ("K",), "measure": "V", "output": "V", "agg": "sum"},
        selectivity=0.3,
    )
    for node in (source, target, select, aggregate):
        workflow.add_node(node)
    workflow.add_edge(source, select)
    workflow.add_edge(select, aggregate)
    workflow.add_edge(aggregate, target)

    flow_path = str(tmp_path / "flow.json")
    save(workflow, flow_path)
    data_path = str(tmp_path / "data.json")
    with open(data_path, "w", encoding="utf-8") as handle:
        json.dump({"S": [{"K": i % 5, "V": i} for i in range(100)]}, handle)
    return flow_path, data_path


class TestRunCommand:
    def test_materializing_run(self, runnable_flow, capsys):
        flow, data = runnable_flow
        assert main(["run", flow, "--data", data]) == 0
        out = capsys.readouterr().out
        assert "target T: 5 row(s)" in out
        assert "streaming" not in out

    def test_streaming_run_reports_budget(self, runnable_flow, capsys):
        flow, data = runnable_flow
        assert main(
            ["run", flow, "--data", data,
             "--batch-size", "16", "--max-resident-rows", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "target T: 5 row(s)" in out
        assert "batch size 16" in out
        assert "(budget 64)" in out

    def test_stream_flag_alone_uses_default_batch_size(
        self, runnable_flow, capsys
    ):
        flow, data = runnable_flow
        assert main(["run", flow, "--data", data, "--stream"]) == 0
        assert "batch size 4096" in capsys.readouterr().out

    def test_trace_and_output(self, runnable_flow, tmp_path, capsys):
        import json

        flow, data = runnable_flow
        out_path = str(tmp_path / "targets.json")
        assert main(
            ["run", flow, "--data", data, "--stream", "--trace",
             "-o", out_path]
        ) == 0
        out = capsys.readouterr().out
        assert "res.peak" in out  # trace table rendered
        targets = json.load(open(out_path))
        assert len(targets["T"]) == 5

    def test_streaming_matches_materializing_targets(
        self, runnable_flow, tmp_path, capsys
    ):
        import json

        flow, data = runnable_flow
        plain_path = str(tmp_path / "plain.json")
        stream_path = str(tmp_path / "stream.json")
        assert main(["run", flow, "--data", data, "-o", plain_path]) == 0
        assert main(
            ["run", flow, "--data", data, "--batch-size", "7",
             "-o", stream_path]
        ) == 0
        assert json.load(open(plain_path)) == json.load(open(stream_path))

    def test_missing_data_file_exits_2(self, runnable_flow):
        flow, _ = runnable_flow
        assert main(["run", flow, "--data", "/nonexistent/data.json"]) == 2

    def test_shards_below_one_exits_2(self, runnable_flow, capsys):
        flow, data = runnable_flow
        assert main(["run", flow, "--data", data, "--shards", "0"]) == 2
        assert "shards must be at least 1" in capsys.readouterr().err


class TestFuzzStreamingFlags:
    def test_fuzz_with_batch_size_streams(self, capsys):
        assert main(
            ["fuzz", "--seeds", "2", "--chain-length", "2",
             "--rows", "20", "--batch-size", "16", "--no-shrink"]
        ) == 0
        assert "no equivalence" in capsys.readouterr().out


class TestTelemetry:
    def test_optimize_writes_jsonl_and_report_renders(
        self, fig1_json, tmp_path, capsys
    ):
        import json

        jsonl = str(tmp_path / "spans.jsonl")
        assert main(["optimize", fig1_json, "--telemetry", jsonl]) == 0
        capsys.readouterr()
        lines = open(jsonl, encoding="utf-8").read().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        kinds = {json.loads(line)["type"] for line in lines}
        assert "span" in kinds and "counter" in kinds

        assert main(["report", jsonl]) == 0
        out = capsys.readouterr().out
        # Per-phase HS spans render as one row per phase.
        assert "search.phase[phase=I]" in out
        assert "search.phase[phase=IV]" in out
        assert "cli.optimize" in out
        assert "search.transitions" in out

    def test_run_telemetry_records_per_operator_spans(
        self, runnable_flow, tmp_path, capsys
    ):
        flow, data = runnable_flow
        jsonl = str(tmp_path / "run.jsonl")
        assert main(
            ["run", flow, "--data", data, "--batch-size", "16",
             "--telemetry", jsonl]
        ) == 0
        capsys.readouterr()
        assert main(["report", jsonl]) == 0
        out = capsys.readouterr().out
        assert "engine.run[mode=streaming]" in out
        assert "engine.operator[activity=a1]" in out
        assert "engine.resident_rows.peak" in out

    def test_fuzz_telemetry_records_per_seed_spans(self, tmp_path, capsys):
        jsonl = str(tmp_path / "fuzz.jsonl")
        assert main(
            ["fuzz", "--seeds", "2", "--chain-length", "2", "--rows", "20",
             "--categories", "tiny", "--telemetry", jsonl]
        ) == 0
        capsys.readouterr()
        assert main(["report", jsonl]) == 0
        out = capsys.readouterr().out
        assert "fuzz.seed[category=tiny]" in out
        assert "fuzz.oracle[category=tiny]" in out

    def test_report_json_mode(self, fig1_json, tmp_path, capsys):
        import json

        jsonl = str(tmp_path / "spans.jsonl")
        assert main(["optimize", fig1_json, "--telemetry", jsonl]) == 0
        capsys.readouterr()
        assert main(["report", jsonl, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["span_events"] > 0
        assert any(
            label.startswith("search.phase") for label in summary["spans"]
        )

    def test_report_trace_filters_one_request_tree(self, tmp_path, capsys):
        from repro.obs import Recorder

        recorder = Recorder()
        for trace in ("t-a", "t-b"):
            with recorder.trace(trace), recorder.span(
                "serve.request", tenant="default"
            ):
                with recorder.span("serve.search"):
                    pass
        jsonl = str(tmp_path / "serve.jsonl")
        recorder.flush_jsonl(jsonl)

        assert main(["report", jsonl, "--trace", "t-a"]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out and "serve.search" in out
        # One request's tree only: two spans, not four.
        assert out.count("serve.request") == 1

    def test_report_trace_json_mode(self, tmp_path, capsys):
        import json

        from repro.obs import Recorder

        recorder = Recorder()
        with recorder.trace("t-x"), recorder.span("serve.request"):
            pass
        jsonl = str(tmp_path / "serve.jsonl")
        recorder.flush_jsonl(jsonl)
        assert main(["report", jsonl, "--trace", "t-x", "--json"]) == 0
        events = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in events] == ["serve.request"]

    def test_report_trace_unknown_id_exits_one(self, tmp_path, capsys):
        from repro.obs import Recorder

        recorder = Recorder()
        with recorder.span("serve.request"):
            pass
        jsonl = str(tmp_path / "serve.jsonl")
        recorder.flush_jsonl(jsonl)
        assert main(["report", jsonl, "--trace", "missing"]) == 1
        assert "no spans" in capsys.readouterr().out

    def test_report_without_spans_exits_one(self, tmp_path, capsys):
        jsonl = tmp_path / "empty.jsonl"
        jsonl.write_text(
            '{"type": "meta", "format_version": 1}\n', encoding="utf-8"
        )
        assert main(["report", str(jsonl)]) == 1
        assert "no spans recorded" in capsys.readouterr().out

    def test_report_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_telemetry_written_even_when_command_finds_issues(
        self, fig1_json, tmp_path, capsys
    ):
        jsonl = str(tmp_path / "impact.jsonl")
        assert main(
            ["impact", fig1_json, "--source", "PARTS2",
             "--attribute", "DCOST", "--telemetry", jsonl]
        ) == 1
        capsys.readouterr()
        assert main(["report", jsonl]) == 0  # the cli span is always there


class TestExplainCommand:
    def test_plain_explain_renders_cost_table(self, fig1_json, capsys):
        assert main(["explain", fig1_json]) == 0
        out = capsys.readouterr().out
        assert "rows out" in out
        assert "total" in out

    def test_diff_shows_plans_and_lineage(self, fig1_json, capsys):
        assert main(["explain", fig1_json, "--diff"]) == 0
        out = capsys.readouterr().out
        assert "initial plan" in out and "optimized plan" in out
        assert "transition mix:" in out
        assert "cost before" in out and "cost after" in out
        assert "SWA(" in out  # fig1's winning chain swaps selections forward

    def test_dot_exports_graph_and_trace(self, fig1_json, capsys):
        assert main(["explain", fig1_json, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph etl {")
        assert "cluster_trace" in out
        assert '"trace_0" [label="S0"]' in out

    def test_diff_with_es_algorithm(self, fig1_json, capsys):
        assert main(
            ["explain", fig1_json, "--diff", "--algorithm", "es",
             "--max-states", "300"]
        ) == 0
        assert "ES:" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompareGate:
    def _write(self, path, payload):
        import json

        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        return str(path)

    def test_identical_files_exit_zero(self, tmp_path, capsys):
        base = self._write(
            tmp_path / "base.json", {"best_cost": 100.0, "visited_states": 50}
        )
        assert main(["report", base, "--compare", base]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_exits_three(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", {"best_cost": 100.0})
        curr = self._write(tmp_path / "curr.json", {"best_cost": 125.0})
        assert main(["report", curr, "--compare", base]) == 3
        out = capsys.readouterr().out
        assert "regressed" in out
        assert "1 regression(s)" in out

    def test_fail_on_regress_loosens_threshold(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", {"best_cost": 100.0})
        curr = self._write(tmp_path / "curr.json", {"best_cost": 125.0})
        assert main(
            ["report", curr, "--compare", base, "--fail-on-regress", "50"]
        ) == 0

    def test_compare_json_mode_emits_machine_report(self, tmp_path, capsys):
        import json

        base = self._write(tmp_path / "base.json", {"best_cost": 100.0})
        curr = self._write(tmp_path / "curr.json", {"best_cost": 130.0})
        assert main(["report", curr, "--compare", base, "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["regressions"] == ["best_cost"]

    def test_compare_telemetry_jsonl(self, fig1_json, tmp_path, capsys):
        jsonl = str(tmp_path / "spans.jsonl")
        assert main(["optimize", fig1_json, "--telemetry", jsonl]) == 0
        capsys.readouterr()
        assert main(["report", jsonl, "--compare", jsonl]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_missing_baseline_exits_two(self, fig1_json, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", {"best_cost": 100.0})
        missing = str(tmp_path / "nope.json")
        assert main(["report", base, "--compare", missing]) == 2
        assert "error:" in capsys.readouterr().err
