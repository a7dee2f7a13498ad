"""Command-line interface: optimize / render / lint / fuzz workflows.

Usage::

    python -m repro optimize flow.json --algorithm hs -o optimized.json
    python -m repro render flow.json --format dot > flow.dot
    python -m repro lint flow.json
    python -m repro impact flow.json --source SRC1 --attribute V2
    python -m repro run flow.json --data rows.json --max-resident-rows 10000
    python -m repro fuzz --seeds 50 --corpus .fuzz-corpus
    python -m repro serve --socket /tmp/repro.sock --workers 2
    python -m repro serve --port 7077 --metrics-port 9100
    python -m repro top --socket /tmp/repro.sock
    python -m repro optimize flow.json --telemetry spans.jsonl
    python -m repro report spans.jsonl
    python -m repro report spans.jsonl --trace TRACE_ID
    python -m repro explain flow.json --diff
    python -m repro explain flow.json --dot > plan.dot
    python -m repro report BENCH.json --compare benchmarks/baselines/BENCH.json

Workflows are exchanged in the JSON format of :mod:`repro.io.json_io`;
custom templates are not resolvable from the command line (use the
library API for those).

Every subcommand accepts ``--telemetry PATH``: the run records structured
spans/counters/gauges (see :mod:`repro.obs`) and writes them as JSONL to
``PATH`` on the way out; ``repro report PATH`` renders the file as
per-phase / per-operator summary tables.  ``repro explain --diff`` shows
the initial and optimized plans side by side with per-node cost deltas
attributed to the winning lineage steps; ``repro report --compare
BASELINE`` diffs two telemetry/bench files under per-metric regression
thresholds.

Exit codes: 0 on success, 1 when a check reports findings (lint/impact
diagnostics, fuzz violations, a telemetry file with no spans), 2 on bad
input (unreadable file, invalid JSON, unknown category, ...), 3 when
``report --compare`` detects a metric regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import SearchBudget, optimize
from repro.core.lint import lint_workflow
from repro.core.impact import impact_of_attribute_removal
from repro.exceptions import ReproError
from repro.io import dumps, load, to_dot, to_text
from repro.obs import (
    NULL_RECORDER,
    Recorder,
    filter_trace,
    get_recorder,
    load_events,
    render_summary,
    render_trace,
    run_top,
    summarize,
    use_recorder,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "ETL workflow optimizer — reproduction of 'Optimizing ETL "
            "Processes in Data Warehouses' (ICDE 2005)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd_optimize = commands.add_parser(
        "optimize", help="optimize a workflow and report the result"
    )
    cmd_optimize.add_argument("workflow", help="path to a workflow JSON file")
    cmd_optimize.add_argument(
        "--algorithm",
        default="hs",
        choices=["es", "hs", "greedy", "sa", "annealing"],
        help="search algorithm (default: hs)",
    )
    cmd_optimize.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="state budget (any algorithm)",
    )
    cmd_optimize.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock budget; best-so-far is reported when it trips",
    )
    cmd_optimize.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes; es and sa ignore it "
            "(default: 1; 0 = one per CPU)"
        ),
    )
    cmd_optimize.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "transposition-cache directory; warm re-runs of the same "
            "workflow skip re-exploration (default: in-memory only)"
        ),
    )
    cmd_optimize.add_argument(
        "--prune-dominated",
        action="store_true",
        help=(
            "ES only: drop frontier states dominated by a cheaper "
            "already-seen state of the same dominance class"
        ),
    )
    cmd_optimize.add_argument(
        "--output",
        "-o",
        default=None,
        help="write the optimized workflow JSON here",
    )

    cmd_explain = commands.add_parser(
        "explain",
        help="cost-annotated plan; --diff/--dot explain the optimization",
    )
    cmd_explain.add_argument("workflow", help="path to a workflow JSON file")
    cmd_explain.add_argument(
        "--algorithm",
        default="hs",
        choices=["es", "hs", "greedy", "sa", "annealing"],
        help="search algorithm for --diff/--dot (default: hs)",
    )
    cmd_explain.add_argument(
        "--max-states", type=int, default=None, help="state budget"
    )
    cmd_explain.add_argument(
        "--max-seconds", type=float, default=None, help="wall-clock budget"
    )
    cmd_explain.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes; es and sa ignore it "
            "(default: 1; 0 = one per CPU)"
        ),
    )
    cmd_explain.add_argument(
        "--cache-dir", default=None, help="transposition-cache directory"
    )
    cmd_explain.add_argument(
        "--diff",
        action="store_true",
        help=(
            "optimize, then show initial and best plans side by side with "
            "per-node cost deltas attributed to lineage steps"
        ),
    )
    cmd_explain.add_argument(
        "--dot",
        action="store_true",
        help=(
            "optimize, then emit Graphviz DOT of the best plan annotated "
            "with costs plus the winning search trace"
        ),
    )

    cmd_render = commands.add_parser(
        "render", help="render a workflow as DOT or text"
    )
    cmd_render.add_argument("workflow", help="path to a workflow JSON file")
    cmd_render.add_argument(
        "--format", default="text", choices=["text", "dot"], dest="fmt"
    )

    cmd_lint = commands.add_parser(
        "lint", help="check the naming-discipline contract"
    )
    cmd_lint.add_argument("workflow", help="path to a workflow JSON file")

    cmd_impact = commands.add_parser(
        "impact", help="what breaks if a source attribute disappears"
    )
    cmd_impact.add_argument("workflow", help="path to a workflow JSON file")
    cmd_impact.add_argument("--source", required=True)
    cmd_impact.add_argument("--attribute", required=True)

    cmd_run = commands.add_parser(
        "run", help="execute a workflow on JSON source data"
    )
    cmd_run.add_argument("workflow", help="path to a workflow JSON file")
    cmd_run.add_argument(
        "--data",
        required=True,
        help="JSON file mapping source recordset names to row lists",
    )
    cmd_run.add_argument(
        "--stream",
        action="store_true",
        help="use the streaming engine (implied by the options below)",
    )
    cmd_run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="rows per streaming batch (default: 4096; implies --stream)",
    )
    cmd_run.add_argument(
        "--max-resident-rows",
        type=int,
        default=None,
        help="resident-row budget for streaming (implies --stream)",
    )
    cmd_run.add_argument(
        "--spill-dir",
        default=None,
        help="spill directory for over-budget buffers (implies --stream)",
    )
    cmd_run.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "split the run into N data-parallel streaming pipelines "
            "(targets/stats/rejects identical to serial; N > 1 implies "
            "--stream, N = 1 is the unsharded run, N < 1 is an error)"
        ),
    )
    cmd_run.add_argument(
        "--trace",
        action="store_true",
        help="print a per-activity profile after the run",
    )
    cmd_run.add_argument(
        "--output",
        "-o",
        default=None,
        help="write the target flows as JSON here (default: counts only)",
    )

    cmd_fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing of the transition system (Theorem 2)",
    )
    cmd_fuzz.add_argument(
        "--seeds", type=int, default=25, help="number of seeds (default: 25)"
    )
    cmd_fuzz.add_argument(
        "--base-seed", type=int, default=0, help="first seed (default: 0)"
    )
    cmd_fuzz.add_argument(
        "--categories",
        default="tiny,small",
        help="comma-separated workload categories (default: tiny,small)",
    )
    cmd_fuzz.add_argument(
        "--chain-length",
        type=int,
        default=8,
        help="max transitions per chain (default: 8)",
    )
    cmd_fuzz.add_argument(
        "--rows",
        type=int,
        default=60,
        help="rows per source recordset (default: 60)",
    )
    cmd_fuzz.add_argument(
        "--data-seed", type=int, default=0, help="source-data seed"
    )
    cmd_fuzz.add_argument(
        "--corpus",
        default=None,
        help="corpus directory: persists failing seeds and repro artifacts",
    )
    cmd_fuzz.add_argument(
        "--no-packaging",
        action="store_true",
        help="exclude the MER/SPL packaging transitions",
    )
    cmd_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimizing them",
    )
    cmd_fuzz.add_argument(
        "--no-delta-cost",
        action="store_true",
        help="skip the incremental-vs-full cost consistency oracle",
    )
    cmd_fuzz.add_argument(
        "--rel-tol",
        type=float,
        default=0.05,
        help="relative cost-conformance tolerance (default: 0.05)",
    )
    cmd_fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the seed loop (default: 1; 0 = per CPU)",
    )
    cmd_fuzz.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="fuzz through the streaming engine with this batch size",
    )
    cmd_fuzz.add_argument(
        "--max-resident-rows",
        type=int,
        default=None,
        help="resident-row budget for streaming fuzz runs",
    )

    cmd_serve = commands.add_parser(
        "serve",
        help=(
            "run the optimizer-as-a-service daemon (shared warm cache, "
            "result memo, bounded admission)"
        ),
    )
    cmd_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)"
    )
    cmd_serve.add_argument(
        "--port",
        type=int,
        default=7077,
        help="TCP port (default: 7077; 0 = ephemeral, printed at startup)",
    )
    cmd_serve.add_argument(
        "--socket",
        default=None,
        help="serve on this UNIX-domain socket path instead of TCP",
    )
    cmd_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="optimizer worker threads (default: 1)",
    )
    cmd_serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker-process ceiling per search; client budgets asking for "
            "more are clamped (default: 1)"
        ),
    )
    cmd_serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="bounded job-queue depth; full means reject (default: 64)",
    )
    cmd_serve.add_argument(
        "--memo-capacity",
        type=int,
        default=1024,
        help="LRU capacity of the request-level result memo (default: 1024)",
    )
    cmd_serve.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "transposition-cache directory shared across requests "
            "(default: in-memory only — still shared while the daemon "
            "lives)"
        ),
    )
    cmd_serve.add_argument(
        "--tenant-max-inflight",
        type=int,
        default=8,
        help="queued-or-running jobs one tenant may hold (default: 8)",
    )
    cmd_serve.add_argument(
        "--tenant-max-states",
        type=int,
        default=None,
        help="ceiling on any request's max_states budget (default: none)",
    )
    cmd_serve.add_argument(
        "--tenant-max-seconds",
        type=float,
        default=None,
        help="ceiling on any request's max_seconds budget (default: none)",
    )
    cmd_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help=(
            "also serve Prometheus text exposition over plain HTTP GET "
            "/metrics on this TCP port (0 = ephemeral, printed at startup)"
        ),
    )

    cmd_top = commands.add_parser(
        "top",
        help="live one-screen summary of a running serve daemon",
    )
    cmd_top.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default: 127.0.0.1)"
    )
    cmd_top.add_argument(
        "--port", type=int, default=7077, help="daemon port (default: 7077)"
    )
    cmd_top.add_argument(
        "--socket",
        default=None,
        help="connect over this UNIX-domain socket path instead of TCP",
    )
    cmd_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default: 2.0)",
    )
    cmd_top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="render this many screens then exit (default: 0 = forever)",
    )
    cmd_top.add_argument(
        "--exemplars",
        action="store_true",
        help="also show the slowest / failed request exemplar rings",
    )
    cmd_top.add_argument(
        "--no-clear",
        action="store_true",
        help="append screens instead of clearing the terminal between polls",
    )

    cmd_report = commands.add_parser(
        "report",
        help="summarize a telemetry file, or diff it against a baseline",
    )
    cmd_report.add_argument(
        "jsonl", help="telemetry JSONL (or bench JSON with --compare)"
    )
    cmd_report.add_argument(
        "--json",
        action="store_true",
        help="emit the summary (or diff) as JSON instead of tables",
    )
    cmd_report.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help=(
            "diff the file against this baseline telemetry/bench file "
            "under per-metric regression thresholds; exit 3 on regression"
        ),
    )
    cmd_report.add_argument(
        "--fail-on-regress",
        metavar="PCT",
        type=float,
        default=None,
        help=(
            "override the gated metrics' regression threshold (percent); "
            "only meaningful with --compare"
        ),
    )
    cmd_report.add_argument(
        "--include-info",
        action="store_true",
        help="with --compare, also list informational (ungated) metrics",
    )
    cmd_report.add_argument(
        "--trace",
        metavar="TRACE_ID",
        default=None,
        dest="trace_id",
        help=(
            "filter the telemetry file to one request's span tree (the "
            "trace_id from a serve envelope or exemplar); exit 1 when no "
            "spans carry the id"
        ),
    )

    # Every subcommand records telemetry the same way.
    for subcommand in commands.choices.values():
        subcommand.add_argument(
            "--telemetry",
            metavar="PATH",
            default=None,
            help="record spans/counters/gauges and write them as JSONL here",
        )
    return parser


def _cmd_optimize(args) -> int:
    workflow = load(args.workflow)
    budget = SearchBudget(
        max_states=args.max_states,
        max_seconds=args.max_seconds,
        jobs=args.jobs,
        cache=args.cache_dir,
        prune_dominated=args.prune_dominated,
    )
    result = optimize(workflow, algorithm=args.algorithm, budget=budget)
    print(result.summary())
    print(f"initial: {result.initial.signature}")
    print(f"best   : {result.best.signature}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dumps(result.best.workflow))
        print(f"optimized workflow written to {args.output}")
    return 0


def _cmd_explain(args) -> int:
    from repro.io.explain import explain, explain_diff, explain_dot

    workflow = load(args.workflow)
    if not args.diff and not args.dot:
        print(explain(workflow))
        return 0
    budget = SearchBudget(
        max_states=args.max_states,
        max_seconds=args.max_seconds,
        jobs=args.jobs,
        cache=args.cache_dir,
    )
    result = optimize(workflow, algorithm=args.algorithm, budget=budget)
    if args.diff:
        print(result.summary())
        print()
        print(
            explain_diff(
                result.initial.workflow,
                result.best.workflow,
                lineage=result.lineage,
            )
        )
    if args.dot:
        print(
            explain_dot(
                result.best.workflow,
                lineage=result.lineage,
                title=f"{result.algorithm}: best plan",
            )
        )
    return 0


def _cmd_render(args) -> int:
    workflow = load(args.workflow)
    if args.fmt == "dot":
        print(to_dot(workflow))
    else:
        print(to_text(workflow))
    return 0


def _cmd_lint(args) -> int:
    workflow = load(args.workflow)
    findings = lint_workflow(workflow)
    if not findings:
        print("clean: the workflow honours the naming principle")
        return 0
    for finding in findings:
        print(finding)
    return 1


def _cmd_impact(args) -> int:
    workflow = load(args.workflow)
    report = impact_of_attribute_removal(workflow, args.source, args.attribute)
    if report.clean:
        print(
            f"removing {args.source}.{args.attribute} breaks nothing "
            "(it is never used)"
        )
        return 0
    for line in report.diagnostics:
        print(line)
    return 1


def _budget_from_args(args, force: bool = False):
    """An ExecutionBudget from ``--stream``-family flags, or ``None``."""
    from repro.engine.batches import DEFAULT_BATCH_SIZE, ExecutionBudget

    wants_stream = force or any(
        value is not None
        for value in (args.batch_size, args.max_resident_rows,
                      getattr(args, "spill_dir", None))
    )
    if not wants_stream:
        return None
    return ExecutionBudget(
        batch_size=(
            args.batch_size if args.batch_size is not None
            else DEFAULT_BATCH_SIZE
        ),
        max_resident_rows=args.max_resident_rows,
        spill_dir=getattr(args, "spill_dir", None),
    )


def _cmd_run(args) -> int:
    from repro.engine import Executor, TraceReport
    from repro.io.atomic import atomic_write_json

    workflow = load(args.workflow)
    with open(args.data, encoding="utf-8") as handle:
        source_data = json.load(handle)
    shards = args.shards
    budget = _budget_from_args(
        args, force=args.stream or (shards is not None and shards > 1)
    )
    # The run records its operator spans into the active recorder (the
    # --telemetry one, if any); --trace reads them back as a profile.
    recorder = get_recorder()
    if args.trace and not recorder.active:
        recorder = Recorder()
    result = Executor().run(
        workflow, source_data, budget=budget, shards=shards,
        recorder=recorder,
    )
    for name in sorted(result.targets):
        print(f"target {name}: {len(result.targets[name])} row(s)")
    print(f"rows processed: {result.stats.total_rows_processed}")
    if result.streaming is not None:
        streaming = result.streaming
        budget_note = (
            f" (budget {streaming.max_resident_rows})"
            if streaming.max_resident_rows is not None
            else ""
        )
        print(
            f"streaming: batch size {streaming.batch_size}, peak resident "
            f"rows {streaming.peak_resident_rows}{budget_note}, "
            f"{streaming.spilled_rows} row(s) spilled"
        )
    if args.trace:
        print(TraceReport.from_recorder(recorder).render())
    if args.output:
        atomic_write_json(args.output, result.targets, sort_keys=False)
        print(f"target flows written to {args.output}")
    return 0


def _cmd_fuzz(args) -> int:
    # Imported lazily: the fuzz stack pulls in the generator and engine,
    # which the file-based subcommands never need.
    from repro.fuzz import FuzzConfig, OracleConfig, run_fuzz

    categories = tuple(
        part.strip() for part in args.categories.split(",") if part.strip()
    )
    config = FuzzConfig(
        categories=categories,
        chain_length=args.chain_length,
        rows_per_source=args.rows,
        data_seed=args.data_seed,
        include_packaging=not args.no_packaging,
        oracle=OracleConfig(rel_tol=args.rel_tol),
        execution_budget=_budget_from_args(args),
        check_delta_cost=not args.no_delta_cost,
    )
    report = run_fuzz(
        config,
        seeds=args.seeds,
        base_seed=args.base_seed,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        jobs=args.jobs,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    # Imported lazily: the daemon stack pulls in the full search plane,
    # which the file-based subcommands never need.
    from repro.serve import OptimizerServer, ServeConfig, TenantPolicy

    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.socket,
        workers=args.workers,
        max_jobs=args.jobs,
        queue_size=args.queue_size,
        memo_capacity=args.memo_capacity,
        cache=args.cache_dir,
        tenant=TenantPolicy(
            max_inflight=args.tenant_max_inflight,
            max_states=args.tenant_max_states,
            max_seconds=args.tenant_max_seconds,
        ),
        metrics_port=args.metrics_port,
    )
    server = OptimizerServer(config)

    import asyncio

    async def main() -> None:
        await server.start()
        address = server.address
        if isinstance(address, tuple):
            print(f"serving on {address[0]}:{address[1]}", flush=True)
        else:
            print(f"serving on unix:{address}", flush=True)
        if server.metrics_address is not None:
            host, port = server.metrics_address
            print(f"metrics on http://{host}:{port}/metrics", flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    print("daemon stopped")
    return 0


def _cmd_top(args) -> int:
    # Imported lazily, same as _cmd_serve: the client pulls in the serve
    # protocol stack.
    from repro.serve import ServeClient

    address = args.socket if args.socket else (args.host, args.port)
    clear = sys.stdout.isatty() and not args.no_clear
    with ServeClient(address) as client:
        try:
            run_top(
                client,
                interval=args.interval,
                iterations=args.iterations,
                show_exemplars=args.exemplars,
                clear=clear,
            )
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_report(args) -> int:
    if args.trace_id is not None:
        events = load_events(args.jsonl)
        trace_events = filter_trace(events, args.trace_id)
        if args.json:
            print(json.dumps(trace_events, indent=2, sort_keys=True))
        else:
            print(render_trace(trace_events))
        has_spans = any(
            event.get("type") == "span" for event in trace_events
        )
        return 0 if has_spans else 1
    if args.compare is not None:
        from repro.obs.diff import compare_files

        diff = compare_files(
            args.compare, args.jsonl, fail_threshold=args.fail_on_regress
        )
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
        else:
            print(diff.render(include_info=args.include_info))
        return 0 if diff.ok else 3
    events = load_events(args.jsonl)
    summary = summarize(events)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0 if summary["span_events"] else 1


_HANDLERS = {
    "optimize": _cmd_optimize,
    "explain": _cmd_explain,
    "render": _cmd_render,
    "lint": _cmd_lint,
    "impact": _cmd_impact,
    "run": _cmd_run,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry_path = getattr(args, "telemetry", None)
    recorder = Recorder() if telemetry_path else NULL_RECORDER
    try:
        try:
            with use_recorder(recorder):
                with recorder.span(f"cli.{args.command}"):
                    code = _HANDLERS[args.command](args)
        finally:
            if telemetry_path:
                recorder.flush_jsonl(telemetry_path)
        # Flush inside the try so an EPIPE from buffered output surfaces
        # here (where it is handled) instead of at interpreter shutdown
        # (where it would turn into exit code 120 and stderr noise).
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # `repro render … | head` pipelines: the consumer closing the pipe
        # early is not an error.  Point stdout at devnull so the
        # interpreter's exit flush does not raise a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
