#!/usr/bin/env python
"""Serial vs parallel HS and sharded streaming, plus the warm-cache rerun.

Records the parallel engine's acceptance numbers in ``BENCH_parallel.json``:

* wall-clock of ``jobs=1`` vs ``jobs=2,4`` HS on a generated scaling
  workload (default: ``large`` seed 0 — 9 local groups), with a hard check
  that every parallel run returns the byte-identical best signature, cost
  and visited count;
* wall-clock of serial streaming vs ``shards=2,4`` partitioned streaming
  on a deep 12-activity filter chain, with a hard check that every
  sharded run returns byte-identical targets and stats;
* a cold-vs-warm on-disk cache pair, recording the warm run's ``cache_hits``
  and time;
* the incremental fast path against its ``REPRO_FULL_RECOST`` slow twin
  (same budget, byte-identical result required) — the ISSUE 6 headline
  speedup;
* the telemetry-overhead pair: the same cold serial search with a live
  :class:`Recorder` vs the ``NULL_RECORDER``, byte-identical result
  required; the delta is recorded as informational, never gated.

The speedup columns are only meaningful on multi-core machines — group
exploration and shard pipelines are CPU-bound, so on a single-core
container ``jobs>1``/``shards>1`` add pool overhead instead (the JSON
records ``cpu_count`` so the perf trajectory can tell those environments
apart).  ``--require-speedup`` turns the acceptance criterion into an
exit code: on a multi-core machine the best jobs>1 and shards>1 runs
must each beat serial.

Usage::

    python benchmarks/bench_parallel.py                     # large, jobs 2,4
    python benchmarks/bench_parallel.py --category small    # CI smoke size
    python benchmarks/bench_parallel.py --jobs 2 --shards 2 \\
        --require-speedup                                   # 2-core CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SearchBudget, heuristic_search  # noqa: E402
from repro.core import flags  # noqa: E402
from repro.core.activity import Activity  # noqa: E402
from repro.core.recordset import RecordSet, RecordSetKind  # noqa: E402
from repro.core.schema import Schema  # noqa: E402
from repro.core.workflow import ETLWorkflow  # noqa: E402
from repro.engine import ExecutionBudget, Executor  # noqa: E402
from repro.engine.operators import (  # noqa: E402
    EngineContext,
    default_scalar_functions,
)
from repro.obs import (  # noqa: E402
    Recorder,
    summarize,
    use_recorder,
    verify_lineage,
)
from repro.templates import builtin as t  # noqa: E402
from repro.workloads import generate_workload  # noqa: E402
from repro.workloads.datagen import make_generic_rows  # noqa: E402


def _run(category: str, seed: int, budget: SearchBudget, recorder=None):
    workload = generate_workload(category, seed=seed)
    started = time.perf_counter()
    with use_recorder(recorder):
        result = heuristic_search(workload.workflow.copy(), budget=budget)
    return time.perf_counter() - started, result


def _deep_filter_chain() -> ETLWorkflow:
    """A 12-activity reduce pipeline (filters + scalar functions, overall
    selectivity ~2%): the partitionable ETL shape where shard compute
    dominates and the merged output stays small.  Shallow scenarios like
    ``two_branch`` ship most of their input back to the parent, so the
    serial merge eats the parallel win; this chain is the honest
    shards-pay case."""
    schema = Schema(["KEY", "SRC", "DATE", "V1", "V2", "V3"])
    wf = ETLWorkflow()
    prev = wf.add_node(
        RecordSet("src", "SRC", schema, RecordSetKind.SOURCE, 500000)
    )
    fn = t.FUNCTION_APPLY
    for activity in (
        # Full-volume prefix: every source row flows through these four.
        Activity("a1", t.NOT_NULL, {"attr": "V1"}, selectivity=0.95),
        Activity("a2", fn, {"function": "scale_double", "inputs": ("V1",),
                            "output": "W1", "injective": True}),
        Activity("a3", fn, {"function": "shift_up", "inputs": ("V2",),
                            "output": "W2", "injective": True}),
        Activity("a4", fn, {"function": "negate", "inputs": ("V3",),
                            "output": "W3", "injective": True}),
        # Reduce cascade: ~1% of the input survives to the target.
        Activity("a5", t.SELECTION,
                 {"attr": "W1", "op": ">=", "value": 100.0},
                 selectivity=0.5),
        Activity("a6", t.SELECTION,
                 {"attr": "W2", "op": ">=", "value": 1075.0},
                 selectivity=0.25),
        Activity("a7", t.SELECTION,
                 {"attr": "W3", "op": "<=", "value": -60.0},
                 selectivity=0.4),
        Activity("a8", fn, {"function": "scale_double", "inputs": ("W1",),
                            "output": "W4", "injective": True}),
        Activity("a9", t.SELECTION,
                 {"attr": "W4", "op": ">=", "value": 280.0},
                 selectivity=0.6),
        Activity("a10", fn, {"function": "shift_up", "inputs": ("W2",),
                             "output": "W5", "injective": True}),
        Activity("a11", t.SELECTION,
                 {"attr": "W5", "op": ">=", "value": 2090.0},
                 selectivity=0.4),
        Activity("a12", t.NOT_NULL, {"attr": "W4"}, selectivity=1.0),
    ):
        node = wf.add_node(activity)
        wf.add_edge(prev, node)
        prev = node
    dw = wf.add_node(
        RecordSet("dw", "DW", Schema(["KEY", "SRC", "DATE", "W3", "W4", "W5"]),
                  RecordSetKind.TARGET)
    )
    wf.add_edge(prev, dw)
    return wf


def _engine_section(seed: int, rows: int, shard_counts: list[int]):
    """Serial streaming vs shards=N partitioned streaming, byte-checked."""
    workflow = _deep_filter_chain()
    data = {"SRC": make_generic_rows(rows, seed, "SRC")}
    executor = Executor(
        context=EngineContext(scalar_functions=default_scalar_functions())
    )
    budget = ExecutionBudget(batch_size=4096)
    started = time.perf_counter()
    serial = executor.run(workflow, data, budget=budget)
    serial_seconds = time.perf_counter() - started
    out_rows = sum(len(rows_) for rows_ in serial.targets.values())
    print(f"  engine  shards=1  {serial_seconds:7.2f}s  "
          f"rows={rows} -> {out_rows}")
    runs = []
    for shards in shard_counts:
        started = time.perf_counter()
        sharded = executor.run(workflow, data, budget=budget, shards=shards)
        seconds = time.perf_counter() - started
        identical = (
            list(sharded.targets) == list(serial.targets)
            and sharded.targets == serial.targets
            and sharded.stats.rows_processed == serial.stats.rows_processed
            and sharded.stats.rows_output == serial.stats.rows_output
        )
        runs.append({
            "shards": shards,
            "seconds": round(seconds, 4),
            "speedup": round(serial_seconds / seconds, 3),
            "identical_to_serial": identical,
        })
        print(f"  engine  shards={shards}  {seconds:7.2f}s  "
              f"speedup={serial_seconds / seconds:.2f}x  "
              f"identical={identical}")
        if not identical:
            return None, "sharded engine run diverged from serial"
    return {
        "scenario": "deep_filter_chain",
        "rows_per_source": rows,
        "target_rows": out_rows,
        "serial_seconds": round(serial_seconds, 4),
        "runs": runs,
    }, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--category", default="large",
                        help="workload category (default: large)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", default="2,4",
                        help="comma-separated parallel worker counts")
    parser.add_argument("--shards", default="2,4",
                        help="comma-separated engine shard counts")
    parser.add_argument("--engine-rows", type=int, default=None,
                        help="rows per source for the sharded-engine runs "
                             "(default: 2000000, or 150000 for --category "
                             "small)")
    parser.add_argument("--require-speedup", action="store_true",
                        help="exit 1 unless the best jobs>1 and shards>1 "
                             "runs beat serial (skipped when cpu_count<2)")
    parser.add_argument("--output", default="BENCH_parallel.json")
    parser.add_argument("--no-full-recost", action="store_true",
                        help="skip the slow-twin comparison run")
    args = parser.parse_args(argv)
    job_counts = [int(part) for part in args.jobs.split(",") if part.strip()]
    shard_counts = [
        int(part) for part in args.shards.split(",") if part.strip()
    ]
    engine_rows = args.engine_rows
    if engine_rows is None:
        engine_rows = 150000 if args.category == "small" else 2000000

    workload = generate_workload(args.category, seed=args.seed)
    probe = workload.workflow
    probe.validate()
    probe.propagate_schemas()
    local_groups = [g for g in probe.local_groups() if len(g) >= 2]

    # Telemetry rides along on the serial run; its per-phase summary is
    # embedded in the payload so a perf run carries its own breakdown.
    recorder = Recorder()
    serial_seconds, serial = _run(
        args.category, args.seed, SearchBudget(), recorder=recorder
    )
    print(f"{args.category} seed {args.seed}: "
          f"{workload.activity_count} activities, "
          f"{len(local_groups)} local groups")
    print(f"  jobs=1  {serial_seconds:7.2f}s  "
          f"visited={serial.visited_states}  best={serial.best.cost:.0f}")

    # Telemetry must be ~free when off: the same cold serial search with
    # the NULL_RECORDER, byte-identical result required.  The overhead
    # delta lands in the payload as informational (the diff gate lists
    # ``telemetry_overhead`` as INFO — recorded, never gated).
    off_seconds, off = _run(args.category, args.seed, SearchBudget())
    off_identical = (
        off.best.signature == serial.best.signature
        and off.best.cost == serial.best.cost
        and off.visited_states == serial.visited_states
    )
    overhead_pct = 100.0 * (serial_seconds - off_seconds) / off_seconds
    telemetry_overhead = {
        "on_seconds": round(serial_seconds, 4),
        "off_seconds": round(off_seconds, 4),
        "overhead_pct": round(overhead_pct, 2),
    }
    print(f"  telemetry on {serial_seconds:.2f}s / off {off_seconds:.2f}s "
          f"({overhead_pct:+.1f}% overhead, identical={off_identical})")
    if not off_identical:
        print("error: telemetry-off run diverged from recorder-on run",
              file=sys.stderr)
        return 1

    runs = []
    for jobs in job_counts:
        seconds, result = _run(
            args.category, args.seed, SearchBudget(jobs=jobs)
        )
        identical = (
            result.best.signature == serial.best.signature
            and result.best.cost == serial.best.cost
            and result.visited_states == serial.visited_states
        )
        runs.append({
            "jobs": jobs,
            "seconds": round(seconds, 4),
            "speedup": round(serial_seconds / seconds, 3),
            "identical_to_serial": identical,
        })
        print(f"  jobs={jobs}  {seconds:7.2f}s  "
              f"speedup={serial_seconds / seconds:.2f}x  "
              f"identical={identical}")
        if not identical:
            print("error: parallel run diverged from serial", file=sys.stderr)
            return 1

    engine, engine_error = _engine_section(
        args.seed, engine_rows, shard_counts
    )
    if engine_error is not None:
        print(f"error: {engine_error}", file=sys.stderr)
        return 1

    if args.require_speedup:
        cpu_count = os.cpu_count() or 1
        if cpu_count < 2:
            print("  speedup gate skipped: single-core machine")
        else:
            best_jobs = max(run["speedup"] for run in runs)
            best_shards = max(run["speedup"] for run in engine["runs"])
            print(f"  speedup gate: jobs {best_jobs:.2f}x, "
                  f"shards {best_shards:.2f}x (cpu_count={cpu_count})")
            if best_jobs < 1.0 or best_shards < 1.0:
                print("error: parallelism does not pay on this "
                      f"{cpu_count}-core machine "
                      f"(jobs {best_jobs:.2f}x, shards {best_shards:.2f}x)",
                      file=sys.stderr)
                return 1

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold_seconds, cold = _run(
            args.category, args.seed, SearchBudget(cache=cache_dir)
        )
        warm_seconds, warm = _run(
            args.category, args.seed, SearchBudget(cache=cache_dir)
        )
    warm_identical = (
        warm.best.signature == cold.best.signature
        and warm.visited_states == cold.visited_states
    )
    print(f"  cache   cold {cold_seconds:.2f}s -> warm {warm_seconds:.2f}s "
          f"({warm.cache_hits} hit(s), identical={warm_identical})")
    if warm.cache_hits == 0 or not warm_identical:
        print("error: warm cache run must hit and agree", file=sys.stderr)
        return 1

    # Fast path vs its obviously-correct slow twin: same search, every
    # transition forced through full copy/validation/recosting.  The twin
    # must agree byte for byte — the speedup is the ISSUE 6 headline.
    full_recost = None
    if not args.no_full_recost:
        previous = flags.set_full_recost(True)
        try:
            slow_seconds, slow = _run(
                args.category, args.seed, SearchBudget()
            )
        finally:
            flags.set_full_recost(previous)
        twin_identical = (
            slow.best.signature == serial.best.signature
            and slow.best.cost == serial.best.cost
            and slow.visited_states == serial.visited_states
        )
        full_recost = {
            "slow_seconds": round(slow_seconds, 4),
            "fast_seconds": round(serial_seconds, 4),
            "fast_speedup": round(slow_seconds / serial_seconds, 3),
            "identical_to_fast": twin_identical,
        }
        print(f"  twin    slow {slow_seconds:.2f}s -> fast "
              f"{serial_seconds:.2f}s "
              f"({slow_seconds / serial_seconds:.1f}x, "
              f"identical={twin_identical})")
        if not twin_identical:
            print("error: full-recost twin diverged from fast path",
                  file=sys.stderr)
            return 1

    # Provenance check: the winning lineage must replay to the reported
    # best state, and the payload records its shape for the diff gate.
    replay = verify_lineage(serial)
    print(f"  lineage {len(serial.lineage)} step(s) replays to "
          f"cost {replay.cost:.0f}")

    payload = {
        "benchmark": "parallel",
        "category": args.category,
        "seed": args.seed,
        "activities": workload.activity_count,
        "local_groups": len(local_groups),
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "visited_states": serial.visited_states,
        "best_cost": serial.best.cost,
        "lineage": {
            "steps": len(serial.lineage),
            "transition_mix": serial.transition_mix(),
            "replay_ok": True,
        },
        "runs": runs,
        "engine": engine,
        "full_recost": full_recost,
        "cache": {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_speedup": round(cold_seconds / warm_seconds, 3),
            "warm_cache_hits": warm.cache_hits,
            "identical_to_cold": warm_identical,
        },
        "telemetry": summarize(recorder.events()),
        "telemetry_overhead": telemetry_overhead,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
