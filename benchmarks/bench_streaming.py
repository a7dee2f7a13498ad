#!/usr/bin/env python
"""Streaming vs materializing execution: memory and throughput.

Records the streaming engine's acceptance numbers in
``BENCH_streaming.json``:

* peak resident rows and wall-clock for the materializing engine vs the
  streaming engine at several batch sizes on a generated large workload,
  with a hard check that the streaming runs return identical target flows
  and ``ExecutionStats``;
* a budgeted streaming run (``--max-resident-rows`` + spill directory)
  proving the recorded peak stays within the configured budget.

Timed configurations run once untimed (fused-kernel warm-up) and then
``--repeats`` times timed, recording the best run — steady-state
throughput, robust to scheduler noise on shared runners.

The materializing "peak resident rows" is the sum of all intermediate
flows' lengths — what the executor's ``flows`` dict holds live at the end
of a run — an honest floor on what that path keeps in memory.

Usage::

    python benchmarks/bench_streaming.py                    # large seed 0
    python benchmarks/bench_streaming.py --category small   # CI smoke size
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import ExecutionBudget, Executor, TraceReport  # noqa: E402
from repro.obs import Recorder, summarize  # noqa: E402
from repro.workloads import generate_workload  # noqa: E402


def _materializing_resident_rows(executor, workflow, data) -> int:
    """Total rows the materializing executor holds across all flows."""
    from repro.core.recordset import RecordSet

    result = executor.run(workflow, data)
    # Every activity output is kept live in the flows dict until the run
    # ends; recompute that footprint from the stats (output rows per
    # activity) plus the source flows.
    total = sum(result.stats.rows_output.values())
    for node in workflow.topological_order():
        if isinstance(node, RecordSet) and node.is_source:
            total += len(data.get(node.name, ()))
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--category", default="large",
                        help="workload category (default: large)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rows", type=int, default=2000,
                        help="rows per source recordset (default: 2000)")
    parser.add_argument("--batch-sizes", default="256,1024,4096",
                        help="comma-separated streaming batch sizes")
    parser.add_argument("--max-resident-rows", type=int, default=None,
                        help="budget for the budgeted run (default: half "
                             "the materializing footprint)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per configuration; the "
                             "best (minimum) wall-clock is recorded "
                             "(default: 5)")
    parser.add_argument("--output", default="BENCH_streaming.json")
    args = parser.parse_args(argv)
    batch_sizes = [
        int(part) for part in args.batch_sizes.split(",") if part.strip()
    ]

    workload = generate_workload(
        args.category, seed=args.seed, rows_per_source=args.rows
    )
    data = workload.make_data(args.seed)
    total_source_rows = sum(len(rows) for rows in data.values())
    executor = Executor(context=workload.context)

    def best_seconds(run) -> float:
        # Best-of-N: a single sub-millisecond timing on a shared runner
        # is dominated by scheduler noise; the minimum over a few
        # repeats estimates the true cost floor and keeps the 10%
        # regression gate on rows_per_second from tripping on jitter.
        best = None
        for _ in range(max(1, args.repeats)):
            started = time.perf_counter()
            run()
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best = elapsed
        return best

    base = executor.run(workload.workflow, data)
    materializing_seconds = best_seconds(
        lambda: executor.run(workload.workflow, data)
    )
    materializing_rows = _materializing_resident_rows(
        executor, workload.workflow, data
    )

    payload: dict = {
        "benchmark": "streaming",
        "category": args.category,
        "seed": args.seed,
        "rows_per_source": args.rows,
        "total_source_rows": total_source_rows,
        "activities": workload.activity_count,
        "materializing": {
            "seconds": round(materializing_seconds, 4),
            "resident_rows": materializing_rows,
            "rows_per_second": round(
                total_source_rows / materializing_seconds, 1
            ) if materializing_seconds > 0 else None,
        },
        "streaming": [],
    }

    divergence = False
    for batch_size in batch_sizes:
        budget = ExecutionBudget(batch_size=batch_size)
        # Warm-up: the columnar engine compiles its fused kernels lazily
        # on first contact with each chain/layout.  One untimed run pays
        # that one-time JIT cost so the recorded number is steady-state
        # throughput — what a long ETL load actually sees.
        streamed = executor.run(workload.workflow, data, budget=budget)
        seconds = best_seconds(
            lambda: executor.run(workload.workflow, data, budget=budget)
        )
        identical = (
            streamed.targets == base.targets
            and streamed.stats.rows_processed == base.stats.rows_processed
            and streamed.stats.rows_output == base.stats.rows_output
        )
        divergence = divergence or not identical
        payload["streaming"].append({
            "batch_size": batch_size,
            "seconds": round(seconds, 4),
            "peak_resident_rows": streamed.streaming.peak_resident_rows,
            "spilled_rows": streamed.streaming.spilled_rows,
            "rows_per_second": round(total_source_rows / seconds, 1)
            if seconds > 0 else None,
            "identical_to_materializing": identical,
        })

    # Budgeted run: cap resident rows well below the materializing
    # footprint and let over-budget buffers spill.
    max_resident = (
        args.max_resident_rows
        if args.max_resident_rows is not None
        else max(1024, materializing_rows // 2)
    )
    # The budgeted run doubles as the telemetry run: under a recorder the
    # executor records per-operator spans and resident-row gauges, and
    # the summary is embedded in the payload.
    recorder = Recorder()
    with tempfile.TemporaryDirectory(prefix="bench-spill-") as spill_dir:
        budget = ExecutionBudget(
            batch_size=min(batch_sizes),
            max_resident_rows=max_resident,
            spill_dir=spill_dir,
        )
        started = time.perf_counter()
        bounded = executor.run(
            workload.workflow, data, budget=budget, recorder=recorder
        )
        seconds = time.perf_counter() - started
    identical = (
        bounded.targets == base.targets
        and bounded.stats.rows_processed == base.stats.rows_processed
    )
    divergence = divergence or not identical
    payload["budgeted"] = {
        "batch_size": budget.batch_size,
        "max_resident_rows": max_resident,
        "peak_resident_rows": bounded.streaming.peak_resident_rows,
        "within_budget": bounded.streaming.within_budget,
        "spilled_rows": bounded.streaming.spilled_rows,
        "seconds": round(seconds, 4),
        "identical_to_materializing": identical,
    }
    payload["telemetry"] = summarize(recorder.events())

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    print(f"materializing: {materializing_rows} resident rows, "
          f"{materializing_seconds:.3f}s")
    for entry in payload["streaming"]:
        print(f"streaming bs={entry['batch_size']}: "
              f"peak {entry['peak_resident_rows']} rows, "
              f"{entry['seconds']:.3f}s")
    budgeted = payload["budgeted"]
    print(f"budgeted (≤{budgeted['max_resident_rows']}): "
          f"peak {budgeted['peak_resident_rows']} rows, "
          f"spilled {budgeted['spilled_rows']}, "
          f"within budget: {budgeted['within_budget']}")
    print(TraceReport.from_recorder(recorder).render(top=5))
    if divergence:
        print("ERROR: streaming diverged from materializing", file=sys.stderr)
        return 1
    if not budgeted["within_budget"]:
        print("ERROR: budgeted run exceeded max_resident_rows",
              file=sys.stderr)
        return 1
    print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
