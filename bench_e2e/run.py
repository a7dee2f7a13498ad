#!/usr/bin/env python3
"""End-to-end benchmark: a served plan, then S0 and the plan on data.

Each workload spawns its own ``python -m repro serve`` daemon, sends it
generated workflows, takes the heuristic-search plan from the reply and
runs both the initial state S0 and the plan through the default engine,
checking that both produce the same targets.  See ``README.md`` next to
this file for the workloads, the metrics and their bounds.

Usage::

    python3 bench_e2e/run.py --workload load-rowwise --seed 3 --seconds 15 --trace 0
    python3 bench_e2e/run.py                    # all four workloads
    python3 bench_e2e/run.py --trace 1          # per-layer metrics + spans
    python3 bench_e2e/run.py --smoke            # tiny inputs, under a minute
    python3 bench_e2e/run.py --workload serve-mix --json runs/a-0.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Exit codes: 0 when every output was correct, 1 when
a check failed or the generated inputs drifted from their pins, 2 on bad
usage or when the program source is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from common import ROOT, load_declarations, render_self_times, self_times

RESULTS = Path(__file__).resolve().parent / "results"


def parse_args(declarations: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in declarations["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the source rows, the load order and the "
                             "memo stream's phase")
    parser.add_argument("--seconds", type=int, default=declarations["run_seconds"],
                        help="measured time per workload (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also analyse each layer and write spans")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny and small workflows on little data")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full run records to PATH")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(source))
    import pipeline
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"error: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        sys.exit(2)
    return pipeline


def print_record(record: dict, declared: list[dict]) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']} s  trace {record['trace']}")
    print(f"   workflows: {', '.join(record['workflows'])}")
    for entry in declared:
        value = record["metrics"].get(entry["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"   {entry['name']:<34} {shown:>14} {entry['unit']}")
    for name, value in sorted(record["extras"].items()):
        print(f"   {name:<34} {value:>14.6g}")
    failed_frac = record["failed"] / max(1, record["attempted"])
    print(f"   {'failed_frac':<34} {failed_frac:>14.6g} fraction "
          f"({record['failed']} of {record['attempted']} attempted)")


def print_spans(record: dict) -> None:
    recorder = record["recorder"]
    path = RESULTS / f"trace-{record['workload']}.jsonl"
    RESULTS.mkdir(exist_ok=True)
    recorder.flush_jsonl(path)
    table = self_times(recorder.events())
    print(render_self_times(table, f"   self time by layer ({path.name}):"))


def main() -> int:
    declarations = load_declarations()
    args = parse_args(declarations)
    pipeline = import_program()
    specs = pipeline.workload_specs(smoke=args.smoke)
    names = list(specs) if args.workload == "all" else [args.workload]
    declared = declarations["per_layer" if args.trace else "end_to_end"]

    printed = declarations["end_to_end"] + (declarations["per_layer"] if args.trace else [])
    records = []
    try:
        for name in names:
            record = pipeline.run_workload(specs[name], args.seed, args.seconds,
                                           bool(args.trace))
            print_record(record, printed)
            if args.trace:
                print_spans(record)
            records.append(record)
    except pipeline.DriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    missing = []
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}/"
        for entry in declared:
            value = record["metrics"].get(entry["name"])
            if value is None:
                missing.append(prefix + entry["name"])
            else:
                metrics[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
    failed = sum(record["failed"] for record in records)
    correct = failed == 0 and not missing

    if args.json:
        for record in records:
            del record["recorder"]
            # cpu_count is the host's; measured_cpus, the CPUs the bench
            # and its daemons were pinned to while measuring.
            record.update(cpu_count=os.cpu_count(), python=platform.python_version(),
                          smoke=args.smoke, correct=correct)
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
