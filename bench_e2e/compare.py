#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

Usage::

    python3 bench_e2e/compare.py BASE NEW

BASE and NEW are each a file written by ``run.py --json`` (a list of run
records) or a directory of such files.  Untraced runs only are compared.
The bounds come from ``BENCHMARK.json``.  One row per (workload, metric)
gives each side's first quartile, median and third quartile, then a
verdict:

* ``improved``: the new side wins at least nine tenths of the run pairs
  (paired in seed order, ties counting for neither) and the medians
  differ by more than the base side's quartile distance;
* ``unresolved``: either side's quartile distance, as a share of its
  median, is wider than the bound, and not every new run beats every
  base run;
* ``regressed``: the new median is worse than the base median by more
  than the bound;
* ``unchanged``: everything else.

Exit status 0 when no row regressed or is unresolved, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from common import load_declarations, quartiles, spread


def classify(base: list[float], new: list[float], bound: float, better: str) -> str:
    """The verdict for one metric on one workload; runs in seed order."""
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > b3 - b1:
        return "improved"
    every_run_better = min(sign * n for n in new) > max(sign * b for b in base)
    if max(spread(base), spread(new)) > bound and not every_run_better:
        return "unresolved"
    worse_by = sign * (b_med - n_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return "regressed"
    return "unchanged"


def load_runs(location: str) -> dict[str, list[dict]]:
    """Untraced run records under ``location``, by workload, in seed order."""
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = defaultdict(list)
    for file in files:
        data = json.loads(file.read_text(encoding="utf-8"))
        for record in data if isinstance(data, list) else [data]:
            if not record["trace"]:
                runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["seed"])
    return runs


def compare(base: dict, new: dict, metrics: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            name = metric["name"]
            before = [r["metrics"][name] for r in base[workload] if name in r["metrics"]]
            after = [r["metrics"][name] for r in new[workload] if name in r["metrics"]]
            if not before or not after:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": quartiles(before),
                "new": quartiles(after),
                "runs": (len(before), len(after)),
                "spread": max(spread(before), spread(after)),
                "bound": metric["bound"],
                "verdict": classify(before, after, metric["bound"], metric["better"]),
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<18} {'base q1/med/q3':>30} "
        f"{'new q1/med/q3':>30} {'change':>8} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        b1, b2, b3 = row["base"]
        n1, n2, n3 = row["new"]
        change = 100.0 * (n2 - b2) / abs(b2) if b2 else 0.0
        lines.append(
            f"{row['workload']:<14} {row['metric']:<18} "
            f"{b1:>9.4g} {b2:>9.4g} {b3:>9.4g}  {n1:>9.4g} {n2:>9.4g} {n3:>9.4g} "
            f"{change:>+7.2f}% {100 * row['spread']:>6.2f}% {100 * row['bound']:>5.1f}%  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="run file or directory of the parent")
    parser.add_argument("new", help="run file or directory of the change")
    args = parser.parse_args(argv)
    metrics = load_declarations()["end_to_end"]
    rows = compare(load_runs(args.base), load_runs(args.new), metrics)
    if not rows:
        print("error: the two sides share no workload", file=sys.stderr)
        return 2
    print(render(rows))
    verdicts = [row["verdict"] for row in rows]
    print(", ".join(f"{verdicts.count(v)} {v}" for v in
                    ("improved", "unchanged", "regressed", "unresolved")))
    return 1 if {"regressed", "unresolved"} & set(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
