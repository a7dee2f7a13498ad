"""Helpers of the end-to-end benchmark that do not touch the program.

Percentiles with the "ten samples beyond" rule, quartile spreads, the
machine-speed reference, the self-time breakdown of the bench-side
spans, and the metric declarations read from ``BENCHMARK.json``.
``run.py`` and ``compare.py`` share them; the tests import them
without the program.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path
from typing import Any, Iterable

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it is one or two unlucky samples, not a tail.
SAMPLES_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples for the requested percentile."""


def min_samples(quantile: float) -> int:
    """Samples needed before ``quantile`` has ``SAMPLES_BEYOND`` beyond it."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - quantile) - 1e-9)


def percentile(samples: Iterable[float], quantile: float) -> float:
    """Nearest-rank percentile, refused when the tail is too thin.

    The median (``quantile=0.5``) is the plain ``statistics.median``;
    every higher percentile needs ``min_samples(quantile)`` samples.
    """
    values = sorted(samples)
    if not values:
        raise UnsupportedPercentile("no samples")
    if quantile == 0.5:
        return statistics.median(values)
    if len(values) < min_samples(quantile):
        raise UnsupportedPercentile(
            f"p{quantile * 100:g} needs {min_samples(quantile)} samples, "
            f"got {len(values)}"
        )
    rank = max(1, math.ceil(quantile * len(values)))
    return values[rank - 1]


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles``'
    default (exclusive) method."""
    data = sorted(values)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def spread(values: Iterable[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


# -- machine-speed reference ---------------------------------------------------


def reference_work() -> int:
    """A fixed pure-Python computation that uses nothing of the program.

    Integer arithmetic, small-object churn and a keyed sort over dict
    rows: the mix of work that search and the engine do.  Its time
    tracks how fast this machine runs Python right now.
    """
    total = 0
    for i in range(50_000):
        total += i * i % 7
    seen = set()
    for i in range(7_000):
        key = (i % 301, str(i % 53))
        if key not in seen:
            seen.add(key)
            total += len({"a": key, "b": i})
    rows = [{"k": i % 97, "v": i * 0.5, "s": str(i)} for i in range(2_000)]
    rows.sort(key=lambda row: (row["k"], row["s"]))
    return total + sum(row["k"] for row in rows[::50])


#: Runs of :func:`reference_work` per reading; the reading is the fastest.
REFERENCE_RUNS = 3

#: What a reading takes on an idle vCPU of the host the bounds in
#: ``BENCHMARK.json`` were set on.  A time in reference units times this
#: is a time in *nominal seconds*: seconds on a machine that fast.
NOMINAL_REFERENCE_S = 0.008


class Reference:
    """Times :func:`reference_work` between the benchmark's samples.

    On a shared host each CPU flips between a fast and a slow state
    every few seconds, and whole minutes run slow, which no number of
    samples averages away.  Dividing each sample by the reference time
    measured on the same CPU just before and just after it cancels the
    swing: the result is the sample in *reference units*.  A reading is
    the fastest of a few runs, because a burst of contention only ever
    slows one down.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        runs = []
        for _ in range(REFERENCE_RUNS):
            started = time.perf_counter()
            reference_work()
            runs.append(time.perf_counter() - started)
        self.seconds.append(min(runs))
        return self.seconds[-1]

    def scale(self) -> float:
        """Mean reference time bracketing the samples since the last call."""
        before, self._last = self._last, self._measure()
        return (before + self._last) / 2


# -- metric declarations -------------------------------------------------------


def load_declarations() -> dict[str, Any]:
    """``BENCHMARK.json``: workloads, end-to-end and per-layer metrics."""
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


# -- self time of bench-side spans ---------------------------------------------


def span_label(span: dict[str, Any]) -> str:
    """Table label: the name, plus the phase of a ``search.phase`` span."""
    phase = (span.get("tags") or {}).get("phase")
    return f"{span['name']}[{phase}]" if phase else span["name"]


def self_times(events: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per label of the span events in ``events`` (as a
    ``repro.obs.Recorder`` gives them), with the residuals as
    ``unattributed[<root>]``.

    A span's self time is its duration minus the time its children
    cover.  Children of one parent run one after another on one thread,
    so the covered time is the sum of their durations (capped at the
    parent's).  The self time of a root span with children is time the
    bench measured but no layer span explains, so it is reported as
    unattributed.
    """
    spans = [event for event in events if event.get("type") == "span"]
    children: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + span["seconds"]
    table: dict[str, float] = {}
    for span in spans:
        own = max(0.0, span["seconds"] - children.get(span["span_id"], 0.0))
        label = (
            f"unattributed[{span['name']}]"
            if span.get("parent_id") is None and span["span_id"] in children
            else span_label(span)
        )
        table[label] = table.get(label, 0.0) + own
    return table


def unattributed(table: dict[str, float]) -> float:
    """The summed residuals of a :func:`self_times` table."""
    return sum(
        seconds for label, seconds in table.items() if label.startswith("unattributed")
    )


def render_self_times(table: dict[str, float], title: str) -> str:
    total = sum(table.values()) or 1.0
    lines = [title, f"  {'layer span':<28} {'self s':>10} {'share':>7}"]
    for label, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {label:<28} {seconds:>10.4f} {100 * seconds / total:>6.2f}%"
        )
    lines.append(f"  {'total':<28} {total:>10.4f}")
    return "\n".join(lines)
