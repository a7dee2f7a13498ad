"""Execution tracing: per-activity wall-clock and row metrics.

While a :class:`~repro.obs.Recorder` is active, every
:meth:`~repro.engine.executor.Executor.run` records fine-grained
measurements — rows in/out and duration per activity, as
``engine.operator`` spans under the run's ``engine.run`` span.
:meth:`TraceReport.from_recorder` reads one run back as an
operator-level profile with empirical selectivities.  Useful for
validating the cost model against real behaviour (which activity
actually dominates?) and for the kind of night-window capacity planning
the paper's introduction motivates::

    recorder = Recorder()
    executor.run(workflow, data, recorder=recorder)
    print(TraceReport.from_recorder(recorder).render())

Tracing composes with every execution path.  On the materializing path
each component is timed around its operator call; streaming runs (with
an :class:`~repro.engine.batches.ExecutionBudget`) and sharded runs
additionally report how many batches each component processed and its
peak resident rows, taken from the run's
:class:`~repro.engine.batches.ResidentLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExecutionError
from repro.obs import Recorder

__all__ = ["ActivityTrace", "TraceReport"]


@dataclass(frozen=True)
class ActivityTrace:
    """Measurements for one activity in one run.

    ``batches`` is 1 on the materializing path (the whole flow is one
    chunk); ``peak_resident_rows`` is only known for streaming runs.
    """

    activity_id: str
    name: str
    template: str
    rows_in: int
    rows_out: int
    seconds: float
    batches: int = 1
    peak_resident_rows: int | None = None

    @property
    def selectivity(self) -> float | None:
        if self.rows_in == 0:
            return None
        return self.rows_out / self.rows_in


@dataclass
class TraceReport:
    """All activity traces of one run, render-able as a profile."""

    traces: list[ActivityTrace]
    total_seconds: float

    @classmethod
    def from_recorder(cls, recorder: Recorder) -> "TraceReport":
        """The profile of the last engine run ``recorder`` recorded: its
        ``engine.run`` span and every ``engine.operator`` span beneath it.

        Raises :class:`~repro.exceptions.ExecutionError` when the
        recorder holds no engine run.
        """
        spans = [e for e in recorder.events() if e["type"] == "span"]
        runs = [span for span in spans if span["name"] == "engine.run"]
        if not runs:
            raise ExecutionError("the recorder holds no engine.run span")
        run_id = runs[-1]["span_id"]
        parents = {span["span_id"]: span["parent_id"] for span in spans}

        def in_run(span_id: str | None) -> bool:
            while span_id is not None:
                if span_id == run_id:
                    return True
                span_id = parents.get(span_id)
            return False

        traces = []
        for span in spans:
            if span["name"] != "engine.operator" or not in_run(
                span["parent_id"]
            ):
                continue
            tags = span["tags"]
            traces.append(
                ActivityTrace(
                    activity_id=tags["activity"],
                    name=tags["activity_name"],
                    template=tags["operator"],
                    rows_in=tags["rows_in"],
                    rows_out=tags["rows_out"],
                    seconds=span["seconds"],
                    batches=tags.get("batches", 1),
                    peak_resident_rows=tags.get("resident_peak"),
                )
            )
        return cls(traces=traces, total_seconds=runs[-1]["seconds"])

    def by_cost(self) -> list[ActivityTrace]:
        return sorted(self.traces, key=lambda t: t.seconds, reverse=True)

    def render(self, top: int | None = None) -> str:
        lines = [
            f"{'activity':<10}{'template':<16}{'rows in':>9}{'rows out':>9}"
            f"{'sel':>7}{'batches':>9}{'res.peak':>9}{'ms':>9}{'%time':>7}"
        ]
        rows = self.by_cost()
        if top is not None:
            rows = rows[:top]
        for trace in rows:
            selectivity = (
                f"{trace.selectivity:.2f}" if trace.selectivity is not None else "—"
            )
            peak = (
                str(trace.peak_resident_rows)
                if trace.peak_resident_rows is not None
                else "—"
            )
            share = (
                100.0 * trace.seconds / self.total_seconds
                if self.total_seconds > 0
                else 0.0
            )
            lines.append(
                f"{trace.activity_id:<10}{trace.template:<16}"
                f"{trace.rows_in:>9}{trace.rows_out:>9}{selectivity:>7}"
                f"{trace.batches:>9}{peak:>9}"
                f"{1000 * trace.seconds:>9.2f}{share:>7.1f}"
            )
        return "\n".join(lines)
