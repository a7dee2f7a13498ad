"""Observability: telemetry, provenance, reporting, and regression diffing.

The subsystem has four layers:

* :mod:`repro.obs.telemetry` — :class:`Span` / :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` primitives, structured events,
  request-scoped trace stamping (:meth:`Recorder.trace`), the thread-
  and process-safe :class:`Recorder`, and the process-wide
  active-recorder slot (:func:`get_recorder` / :func:`use_recorder`)
  instrumented call sites read from;
* :mod:`repro.obs.expose` — the Prometheus text-format renderer behind
  the serve daemon's ``metrics`` op and ``--metrics-port`` endpoint;
* :mod:`repro.obs.top` — the ``repro top`` live-summary renderer and
  polling loop over a running daemon's ``status``/``stats`` ops;
* :mod:`repro.obs.provenance` — the optimizer decision log (one
  structured event per *considered* transition) and the replayable
  lineage: :func:`replay_lineage` / :func:`verify_lineage` re-apply a
  result's winning transition chain through the real transition system
  and prove it lands on the reported best state;
* :mod:`repro.obs.report` — aggregation of a recorded JSONL file into
  the per-phase / per-operator summary ``repro report`` renders and the
  benchmarks embed;
* :mod:`repro.obs.diff` — the regression gate: compares two telemetry /
  bench files metric-by-metric under per-metric threshold policies
  (``repro report --compare BASELINE``, exit 3 on regression).

Telemetry is opt-in: until a :class:`Recorder` is installed, every
instrumented call site talks to the :data:`NULL_RECORDER` and the
overhead is a few attribute lookups.  Enabling it never changes any
optimizer or engine *output* — parallel runs ship their span buffers back
alongside their results, so ``jobs=N`` stays byte-identical to serial.
"""

from repro.obs.telemetry import (
    FORMAT_VERSION,
    NULL_RECORDER,
    Counter,
    Gauge,
    Histogram,
    Recorder,
    Span,
    get_recorder,
    new_trace_id,
    set_recorder,
    use_recorder,
)
from repro.obs.expose import CONTENT_TYPE, render_prometheus
from repro.obs.diff import (
    DEFAULT_POLICIES,
    DiffReport,
    MetricDiff,
    MetricPolicy,
    compare_files,
    compare_metrics,
    flatten_metrics,
    load_metrics,
)
from repro.obs.provenance import (
    TRANSITION_EVENT,
    LineageMismatch,
    LineageReplay,
    lineage_mix,
    parse_transition,
    record_transition,
    replay_lineage,
    transition_targets,
    verify_lineage,
)
from repro.obs.report import (
    filter_trace,
    load_events,
    render_summary,
    render_trace,
    summarize,
)
from repro.obs.top import render_exemplars, render_top, run_top

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_POLICIES",
    "FORMAT_VERSION",
    "NULL_RECORDER",
    "TRANSITION_EVENT",
    "Counter",
    "DiffReport",
    "Gauge",
    "Histogram",
    "LineageMismatch",
    "LineageReplay",
    "MetricDiff",
    "MetricPolicy",
    "Recorder",
    "Span",
    "compare_files",
    "compare_metrics",
    "filter_trace",
    "flatten_metrics",
    "get_recorder",
    "lineage_mix",
    "load_events",
    "load_metrics",
    "new_trace_id",
    "parse_transition",
    "record_transition",
    "render_exemplars",
    "render_prometheus",
    "render_summary",
    "render_top",
    "render_trace",
    "replay_lineage",
    "run_top",
    "set_recorder",
    "summarize",
    "transition_targets",
    "use_recorder",
    "verify_lineage",
]
