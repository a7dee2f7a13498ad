"""The serve wire protocol: line-delimited JSON requests and responses.

One connection carries any number of newline-terminated JSON objects in
each direction.  Every request names an ``op`` and may carry a client
``id`` that all messages answering it echo back, so clients can pipeline
requests over one connection:

``optimize``
    ``{"op": "optimize", "id": 1, "workflow": {...}, "algorithm": "hs",
    "budget": {"max_states": ..., "jobs": ...}, "tenant": "acme",
    "model": "processed_rows", "stream": true}``

    With ``stream`` on, the daemon emits ``{"id": 1, "event": ...}``
    progress lines (queue admission, run start, ``search.*`` telemetry
    spans) before the final response.  The final response carries the
    full serialized :class:`~repro.core.search.result.OptimizationResult`
    under ``"result"`` plus ``"served_from"`` (``"memo"`` or
    ``"search"``) and ``"cache_hits"`` (memo hit + transposition hits).

``status`` / ``stats``
    Daemon liveness (queue depth, in-flight, uptime, workers) and
    effectiveness counters (memo and transposition hit rates, per-tenant
    request counts, latency histogram summaries).

``metrics``
    The full Prometheus text exposition (the same document the optional
    ``--metrics-port`` HTTP endpoint serves) under ``"text"``.

``exemplars``
    The bounded rings of slowest / most recently failed requests, each
    with its full span tree, budget, and tenant tags.

``shutdown``
    Acknowledge, then stop accepting work and exit cleanly once in-flight
    requests drain.

``model`` (a name in :data:`MODELS`) and ``tenant`` must be strings and
``stream`` a bool; a mistyped field is answered ``bad-request``.

Errors are responses with ``"ok": false`` and an ``"error"`` string plus
a machine-readable ``"code"`` (``bad-request``, ``queue-full``,
``tenant-limit``, ``search-error``, ``too-large``).  A line that does not
parse as a JSON object is answered with ``bad-request`` and the
connection stays usable — framing is per line, so one bad line cannot
desynchronize the stream.  A line longer than the daemon's request limit
is answered with ``too-large`` and the connection is closed, since the
rest of the stream is no longer line-aligned.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from repro.core.cost.model import (
    CostModel,
    LinearCostModel,
    ProcessedRowsCostModel,
)
from repro.core.search.budget import SearchBudget
from repro.core.search.result import OptimizationResult
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.io.json_io import _build_workflow, workflow_to_dict

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "MODELS",
    "ProtocolError",
    "encode",
    "decode",
    "budget_from_dict",
    "budget_to_dict",
    "request_field",
    "resolve_model",
    "model_key",
    "result_to_dict",
    "validate_request_workflow",
    "workflow_from_request",
]

PROTOCOL_VERSION = 1

#: Every request op the daemon understands.
OPS = (
    "optimize",
    "status",
    "stats",
    "metrics",
    "exemplars",
    "ping",
    "shutdown",
)

#: Cost models selectable over the wire.  Closures and custom models are
#: not shippable through a JSON protocol; the registry covers the
#: paper's models and keeps the memo key printable.
MODELS: dict[str, type[CostModel]] = {
    "processed_rows": ProcessedRowsCostModel,
    "linear": LinearCostModel,
}

#: SearchBudget fields a request may set.  ``cache`` is deliberately
#: absent — the daemon owns the shared cache — and ``jobs`` is clamped
#: by the server's ``max_jobs``.
_BUDGET_FIELDS = (
    "max_states",
    "max_seconds",
    "jobs",
    "prune_dominated",
)


class ProtocolError(ReproError):
    """A malformed or unanswerable request (maps to ``bad-request``)."""


def encode(message: dict[str, Any]) -> bytes:
    """One wire line: compact JSON, sorted keys, newline-terminated.

    Sorted keys + compact separators make equal payloads byte-equal on
    the wire, which is what the determinism tests compare.
    """
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a message dict (:class:`ProtocolError` on
    anything that is not a JSON object)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable request line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def budget_from_dict(data: dict[str, Any] | None) -> SearchBudget:
    """A :class:`SearchBudget` from a request's ``budget`` object.

    Unknown keys raise — a typo'd knob silently ignored would return a
    differently-optimized plan, the worst kind of wrong answer.
    """
    if data is None:
        return SearchBudget()
    if not isinstance(data, dict):
        raise ProtocolError("budget must be a JSON object")
    unknown = sorted(set(data) - set(_BUDGET_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown budget field(s) {', '.join(unknown)}; "
            f"valid: {', '.join(_BUDGET_FIELDS)}"
        )
    try:
        return SearchBudget(**{key: data[key] for key in data})
    except (ReproError, TypeError) as exc:
        raise ProtocolError(f"invalid budget: {exc}") from None


def budget_to_dict(budget: SearchBudget) -> dict[str, Any]:
    """The request-settable knobs of a budget (for echoes and memo keys)."""
    return {field: getattr(budget, field) for field in _BUDGET_FIELDS}


def request_field(
    message: dict[str, Any], name: str, kind: type, default: Any
) -> Any:
    """A request's ``name`` field (``default`` when absent), which must be
    a ``kind``; a mistyped value is a :class:`ProtocolError`."""
    value = message.get(name, default)
    if not isinstance(value, kind):
        raise ProtocolError(
            f"{name} must be a {kind.__name__}, got {value!r}"
        )
    return value


def resolve_model(name: str | None) -> CostModel:
    """Instantiate a registered cost model (default: processed rows)."""
    if name is None:
        return ProcessedRowsCostModel()
    if not isinstance(name, str):
        raise ProtocolError(f"model must be a str, got {name!r}")
    try:
        return MODELS[name]()
    except KeyError:
        raise ProtocolError(
            f"unknown cost model {name!r}; choose one of {sorted(MODELS)}"
        ) from None


def model_key(name: str | None) -> str:
    """The memo-key component for a request's model selection."""
    return name if name is not None else "processed_rows"


@contextmanager
def _invalid_document() -> Iterator[None]:
    try:
        yield
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid workflow document: {exc}") from None


def workflow_from_request(data: Any) -> ETLWorkflow:
    """The request's ``workflow`` document as a built workflow, not yet
    validated: it is fingerprinted first, and only a memo miss needs
    :func:`validate_request_workflow` (a hit matched the fingerprint of
    a workflow that was valid)."""
    if not isinstance(data, dict):
        raise ProtocolError("optimize request needs a workflow object")
    with _invalid_document():
        return _build_workflow(data)


def validate_request_workflow(workflow: ETLWorkflow) -> None:
    """Validate a built request workflow and propagate its schemas."""
    with _invalid_document():
        workflow.validate()
        workflow.propagate_schemas()


def result_to_dict(result: OptimizationResult) -> dict[str, Any]:
    """Serialize an :class:`OptimizationResult` for the wire (and the memo).

    Everything the determinism guarantee covers — cost, plan, lineage —
    round-trips losslessly; ``elapsed_seconds`` is the *search* time of
    the run that produced the value (a memo hit replays it unchanged,
    the envelope's ``latency_seconds`` is what the client actually
    waited).
    """
    return {
        "algorithm": result.algorithm,
        "initial_cost": result.initial.cost,
        "initial_signature": result.initial.signature,
        "best_cost": result.best.cost,
        "best_signature": result.best.signature,
        "best_workflow": workflow_to_dict(result.best.workflow),
        "improvement_percent": result.improvement_percent,
        "visited_states": result.visited_states,
        "elapsed_seconds": result.elapsed_seconds,
        "completed": result.completed,
        "cache_hits": result.cache_hits,
        "jobs": result.jobs,
        "lineage": result.lineage_dicts(),
        "transition_mix": result.transition_mix(),
    }
