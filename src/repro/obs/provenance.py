"""Optimizer provenance: the decision log and the replayable lineage.

The paper's whole contribution is *which transition sequence* (SWA / FAC /
DIS / MER / SPL) turns the initial workflow into the minimum-cost one, yet
a bare :class:`~repro.core.search.result.OptimizationResult` only reports
the endpoint.  This module closes that gap from two sides:

* **The decision log** — :func:`record_transition` emits one structured
  telemetry event per *considered* transition (kind, target nodes, cost
  before/after, accepted/rejected plus the rejection reason) through the
  active :class:`~repro.obs.telemetry.Recorder`.  All four algorithms call
  it; worker-side events ship back through the existing result-merge path,
  so one JSONL file holds the whole search's reasoning regardless of
  ``jobs``.  A ``Recorder(decisions=False)`` — the serve daemon's —
  keeps the counters and builds no event.
* **The lineage** — every :class:`~repro.core.search.state.SearchState`
  carries the chain of :class:`~repro.core.search.state.LineageStep`\\ s
  that produced it, and ``OptimizationResult.lineage`` exposes the winning
  chain.  :func:`replay_lineage` re-applies that chain through the real
  transition system (descriptions name concrete node ids, so the replay is
  exact) and :func:`verify_lineage` asserts the replay lands on the
  reported best state — turning the provenance from a claim into a proof.

Kougka et al.'s survey of data-centric workflow optimization singles out
provenance of rewrite decisions as the layer most optimizers drop; this is
that layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.cost.estimator import estimate
from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.signature import state_signature
from repro.core.transitions.base import Transition
from repro.core.transitions.factorize import Distribute, Factorize
from repro.core.transitions.merge import Merge, Split
from repro.core.transitions.swap import Swap
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.obs.telemetry import Recorder, get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at call sites: repro.core.search's package __init__
    # pulls the algorithm modules, which import this module — a top-level
    # import here would close that cycle during ``import repro.obs``.
    from repro.core.search.state import LineageStep

__all__ = [
    "TRANSITION_EVENT",
    "LineageReplay",
    "LineageMismatch",
    "record_transition",
    "record_decision",
    "transition_targets",
    "build_transition",
    "parse_transition",
    "replay_lineage",
    "verify_lineage",
    "lineage_mix",
]

#: Event name of one considered-transition record in the telemetry stream.
TRANSITION_EVENT = "search.transition"


class LineageMismatch(ReproError):
    """A lineage replay did not reproduce the recorded best state."""


def transition_targets(transition: Transition) -> tuple[str, ...]:
    """The node ids a transition is bound to (its provenance targets).

    Unlike ``affected_nodes()`` — which is only complete after ``rewire``
    ran — the bound targets are known before application, so rejected
    transitions carry them too.
    """
    if isinstance(transition, Swap):
        return (transition.first.id, transition.second.id)
    if isinstance(transition, Factorize):
        return (transition.binary.id, transition.first.id, transition.second.id)
    if isinstance(transition, Distribute):
        return (transition.binary.id, transition.activity.id)
    if isinstance(transition, Merge):
        return (transition.first.id, transition.second.id)
    if isinstance(transition, Split):
        return (transition.merged.id,)
    return ()


def record_transition(
    *,
    algorithm: str,
    transition: Transition,
    cost_before: float | None,
    cost_after: float | None = None,
    accepted: bool,
    reason: str | None = None,
    counter_outcome: str | None = None,
) -> None:
    """Record one considered transition: aggregate counter + decision event.

    The counter keeps the ``search.transitions`` aggregate (``outcome``
    defaults to applied/rejected by acceptance, but e.g. SA distinguishes
    Metropolis rejections via ``counter_outcome``); the event carries the
    full decision — targets, both costs, and the reason a rejected
    transition was turned down.  A no-op when telemetry is off, and no
    event is built when the recorder keeps no decisions
    (``Recorder(decisions=False)``).
    """
    recorder = get_recorder()
    if not recorder.active:
        return
    outcome = counter_outcome or ("applied" if accepted else "rejected")
    recorder.counter(
        "search.transitions", mnemonic=transition.mnemonic, outcome=outcome
    ).add()
    if recorder.decisions:
        record_decision(
            recorder,
            algorithm=algorithm,
            transition=transition,
            cost_before=cost_before,
            cost_after=cost_after,
            accepted=accepted,
            reason=reason,
        )


def record_decision(
    recorder: Recorder,
    *,
    algorithm: str,
    transition: Transition,
    cost_before: float | None,
    cost_after: float | None,
    accepted: bool,
    reason: str | None,
) -> None:
    """Record the decision event of one considered transition, uncounted:
    for a caller that adds its ``search.transitions`` totals itself."""
    recorder.record_event(
        TRANSITION_EVENT,
        algorithm=algorithm,
        mnemonic=transition.mnemonic,
        transition=transition.describe(),
        targets=list(transition_targets(transition)),
        cost_before=cost_before,
        cost_after=cost_after,
        accepted=accepted,
        reason=reason,
    )


# -- lineage replay ----------------------------------------------------------------


def build_transition(
    workflow: ETLWorkflow, mnemonic: str, targets: tuple[str, ...]
) -> Transition:
    """Rebuild a transition from its structured ``(mnemonic, targets)``
    payload against a state.

    The targets are the ids :func:`transition_targets` recorded at
    application time, carried verbatim — no string parsing — so a replay
    binds exactly even when node ids contain ``,``/``(``/``)``.  Raises
    :class:`~repro.exceptions.ReproError` when the payload shape is
    unrecognized or a target id is absent from ``workflow``.
    """
    ids = tuple(str(target) for target in targets)
    try:
        if mnemonic == "SWA" and len(ids) == 2:
            return Swap(
                workflow.node_by_id(ids[0]), workflow.node_by_id(ids[1])
            )
        if mnemonic == "FAC" and len(ids) == 3:
            return Factorize(
                workflow.node_by_id(ids[0]),
                workflow.node_by_id(ids[1]),
                workflow.node_by_id(ids[2]),
            )
        if mnemonic == "DIS" and len(ids) == 2:
            return Distribute(
                workflow.node_by_id(ids[0]), workflow.node_by_id(ids[1])
            )
        if mnemonic == "MER" and len(ids) == 2:
            return Merge(
                workflow.node_by_id(ids[0]), workflow.node_by_id(ids[1])
            )
        if mnemonic == "SPL" and len(ids) == 1:
            return Split(workflow.node_by_id(ids[0]))
    except ReproError as exc:
        raise ReproError(
            f"lineage step {mnemonic}{ids!r} does not bind: {exc}"
        ) from exc
    raise ReproError(
        f"unrecognized transition payload {mnemonic!r} with "
        f"{len(ids)} target(s)"
    )


def parse_transition(workflow: ETLWorkflow, description: str) -> Transition:
    """Rebuild a transition from its ``describe()`` string against a state.

    **Legacy fallback**: structured lineage steps carry their bound node
    ids directly (see :func:`build_transition`); this parser exists only
    for pre-structured serialized lineages (raw strings, old step dicts).
    It assumes node ids free of ``,``/``(``/``)`` — ids containing those
    characters misparse here, which is exactly why the structured payload
    is the primary path.  Raises :class:`~repro.exceptions.ReproError`
    when the description is malformed or names nodes absent from
    ``workflow``.
    """
    head, _, rest = description.partition("(")
    if not rest.endswith(")"):
        raise ReproError(f"malformed transition description {description!r}")
    args = [part.strip() for part in rest[:-1].split(",")]
    mnemonic = head.strip()
    try:
        if mnemonic == "SWA" and len(args) == 2:
            return Swap(
                workflow.node_by_id(args[0]), workflow.node_by_id(args[1])
            )
        if mnemonic == "FAC" and len(args) == 3:
            return Factorize(
                workflow.node_by_id(args[0]),
                workflow.node_by_id(args[1]),
                workflow.node_by_id(args[2]),
            )
        if mnemonic == "DIS" and len(args) == 2:
            return Distribute(
                workflow.node_by_id(args[0]), workflow.node_by_id(args[1])
            )
        if mnemonic == "MER" and len(args) == 3:
            # describe() renders MER(a1+a2, a1, a2): the trailing two args
            # are the components, the first is the composite-to-be.
            return Merge(
                workflow.node_by_id(args[1]), workflow.node_by_id(args[2])
            )
        if mnemonic == "SPL" and len(args) == 1:
            return Split(workflow.node_by_id(args[0]))
    except ReproError as exc:
        raise ReproError(
            f"lineage step {description!r} does not bind: {exc}"
        ) from exc
    raise ReproError(f"unrecognized transition description {description!r}")


def _step_description(step: "LineageStep | dict | str") -> str:
    if isinstance(step, dict):
        return str(step["transition"])
    transition = getattr(step, "transition", None)  # LineageStep duck-type
    if isinstance(transition, str):
        return transition
    return str(step)


def _step_payload(
    step: "LineageStep | dict | str",
) -> tuple[str, tuple[str, ...]] | None:
    """The structured ``(mnemonic, targets)`` of a step, if it carries one.

    ``None`` (raw strings, legacy dicts/steps without targets) sends the
    step down the string-parsing fallback.
    """
    if isinstance(step, dict):
        mnemonic, targets = step.get("mnemonic"), step.get("targets")
    else:
        mnemonic = getattr(step, "mnemonic", None)
        targets = getattr(step, "targets", None)
    if isinstance(mnemonic, str) and targets:
        return mnemonic, tuple(str(target) for target in targets)
    return None


@dataclass(frozen=True)
class LineageReplay:
    """Outcome of replaying a lineage from an initial workflow."""

    workflow: ETLWorkflow
    signature: str
    cost: float
    initial_cost: float
    #: The replayed chain with freshly estimated per-step costs.
    steps: tuple["LineageStep", ...]

    @property
    def cost_deltas(self) -> tuple[float, ...]:
        """Per-step cost change (negative = the step reduced the cost)."""
        deltas: list[float] = []
        previous = self.initial_cost
        for step in self.steps:
            deltas.append(step.cost_after - previous)
            previous = step.cost_after
        return tuple(deltas)


def replay_lineage(
    workflow: ETLWorkflow,
    lineage,
    model: CostModel | None = None,
) -> LineageReplay:
    """Re-apply a recorded lineage through the transition system.

    Args:
        workflow: the initial state ``S0`` (not mutated).
        lineage: an iterable of :class:`LineageStep`, step dicts, or raw
            description strings (the three serialized forms).
        model: cost model for the per-step re-estimates (defaults to the
            paper's processed-rows model).

    Raises:
        ReproError: when a step fails to parse or to apply — a lineage
            that does not replay is corrupt provenance, never a soft miss.
    """
    from repro.core.search.state import LineageStep

    model = model if model is not None else ProcessedRowsCostModel()
    current = workflow.copy()
    current.validate()
    current.propagate_schemas()
    initial_cost = estimate(current, model).total
    steps: list[LineageStep] = []
    for raw in lineage:
        payload = _step_payload(raw)
        if payload is not None:
            transition = build_transition(current, *payload)
        else:
            transition = parse_transition(current, _step_description(raw))
        current = transition.apply(current)
        steps.append(
            LineageStep(
                mnemonic=transition.mnemonic,
                transition=transition.describe(),
                cost_after=estimate(current, model).total,
                targets=transition_targets(transition),
            )
        )
    final_cost = steps[-1].cost_after if steps else initial_cost
    return LineageReplay(
        workflow=current,
        signature=state_signature(current),
        cost=final_cost,
        initial_cost=initial_cost,
        steps=tuple(steps),
    )


def verify_lineage(result, model: CostModel | None = None) -> LineageReplay:
    """Replay ``result.lineage`` from ``result.initial`` and check it lands
    on the reported best state.

    Returns the replay on success; raises :class:`LineageMismatch` when
    the final signature diverges or the replayed cost disagrees with
    ``best_cost`` beyond float-replay tolerance (incremental estimates may
    differ from a full re-estimate in the last ulp).
    """
    replay = replay_lineage(result.initial.workflow, result.lineage, model)
    if replay.signature != result.best.signature:
        raise LineageMismatch(
            f"lineage replay reached state {replay.signature[:16]}..., "
            f"but the result reports best {result.best.signature[:16]}..."
        )
    best_cost = result.best_cost
    scale = max(abs(best_cost), abs(replay.cost), 1.0)
    if abs(replay.cost - best_cost) > 1e-6 * scale:
        raise LineageMismatch(
            f"lineage replay cost {replay.cost!r} disagrees with the "
            f"reported best cost {best_cost!r}"
        )
    return replay


def lineage_mix(lineage) -> dict[str, int]:
    """Transition-mix counters of any serialized lineage form."""
    counts: dict[str, int] = {}
    for raw in lineage:
        if isinstance(raw, dict):
            mnemonic = str(raw.get("mnemonic", ""))
        else:
            found = getattr(raw, "mnemonic", None)  # LineageStep duck-type
            mnemonic = (
                found if isinstance(found, str) else str(raw).partition("(")[0]
            )
        counts[mnemonic] = counts.get(mnemonic, 0) + 1
    return dict(sorted(counts.items()))
