"""Search-state wrapper: a workflow plus its cached cost and signature.

States are ETL workflows (section 2.2); during search we decorate each with
the memoized quantities every algorithm needs — total cost (with the full
:class:`~repro.core.cost.estimator.CostReport` for semi-incremental
re-costing of successors) and the canonical signature used to suppress
duplicate states (section 4.1).

Every state additionally carries its *lineage* — the chain of transitions
that produced it from the initial state, as :class:`LineageStep` records.
The lineage is the provenance the paper's tables leave implicit (which
SWA/FAC/DIS/MER/SPL sequence found the winner); it is replayable through
the transition system (:func:`repro.obs.provenance.replay_lineage`) to
verify the reported best state really is reachable from S0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost.estimator import (
    CostReport,
    estimate,
    estimate_incremental,
)
from repro.core.cost.model import CostModel
from repro.core.signature import state_signature
from repro.core.transitions.base import Transition
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.obs.provenance import record_transition, transition_targets
from repro.obs.telemetry import get_recorder

__all__ = ["LineageStep", "SearchState"]


@dataclass(frozen=True)
class LineageStep:
    """One applied transition in a state's provenance chain.

    ``targets`` carries the bound node ids structurally (the payload
    :func:`repro.obs.provenance.replay_lineage` rebuilds transitions
    from), so replay never has to parse the human-facing ``transition``
    description — node ids containing ``,``/``(``/``)`` replay exactly.
    The description (``SWA(5,6)``-style) remains the display form, and
    the ``cost_after`` recorded at application time lets reports
    attribute cost deltas to individual steps without re-estimating.
    """

    mnemonic: str
    transition: str
    cost_after: float
    #: Bound node ids, in :func:`repro.obs.provenance.transition_targets`
    #: order.  Empty only on legacy (pre-structured) serialized steps.
    targets: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "mnemonic": self.mnemonic,
            "transition": self.transition,
            "cost_after": self.cost_after,
            "targets": list(self.targets),
        }


@dataclass
class SearchState:
    """One explored state: workflow + signature + cost report."""

    workflow: ETLWorkflow
    signature: str
    report: CostReport
    #: Transition that produced this state from its parent (None for S0).
    produced_by: Transition | None = None
    #: Number of transitions from the initial state.
    depth: int = 0
    #: Full transition chain from the initial state (provenance).
    lineage: tuple[LineageStep, ...] = field(default=())

    @property
    def cost(self) -> float:
        return self.report.total

    @classmethod
    def initial(cls, workflow: ETLWorkflow, model: CostModel) -> "SearchState":
        """Wrap the initial workflow S0 (validates it first)."""
        workflow.validate()
        workflow.propagate_schemas()
        return cls(
            workflow=workflow,
            signature=state_signature(workflow),
            report=estimate(workflow, model),
        )

    def successor(
        self,
        transition: Transition,
        successor_workflow: ETLWorkflow,
        model: CostModel,
        incremental: bool = True,
    ) -> "SearchState":
        """Wrap a successor produced by ``transition``.

        With ``incremental=True`` the successor's cost derives from this
        state's report via the semi-incremental scheme of section 4.1.
        """
        if incremental:
            report = estimate_incremental(
                successor_workflow, model, self.report, transition.affected_nodes()
            )
        else:
            report = estimate(successor_workflow, model)
        recorder = get_recorder()
        if recorder.active:
            recorder.counter("search.delta_recost_nodes").add(
                report.recosted_nodes
            )
        return SearchState(
            workflow=successor_workflow,
            signature=state_signature(successor_workflow),
            report=report,
            produced_by=transition,
            depth=self.depth + 1,
            lineage=self.lineage
            + (
                LineageStep(
                    mnemonic=transition.mnemonic,
                    transition=transition.describe(),
                    cost_after=report.total,
                    targets=transition_targets(transition),
                ),
            ),
        )

    def try_successor(
        self, transition: Transition, model: CostModel, *, algorithm: str
    ) -> "SearchState | None":
        """One recorded search step: apply ``transition``, wrap, record.

        The hot-loop entry point: structural check, dict-level copy,
        patched/Kahn topology, incremental validation + schema
        propagation (``Transition.apply_fast``), then delta re-costing
        against this state's report.  The decision is recorded under
        ``algorithm`` (:func:`~repro.obs.provenance.record_transition`):
        a rejected transition carries the fast path's own exception
        message as its reason and returns ``None``.
        ``REPRO_FULL_RECOST`` / ``REPRO_COST_ORACLE`` apply (see
        :mod:`repro.core.flags`).
        """
        try:
            successor_workflow = transition.apply_fast(self.workflow)
        except ReproError as exc:
            record_transition(
                algorithm=algorithm,
                transition=transition,
                cost_before=self.cost,
                accepted=False,
                reason=str(exc),
            )
            return None
        successor = self.successor(transition, successor_workflow, model)
        record_transition(
            algorithm=algorithm,
            transition=transition,
            cost_before=self.cost,
            cost_after=successor.cost,
            accepted=True,
        )
        return successor
