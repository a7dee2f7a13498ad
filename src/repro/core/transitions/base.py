"""Transition machinery shared by SWA / FAC / DIS / MER / SPL.

A :class:`Transition` is bound to concrete nodes of a *source* state.
Applying it never mutates that state: the source workflow is copied, the
copy is rewired, and the copy is validated (structure + schema
propagation).  Because schema propagation re-derives every input/output
schema from the sources, a successful :meth:`Transition.apply` implies the
paper's swap conditions (3) and (4) "both before and after" the transition,
and the Theorem 1 invariant (schemas of unaffected activities unchanged) is
asserted by construction.

``try_apply`` is the search-facing entry point: it returns ``None`` instead
of raising when the transition turns out to be inapplicable, so search
loops stay exception-free on their hot path.
"""

from __future__ import annotations

import abc

from repro.core import flags
from repro.core.workflow import ETLWorkflow, Node
from repro.exceptions import (
    ReproError,
    SchemaError,
    TransitionError,
    WorkflowError,
)

__all__ = ["Transition"]


class Transition(abc.ABC):
    """One state-space transition bound to concrete nodes."""

    #: Short mnemonic matching the paper (SWA, FAC, DIS, MER, SPL).
    mnemonic: str = "?"

    @abc.abstractmethod
    def check(self, workflow: ETLWorkflow) -> None:
        """Verify structural preconditions against ``workflow``.

        Raises :class:`~repro.exceptions.TransitionError` with a diagnostic
        message when a precondition fails.  Schema-level conditions are
        *not* checked here — they are enforced by the propagate-and-validate
        step in :meth:`apply`.
        """

    @abc.abstractmethod
    def rewire(self, workflow: ETLWorkflow) -> None:
        """Perform the graph surgery on ``workflow`` (already a copy)."""

    @abc.abstractmethod
    def affected_nodes(self) -> tuple[Node, ...]:
        """Nodes whose position/existence changes (for incremental costing)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """The paper-style rendering, e.g. ``SWA(5,6)``."""

    def apply(self, workflow: ETLWorkflow) -> ETLWorkflow:
        """Produce the successor state, raising when inapplicable."""
        self.check(workflow)
        successor = workflow.copy()
        self.rewire(successor)
        try:
            successor.validate()
            successor.propagate_schemas()
        except (WorkflowError, SchemaError) as exc:
            raise self.invalid_state(exc) from exc
        return successor

    def invalid_state(self, exc: ReproError) -> TransitionError:
        """The error for a rewired state that fails validation."""
        return TransitionError(
            f"{self.describe()} produced an invalid state: {exc}"
        )

    def try_apply(self, workflow: ETLWorkflow) -> ETLWorkflow | None:
        """Like :meth:`apply`, but returns ``None`` when inapplicable."""
        try:
            return self.apply(workflow)
        except ReproError:
            return None

    # -- incremental fast path (search hot loop) --------------------------------

    def patched_topology(
        self, parent: ETLWorkflow, successor: ETLWorkflow
    ) -> list[Node] | None:
        """A topological order for ``successor`` derived from the parent's.

        Transitions that provably preserve a patched linearisation
        override this (SWA: the parent order with the two swapped nodes
        exchanged — every rewired edge respects it, every other edge kept
        its endpoints' relative positions).  ``None`` means "recompute
        with Kahn's algorithm" — which also restores the cycle check, so
        only patches whose validity is a theorem may return an order.
        """
        return None

    def apply_fast(self, workflow: ETLWorkflow) -> ETLWorkflow:
        """Produce the successor via the incremental fast path.

        Same contract as :meth:`apply` — raises when inapplicable,
        returns a validated successor with regenerated schemata — but
        validation and schema propagation reuse the parent state instead
        of re-deriving the whole graph, and SWA skips Kahn's algorithm
        via :meth:`patched_topology`.  ``REPRO_FULL_RECOST=1`` routes
        back to the slow twin; ``REPRO_COST_ORACLE=1`` runs both and
        asserts they agree verdict-for-verdict and schema-for-schema.
        """
        if flags.full_recost_enabled():
            return self.apply(workflow)
        if flags.cost_oracle_enabled():
            return self._apply_checked(workflow)
        return self._apply_fast_inner(workflow)

    def try_apply_fast(self, workflow: ETLWorkflow) -> ETLWorkflow | None:
        """Like :meth:`apply_fast`, but returns ``None`` when inapplicable."""
        try:
            return self.apply_fast(workflow)
        except ReproError:
            return None

    def _apply_fast_inner(self, workflow: ETLWorkflow) -> ETLWorkflow:
        self.check(workflow)
        successor = workflow.copy()
        self.rewire(successor)
        patched = self.patched_topology(workflow, successor)
        if patched is not None:
            successor.adopt_topology(patched)
        affected = self.affected_nodes()
        try:
            successor.validate_incremental(workflow, affected)
            successor.propagate_schemas_incremental(workflow, affected)
        except (WorkflowError, SchemaError) as exc:
            raise self.invalid_state(exc) from exc
        return successor

    def _apply_checked(self, workflow: ETLWorkflow) -> ETLWorkflow:
        """Run the fast path against its slow twin and assert agreement.

        The slow twin runs *first*: FAC/DIS/MER/SPL record the node
        objects their ``rewire`` creates on the transition itself, and the
        caller continues with the fast successor, so the fast application
        must be the last one to have rewired.
        """
        slow_error: ReproError | None = None
        slow: ETLWorkflow | None = None
        try:
            slow = self.apply(workflow)
        except ReproError as exc:
            slow_error = exc
        fast_error: ReproError | None = None
        successor: ETLWorkflow | None = None
        try:
            successor = self._apply_fast_inner(workflow)
        except ReproError as exc:
            fast_error = exc
        if (fast_error is None) != (slow_error is None):
            raise AssertionError(
                f"cost oracle: {self.describe()} fast path "
                f"{'accepted' if fast_error is None else f'rejected ({fast_error})'} "
                f"but slow path "
                f"{'accepted' if slow_error is None else f'rejected ({slow_error})'}"
            )
        if fast_error is not None:
            raise fast_error
        assert successor is not None and slow is not None
        order = successor.topological_order()
        position = {node: index for index, node in enumerate(order)}
        if len(position) != len(slow.topological_order()):
            raise AssertionError(
                f"cost oracle: {self.describe()} patched order covers "
                f"{len(position)} nodes, slow state has "
                f"{len(slow.topological_order())}"
            )
        for provider, consumer in successor.edges():
            if position[provider] >= position[consumer]:
                raise AssertionError(
                    f"cost oracle: {self.describe()} patched topological "
                    f"order violates edge {provider.id} -> {consumer.id}"
                )
        # Compare by node id: the two twins rewired independently, so
        # transitions that create nodes (FAC/DIS/MER/SPL clones) produce
        # distinct-but-equivalent node objects in each successor.
        fast_schemas = {
            node.id: schemas
            for node, schemas in successor.propagate_schemas().items()
        }
        slow_schemas = {
            node.id: schemas
            for node, schemas in slow.propagate_schemas().items()
        }
        if fast_schemas != slow_schemas:
            diverging = sorted(
                node_id
                for node_id in set(fast_schemas) | set(slow_schemas)
                if fast_schemas.get(node_id) != slow_schemas.get(node_id)
            )
            raise AssertionError(
                f"cost oracle: {self.describe()} incremental schema "
                f"propagation diverges from the full pass at {diverging}"
            )
        return successor

    def is_applicable(self, workflow: ETLWorkflow) -> bool:
        """True when :meth:`apply` would succeed on ``workflow``."""
        return self.try_apply(workflow) is not None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
