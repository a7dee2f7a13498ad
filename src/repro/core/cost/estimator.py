"""State costing: full and semi-incremental (section 4.1).

``C(S) = Σ c(a_i)`` over all activities of the state.  Cardinalities flow
from the source recordsets (their declared ``cardinality``) through the
graph; each activity's cost is a function of its input cardinalities.

The paper computes state costs *semi-incrementally*: after a transition,
only the cost "of the path from the affected activities towards the
target" changes.  :func:`estimate_incremental` implements that with a
work-list: starting from the affected nodes, it re-derives cardinalities
and re-prices consumers only while an input cardinality actually changed —
for a swap this typically terminates after the two swapped activities,
because the product of selectivities downstream is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.activity import Activity
from repro.core.cost.model import CostModel
from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow, Node

__all__ = ["CostReport", "estimate", "estimate_incremental"]


@dataclass(frozen=True)
class CostReport:
    """Per-node cardinalities/costs and the resulting state cost.

    ``total`` is always built with :func:`math.fsum`, which is exactly
    rounded and therefore independent of summation order — an
    incrementally maintained report and a from-scratch one agree to the
    last bit, which is what lets the differential cost-oracle suite
    assert ``==`` instead of an epsilon.
    """

    total: float
    node_costs: dict[Node, float]
    cardinalities: dict[Node, float]
    #: Number of nodes whose cost/cardinality was (re-)derived to build
    #: this report — ``len(node_costs)`` for a full estimate, the dirty
    #: set size for a delta-maintained one (telemetry:
    #: ``search.delta_recost_nodes``).
    recosted_nodes: int = field(default=0, compare=False)

    def cost_of(self, node: Node) -> float:
        return self.node_costs.get(node, 0.0)


def _node_outputs(
    workflow: ETLWorkflow,
    model: CostModel,
    node: Node,
    cards: dict[Node, float],
) -> tuple[float, float]:
    """(cost, output cardinality) of one node given provider cardinalities."""
    if isinstance(node, RecordSet):
        if node.is_source:
            return 0.0, node.cardinality
        provider = workflow.providers(node)[0]
        return 0.0, cards[provider]
    assert isinstance(node, Activity)
    return activity_outputs(
        model, node, tuple(cards[p] for p in workflow.providers(node))
    )


def activity_outputs(
    model: CostModel, activity: Activity, input_cards: tuple[float, ...]
) -> tuple[float, float]:
    """(cost, output cardinality) of one activity given its input
    cardinalities — the per-node rule every estimate is built from."""
    return (
        model.activity_cost(activity, input_cards),
        model.output_cardinality(activity, input_cards),
    )


def estimate(workflow: ETLWorkflow, model: CostModel) -> CostReport:
    """Full cost estimation by one topological pass."""
    cards: dict[Node, float] = {}
    costs: dict[Node, float] = {}
    for node in workflow.topological_order():
        cost, out = _node_outputs(workflow, model, node, cards)
        cards[node] = out
        if isinstance(node, Activity):
            costs[node] = cost
    return CostReport(
        total=math.fsum(costs.values()),
        node_costs=costs,
        cardinalities=cards,
        recosted_nodes=len(cards),
    )


def estimate_incremental(
    workflow: ETLWorkflow,
    model: CostModel,
    parent: CostReport,
    affected: tuple[Node, ...],
) -> CostReport:
    """Re-cost a successor state starting from a parent state's report.

    ``workflow`` is the successor; ``parent`` is the report of the state the
    transition was applied to; ``affected`` are the nodes the transition
    moved, created, or replaced (see ``Transition.affected_nodes``).

    The parent's cardinalities are reused for every node whose inputs did
    not change; affected nodes and any consumer whose input cardinality
    shifted are re-derived.  The result is numerically identical to
    :func:`estimate` (asserted by property tests).
    """
    cards = dict(parent.cardinalities)
    if len(cards) != len(workflow):
        # Drop nodes that no longer exist (FAC/DIS/MER/SPL change the
        # node population, and always change the node *count* — so an
        # unchanged count means an unchanged population and the per-node
        # membership filter can be skipped on the dominant SWA path).
        cards = {node: card for node, card in cards.items() if node in workflow}
        costs = {
            node: cost
            for node, cost in parent.node_costs.items()
            if node in workflow
        }
    else:
        costs = dict(parent.node_costs)

    dirty = {node for node in affected if node in workflow}
    # Every transition rewires in-edges only of affected nodes, newly
    # created nodes, or direct consumers of affected nodes — so seeding
    # those consumers too means any node left clean kept its exact
    # provider set, and the bitwise cutoff below is a sound induction.
    # (A consumer's provider can change *identity* without the affected
    # node's own cardinality changing; comparing against the wrong
    # parent entry would let a stale float survive.)
    for node in tuple(dirty):
        for consumer in workflow.consumers(node):
            dirty.add(consumer)
    recosted = 0
    for node in workflow.topological_order():
        if node not in cards:
            dirty.add(node)  # newly created node (clone / merged activity)
        if node not in dirty:
            continue
        old_card = cards.get(node)
        cost, out = _node_outputs(workflow, model, node, cards)
        recosted += 1
        cards[node] = out
        if isinstance(node, Activity):
            costs[node] = cost
        # Exact cutoff: propagation stops only on bit-identical
        # cardinalities, so by induction every node carries the same float
        # a from-scratch pass would compute and the delta-maintained
        # report equals the full one exactly (not merely within an
        # epsilon).  A last-ulp difference extends the dirty frontier a
        # few nodes further; re-pricing a node is a handful of multiplies,
        # so exactness costs next to nothing.
        if old_card is None or out != old_card:
            for consumer in workflow.consumers(node):
                dirty.add(consumer)
    return CostReport(
        total=math.fsum(costs.values()),
        node_costs=costs,
        cardinalities=cards,
        recosted_nodes=recosted,
    )
