"""The group-local ordering kernel of HS Phases I and IV (section 4.2).

An in-group swap leaves the group's input and the rest of the graph
unchanged, so an ordering's verdict, cost and signature follow from the
members alone (the chain re-ordering view of Kougka & Gounaris, "Cost
optimization of data flows based on task re-ordering").  A
:class:`GroupKernel` holds an ordering as a tuple of members with
per-position output schema, cardinality and cost, and prices
``SWA(o[i], o[i+1])`` from the parent ordering without building a state:

* **verdict** — a tail with fan-out fails ``Swap.check`` (condition 2);
  then the pair's semantic guard (memoized) and ``derive_output`` from
  position ``i`` until schema and cardinality meet the parent's again;
  a new tail schema re-derives the downstream nodes through
  :meth:`ETLWorkflow.rederive`, memoized per tail schema.  Reasons are
  the messages ``Transition.apply_fast`` raises.
* **cost** — ``math.fsum`` over the unchanged, member and downstream
  costs (the latter memoized per tail cardinality).  Every term is its
  from-scratch value and ``fsum`` is order-independent, so the total
  equals ``estimate()`` of the materialized state exactly.
* **signature** — the members' ``.``-joined ids joined between the
  pieces of a template: the base rendered with the group's id segment
  filled with U+0000 and with U+10FFFF, when both split into the same
  pieces (the segment then decides no sort of branches or targets);
  otherwise the nodes downstream of the tail re-rendered through
  :func:`~repro.core.signature.render_node`.
* **member steps** — each member's output schema, cost and cardinality
  (or ``SchemaError``, kept without its traceback) per input attributes
  and cardinality; reasons name the swap at hand.
* **pricing table** — a pair's guard verdict and a member's step depend
  on the pair, or on the member and its input, and never on the base
  state, so one :class:`PricingTable` holds both memos for every kernel
  of a search: Phase IV re-explores the same members under the same
  input in up to ``phase_iv_cap`` states.  Orderings, downstream schema
  verdicts and downstream costs depend on the base state and stay per
  kernel.
* **orderings** — each valid ordering is kept per kernel, keyed by its
  member tuple, and every later swap that reaches the same tuple (the
  reverse of the move that made the parent, or a second path to it)
  returns the kept one.  The swap's own pair checks — condition 2 at a
  fan-out tail, then the semantic guard — run first, because their
  verdicts depend on the pair and not on the ordering; rejections are
  not kept.
* **path walk** — :meth:`GroupKernel.walk` prices a group's winning
  path step by step.  Composition builds a kernel on the composed state
  (each earlier group's winner applied) and walks the path there, so
  every intermediate gets the exact cost and signature of the state the
  step makes, and only the final ordering is built as a state (see
  :func:`repro.core.search.heuristic._optimize_all_groups`).

A :class:`Swap` is built only where one is read: the fan-out check, a
guard miss, a rejection reason and a decision event.  Each considered
swap's decision event is the one :meth:`SearchState.try_successor`
records, built only when the recorder keeps decisions; the swaps are
counted locally and :meth:`GroupKernel.record_counts` adds the totals
to ``search.transitions`` once per group.  The state-building step
stays as the slow twin (see
:func:`repro.core.search.heuristic._explore_group`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

from repro.core.activity import Activity
from repro.core.cost.estimator import _node_outputs, activity_outputs
from repro.core.cost.model import CostModel
from repro.core.schema import Schema
from repro.core.search.state import SearchState
from repro.core.signature import join_targets, render_node
from repro.core.transitions.swap import Swap
from repro.core.workflow import DerivedSchemas
from repro.exceptions import SchemaError, TransitionError
from repro.obs.provenance import record_decision
from repro.obs.telemetry import get_recorder

__all__ = ["GroupKernel", "Ordering", "PricingTable"]

#: A memo miss (``None`` is a valid verdict).
_MISS = object()


class Ordering(NamedTuple):
    """One ordering of a local group, with its state's cost and signature."""

    members: tuple[Activity, ...]
    #: Output schema, cardinality and cost at each position.
    schemas: tuple[Schema, ...]
    cards: tuple[float, ...]
    costs: tuple[float, ...]
    cost: float
    signature: str


class PricingTable:
    """The memos every group kernel of one search shares (one cost model).

    The search that owns it creates it per run; nothing is module-level,
    so concurrent searches never share a table.
    """

    __slots__ = ("guards", "steps")

    def __init__(self) -> None:
        #: (first, second) → the pair's semantic-guard reason, or None.
        self.guards: dict[tuple[Activity, Activity], str | None] = {}
        #: (member, input attributes, input cardinality) → (output
        #: schema, cost, cardinality), or the member's SchemaError.
        self.steps: dict[tuple, tuple | SchemaError] = {}


class GroupKernel:
    """Prices the swaps of one local group of a base state.

    ``members`` is the group in chain order (``local_groups`` order);
    ``base`` carries the workflow, its exact cost report and signature.
    ``table`` is the search's :class:`PricingTable` (a fresh one when
    omitted).
    """

    def __init__(
        self,
        base: SearchState,
        members: list[Activity],
        model: CostModel,
        algorithm: str,
        table: PricingTable | None = None,
    ):
        workflow, report = base.workflow, base.report
        derived = workflow.propagate_schemas()
        provider = workflow.providers(members[0])[0]
        tail = members[-1]
        downstream = workflow.downstream(tail)
        order = workflow.topological_order()
        table = table if table is not None else PricingTable()
        self._workflow = workflow
        self._model = model
        self._algorithm = algorithm
        self._guards = table.guards
        self._steps = table.steps
        self._tail = tail
        self._fan_out = len(workflow.consumers(tail)) != 1
        self._in_schema = derived[provider].output
        self._in_card = report.cardinalities[provider]
        self._derived = derived
        self._cards = report.cardinalities
        self._downstream = [node for node in order if node in downstream]
        #: Member → rank of its id: swaps go by their first member's id.
        self._rank = {
            member: rank
            for rank, member in enumerate(sorted(members, key=lambda m: m.id))
        }
        inside = set(members) | downstream
        self._static_costs = [
            cost for node, cost in report.node_costs.items()
            if node not in inside
        ]
        # The base's signature renderings; _render overwrites the tail
        # and every downstream entry, in topological order, before any of
        # them is read, so the memo is reused in place.
        pred = workflow.pred
        memo: dict = {}
        for node in order:
            memo[node] = render_node(node, pred[node], memo)
        self._memo = memo
        self._prefix = f"{memo[provider]}."
        self._preds = [(node, pred[node]) for node in self._downstream]
        self._targets = workflow.targets()
        # Splitting on the fill leaves no fill in any piece, so equal
        # pieces contain neither extreme: the fill decides no sort.
        low = self._render("\x00").split("\x00")
        high = self._render("\U0010ffff").split("\U0010ffff")
        self._pieces = low if low == high else None
        #: Member tuple → the valid ordering priced for it.
        self._orderings: dict[tuple[Activity, ...], Ordering] = {}
        #: Tail attributes → the first downstream SchemaError, or None.
        self._schema_errors: dict[tuple[str, ...], SchemaError | None] = {
            derived[tail].output.attrs: None
        }
        #: Swaps priced so far, by verdict (see :meth:`record_counts`).
        self._counts = {"applied": 0, "rejected": 0}
        self._downstream_costs: dict[float, list[float]] = {
            report.cardinalities[tail]: [
                report.node_costs[node]
                for node in self._downstream
                if isinstance(node, Activity)
            ]
        }
        self.root = Ordering(
            members=tuple(members),
            schemas=tuple(derived[m].output for m in members),
            cards=tuple(report.cardinalities[m] for m in members),
            costs=tuple(report.node_costs[m] for m in members),
            cost=base.cost,
            signature=base.signature,
        )

    def successors(
        self, parent: Ordering
    ) -> Iterator[tuple[tuple[str, str], Ordering | None]]:
        """Count, record and yield each swap of ``parent``, in
        ``_group_swaps`` order (positions by the first member's id):
        ``((first id, second id), successor)``, the successor ``None``
        when rejected."""
        recorder = get_recorder()
        members = parent.members
        # (rank, position) pairs sort by rank alone: ranks are distinct.
        positions = sorted(
            zip(map(self._rank.__getitem__, members), range(len(members) - 1))
        )
        for _, index in positions:
            first, second = members[index], members[index + 1]
            priced = self._price(parent, index, first, second)
            rejected = isinstance(priced, str)
            self._counts["rejected" if rejected else "applied"] += 1
            if recorder.decisions:
                record_decision(
                    recorder,
                    algorithm=self._algorithm,
                    transition=Swap(first, second),
                    cost_before=parent.cost,
                    cost_after=None if rejected else priced.cost,
                    accepted=not rejected,
                    reason=priced if rejected else None,
                )
            yield (first.id, second.id), None if rejected else priced

    def walk(self, path: list[tuple[str, str]]) -> list[Ordering]:
        """The ordering each swap of ``path`` reaches from the root, up to
        the first swap the kernel cannot price: not a pair of member ids,
        not adjacent in the ordering at hand, or rejected.  Counts and
        records nothing."""
        by_id = {member.id: member for member in self.root.members}
        ordering = self.root
        walked: list[Ordering] = []
        for pair in path:
            members = ordering.members
            try:
                first, second = map(by_id.get, pair)
                index = members.index(first)
            except (TypeError, ValueError):  # not two ids, or no member
                break
            if index + 1 == len(members) or members[index + 1] is not second:
                break
            ordering = self._price(ordering, index, first, second)
            if isinstance(ordering, str):
                break
            walked.append(ordering)
        return walked

    def record_counts(self) -> None:
        """Add the swaps counted so far to ``search.transitions``."""
        recorder = get_recorder()
        for outcome, count in self._counts.items():
            if count:
                recorder.counter(
                    "search.transitions", mnemonic="SWA", outcome=outcome
                ).add(count)

    def _price(
        self, parent: Ordering, index: int, first: Activity, second: Activity
    ) -> Ordering | str:
        """The ordering ``SWA(first, second)`` at ``index`` makes, or the
        rejection reason."""
        members = parent.members
        last = len(members) - 1
        if self._fan_out and index + 1 == last:
            # Condition 2 at the tail.  A tail with fan-out never moves,
            # so the base workflow has the structure Swap.check inspects.
            try:
                Swap(first, second).check(self._workflow)
            except TransitionError as exc:
                return str(exc)
        pair = (first, second)
        reason = self._guards.get(pair, _MISS)
        if reason is _MISS:
            try:
                Swap(first, second)._semantic_guard()
                reason = None
            except TransitionError as exc:
                reason = str(exc)
            self._guards[pair] = reason
        if reason is not None:
            return reason

        swapped = members[:index] + (second, first) + members[index + 2 :]
        known = self._orderings.get(swapped)
        if known is not None:
            return known
        schemas, cards, costs = (
            list(parent.schemas), list(parent.cards), list(parent.costs)
        )
        schema = parent.schemas[index - 1] if index else self._in_schema
        card = parent.cards[index - 1] if index else self._in_card
        for position in range(index, last + 1):
            activity = swapped[position]
            key = (activity, schema.attrs, card)
            step = self._steps.get(key)
            if step is None:
                try:
                    output = activity.derive_output((schema,))
                except SchemaError as exc:
                    step = exc.with_traceback(None)
                else:
                    step = (
                        output,
                        *activity_outputs(self._model, activity, (card,)),
                    )
                self._steps[key] = step
            if isinstance(step, SchemaError):
                return str(Swap(first, second).invalid_state(step))
            schema, costs[position], card = step
            schemas[position], cards[position] = schema, card
            if position > index and card == parent.cards[position]:
                kept = parent.schemas[position]
                if schema is kept or schema == kept:
                    break  # every later position is the parent's
        error = self._downstream_error(schemas[last])
        if error is not None:
            return str(Swap(first, second).invalid_state(error))
        cost = math.fsum(
            itertools.chain(
                self._static_costs, costs, self._downstream_cost(cards[last])
            )
        )
        ordering = self._orderings[swapped] = Ordering(
            swapped,
            tuple(schemas),
            tuple(cards),
            tuple(costs),
            cost,
            self._signature(swapped),
        )
        return ordering

    def _downstream_error(self, tail_schema: Schema) -> SchemaError | None:
        """The first downstream schema failure under a tail schema."""
        error = self._schema_errors.get(tail_schema.attrs, _MISS)
        if error is _MISS:
            derived = dict(self._derived)
            # Consumers read only their providers' outputs.
            derived[self._tail] = DerivedSchemas((), tail_schema)
            error = None
            try:
                self._workflow.rederive(
                    derived, set(self._workflow.consumers(self._tail))
                )
            except SchemaError as exc:
                error = exc.with_traceback(None)
            self._schema_errors[tail_schema.attrs] = error
        return error

    def _downstream_cost(self, tail_card: float) -> list[float]:
        """The downstream activities' costs under a tail cardinality."""
        costs = self._downstream_costs.get(tail_card)
        if costs is None:
            cards = dict(self._cards)
            cards[self._tail] = tail_card
            costs = []
            for node in self._downstream:
                cost, cards[node] = _node_outputs(
                    self._workflow, self._model, node, cards
                )
                if isinstance(node, Activity):
                    costs.append(cost)
            self._downstream_costs[tail_card] = costs
        return costs

    def _signature(self, members: tuple[Activity, ...]) -> str:
        segment = ".".join([m.id for m in members])
        if self._pieces is not None:
            return segment.join(self._pieces)
        return self._render(segment)

    def _render(self, segment: str) -> str:
        """The base signature with the group's id segment replaced."""
        memo = self._memo
        memo[self._tail] = self._prefix + segment
        for node, pred in self._preds:
            memo[node] = render_node(node, pred, memo)
        return join_targets(self._targets, memo)
