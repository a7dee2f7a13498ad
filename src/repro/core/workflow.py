"""The ETL workflow graph — the *state* of the search problem (section 2.1).

An ETL workflow is a DAG ``G(V, E)`` with ``V = A ∪ RS`` (activities and
recordsets) and ``E = Pr`` (data-provider relationships).  This module
implements the graph, its structural validation, schema propagation
("after each transition ... schemata are automatically re-generated"),
and the *local groups* decomposition HS uses (maximal linear paths of unary
activities, bounded by binary activities and recordsets).

Binary activities have ordered inputs: every edge carries a ``port``
(0 or 1); difference is the only shipped non-commutative binary, but
ports are maintained uniformly.

Workflows are mutable while being built; search code treats states as
immutable and lets transitions work on :meth:`ETLWorkflow.copy` copies
(node objects — activities and recordsets — are shared between copies,
which keeps state generation cheap).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.activity import Activity
from repro.core.recordset import RecordSet, RecordSetKind
from repro.core.schema import Schema
from repro.exceptions import SchemaError, WorkflowError

__all__ = ["Node", "DerivedSchemas", "ETLWorkflow"]

Node = Activity | RecordSet


@dataclass(frozen=True)
class DerivedSchemas:
    """The regenerated input/output schemata of one node in one state."""

    inputs: tuple[Schema, ...]
    output: Schema


class ETLWorkflow:
    """A directed acyclic graph of activities and recordsets."""

    def __init__(self) -> None:
        # Adjacency, node → {neighbour: port}; both outer dicts keep node
        # insertion order, which fixes the order of nodes() and edges().
        self._succ: dict[Node, dict[Node, int]] = {}
        self._pred: dict[Node, dict[Node, int]] = {}
        self._by_id: dict[str, Node] = {}
        self._topo_cache: list[Node] | None = None
        self._providers_cache: dict[Node, list[Node]] | None = None
        self._consumers_cache: dict[Node, list[Node]] | None = None
        self._schema_cache: dict[Node, DerivedSchemas] | None = None
        self._targets_cache: list[RecordSet] | None = None
        # Copy-on-write bookkeeping: nodes whose succ/pred inner dicts
        # are private to this instance.  A fresh workflow owns everything
        # it builds; a copy() owns nothing until a mutation clones the
        # touched inner dict (see _own_succ/_own_pred).
        self._owned_succ: set[Node] = set()
        self._owned_pred: set[Node] = set()

    def _own_succ(self, node: Node) -> dict[Node, int]:
        succ = self._succ
        if node not in self._owned_succ:
            succ[node] = dict(succ[node])
            self._owned_succ.add(node)
        return succ[node]

    def _own_pred(self, node: Node) -> dict[Node, int]:
        pred = self._pred
        if node not in self._owned_pred:
            pred[node] = dict(pred[node])
            self._owned_pred.add(node)
        return pred[node]

    def _invalidate(self) -> None:
        """Drop every derived cache (node population changed)."""
        self._topo_cache = None
        self._providers_cache = None
        self._consumers_cache = None
        self._schema_cache = None
        self._targets_cache = None

    def _invalidate_edge(self, provider: Node, consumer: Node) -> None:
        """Targeted eviction for one edge change.

        Only the consumer's provider list and the provider's consumer
        list are stale; the rest of the adjacency caches survive, which
        is what makes rewired copies cheap on the search hot path (a SWA
        touches six edges, so six entries are evicted instead of the
        whole cache).  Node population is unchanged, so the targets
        cache survives too.
        """
        self._topo_cache = None
        self._schema_cache = None
        providers_cache = self._providers_cache
        if providers_cache is not None:
            providers_cache.pop(consumer, None)
        consumers_cache = self._consumers_cache
        if consumers_cache is not None:
            consumers_cache.pop(provider, None)

    # -- construction ----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Add an activity or recordset; returns it for chaining."""
        if not isinstance(node, (Activity, RecordSet)):
            raise WorkflowError(f"not a workflow node: {node!r}")
        if node in self._succ:
            raise WorkflowError(f"node {node!r} already in workflow")
        if node.id in self._by_id:
            raise WorkflowError(f"duplicate node id {node.id!r}: {node!r}")
        self._succ[node] = {}
        self._pred[node] = {}
        self._owned_succ.add(node)
        self._owned_pred.add(node)
        self._by_id[node.id] = node
        self._invalidate()
        return node

    def add_edge(self, provider: Node, consumer: Node, port: int = 0) -> None:
        """Record that ``consumer`` receives data from ``provider``.

        ``port`` selects the input schema of a binary consumer (0 = left,
        1 = right); unary consumers always use port 0.
        """
        for node in (provider, consumer):
            if node not in self:
                raise WorkflowError(f"node {node!r} not in workflow")
        # Exactly int: True and 1.0 compare equal to 1 but would render
        # differently in fingerprints and serialized documents.
        if type(port) is not int or port not in (0, 1):
            raise WorkflowError(f"port must be 0 or 1, got {port!r}")
        if consumer in self._succ[provider]:
            raise WorkflowError(
                f"edge {provider.id} -> {consumer.id} already exists"
            )
        self._own_succ(provider)[consumer] = port
        self._own_pred(consumer)[provider] = port
        self._invalidate_edge(provider, consumer)

    def remove_edge(self, provider: Node, consumer: Node) -> None:
        try:
            del self._own_succ(provider)[consumer]
            del self._own_pred(consumer)[provider]
        except KeyError:
            raise WorkflowError(
                f"no edge {provider.id} -> {consumer.id}"
            ) from None
        self._invalidate_edge(provider, consumer)

    def remove_node(self, node: Node) -> None:
        if node not in self:
            raise WorkflowError(f"node {node!r} not in workflow")
        for consumer in self._succ.pop(node):
            del self._own_pred(consumer)[node]
        for provider in self._pred.pop(node):
            del self._own_succ(provider)[node]
        self._owned_succ.discard(node)
        self._owned_pred.discard(node)
        del self._by_id[node.id]
        self._invalidate()

    def copy(self) -> "ETLWorkflow":
        """A copy-on-write structural copy sharing the node objects.

        State generation is the search hot path, so instead of cloning
        the adjacency (one Python-level insert per node and edge), the
        copy *shares* the parent's inner succ/pred dicts and owns none of
        them; every graph mutation goes through this class, and the
        mutators clone an inner dict the first time they touch it
        (``_own_succ``/``_own_pred``).  A SWA successor therefore clones
        four small dicts out of ~2·N.

        The adjacency caches carry over; rewiring evicts what it touches.
        The parent must not be mutated afterwards — search code treats
        states as immutable once explored, which is what makes the
        sharing sound.
        """
        duplicate = ETLWorkflow()
        duplicate._succ.update(self._succ)
        duplicate._pred.update(self._pred)
        # Both sides now share the inner dicts, so neither may write them
        # in place: dropping this instance's ownership forces any later
        # mutation of *either* side through the clone-on-write path.
        self._owned_succ.clear()
        self._owned_pred.clear()
        duplicate._by_id.update(self._by_id)
        if self._providers_cache is not None:
            duplicate._providers_cache = dict(self._providers_cache)
        if self._consumers_cache is not None:
            duplicate._consumers_cache = dict(self._consumers_cache)
        duplicate._targets_cache = self._targets_cache
        return duplicate

    # -- inspection --------------------------------------------------------------

    @property
    def pred(self) -> dict[Node, dict[Node, int]]:
        """node → {provider: port} (read-only by convention)."""
        return self._pred

    def __contains__(self, node: object) -> bool:
        try:
            return node in self._succ
        except TypeError:  # unhashable, so never a node
            return False

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def activities(self) -> Iterator[Activity]:
        return (n for n in self._succ if isinstance(n, Activity))

    def recordsets(self) -> Iterator[RecordSet]:
        return (n for n in self._succ if isinstance(n, RecordSet))

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Every (provider, consumer) pair: providers in node insertion
        order, each provider's consumers in edge insertion order."""
        return ((p, c) for p, consumers in self._succ.items() for c in consumers)

    def has_edge(self, provider: Node, consumer: Node) -> bool:
        return provider in self and consumer in self._succ[provider]

    def sources(self) -> list[RecordSet]:
        """The recordsets in RS_S, ordered by id."""
        found = [n for n in self.recordsets() if n.is_source]
        return sorted(found, key=lambda n: n.id)

    def targets(self) -> list[RecordSet]:
        """The recordsets in RS_T, ordered by id (cached; edge changes
        cannot alter the target population, only node changes can)."""
        cached = self._targets_cache
        if cached is None:
            found = [n for n in self.recordsets() if n.is_target]
            cached = sorted(found, key=lambda n: n.id)
            self._targets_cache = cached
        return cached

    def node_by_id(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise WorkflowError(f"no node with id {node_id!r}") from None

    def providers(self, node: Node) -> list[Node]:
        """Data providers of ``node``, ordered by input port (cached)."""
        cache = self._providers_cache
        if cache is None:
            cache = {}
            self._providers_cache = cache
        cached = cache.get(node)
        if cached is None:
            pred = self._pred[node]
            if len(pred) <= 1:
                cached = list(pred)
            else:
                cached = sorted(pred, key=pred.__getitem__)
            cache[node] = cached
        return cached

    def consumers(self, node: Node) -> list[Node]:
        """Data consumers of ``node`` (ordered by node id for determinism)."""
        cache = self._consumers_cache
        if cache is None:
            cache = {}
            self._consumers_cache = cache
        cached = cache.get(node)
        if cached is None:
            succ = self._succ[node]
            if len(succ) <= 1:
                cached = list(succ)
            else:
                cached = sorted(succ, key=lambda n: n.id)
            cache[node] = cached
        return cached

    def edge_port(self, provider: Node, consumer: Node) -> int:
        return self._succ[provider][consumer]

    def topological_order(self) -> list[Node]:
        """A deterministic topological order (ties broken by node id).

        Kahn's algorithm with an id-ordered ready heap; raises
        :class:`~repro.exceptions.WorkflowError` on cycles.  Cached; any
        mutation of the graph invalidates the cache.  Search code treats
        workflows as immutable once built, so the cache is computed once
        per state.
        """
        if self._topo_cache is None:
            pred = self._pred
            succ = self._succ
            in_degree = {node: len(pred[node]) for node in pred}
            ready = [
                (node.id, node) for node, degree in in_degree.items() if degree == 0
            ]
            heapq.heapify(ready)
            order: list[Node] = []
            while ready:
                _, node = heapq.heappop(ready)
                order.append(node)
                for consumer in succ[node]:
                    in_degree[consumer] -= 1
                    if in_degree[consumer] == 0:
                        heapq.heappush(ready, (consumer.id, consumer))
            if len(order) != len(in_degree):
                raise WorkflowError("workflow graph contains a cycle")
            self._topo_cache = order
        return self._topo_cache

    def adopt_topology(self, order: list[Node]) -> None:
        """Install a precomputed topological order (fast successor path).

        Transitions that provably preserve a patched parent order (SWA:
        the parent order with the two swapped nodes exchanged) hand it to
        the rewired copy so Kahn's algorithm is skipped.  The caller is
        responsible for validity; ``REPRO_COST_ORACLE=1`` re-derives the
        order from scratch and asserts the patch is a valid linearisation.
        """
        self._topo_cache = order

    def downstream(self, node: Node) -> set[Node]:
        """All nodes reachable from ``node`` (excluding itself)."""
        return _reach(self._succ, node)

    def upstream(self, node: Node) -> set[Node]:
        """All nodes that reach ``node`` (excluding itself)."""
        return _reach(self._pred, node)

    # -- validation -----------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural well-formedness rules of section 2.1.

        Raises :class:`~repro.exceptions.WorkflowError` when the graph is
        not a DAG, an activity lacks a provider or consumer, an arity does
        not match the in-degree, or input ports are wired inconsistently.
        """
        if not self._succ:
            raise WorkflowError("empty workflow")
        self.topological_order()  # raises on cycles
        pred = self._pred
        succ = self._succ
        for node in succ:
            in_deg = len(pred[node])
            out_deg = len(succ[node])
            if isinstance(node, Activity):
                if in_deg != node.arity:
                    raise WorkflowError(
                        f"activity {node.id} ({node.name}) has arity "
                        f"{node.arity} but {in_deg} provider(s)"
                    )
                if out_deg == 0:
                    raise WorkflowError(
                        f"activity {node.id} ({node.name}) has no consumer"
                    )
                ports = sorted(pred[node].values())
                expected = list(range(node.arity))
                if ports != expected:
                    raise WorkflowError(
                        f"activity {node.id}: input ports {ports} != {expected}"
                    )
            else:  # RecordSet
                if node.kind is RecordSetKind.SOURCE:
                    if in_deg != 0:
                        raise WorkflowError(
                            f"source recordset {node.name} has a provider"
                        )
                    if out_deg == 0:
                        raise WorkflowError(
                            f"source recordset {node.name} has no consumer"
                        )
                elif node.kind is RecordSetKind.TARGET:
                    if out_deg != 0:
                        raise WorkflowError(
                            f"target recordset {node.name} has a consumer"
                        )
                    if in_deg != 1:
                        raise WorkflowError(
                            f"target recordset {node.name} must have exactly "
                            f"one provider, has {in_deg}"
                        )
                else:
                    if in_deg != 1 or out_deg == 0:
                        raise WorkflowError(
                            f"intermediate recordset {node.name} must have one "
                            f"provider and at least one consumer"
                        )

    # -- schema propagation (section 3.2 / Theorem 1) ----------------------------------

    def propagate_schemas(self) -> dict[Node, DerivedSchemas]:
        """Regenerate every node's input/output schemata from the sources.

        Walks the graph in topological order, deriving each activity's
        output schema from its providers via the template rules.  Raises
        :class:`~repro.exceptions.SchemaError` when an activity's
        functionality schema is not covered by its input, when union-family
        branches disagree, or when a target recordset would receive data
        under a schema incompatible with its declared one.

        A state is *valid* exactly when this method succeeds — which is how
        the library enforces swap conditions (3) and (4) "both before and
        after" a transition: the transition is attempted on a copy and the
        copy is propagated.
        """
        cached = self._schema_cache
        if cached is not None:
            return cached
        derived: dict[Node, DerivedSchemas] = {}
        for node in self.topological_order():
            derived[node] = self._derive_node(node, derived)
        self._schema_cache = derived
        return derived

    def _derive_node(
        self, node: Node, derived: dict[Node, DerivedSchemas]
    ) -> DerivedSchemas:
        """Derive one node's schemas given its providers' entries."""
        provider_outputs = tuple(
            derived[p].output for p in self.providers(node)
        )
        if isinstance(node, RecordSet):
            if node.is_source:
                return DerivedSchemas((), node.schema)
            received = provider_outputs[0]
            if not received.compatible(node.schema):
                raise SchemaError(
                    f"recordset {node.name} declared {node.schema} but "
                    f"receives {received}"
                )
            return DerivedSchemas(provider_outputs, node.schema)
        output = node.derive_output(provider_outputs)
        return DerivedSchemas(provider_outputs, output)

    def propagate_schemas_incremental(
        self,
        parent: "ETLWorkflow",
        affected: tuple[Node, ...],
    ) -> dict[Node, DerivedSchemas]:
        """Regenerate schemata reusing a parent state's derived map.

        ``self`` is a rewired copy of ``parent``; ``affected`` are the
        nodes the transition moved, created or replaced.  Work-list
        propagation mirrors :func:`repro.core.cost.estimator
        .estimate_incremental`: starting from the affected nodes (plus any
        node the parent never derived), each dirty node is re-derived and
        its consumers join the work list only while its input schemas
        actually changed.  Theorem 1 (schemata of unaffected activities
        are invariant under equivalent transitions) makes the walk
        terminate after the local neighbourhood in the common case.

        Raises :class:`~repro.exceptions.SchemaError` on exactly the
        states the full :meth:`propagate_schemas` would reject: a dirty
        node fails its own derivation the same way, and a clean node
        cannot newly violate (its inputs are unchanged from a valid
        parent).
        """
        parent_derived = parent.propagate_schemas()
        if len(parent_derived) != len(self):
            derived = {
                node: schemas
                for node, schemas in parent_derived.items()
                if node in self
            }
        else:
            # Equal node count ⇒ identical population: every shipped
            # transition that replaces nodes also changes the count.
            derived = dict(parent_derived)
        dirty = {node for node in affected if node in self}
        # Direct consumers of affected nodes changed *provider identity*
        # even when the provider's derived schemas coincide; re-derive
        # them unconditionally so every clean node's parent entry is
        # known to have been computed from the same providers.
        for node in tuple(dirty):
            for consumer in self.consumers(node):
                dirty.add(consumer)
        self.rederive(derived, dirty)
        self._schema_cache = derived
        return derived

    def rederive(
        self, derived: dict[Node, DerivedSchemas], dirty: set[Node]
    ) -> None:
        """The dirty walk: re-derive ``dirty`` nodes of ``derived`` in place.

        Visits nodes in topological order; a node missing from
        ``derived`` (created by a transition) is dirty too, and a node
        whose schemas changed dirties its consumers.  Raises the first
        :class:`~repro.exceptions.SchemaError` in topological order.
        """
        for node in self.topological_order():
            if node not in derived:
                dirty.add(node)  # created by the transition (clone/merge)
            if node not in dirty:
                continue
            old = derived.get(node)
            fresh = self._derive_node(node, derived)
            derived[node] = fresh
            if old is None or fresh != old:
                for consumer in self.consumers(node):
                    dirty.add(consumer)

    def validate_incremental(
        self, parent: "ETLWorkflow", affected: tuple[Node, ...]
    ) -> None:
        """Structural validation scoped to a transition's neighbourhood.

        ``self`` is a rewired copy of a *validated* parent.  Rewiring only
        changes degrees and ports of the affected nodes and their direct
        neighbours, so the section 2.1 well-formedness rules are re-checked
        there; acyclicity is covered by :meth:`topological_order` (the
        fast successor path computes it anyway, and Kahn raises on
        cycles).  ``REPRO_COST_ORACLE=1`` cross-checks against the full
        :meth:`validate`.
        """
        self.topological_order()  # raises on cycles
        pred = self._pred
        succ = self._succ
        scope: set[Node] = set()
        for node in affected:
            if node not in succ:
                continue
            scope.add(node)
            scope.update(pred[node])
            scope.update(succ[node])
        for node in scope:
            in_deg = len(pred[node])
            out_deg = len(succ[node])
            if isinstance(node, Activity):
                if in_deg != node.arity:
                    raise WorkflowError(
                        f"activity {node.id} ({node.name}) has arity "
                        f"{node.arity} but {in_deg} provider(s)"
                    )
                if out_deg == 0:
                    raise WorkflowError(
                        f"activity {node.id} ({node.name}) has no consumer"
                    )
                ports = sorted(pred[node].values())
                if ports != list(range(node.arity)):
                    raise WorkflowError(
                        f"activity {node.id}: input ports {ports} != "
                        f"{list(range(node.arity))}"
                    )
            else:
                if node.kind is RecordSetKind.SOURCE:
                    if in_deg != 0 or out_deg == 0:
                        raise WorkflowError(
                            f"source recordset {node.name} is miswired"
                        )
                elif node.kind is RecordSetKind.TARGET:
                    if out_deg != 0 or in_deg != 1:
                        raise WorkflowError(
                            f"target recordset {node.name} is miswired"
                        )
                elif in_deg != 1 or out_deg == 0:
                    raise WorkflowError(
                        f"intermediate recordset {node.name} must have one "
                        f"provider and at least one consumer"
                    )

    def is_valid(self) -> bool:
        """True when the workflow is structurally and schema-wise sound."""
        try:
            self.validate()
            self.propagate_schemas()
        except (WorkflowError, SchemaError):
            return False
        return True

    # -- local groups (section 3.2) ---------------------------------------------------

    def local_groups(self) -> list[list[Activity]]:
        """Maximal linear paths of unary activities.

        Borders are binary activities and recordsets (and fan-out points).
        For Fig. 1 the groups are ``{3}``, ``{4,5,6}`` and ``{8}``.
        Groups are returned in topological order of their first member.
        """
        groups: list[list[Activity]] = []
        for node in self.topological_order():
            if not isinstance(node, Activity) or not node.is_unary:
                continue
            if self._starts_group(node):
                group = [node]
                current: Node = node
                while True:
                    consumers = self.consumers(current)
                    if len(consumers) != 1:
                        break
                    nxt = consumers[0]
                    if not isinstance(nxt, Activity) or not nxt.is_unary:
                        break
                    group.append(nxt)
                    current = nxt
                groups.append(group)
        return groups

    def _starts_group(self, activity: Activity) -> bool:
        providers = self.providers(activity)
        if len(providers) != 1:
            return False
        provider = providers[0]
        if not isinstance(provider, Activity) or not provider.is_unary:
            return True
        # A unary provider with fan-out ends its own chain, so this
        # activity starts a fresh group.
        return len(self.consumers(provider)) != 1

    def group_of(self, activity: Activity) -> list[Activity]:
        """The local group containing ``activity``."""
        for group in self.local_groups():
            if activity in group:
                return group
        raise WorkflowError(
            f"activity {activity.id} is not part of any local group"
        )

    def __repr__(self) -> str:
        n_act = sum(1 for _ in self.activities())
        n_rs = sum(1 for _ in self.recordsets())
        return f"ETLWorkflow({n_act} activities, {n_rs} recordsets)"


def _reach(adjacency: dict[Node, dict[Node, int]], node: Node) -> set[Node]:
    """Every node an iterative DFS reaches from ``node`` over
    ``adjacency``, ``node`` itself excluded even on a cycle."""
    seen = {node}
    stack = [node]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    seen.discard(node)
    return seen
