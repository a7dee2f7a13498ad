"""Canonical state signatures (section 4.1) and workflow fingerprints.

During search we must discern states from one another so that the same
state is never generated (and costed) twice.  The paper assigns each
activity its priority from the initial topological ordering as a lifelong
identifier and builds a string per state; the signature of Fig. 1 is
``((1.3)//(2.4.5.6)).7.8.9``.

We reproduce that format: a linear chain renders as ids joined by ``.``;
converging branches render as ``(b1//b2)`` in front of the id of the node
they converge on.  For *commutative* binary activities (union, join,
intersection) the branch strings are sorted so that mirror-image states get
one canonical signature; for non-commutative ones (difference) port order
is preserved.  Workflows with several targets are rendered as the sorted
``//``-join of the per-target signatures.

A signature identifies a state only *within* one optimization problem: it
is built from node ids, so two unrelated workflows that happen to share
ids collide.  :func:`workflow_fingerprint` closes that gap for the
transposition cache — a content hash over every node's full descriptor
(template, parameters, selectivity, schema, cardinality) and the
port-annotated edge list, stable across processes and sessions.
"""

from __future__ import annotations

import hashlib

from repro.core.activity import Activity, CompositeActivity
from repro.core.workflow import ETLWorkflow, Node

__all__ = ["state_signature", "workflow_fingerprint"]


def state_signature(workflow: ETLWorkflow) -> str:
    """The canonical signature string of a state.

    One forward pass over the (cached) topological order — the recursive
    provider walk this replaces dominated successor generation once
    transition application itself became incremental.
    """
    memo: dict[Node, str] = {}
    pred = workflow.pred
    for node in workflow.topological_order():
        memo[node] = render_node(node, pred[node], memo)
    return join_targets(workflow.targets(), memo)


def render_node(node: Node, pred: dict, memo: dict[Node, str]) -> str:
    """One node's signature rendering from its providers' (``pred`` is
    the node's {provider: port} map, ``memo`` holds the providers)."""
    if not pred:
        return str(node.id)
    if len(pred) == 1:
        (provider,) = pred
        return f"{memo[provider]}.{node.id}"
    if _is_commutative(node):
        # Commutative ⇒ canonical branch order is lexicographic, so the
        # port order of the providers is irrelevant.
        branches = sorted(f"({memo[p]})" for p in pred)
    else:
        ordered = sorted(pred, key=pred.__getitem__)
        branches = [f"({memo[p]})" for p in ordered]
    return f"({'//'.join(branches)}).{node.id}"


def join_targets(targets: list, memo: dict[Node, str]) -> str:
    """The state signature from its targets' renderings."""
    if len(targets) == 1:
        return memo[targets[0]]
    return "//".join(sorted(memo[target] for target in targets))


def _is_commutative(node: Node) -> bool:
    if isinstance(node, Activity) and node.is_binary:
        return node.template.commutative
    return True


def _activity_descriptor(activity: Activity) -> str:
    if isinstance(activity, CompositeActivity):
        parts = "+".join(_activity_descriptor(c) for c in activity.components)
        return f"composite[{parts}]"
    params = ",".join(
        f"{key}={activity.params[key]!r}" for key in sorted(activity.params)
    )
    return (
        f"activity:{activity.id}:{activity.template.name}"
        f"({params})@{activity.selectivity!r}"
    )


def workflow_fingerprint(workflow: ETLWorkflow) -> str:
    """A stable content hash of a workflow (nodes + wiring).

    Unlike :func:`state_signature` — which encodes only node *ids* and
    structure — the fingerprint covers everything state costs depend on:
    template names, instantiation parameters, selectivities, recordset
    schemas and cardinalities.  All states explored from one initial
    workflow share its node population, so the fingerprint of the initial
    state namespaces an entire search space in the transposition cache.
    """
    lines: list[str] = []
    for node in sorted(workflow.nodes(), key=lambda n: n.id):
        if isinstance(node, Activity):
            lines.append(_activity_descriptor(node))
        else:
            lines.append(
                f"recordset:{node.id}:{node.name}:{node.kind.value}"
                f":{','.join(node.schema)}@{node.cardinality!r}"
            )
    edges = sorted(
        (provider.id, consumer.id, workflow.edge_port(provider, consumer))
        for provider, consumer in workflow.edges()
    )
    lines.extend(f"edge:{p}->{c}#{port}" for p, c, port in edges)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:24]
