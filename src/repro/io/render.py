"""Rendering workflows: Graphviz DOT and plain-text outlines.

``to_dot`` produces a Graphviz document matching the paper's figures —
recordsets as cylinders-ish boxes, activities as ellipses tagged with
their execution priority and description, edges following the data flow.
``to_text`` prints a compact indented outline (handy in terminals and
doctests).
"""

from __future__ import annotations

from repro.core.activity import Activity, CompositeActivity
from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow, Node

__all__ = ["to_dot", "to_text"]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(*lines: str) -> str:
    """A multi-line DOT label: lines escaped, joined with DOT's ``\\n``."""
    return "\\n".join(_dot_escape(line) for line in lines)


def to_dot(workflow: ETLWorkflow, title: str = "ETL workflow") -> str:
    """A Graphviz DOT rendering of the workflow graph."""
    lines = [
        "digraph etl {",
        "  rankdir=LR;",
        f"  label=\"{_dot_escape(title)}\";",
        "  node [fontsize=10];",
    ]
    for node in workflow.topological_order():
        node_id = _dot_escape(node.id)
        if isinstance(node, RecordSet):
            shape = "box3d" if node.is_source or node.is_target else "box"
            label = _dot_label(f"{node.id}: {node.name}", str(node.schema))
            lines.append(f'  "{node_id}" [shape={shape}, label="{label}"];')
        else:
            label = _dot_escape(f"{node.id}: {node.name}")
            style = ", style=dashed" if isinstance(node, CompositeActivity) else ""
            lines.append(f'  "{node_id}" [shape=ellipse, label="{label}"{style}];')
    for provider, consumer in workflow.edges():
        port = workflow.edge_port(provider, consumer)
        attrs = f' [label="{port}"]' if _needs_port_label(consumer) else ""
        lines.append(
            f'  "{_dot_escape(provider.id)}" -> "{_dot_escape(consumer.id)}"{attrs};'
        )
    lines.append("}")
    return "\n".join(lines)


def _needs_port_label(node: Node) -> bool:
    return (
        isinstance(node, Activity)
        and node.is_binary
        and not node.template.commutative
    )


def to_text(workflow: ETLWorkflow) -> str:
    """An indented, topologically ordered outline of the workflow."""
    derived = workflow.propagate_schemas()
    lines: list[str] = []
    for node in workflow.topological_order():
        if isinstance(node, RecordSet):
            role = node.kind.value
            lines.append(
                f"[{node.id}] {node.name} ({role}) schema={derived[node].output}"
            )
        else:
            providers = ",".join(p.id for p in workflow.providers(node))
            lines.append(
                f"[{node.id}] {node.name} <- [{providers}] "
                f"out={derived[node].output}"
            )
    return "\n".join(lines)
