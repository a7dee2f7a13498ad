"""EXPLAIN-style rendering: the workflow with its estimated costs.

``explain`` combines the topological outline with the cost model's
per-node cardinalities and costs — the optimizer's view of the plan, the
way database EXPLAIN shows the planner's.  ``explain_diff`` puts the
initial and optimized plans side by side with per-node cost deltas
attributed to the lineage steps that caused them, and ``explain_dot``
exports a Graphviz document of the cost-annotated plan plus the search
trace — the ``repro explain --diff`` / ``--dot`` surfaces.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.activity import Activity
from repro.core.cost.estimator import estimate
from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow
from repro.io.render import _dot_escape, _dot_label

__all__ = ["explain", "explain_diff", "explain_dot"]


def explain(workflow: ETLWorkflow, model: CostModel | None = None) -> str:
    """A cost-annotated, topologically ordered rendering of the workflow."""
    model = model if model is not None else ProcessedRowsCostModel()
    report = estimate(workflow, model)
    lines = [
        f"{'node':<10}{'what':<30}{'rows out':>12}{'cost':>12}{'%':>6}"
    ]
    total = report.total if report.total else 1.0
    for node in workflow.topological_order():
        cards = report.cardinalities[node]
        if isinstance(node, RecordSet):
            label = f"{node.name} ({node.kind.value})"
            cost_text, share_text = "-", ""
        else:
            assert isinstance(node, Activity)
            label = node.name
            cost = report.cost_of(node)
            cost_text = f"{cost:,.0f}"
            share_text = f"{100 * cost / total:.0f}"
        lines.append(
            f"[{node.id}]".ljust(10)
            + f"{label:<30}{cards:>12,.0f}{cost_text:>12}{share_text:>6}"
        )
    lines.append(f"{'total':<52}{report.total:>18,.0f}")
    return "\n".join(lines)


# -- plan diff (repro explain --diff) --------------------------------------------------


def _step_parts(step) -> tuple[str, str, float]:
    """(mnemonic, description, cost_after) of a lineage step in any of its
    serialized forms (LineageStep, dict, or bare description string)."""
    if isinstance(step, dict):
        return (
            str(step.get("mnemonic", "")),
            str(step.get("transition", "")),
            float(step.get("cost_after", 0.0)),
        )
    if isinstance(step, str):
        return step.partition("(")[0], step, 0.0
    return step.mnemonic, step.transition, float(step.cost_after)


def _step_args(description: str) -> tuple[str, ...]:
    """The node ids a ``describe()`` string names (``SWA(5,6)`` -> 5, 6)."""
    _, _, rest = description.partition("(")
    if not rest.endswith(")"):
        return ()
    return tuple(part.strip() for part in rest[:-1].split(","))


def _activity_costs(workflow: ETLWorkflow, report) -> dict[str, float]:
    return {
        node.id: report.cost_of(node)
        for node in workflow.topological_order()
        if isinstance(node, Activity)
    }


def explain_diff(
    initial: ETLWorkflow,
    best: ETLWorkflow,
    model: CostModel | None = None,
    lineage: Sequence = (),
) -> str:
    """Before/after plans side by side, with per-node cost deltas
    attributed to the lineage steps that moved them.

    Args:
        initial: the initial workflow ``S0``.
        best: the optimized workflow.
        model: cost model for the annotations (default: processed-rows).
        lineage: the winning transition chain
            (``OptimizationResult.lineage`` or its dict/string forms);
            the "steps" column of the per-node table lists the 1-based
            lineage steps whose transition names that node.
    """
    model = model if model is not None else ProcessedRowsCostModel()
    before = estimate(initial, model)
    after = estimate(best, model)
    steps = [_step_parts(step) for step in lineage]

    # Side-by-side plans.
    left = explain(initial, model).splitlines()
    right = explain(best, model).splitlines()
    width = max((len(line) for line in left), default=0)
    height = max(len(left), len(right))
    left += [""] * (height - len(left))
    right += [""] * (height - len(right))
    lines = [f"{'initial plan':<{width}}  |  optimized plan"]
    lines.append(f"{'-' * width}  |  {'-' * max(len(l) for l in right)}")
    lines.extend(
        f"{a:<{width}}  |  {b}" for a, b in zip(left, right)
    )

    # Per-node cost deltas, attributed to lineage steps.
    costs_before = _activity_costs(initial, before)
    costs_after = _activity_costs(best, after)
    node_ids = sorted(
        set(costs_before) | set(costs_after),
        key=lambda node_id: (len(node_id), node_id),
    )
    lines.append("")
    lines.append(
        f"{'node':<10}{'cost before':>14}{'cost after':>14}{'delta':>14}"
        "  steps"
    )
    for node_id in node_ids:
        b = costs_before.get(node_id)
        a = costs_after.get(node_id)
        delta = (
            f"{a - b:+,.0f}" if a is not None and b is not None else "—"
        )
        touched = [
            str(index + 1)
            for index, (_, description, _) in enumerate(steps)
            if node_id in _step_args(description)
        ]
        lines.append(
            f"[{node_id}]".ljust(10)
            + (f"{b:>14,.0f}" if b is not None else f"{'—':>14}")
            + (f"{a:>14,.0f}" if a is not None else f"{'—':>14}")
            + f"{delta:>14}"
            + ("  " + ",".join(touched) if touched else "")
        )
    lines.append(
        f"{'total':<10}{before.total:>14,.0f}{after.total:>14,.0f}"
        f"{after.total - before.total:>+14,.0f}"
    )

    # The winning chain itself, with per-step cost attribution.
    lines.append("")
    if steps:
        lines.append(
            f"{'step':<6}{'transition':<24}{'cost after':>14}{'delta':>14}"
        )
        previous = before.total
        for index, (_, description, cost_after) in enumerate(steps, start=1):
            lines.append(
                f"{index:<6}{description:<24}{cost_after:>14,.0f}"
                f"{cost_after - previous:>+14,.0f}"
            )
            previous = cost_after
    else:
        lines.append("lineage: none (initial state is optimal)")
    return "\n".join(lines)


# -- annotated DOT export (repro explain --dot) ----------------------------------------


def explain_dot(
    workflow: ETLWorkflow,
    model: CostModel | None = None,
    lineage: Iterable = (),
    title: str = "optimized plan",
) -> str:
    """Graphviz export of the cost-annotated plan plus the search trace.

    The workflow graph carries per-node cost/cardinality annotations; when
    a ``lineage`` is given, a ``search trace`` cluster chains the winning
    transitions in application order, each annotated with the cost it
    reached — the figure-style companion of :func:`explain_diff`.
    """
    model = model if model is not None else ProcessedRowsCostModel()
    report = estimate(workflow, model)
    lines = [
        "digraph etl {",
        "  rankdir=LR;",
        f'  label="{_dot_escape(title)}";',
        "  node [fontsize=10];",
    ]
    for node in workflow.topological_order():
        node_id = _dot_escape(node.id)
        cards = report.cardinalities[node]
        if isinstance(node, RecordSet):
            shape = "box3d" if node.is_source or node.is_target else "box"
            label = _dot_label(
                f"{node.id}: {node.name}", f"{cards:,.0f} rows"
            )
            lines.append(f'  "{node_id}" [shape={shape}, label="{label}"];')
        else:
            assert isinstance(node, Activity)
            cost = report.cost_of(node)
            label = _dot_label(
                f"{node.id}: {node.name}",
                f"cost {cost:,.0f} · {cards:,.0f} rows",
            )
            lines.append(
                f'  "{node_id}" [shape=ellipse, label="{label}"];'
            )
    for provider, consumer in workflow.edges():
        lines.append(
            f'  "{_dot_escape(provider.id)}" -> '
            f'"{_dot_escape(consumer.id)}";'
        )
    steps = [_step_parts(step) for step in lineage]
    if steps:
        lines.append("  subgraph cluster_trace {")
        lines.append('    label="search trace";')
        lines.append("    node [shape=note, fontsize=9];")
        lines.append('    "trace_0" [label="S0"];')
        for index, (_, description, cost_after) in enumerate(steps, start=1):
            label = _dot_label(
                f"{index}. {description}", f"cost {cost_after:,.0f}"
            )
            lines.append(f'    "trace_{index}" [label="{label}"];')
            lines.append(f'    "trace_{index - 1}" -> "trace_{index}";')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
