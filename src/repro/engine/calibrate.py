"""Selectivity calibration: measure on data, feed back into the model.

The paper's experiments use *assigned* selectivities.  In production the
natural refinement is to measure them: run the workflow on a data sample,
compute each activity's actual output/input ratio, and re-optimize with
the measured values.  Because activities are immutable descriptors, the
calibrated workflow is a rebuilt graph with replacement activities that
differ only in their ``selectivity``.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping

from repro.core.activity import Activity, CompositeActivity
from repro.core.workflow import ETLWorkflow, Node
from repro.engine.executor import ExecutionStats, Executor, iter_components
from repro.engine.rows import Row

__all__ = [
    "CalibrationWarning",
    "measure_selectivities",
    "apply_selectivities",
    "calibrate_workflow",
]


class CalibrationWarning(UserWarning):
    """A calibration run could not measure some activity's selectivity."""


def _ratio(stats: ExecutionStats, activity: Activity) -> float | None:
    processed = stats.rows_processed.get(activity.id)
    produced = stats.rows_output.get(activity.id)
    if not processed or produced is None:
        # No processed rows, or a processed count without a recorded
        # output (partial stats from an aborted run): unmeasurable.
        return None
    return produced / processed


def measure_selectivities(
    workflow: ETLWorkflow,
    source_data: Mapping[str, list[Row]],
    executor: Executor | None = None,
) -> dict[str, float]:
    """Measured selectivity per activity id (unary activities only).

    The declared-selectivity convention for binary activities differs per
    template (join: fraction of the cross product; difference: fraction of
    the left input), so only unary activities — where selectivity is
    unambiguously output/input — are measured; binary activities keep
    their declared values.

    Activities the sample never exercised (zero processed rows) cannot be
    measured; they keep their declared selectivity and a
    :class:`CalibrationWarning` is emitted so the staleness is visible
    instead of silent.
    """
    executor = executor if executor is not None else Executor()
    stats = executor.run(workflow, source_data).stats
    measured: dict[str, float] = {}
    for activity in workflow.activities():
        for component in iter_components(activity):
            if not component.is_unary:
                continue
            ratio = _ratio(stats, component)
            if ratio is not None:
                measured[component.id] = ratio
            else:
                warnings.warn(
                    f"activity {component.id!r} ({component.template.name}) "
                    f"could not be measured on the calibration sample "
                    f"(zero processed rows or no recorded output); keeping "
                    f"its declared selectivity {component.selectivity}",
                    CalibrationWarning,
                    stacklevel=2,
                )
    return measured


def apply_selectivities(
    workflow: ETLWorkflow, selectivities: Mapping[str, float]
) -> ETLWorkflow:
    """A rebuilt workflow whose activities carry the given selectivities.

    Activities absent from ``selectivities`` keep their declared values;
    recordsets are shared.  The result is structurally identical (same
    signature) to the input.
    """

    def rebuild(node: Node) -> Node:
        if not isinstance(node, Activity):
            return node
        if isinstance(node, CompositeActivity):
            return CompositeActivity(
                tuple(rebuild(c) for c in node.components)
            )
        new_selectivity = selectivities.get(node.id)
        if new_selectivity is None or new_selectivity == node.selectivity:
            return node
        return Activity(
            node.id,
            node.template,
            node.params,
            selectivity=new_selectivity,
            name=node.name,
        )

    rebuilt = ETLWorkflow()
    mapping: dict[Node, Node] = {}
    for node in workflow.topological_order():
        replacement = rebuild(node)
        rebuilt.add_node(replacement)
        mapping[node] = replacement
    for provider, consumer in workflow.edges():
        rebuilt.add_edge(
            mapping[provider],
            mapping[consumer],
            port=workflow.edge_port(provider, consumer),
        )
    return rebuilt


def calibrate_workflow(
    workflow: ETLWorkflow,
    source_data: Mapping[str, list[Row]],
    executor: Executor | None = None,
) -> ETLWorkflow:
    """Measure selectivities on ``source_data`` and apply them."""
    measured = measure_selectivities(workflow, source_data, executor)
    return apply_selectivities(workflow, measured)
