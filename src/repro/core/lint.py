"""Naming-discipline linter (section 3.1's contract, checkable).

The naming principle makes the optimizer's schema-level reasoning sound:
same reference name ⇒ same real-world entity, treated equivalently by
every consumer.  Two designs quietly break that contract:

* an attribute is transformed *in place* (reference name kept) somewhere
  while some other activity compares it against a constant — the Fig. 5
  guard is then "compromised ... if the designer uses the same name", in
  the paper's words: the comparison is format-sensitive, so the two value
  spaces are different entities and deserve different reference names;
* an attribute is transformed in place on some branches of a union but
  not on others while a downstream activity groups or filters on it —
  the flows then mix value formats under one name.

:func:`lint_workflow` detects both and returns structured findings.  It is
advisory: the transitions stay conservative regardless (the semantic
guard refuses to reorder such pairs), but a clean lint means every name
in the workflow honours the paper's contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.activity import Activity, CompositeActivity
from repro.core.workflow import ETLWorkflow
from repro.templates.base import ActivityKind

__all__ = ["LintLevel", "LintFinding", "lint_workflow"]


class LintLevel(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class LintFinding:
    """One naming-discipline violation."""

    level: LintLevel
    rule: str
    attribute: str
    message: str
    activity_ids: tuple[str, ...]

    def __str__(self) -> str:
        return f"[{self.level.value}] {self.rule}({self.attribute}): {self.message}"


def _components(activity: Activity) -> tuple[Activity, ...]:
    if isinstance(activity, CompositeActivity):
        result: list[Activity] = []
        for component in activity.components:
            result.extend(_components(component))
        return tuple(result)
    return (activity,)


def _is_in_place_transform(activity: Activity) -> bool:
    return (
        activity.kind is ActivityKind.FUNCTION
        and len(activity.generated) == 0
        and len(activity.functionality) > 0
    )


def _is_constant_comparison(activity: Activity) -> bool:
    """Filters whose predicate compares attribute *values* to constants."""
    if activity.kind is not ActivityKind.FILTER:
        return False
    # Not-null and pk checks are value-format agnostic; range/selection
    # compare against literals.
    return activity.template.name in ("selection", "range_check")


def lint_workflow(workflow: ETLWorkflow) -> list[LintFinding]:
    """Check the workflow against the naming-principle contract."""
    findings: list[LintFinding] = []
    transforms: dict[str, list[Activity]] = {}
    comparisons: dict[str, list[Activity]] = {}
    groupers: dict[str, list[Activity]] = {}

    flattened = [
        component
        for activity in workflow.activities()
        for component in _components(activity)
    ]
    for activity in flattened:
        if _is_in_place_transform(activity):
            for attr in activity.functionality:
                transforms.setdefault(attr, []).append(activity)
        if _is_constant_comparison(activity):
            for attr in activity.functionality:
                comparisons.setdefault(attr, []).append(activity)
        if activity.kind is ActivityKind.AGGREGATION:
            for attr in activity.params.get("group_by", ()):
                groupers.setdefault(attr, []).append(activity)

    for attr, transformers in transforms.items():
        compared = comparisons.get(attr, [])
        if compared:
            findings.append(
                LintFinding(
                    level=LintLevel.ERROR,
                    rule="format-sensitive-comparison",
                    attribute=attr,
                    message=(
                        f"{attr} is transformed in place by "
                        f"{[a.id for a in transformers]} but compared to a "
                        f"constant by {[a.id for a in compared]}; the two "
                        "value spaces are different entities — give the "
                        "transform output a fresh reference name"
                    ),
                    activity_ids=tuple(
                        a.id for a in transformers + compared
                    ),
                )
            )

    findings.extend(_lint_partial_branch_transforms(workflow, transforms, groupers))
    return findings


def _lint_partial_branch_transforms(
    workflow: ETLWorkflow,
    transforms: dict[str, list[Activity]],
    groupers: dict[str, list[Activity]],
) -> list[LintFinding]:
    """Warn when only some converging branches transform a grouped attr."""
    findings: list[LintFinding] = []
    # Flatten composites the way the transforms/groupers scans do: a
    # convergence point packaged inside a CompositeActivity still merges
    # branches, so it must not escape the scan.  Graph navigation uses the
    # top-level container node; the finding reports the inner binary's id.
    binaries = [
        (component, container)
        for container in workflow.activities()
        if isinstance(container, Activity)
        for component in _components(container)
        if component.is_binary
    ]
    for attr, transformers in transforms.items():
        grouping_activities = groupers.get(attr, [])
        if not grouping_activities:
            continue
        for binary, container in binaries:
            # Mixing only matters when some grouper on this attribute sits
            # downstream of the convergence point.
            downstream = workflow.downstream(container)
            flattened_downstream = {
                component
                for node in downstream
                if isinstance(node, Activity)
                for component in _components(node)
            }
            if not any(g in flattened_downstream for g in grouping_activities):
                continue
            # Which branches (provider subtrees, looked at upstream) hold a
            # transformer of this attribute?
            branch_has = []
            for provider in workflow.providers(container):
                ancestors = {
                    component
                    for node in _ancestors(workflow, container, via=provider)
                    if isinstance(node, Activity)
                    for component in _components(node)
                }
                branch_has.append(
                    any(t in ancestors for t in transformers)
                )
            if any(branch_has) and not all(branch_has):
                findings.append(
                    LintFinding(
                        level=LintLevel.WARNING,
                        rule="mixed-format-branches",
                        attribute=attr,
                        message=(
                            f"{attr} is reformatted in place on only some "
                            f"branches converging at {binary.id} but is later "
                            "used as a grouper; groups will mix value formats"
                        ),
                        activity_ids=tuple(t.id for t in transformers),
                    )
                )
    return findings


def _ancestors(workflow: ETLWorkflow, node, via) -> set:
    """Nodes feeding ``node`` *only* through the provider ``via``.

    In a diamond-shaped flow a node in the shared region upstream of the
    fork reaches ``node`` through every provider; attributing it to each
    branch would make a partial-branch transform look total and suppress
    the warning.  Branch membership therefore excludes any node that also
    reaches ``node`` through a different provider.
    """
    ancestors = workflow.upstream(via) | {via}
    for other in workflow.providers(node):
        if other is via:
            continue
        ancestors -= workflow.upstream(other) | {other}
    return ancestors
