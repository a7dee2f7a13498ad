"""Activities: the transformation nodes of an ETL workflow (section 2.1).

Formally an activity is a quadruple ``A = (Id, I, O, S)``: identifier, input
schemata, output schemata, and semantics.  In this implementation the
*input/output* schemata are **derived state** — recomputed by
:meth:`repro.core.workflow.ETLWorkflow.propagate_schemas` after every
transition, exactly as the paper prescribes ("after each transition has
taken place, the input and output schemata of each activity are
automatically re-generated").  What an :class:`Activity` object stores is
the *template-level* information of section 3.2: the functionality,
generated, and projected-out schemata, the declared selectivity, and the
instantiation parameters.

Activity objects are immutable value-like descriptors; states (workflow
graphs) share them, which makes state copies cheap during search.

:class:`CompositeActivity` implements the paper's MERGE packaging: a linear
chain of unary activities treated as a single unary node (id ``"4+5"``),
with externally visible auxiliary schemata derived from its parts.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.core.schema import Schema
from repro.exceptions import SchemaError, TemplateError, WorkflowError
from repro.templates.base import ActivityKind, ActivityTemplate, SchemaPlan
from repro.templates.builtin import (
    derive_unary_output,
    derive_binary_output,
    distributes_over_for,
)

__all__ = ["Activity", "CompositeActivity", "base_clone_id"]


def base_clone_id(activity_id: str) -> str:
    """Strip a distribute-clone suffix (``_1``/``_2``) from an activity id.

    DIS names its clones ``<id>_1`` and ``<id>_2``; FAC of two clones that
    share a base recovers the base id, so FAC(DIS(S)) reproduces the
    signature of S and the search space stays free of spurious duplicates.
    """
    if activity_id.endswith(("_1", "_2")):
        return activity_id[:-2]
    return activity_id


class Activity:
    """One instantiated activity (an immutable descriptor).

    Attributes:
        id: unique identifier; the execution priority from the topological
            order of the *initial* workflow (section 4.1), kept for the full
            lifespan of the activity across transitions.
        template: the :class:`ActivityTemplate` this instantiates.
        params: the validated instantiation parameters.
        selectivity: declared output/input row ratio used by cost models
            (for aggregations: the grouping ratio; for joins: the fraction
            of the cross product surviving).
        name: display name, e.g. ``"σ(ECOST_M>100)"``; defaults to a
            rendering of template and parameters.
    """

    __slots__ = (
        "id",
        "template",
        "params",
        "selectivity",
        "name",
        "_plan",
        "_derive_cache",
    )

    def __init__(
        self,
        id: str,
        template: ActivityTemplate,
        params: Mapping[str, Any],
        selectivity: float = 1.0,
        name: str | None = None,
    ):
        if not isinstance(id, str) or not id:
            raise WorkflowError(f"activity id must be a non-empty string, got {id!r}")
        if selectivity < 0:
            raise TemplateError(f"activity {id}: selectivity must be >= 0")
        self.id = id
        self.template = template
        self.params = template.validate_params(params)
        self.selectivity = float(selectivity)
        self._plan: SchemaPlan = template.plan(self.params)
        self.name = name if name is not None else self._default_name()
        self._derive_cache: dict[tuple[Schema, ...], Schema | SchemaError] = {}

    def _default_name(self) -> str:
        rendered = ",".join(str(v) for v in self.params.values())
        return f"{self.template.predicate_name}({rendered})"

    # -- structural properties ------------------------------------------------

    @property
    def arity(self) -> int:
        return self.template.arity

    @property
    def is_unary(self) -> bool:
        return self.template.is_unary

    @property
    def is_binary(self) -> bool:
        return self.template.is_binary

    @property
    def kind(self) -> ActivityKind:
        return self.template.kind

    # -- auxiliary schemata (section 3.2) --------------------------------------

    @property
    def functionality(self) -> Schema:
        """Attributes taking part in the computation."""
        return self._plan.functionality

    @property
    def functionality_per_input(self) -> tuple[Schema, ...]:
        return self._plan.functionality_per_input

    @property
    def generated(self) -> Schema:
        """Attributes created by the activity."""
        return self._plan.generated

    @property
    def projected_out(self) -> Schema:
        """Input attributes not propagated further."""
        return self._plan.projected_out

    @property
    def distributes_over(self) -> frozenset[str]:
        """Binary template names this instance may be moved across."""
        return distributes_over_for(self.template, self.params)

    # -- schema derivation ------------------------------------------------------

    def derive_output(self, input_schemas: tuple[Schema, ...]) -> Schema:
        """Output schema for concrete input schemas (validates subset rules).

        Memoized per activity: during search the same activity sees the
        same input schemas across thousands of states, so schema
        regeneration after a transition is mostly cache hits.  Rejections
        repeat just as often; they are cached without a traceback, and
        each hit raises a fresh ``SchemaError`` with the same message, so
        no raise pins the frames it passes through.
        """
        cached = self._derive_cache.get(input_schemas)
        if cached is not None:
            if isinstance(cached, SchemaError):
                raise SchemaError(*cached.args)
            return cached
        try:
            output = self._derive_output_uncached(input_schemas)
        except SchemaError as exc:
            self._derive_cache[input_schemas] = SchemaError(*exc.args)
            raise
        self._derive_cache[input_schemas] = output
        return output

    def _derive_output_uncached(self, input_schemas: tuple[Schema, ...]) -> Schema:
        if len(input_schemas) != self.arity:
            raise SchemaError(
                f"activity {self.id}: expected {self.arity} input schema(s), "
                f"got {len(input_schemas)}"
            )
        for fun, schema in zip(self.functionality_per_input, input_schemas):
            if not fun.issubset(schema):
                missing = sorted(fun.as_set - schema.as_set)
                raise SchemaError(
                    f"activity {self.id} ({self.name}): functionality "
                    f"attributes {missing} missing from input schema {schema}"
                )
        if self.is_binary:
            left, right = input_schemas
            if self.template.name in ("union", "difference", "intersection"):
                if not left.compatible(right):
                    raise SchemaError(
                        f"activity {self.id} ({self.name}): branch schemas "
                        f"{left} and {right} are not compatible"
                    )
            return derive_binary_output(self.template, self.params, left, right)
        output = derive_unary_output(
            self.template, self.params, self._plan, input_schemas[0]
        )
        return output

    # -- equivalence helpers -----------------------------------------------------

    def semantics_key(self) -> tuple:
        """Hashable rendering of the algebraic semantics of this activity.

        Two activities are *homologous candidates* when their semantics keys
        match: same template, same parameters, same selectivity (section
        3.2: "same semantics ... same functionality, generated and
        projected-out schemata" — with derived schemata, parameters pin all
        three).
        """
        return (
            self.template.name,
            _freeze(self.params),
            self.selectivity,
        )

    def clone(self, new_id: str) -> "Activity":
        """A copy of this activity under a different id (used by DIS)."""
        return Activity(
            new_id, self.template, self.params, self.selectivity, self.name
        )

    def __repr__(self) -> str:
        return f"Activity({self.id}:{self.name})"


def _freeze(value: Any) -> Any:
    """Recursively convert params into hashable structures."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


class CompositeActivity(Activity):
    """A MERGE package: a linear chain of unary activities as one unary node.

    Merging "packages" activities that must not be separated or reordered
    (section 2.2): the optimizer treats the composite as one opaque unary
    activity, which proactively prunes the search space (Heuristic 3).
    SPLIT restores the components.

    The composite's externally visible schemata are derived from the parts:

    * functionality — attributes a component reads that were not generated
      by an earlier component (i.e. attributes required from the outside);
    * generated — attributes generated by some component and still alive at
      the end of the chain;
    * projected-out — external attributes dropped by some component.
    """

    __slots__ = ("components",)

    def __init__(self, components: tuple[Activity, ...]):
        if len(components) < 2:
            raise WorkflowError("CompositeActivity needs at least two components")
        for comp in components:
            if not comp.is_unary:
                raise WorkflowError(
                    f"cannot merge non-unary activity {comp.id} ({comp.name})"
                )
        self.components = components
        composite_id = "+".join(c.id for c in components)
        selectivity = 1.0
        for comp in components:
            selectivity *= comp.selectivity
        name = "+".join(c.name for c in components)
        # Bypass Activity.__init__ (no single template); set fields directly.
        self.id = composite_id
        self.template = components[0].template  # representative; see kind below
        self.params = {}
        self.selectivity = selectivity
        self.name = name
        self._plan = self._derive_plan(components)
        self._derive_cache = {}

    @staticmethod
    def _derive_plan(components: tuple[Activity, ...]) -> SchemaPlan:
        external_fun: list[str] = []
        external_proj: list[str] = []
        live_generated: list[str] = []
        for comp in components:
            for attr in comp.functionality:
                if attr not in live_generated and attr not in external_fun:
                    external_fun.append(attr)
            for attr in comp.projected_out:
                if attr in live_generated:
                    live_generated.remove(attr)
                elif attr not in external_proj:
                    external_proj.append(attr)
            for attr in comp.generated:
                if attr not in live_generated:
                    live_generated.append(attr)
        return SchemaPlan(
            functionality_per_input=(Schema(external_fun),),
            generated=Schema(live_generated),
            projected_out=Schema(external_proj),
        )

    @property
    def arity(self) -> int:
        return 1

    @property
    def is_unary(self) -> bool:
        return True

    @property
    def is_binary(self) -> bool:
        return False

    @property
    def kind(self) -> ActivityKind:
        """AGGREGATION when any component aggregates, else FUNCTION."""
        for comp in self.components:
            if comp.kind is ActivityKind.AGGREGATION:
                return ActivityKind.AGGREGATION
        return ActivityKind.FUNCTION

    @property
    def distributes_over(self) -> frozenset[str]:
        """A composite moves across a binary only if every component does."""
        result: frozenset[str] | None = None
        for comp in self.components:
            allowed = comp.distributes_over
            result = allowed if result is None else (result & allowed)
        return result if result is not None else frozenset()

    def _derive_output_uncached(self, input_schemas: tuple[Schema, ...]) -> Schema:
        if len(input_schemas) != 1:
            raise SchemaError(
                f"composite {self.id}: expected 1 input schema, "
                f"got {len(input_schemas)}"
            )
        schema = input_schemas[0]
        for comp in self.components:
            schema = comp.derive_output((schema,))
        return schema

    def semantics_key(self) -> tuple:
        return ("composite",) + tuple(c.semantics_key() for c in self.components)

    def clone(self, new_id: str) -> "Activity":
        raise WorkflowError(
            "composite activities cannot be cloned; split them first"
        )

    def split_pair(self) -> tuple[Activity, Activity]:
        """Split into (first component, rest) per the paper's SPL definition.

        ``a+b+c`` splits into ``a`` and ``b+c``; a two-component composite
        splits into its two plain activities.
        """
        first = self.components[0]
        rest = self.components[1:]
        if len(rest) == 1:
            return first, rest[0]
        return first, CompositeActivity(rest)

    def __repr__(self) -> str:
        return f"CompositeActivity({self.id})"
