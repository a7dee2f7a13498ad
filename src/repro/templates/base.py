"""Activity templates: the reusable transformation vocabulary.

The paper builds on a library of *template activities* (reference [18], the
ARKTOS II framework): each template has predefined semantics, a parameter
"signature", and declares — at the template level — which parameters form
the functionality schema and which attributes are generated or projected
out.  Designers instantiate templates to obtain concrete activities.

This module defines the :class:`ActivityTemplate` descriptor.  The shipped
templates live in :mod:`repro.templates.builtin`; their executable semantics
(used by the execution-engine substrate) live in
:mod:`repro.engine.operators`, keyed by template name, so the logical core
stays independent of the execution engine.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.schema import Schema
from repro.exceptions import TemplateError

__all__ = ["ActivityKind", "CostShape", "ActivityTemplate", "SchemaPlan"]


class ActivityKind(enum.Enum):
    """Coarse semantic class of a template.

    The transition machinery keys a few decisions off this class: filters
    and row-wise functions are candidates for factorize/distribute,
    aggregations never are, and binary activities delimit local groups.
    """

    FILTER = "filter"          # row-wise predicate; drops rows, keeps schema
    FUNCTION = "function"      # row-wise derivation; may generate/drop attrs
    AGGREGATION = "aggregation"  # blocking; groups rows, generates aggregates
    BINARY = "binary"          # union, join, difference, intersection
    SINK_ADAPTER = "sink_adapter"  # schema-shaping before a target (projection)


class CostShape(enum.Enum):
    """Asymptotic shape of a template's per-invocation cost.

    The default processed-rows cost model (section 2.2 / [15]) maps these to
    concrete formulae; custom cost models may interpret them differently.
    """

    LINEAR = "linear"            # c(n) = n          (filters, functions)
    SORT = "sort"                # c(n) = n*log2(n)  (aggregation, surrogate key)
    MERGE = "merge"              # c(n1,n2) = n1+n2  (union)
    SORT_MERGE = "sort_merge"    # c(n1,n2) = n1*log2(n1)+n2*log2(n2) (join, diff)


@dataclass(frozen=True)
class SchemaPlan:
    """The auxiliary schemata of one instantiation (section 3.2).

    ``functionality_per_input`` lists, for each input schema, the attributes
    that input contributes to the computation; the paper's predicate
    machinery uses them separately for binary activities (``n.in1.fun`` /
    ``n.in2.fun``).  ``functionality`` is their union.
    """

    functionality_per_input: tuple[Schema, ...]
    generated: Schema
    projected_out: Schema

    @property
    def functionality(self) -> Schema:
        combined = Schema(())
        for part in self.functionality_per_input:
            combined = combined.union(part)
        return combined


# A planner receives the validated parameter mapping and returns the
# SchemaPlan for an instantiation; each builtin template supplies one.
SchemaPlanner = Callable[[Mapping[str, Any]], SchemaPlan]


@dataclass(frozen=True)
class ActivityTemplate:
    """A reusable, parameterized activity definition.

    Attributes:
        name: unique template identifier, e.g. ``"selection"``; also the key
            under which the engine looks up the executable operator.
        kind: coarse semantic class, see :class:`ActivityKind`.
        arity: number of input schemata (1 for unary, 2 for binary).
        cost_shape: asymptotic cost family, see :class:`CostShape`.
        param_names: required parameter names for instantiation.
        planner: computes the auxiliary schemata from parameters.
        distributes_over: names of *binary* templates across which instances
            of this template may be factorized/distributed.  Empty for
            templates that never move across a binary activity.
        injective: for functions — True when the row-wise mapping is
            injective on its functionality attributes, which is what makes
            distribution over difference/intersection semantics-preserving.
        commutative: for binary templates — True when input order does not
            matter (union, join, intersection); difference is not.
        predicate_name: the name used in activity post-conditions
            (section 3.4); defaults to the template name.
    """

    name: str
    kind: ActivityKind
    arity: int
    cost_shape: CostShape
    param_names: tuple[str, ...]
    planner: SchemaPlanner
    distributes_over: frozenset[str] = frozenset()
    injective: bool = False
    commutative: bool = True
    predicate_name: str = ""
    doc: str = ""
    optional_param_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.arity not in (1, 2):
            raise TemplateError(f"template {self.name!r}: arity must be 1 or 2")
        if self.kind is ActivityKind.BINARY and self.arity != 2:
            raise TemplateError(f"template {self.name!r}: BINARY implies arity 2")
        if self.kind is not ActivityKind.BINARY and self.arity != 1:
            raise TemplateError(f"template {self.name!r}: non-binary implies arity 1")
        if not self.predicate_name:
            object.__setattr__(self, "predicate_name", self.name)

    @property
    def is_unary(self) -> bool:
        return self.arity == 1

    @property
    def is_binary(self) -> bool:
        return self.arity == 2

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Check a parameter mapping against the template signature."""
        missing = [p for p in self.param_names if p not in params]
        if missing:
            raise TemplateError(
                f"template {self.name!r}: missing parameters {missing}"
            )
        allowed = set(self.param_names) | set(self.optional_param_names)
        unknown = [p for p in params if p not in allowed]
        if unknown:
            raise TemplateError(
                f"template {self.name!r}: unknown parameters {unknown}"
            )
        return dict(params)

    def plan(self, params: Mapping[str, Any]) -> SchemaPlan:
        """Compute the auxiliary schemata for a parameter mapping."""
        return self.planner(self.validate_params(params))
