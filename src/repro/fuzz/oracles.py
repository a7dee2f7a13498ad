"""The conformance oracle: three independent checks per fuzzed state.

Every state a fuzz chain derives is compared against the *initial* state
of its workload:

* **symbolic** — :func:`repro.core.equivalence.symbolically_equivalent`:
  same target schemas, same workflow post-condition;
* **empirical** — the executor produces identical target multisets on the
  same source data (the baseline run is cached, so a chain of ``k`` states
  costs ``k + 1`` executions, not ``2k``);
* **cost conformance** — the cost model's cardinality propagation must
  agree with the engine's row counters.  The candidate's selectivities are
  first *calibrated* from its own run (measured output/input ratios), so
  the check isolates the model's propagation arithmetic from the noise of
  assigned selectivities: a filter whose declared selectivity is 0.4 but
  which actually keeps 55 % of its rows is not a model bug, whereas a
  union whose predicted processed rows disagree with the engine is.

Any exception escaping a check is itself reported as a ``crash``
violation — a state that crashes the engine is at least as alarming as
one that produces wrong rows.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace

from repro.core.activity import CompositeActivity
from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.equivalence import symbolically_equivalent
from repro.core.recordset import RecordSet
from repro.core.workflow import ETLWorkflow
from repro.engine.batches import ExecutionBudget
from repro.engine.calibrate import apply_selectivities
from repro.engine.executor import ExecutionStats, Executor, iter_components
from repro.engine.rows import Row, as_multiset

__all__ = [
    "Violation",
    "OracleConfig",
    "ConformanceOracle",
    "predicted_processed_rows",
]


@dataclass(frozen=True)
class Violation:
    """One oracle disagreement, annotated with where in the chain it fired."""

    #: ``symbolic`` | ``empirical`` | ``cost`` | ``delta-cost`` | ``crash``
    kind: str
    detail: str
    #: 1-based step in the fuzz chain (-1 when checked outside a chain).
    step: int = -1
    #: ``describe()`` of the transition that produced the state.
    transition: str = ""

    def at(self, step: int, transition: str) -> "Violation":
        return replace(self, step=step, transition=transition)

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "step": self.step,
            "transition": self.transition,
        }

    def __str__(self) -> str:
        where = f" after step {self.step} {self.transition}" if self.step >= 0 else ""
        return f"[{self.kind}]{where}: {self.detail}"


@dataclass(frozen=True)
class OracleConfig:
    """Which checks run, and how tight the cost-conformance tolerance is."""

    check_symbolic: bool = True
    check_empirical: bool = True
    check_cost: bool = True
    #: Per-activity tolerance: |predicted - actual| <= abs_tol + rel_tol*actual.
    rel_tol: float = 0.05
    abs_tol: float = 2.0


def _measured_selectivities(
    workflow: ETLWorkflow, stats: ExecutionStats
) -> dict[str, float]:
    """Output/input ratio per unary activity id, from an existing run."""
    measured: dict[str, float] = {}
    for activity in workflow.activities():
        for component in iter_components(activity):
            if not component.is_unary:
                continue
            processed = stats.rows_processed.get(component.id)
            if processed:
                measured[component.id] = (
                    stats.rows_output[component.id] / processed
                )
    return measured


def predicted_processed_rows(
    workflow: ETLWorkflow,
    model: CostModel,
    source_sizes: Mapping[str, int],
) -> dict[str, float]:
    """Model-predicted processed-row count per (component) activity id.

    Cardinalities start from the *actual* source sizes (not the recordsets'
    declared cardinalities) and flow through ``model.output_cardinality``;
    composites are unfolded component by component, matching the executor's
    per-component accounting.
    """
    cards: dict[object, float] = {}
    predicted: dict[str, float] = {}
    for node in workflow.topological_order():
        if isinstance(node, RecordSet):
            if node.is_source:
                cards[node] = float(source_sizes.get(node.name, 0))
            else:
                cards[node] = cards[workflow.providers(node)[0]]
            continue
        input_cards = tuple(cards[p] for p in workflow.providers(node))
        if isinstance(node, CompositeActivity):
            card = input_cards[0]
            for component in iter_components(node):
                predicted[component.id] = card
                card = model.output_cardinality(component, (card,))
            cards[node] = card
        else:
            predicted[node.id] = float(sum(input_cards))
            cards[node] = model.output_cardinality(node, input_cards)
    return predicted


class ConformanceOracle:
    """All three checks bound to one baseline workflow + source data.

    The baseline is executed once at construction; every subsequent
    :meth:`check` executes only the candidate.  With a ``budget``, both
    run on the streaming engine under it.
    """

    def __init__(
        self,
        baseline: ETLWorkflow,
        source_data: Mapping[str, list[Row]],
        executor: Executor | None = None,
        model: CostModel | None = None,
        config: OracleConfig | None = None,
        budget: ExecutionBudget | None = None,
    ):
        self.baseline = baseline
        self.source_data = source_data
        self.executor = executor if executor is not None else Executor()
        self.budget = budget
        self.model = model if model is not None else ProcessedRowsCostModel()
        self.config = config if config is not None else OracleConfig()
        self._source_sizes = {
            name: len(rows) for name, rows in source_data.items()
        }
        baseline_run = self.executor.run(baseline, source_data, budget=budget)
        self._baseline_bags: dict[str, Counter] = {
            name: as_multiset(rows)
            for name, rows in baseline_run.targets.items()
        }

    # -- the three checks -------------------------------------------------

    def check(self, candidate: ETLWorkflow) -> list[Violation]:
        """All violations of ``candidate`` against the baseline (empty = ok)."""
        violations: list[Violation] = []
        if self.config.check_symbolic:
            violations.extend(self._check_symbolic(candidate))
        if self.config.check_empirical or self.config.check_cost:
            try:
                run = self.executor.run(
                    candidate, self.source_data, budget=self.budget
                )
            except Exception as exc:  # noqa: BLE001 - any crash is a finding
                violations.append(
                    Violation("crash", f"execution failed: {exc!r}")
                )
                return violations
            if self.config.check_empirical:
                violations.extend(self._check_empirical(run.targets))
            if self.config.check_cost:
                violations.extend(self._check_cost(candidate, run.stats))
        return violations

    def _check_symbolic(self, candidate: ETLWorkflow) -> list[Violation]:
        try:
            report = symbolically_equivalent(self.baseline, candidate)
        except Exception as exc:  # noqa: BLE001
            return [Violation("crash", f"symbolic check failed: {exc!r}")]
        if report.equivalent:
            return []
        parts: list[str] = list(report.schema_mismatches)
        if report.only_in_first:
            parts.append(
                "post-conditions only in baseline: "
                + ", ".join(sorted(str(p) for p in report.only_in_first))
            )
        if report.only_in_second:
            parts.append(
                "post-conditions only in candidate: "
                + ", ".join(sorted(str(p) for p in report.only_in_second))
            )
        return [Violation("symbolic", "; ".join(parts))]

    def _check_empirical(
        self, targets: Mapping[str, list[Row]]
    ) -> list[Violation]:
        violations: list[Violation] = []
        names = set(self._baseline_bags) | set(targets)
        for name in sorted(names):
            expected = self._baseline_bags.get(name, Counter())
            actual = as_multiset(targets.get(name, []))
            if expected != actual:
                missing = expected - actual
                extra = actual - expected
                violations.append(
                    Violation(
                        "empirical",
                        f"target {name}: {sum(missing.values())} row(s) lost, "
                        f"{sum(extra.values())} row(s) invented vs. baseline",
                    )
                )
        return violations

    def _check_cost(
        self, candidate: ETLWorkflow, stats: ExecutionStats
    ) -> list[Violation]:
        try:
            calibrated = apply_selectivities(
                candidate, _measured_selectivities(candidate, stats)
            )
            predicted = predicted_processed_rows(
                calibrated, self.model, self._source_sizes
            )
        except Exception as exc:  # noqa: BLE001
            return [Violation("crash", f"cost check failed: {exc!r}")]
        violations: list[Violation] = []
        for activity_id in sorted(predicted):
            expected = predicted[activity_id]
            actual = stats.rows_processed.get(activity_id, 0)
            tolerance = self.config.abs_tol + self.config.rel_tol * actual
            if abs(expected - actual) > tolerance:
                violations.append(
                    Violation(
                        "cost",
                        f"activity {activity_id}: model predicts "
                        f"{expected:.1f} processed rows, engine counted "
                        f"{actual}",
                    )
                )
        return violations
