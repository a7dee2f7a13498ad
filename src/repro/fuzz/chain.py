"""The transition-chain fuzzer.

One fuzz case is fully determined by ``(config, seed)``: the seed picks a
generated workload (:func:`repro.workloads.generate_workload` is
deterministic in ``(category, seed)``), a private RNG walks a random chain
of applicable transitions, and every intermediate state is checked against
the initial state by the :class:`~repro.fuzz.oracles.ConformanceOracle`.
A fourth, engine-free oracle rides along: the search hot path's
delta-maintained :class:`~repro.core.cost.estimator.CostReport` is carried
down the chain and compared *exactly* against a from-scratch estimate at
every state (:func:`check_delta_cost`); with ``REPRO_COST_ORACLE=1`` each
step is additionally re-applied through the incremental fast path, whose
twin check asserts fast-vs-slow agreement — a disagreement or crash there
surfaces as a violation rather than killing the run.

The candidate enumeration extends the search-facing
:func:`repro.core.transitions.candidate_transitions` (SWA / FAC / DIS)
with the MER and SPL packaging moves the search deliberately excludes —
Theorem 2 claims equivalence for all five, so the fuzzer exercises all
five.

Chains are recorded as ``(candidate index, describe())`` pairs.  The index
gives exact replay; the description string lets the shrinker re-match a
transition after earlier steps were removed (see
:func:`replay_chain`).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core import flags
from repro.core.activity import Activity, CompositeActivity
from repro.core.cost.estimator import (
    CostReport,
    estimate,
    estimate_incremental,
)
from repro.core.cost.model import CostModel, ProcessedRowsCostModel
from repro.core.transitions import candidate_transitions
from repro.core.transitions.base import Transition
from repro.core.transitions.merge import Merge, Split
from repro.core.workflow import ETLWorkflow
from repro.engine.batches import ExecutionBudget
from repro.engine.executor import Executor
from repro.exceptions import ReproError
from repro.fuzz.oracles import ConformanceOracle, OracleConfig, Violation
from repro.workloads import CATEGORY_SPECS, generate_workload

__all__ = [
    "FuzzConfig",
    "ChainStep",
    "FuzzFailure",
    "SeedResult",
    "check_delta_cost",
    "fuzz_candidates",
    "fuzz_seed",
    "replay_chain",
    "replay_delta_cost",
]


@dataclass(frozen=True)
class FuzzConfig:
    """Everything a fuzz run needs beyond the seeds themselves."""

    #: Workload categories, assigned to seeds round-robin.
    categories: tuple[str, ...] = ("tiny", "small")
    #: Maximum transitions per chain.
    chain_length: int = 8
    #: Rows generated per source recordset.
    rows_per_source: int = 60
    #: Seed of the synthetic source data (independent of the workflow seed).
    data_seed: int = 0
    #: Also fuzz the MER/SPL packaging transitions.
    include_packaging: bool = True
    #: Chance per step of preferring a packaging move over a core move —
    #: adjacent unary pairs make MER candidates plentiful, so an unweighted
    #: walk degenerates into merge ping-pong.
    packaging_probability: float = 0.3
    oracle: OracleConfig = field(default_factory=OracleConfig)
    #: When set, every oracle execution streams under this budget, so the
    #: fuzzer differentially tests the streaming engine against the same
    #: equivalence and cost-conformance checks.
    execution_budget: ExecutionBudget | None = None
    #: Maintain a delta-costed :class:`CostReport` along each chain and
    #: compare it against a from-scratch estimate at every state — the
    #: search hot path's incremental costing, checked exactly (``==``,
    #: no epsilon).  Independently, ``REPRO_COST_ORACLE=1`` re-applies
    #: each step through the incremental fast path and reports any
    #: fast-vs-slow disagreement as a violation.
    check_delta_cost: bool = True

    def __post_init__(self) -> None:
        if not self.categories:
            raise ReproError(
                f"at least one workload category is required; choose from "
                f"{sorted(CATEGORY_SPECS)}"
            )
        unknown = [c for c in self.categories if c not in CATEGORY_SPECS]
        if unknown:
            raise ReproError(
                f"unknown workload categories {unknown}; choose from "
                f"{sorted(CATEGORY_SPECS)}"
            )
        if self.chain_length < 1:
            raise ReproError("chain_length must be at least 1")

    def category_for(self, seed: int) -> str:
        return self.categories[seed % len(self.categories)]


@dataclass(frozen=True)
class ChainStep:
    """One applied transition: position in the enumeration + description."""

    index: int
    transition: str
    mnemonic: str

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "transition": self.transition,
            "mnemonic": self.mnemonic,
        }


@dataclass(frozen=True)
class FuzzFailure:
    """A reproducible oracle violation: workload coordinates + chain."""

    category: str
    seed: int
    rows_per_source: int
    data_seed: int
    include_packaging: bool
    steps: tuple[ChainStep, ...]
    violations: tuple[Violation, ...]


@dataclass
class SeedResult:
    """Outcome of fuzzing one seed."""

    category: str
    seed: int
    steps_applied: list[ChainStep]
    transition_counts: Counter
    states_checked: int
    failure: FuzzFailure | None
    #: Wall-clock of the whole seed and of its oracle checks alone.  Plain
    #: numbers (not spans) so pooled seed tasks stay picklable; run_fuzz
    #: turns them into ``fuzz.seed`` / ``fuzz.oracle`` telemetry spans.
    seconds: float = 0.0
    oracle_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None


def _packaging_candidates(workflow: ETLWorkflow) -> list[Transition]:
    """MER over adjacent unary pairs, SPL over merged activities."""
    candidates: list[Transition] = []
    activities = sorted(workflow.activities(), key=lambda a: a.id)
    for first in activities:
        if not first.is_unary:
            continue
        consumers = workflow.consumers(first)
        if len(consumers) != 1:
            continue
        second = consumers[0]
        if (
            isinstance(second, Activity)
            and second.is_unary
            and len(workflow.consumers(second)) == 1
        ):
            candidates.append(Merge(first, second))
    for activity in activities:
        if isinstance(activity, CompositeActivity):
            if len(workflow.consumers(activity)) == 1:
                candidates.append(Split(activity))
    return candidates


def fuzz_candidates(
    workflow: ETLWorkflow, include_packaging: bool = True
) -> list[Transition]:
    """All transition candidates of a state, in a deterministic order."""
    candidates = list(candidate_transitions(workflow))
    if include_packaging:
        candidates.extend(_packaging_candidates(workflow))
    return candidates


def check_delta_cost(
    parent_report: CostReport,
    transition: Transition,
    successor: ETLWorkflow,
    model: CostModel,
) -> tuple[CostReport, Violation | None]:
    """Compare delta-maintained costing of ``successor`` to a full pass.

    Returns the report to carry to the next step and ``None`` when the
    two agree; on divergence the *full* report is carried forward so one
    bad delta does not poison every later comparison.  The comparison is
    exact (``CostReport.__eq__``: total, per-node costs, cardinalities) —
    both sides end in :func:`math.fsum`, so there is no legitimate
    summation-order slack to forgive.
    """
    delta = estimate_incremental(
        successor, model, parent_report, transition.affected_nodes()
    )
    full = estimate(successor, model)
    if delta == full:
        return delta, None
    diverging = sorted(
        node.id
        for node in set(delta.cardinalities) | set(full.cardinalities)
        if delta.cardinalities.get(node) != full.cardinalities.get(node)
        or delta.node_costs.get(node) != full.node_costs.get(node)
    )
    shown = ", ".join(diverging[:6]) + ("…" if len(diverging) > 6 else "")
    return full, Violation(
        "delta-cost",
        f"delta-maintained cost {delta.total!r} vs full re-cost "
        f"{full.total!r}; {len(diverging)} node(s) diverge ({shown})",
    )


def replay_delta_cost(
    workflow: ETLWorkflow,
    descriptions: list[str] | tuple[str, ...],
    model: CostModel | None = None,
    include_packaging: bool = True,
) -> tuple[Violation, ...]:
    """Replay a chain by description, delta-cost checking every state.

    Pure model arithmetic — no engine runs — so the shrinker can afford
    it on every probe.  Returns the first violation (annotated with its
    step), or ``()`` when the chain diverges or every state agrees.
    """
    model = model if model is not None else ProcessedRowsCostModel()
    current = workflow
    report = estimate(current, model)
    for step_no, description in enumerate(descriptions, start=1):
        match = next(
            (
                t
                for t in fuzz_candidates(current, include_packaging)
                if t.describe() == description
            ),
            None,
        )
        if match is None:
            return ()
        successor = match.try_apply(current)
        if successor is None:
            return ()
        report, violation = check_delta_cost(report, match, successor, model)
        if violation is not None:
            return (violation.at(step_no, description),)
        current = successor
    return ()


def fuzz_seed(
    config: FuzzConfig,
    seed: int,
    category: str | None = None,
    model: CostModel | None = None,
) -> SeedResult:
    """Fuzz one seed: walk a random transition chain, checking every state."""
    category = category if category is not None else config.category_for(seed)
    workload = generate_workload(
        category, seed=seed, rows_per_source=config.rows_per_source
    )
    data = workload.make_data(config.data_seed)
    oracle = ConformanceOracle(
        workload.workflow,
        data,
        executor=Executor(context=workload.context),
        model=model,
        config=config.oracle,
        budget=config.execution_budget,
    )
    rng = random.Random(0x5EED ^ (seed * 1_000_003) ^ config.data_seed)

    started = time.perf_counter()
    current = workload.workflow
    cost_model = model if model is not None else ProcessedRowsCostModel()
    report: CostReport | None = (
        estimate(current, cost_model) if config.check_delta_cost else None
    )
    steps: list[ChainStep] = []
    counts: Counter = Counter()
    states_checked = 0
    oracle_seconds = 0.0
    failure: FuzzFailure | None = None

    for _ in range(config.chain_length):
        core = list(candidate_transitions(current))
        packaging = (
            _packaging_candidates(current) if config.include_packaging else []
        )
        candidates = core + packaging
        if not candidates:
            break
        # Try the preferred pool first, the other as a fallback, each in a
        # random order; indices stay positions in the combined enumeration
        # (the order fuzz_candidates produces) so replays line up.
        core_indices = list(range(len(core)))
        packaging_indices = list(range(len(core), len(candidates)))
        prefer_packaging = bool(packaging) and (
            not core or rng.random() < config.packaging_probability
        )
        pools = (
            (packaging_indices, core_indices)
            if prefer_packaging
            else (core_indices, packaging_indices)
        )
        applied: tuple[int, Transition, ETLWorkflow] | None = None
        for pool in pools:
            for index in rng.sample(pool, len(pool)):
                transition = candidates[index]
                successor = transition.try_apply(current)
                if successor is not None:
                    applied = (index, transition, successor)
                    break
            if applied is not None:
                break
        if applied is None:
            break
        index, transition, successor = applied
        steps.append(ChainStep(index, transition.describe(), transition.mnemonic))
        counts[transition.mnemonic] += 1
        states_checked += 1
        check_started = time.perf_counter()
        violations = list(oracle.check(successor))
        if report is not None:
            report, cost_violation = check_delta_cost(
                report, transition, successor, cost_model
            )
            if cost_violation is not None:
                violations.append(cost_violation)
        if flags.cost_oracle_enabled():
            # Re-apply through the fast path, whose _apply_checked twin
            # runs both implementations and asserts they agree; any
            # disagreement (or raw crash) becomes a reported violation
            # instead of killing the fuzz loop.
            try:
                if transition.try_apply_fast(current) is None:
                    violations.append(
                        Violation(
                            "delta-cost",
                            "fast path rejects a transition the slow "
                            "path applied",
                        )
                    )
            except Exception as exc:  # noqa: BLE001 - any crash is a finding
                violations.append(
                    Violation(
                        "crash", f"fast-path twin check failed: {exc!r}"
                    )
                )
        oracle_seconds += time.perf_counter() - check_started
        if violations:
            step_no = len(steps)
            failure = FuzzFailure(
                category=category,
                seed=seed,
                rows_per_source=config.rows_per_source,
                data_seed=config.data_seed,
                include_packaging=config.include_packaging,
                steps=tuple(steps),
                violations=tuple(
                    v.at(step_no, transition.describe()) for v in violations
                ),
            )
            break
        current = successor

    return SeedResult(
        category=category,
        seed=seed,
        steps_applied=steps,
        transition_counts=counts,
        states_checked=states_checked,
        failure=failure,
        seconds=time.perf_counter() - started,
        oracle_seconds=oracle_seconds,
    )


def replay_chain(
    workflow: ETLWorkflow,
    descriptions: list[str] | tuple[str, ...],
    include_packaging: bool = True,
) -> ETLWorkflow | None:
    """Re-apply a chain by matching ``describe()`` strings.

    Returns the final state, or ``None`` when the chain diverges (a
    description no longer matches any applicable candidate — the normal
    outcome when the shrinker removed a step a later one depended on).
    """
    current = workflow
    for description in descriptions:
        match = next(
            (
                t
                for t in fuzz_candidates(current, include_packaging)
                if t.describe() == description
            ),
            None,
        )
        if match is None:
            return None
        successor = match.try_apply(current)
        if successor is None:
            return None
        current = successor
    return current
