"""The group kernel of HS Phases I and IV against its slow twin.

The kernel prices each in-group swap from the parent ordering; the twin
builds a ``SearchState`` per swap (``REPRO_FULL_RECOST=1``).  Both must
produce the same ``(path, explored)`` outcome per group, the same
``search.transition`` decision log, the same counters (except
``search.delta_recost_nodes``, which counts work only the twin does) and
the same result — compared with ``==``.

Two layers:

* whole HS / HS-Greedy runs on fig1 and generated workloads (medium and
  large under ``-m slow``), with merge constraints and ``jobs=2``;
* hand-built workflows for branches the generator never produces: a
  tail with fan-out, a swap that changes the tail's attribute set, a
  last-ulp cardinality, a difference and two targets downstream, member
  ids containing ``"."``, ``"//"`` and parentheses, a group inside a
  union branch, ``dual_target_scenario()``, and two swaps that fail on
  the same memoized member step.  Every reachable ordering is also
  checked against the materialized successor: verdict, reason, cost
  (``==`` ``estimate()``) and signature, on both signature paths
  (splice and re-render).

Across the kernels of one search, one pricing table: each pair's guard
and each member step is evaluated at most once per search, and pool
tasks, which price through tables of their own, agree with serial.
"""

from __future__ import annotations

import pytest

from repro import SearchBudget, heuristic_search
from repro.core import flags
from repro.core.activity import Activity
from repro.core.builder import WorkflowBuilder
from repro.core.cost import ProcessedRowsCostModel, estimate
from repro.core.search import group_kernel
from repro.core.search.group_kernel import GroupKernel
from repro.core.search.heuristic import _explore_group
from repro.core.search.state import SearchState
from repro.core.search.transposition import TranspositionCache
from repro.core.signature import state_signature
from repro.core.transitions import Swap
from repro.exceptions import ReproError
from repro.obs import TRANSITION_EVENT, Recorder, summarize, use_recorder
from repro.workloads import (
    dual_target_scenario,
    fig1_workflow,
    generate_workload,
)

_UNCOUNTED = "search.delta_recost_nodes"


def _twin(run):
    previous = flags.set_full_recost(True)
    try:
        return run()
    finally:
        flags.set_full_recost(previous)


def _transitions(recorder):
    return [
        event["fields"]
        for event in recorder.events()
        if event.get("name") == TRANSITION_EVENT
    ]


def _hs_trace(workflow, *, greedy=False, merge=(), **budget):
    cache = TranspositionCache()
    recorder = Recorder()
    with use_recorder(recorder):
        result = heuristic_search(
            workflow.copy(),
            merge_constraints=merge,
            greedy=greedy,
            budget=SearchBudget(cache=cache, **budget),
        )
    counters = summarize(recorder.events())["counters"]
    return {
        "result": (
            result.best.signature,
            result.best.cost,
            result.initial.cost,
            result.visited_states,
            result.completed,
            [step.to_dict() for step in result.lineage],
        ),
        # Every group exploration's (path, explored) outcome.
        "groups": {
            key: entry
            for namespace in cache._namespaces.values()
            for key, entry in namespace.groups.items()
        },
        "transitions": _transitions(recorder),
        "counters": {
            name: value
            for name, value in counters.items()
            if not name.startswith(_UNCOUNTED)
        },
    }


def _assert_kernel_matches_twin(workflow, **kwargs):
    kernel = _hs_trace(workflow, **kwargs)
    twin = _twin(lambda: _hs_trace(workflow, **kwargs))
    assert kernel["groups"], "the run must explore groups"
    for part in ("result", "groups", "transitions", "counters"):
        assert kernel[part] == twin[part], part


def _first_group(workflow):
    workflow.validate()
    workflow.propagate_schemas()
    return next(g for g in workflow.local_groups() if len(g) >= 2)


def _first_pair(workflow):
    group = _first_group(workflow)
    return (group[0].id, group[1].id)


_GENERATED = [("tiny", seed) for seed in range(8)] + [
    ("small", seed) for seed in range(3)
]


class TestDifferential:
    @pytest.mark.parametrize("greedy", [False, True])
    def test_fig1(self, greedy):
        _assert_kernel_matches_twin(fig1_workflow().workflow, greedy=greedy)

    @pytest.mark.parametrize("merge", [("4", "5"), ("5", "6")])
    def test_fig1_merge_constraint(self, merge):
        _assert_kernel_matches_twin(fig1_workflow().workflow, merge=(merge,))

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("category,seed", _GENERATED)
    def test_generated(self, category, seed, greedy):
        workflow = generate_workload(category, seed=seed).workflow
        _assert_kernel_matches_twin(workflow, greedy=greedy)

    def test_merge_constraint_puts_a_composite_in_a_group(self):
        workflow = generate_workload("small", seed=0).workflow
        _assert_kernel_matches_twin(
            workflow, merge=(_first_pair(workflow.copy()),)
        )

    def test_jobs(self):
        workflow = generate_workload("small", seed=1).workflow
        _assert_kernel_matches_twin(workflow, jobs=2)


@pytest.mark.slow
class TestDifferentialSlow:
    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize(
        "category,seed", [("medium", 0), ("medium", 1), ("large", 0)]
    )
    def test_generated(self, category, seed, greedy):
        workflow = generate_workload(category, seed=seed).workflow
        _assert_kernel_matches_twin(workflow, greedy=greedy)


# -- hand-built workflows ---------------------------------------------------------


def _filter(builder, attr, selectivity, id):
    return builder.activity(
        "selection",
        {"attr": attr, "op": ">", "value": 0},
        selectivity=selectivity,
        id=id,
    )


def _tail_fan_out():
    """S -> 1 -> 2 -> 3 -> {T1, T2}: the tail 3 feeds two targets."""
    b = WorkflowBuilder()
    src = b.source("S", ["K", "A", "B"], 1000, id="S")
    tail = b.chain(
        src,
        _filter(b, "A", 0.5, "1"),
        _filter(b, "B", 0.9, "2"),
        _filter(b, "K", 0.3, "3"),
    )
    b.target("T1", ["K", "A", "B"], tail, id="T1")
    b.target("T2", ["K", "A", "B"], tail, id="T2")
    return b.build(), ["1", "2", "3"]


def _tail_attribute_set(downstream):
    """S -> 1 -> 2 -> ...: 1 generates X, 2 projects X out.

    Both orders are valid inside the group, but 2-then-1 leaves X in the
    flow, which the union branch or the target downstream rejects.
    """
    b = WorkflowBuilder()
    src = b.source("S", ["K", "A"], 1000, id="S")
    generate = b.activity(
        "function_apply",
        {"function": "f", "inputs": ["A"], "output": "X",
         "drop_inputs": False},
        id="1",
    )
    project = b.activity("projection", {"attrs": ["X"]}, id="2")
    tail = b.chain(src, generate, project)
    if downstream == "union":
        other = b.source("R", ["K", "A"], 10, id="R")
        tail = b.combine("union", tail, other, id="U")
    b.target("T", ["K", "A"], tail, id="T")
    return b.build(), ["1", "2"]


def _last_ulp():
    """(1000 * 0.1) * 0.55 != (1000 * 0.55) * 0.1 in the last ulp; a
    union and a sort-cost surrogate key price the tail downstream."""
    b = WorkflowBuilder()
    src = b.source("S", ["K", "A", "B"], 1000, id="S")
    tail = b.chain(src, _filter(b, "A", 0.1, "1"), _filter(b, "B", 0.55, "2"))
    other = b.source("R", ["K", "A", "B"], 1, id="R")
    union = b.combine("union", tail, other, id="U")
    key = b.activity(
        "surrogate_key",
        {"key_attr": "K", "skey_attr": "SK", "lookup": "keys"},
        id="4",
    )
    b.target("T", ["SK", "A", "B"], b.chain(union, key), id="T")
    return b.build(), ["1", "2"]


def _difference_two_targets():
    """A group whose order flips a union's branch order, then a
    difference feeding two targets."""
    b = WorkflowBuilder()
    schema = ["K", "A", "B"]
    src = b.source("S", schema, 1000, id="S")
    left = b.chain(src, _filter(b, "A", 0.5, "3"), _filter(b, "B", 0.2, "5"))
    right = b.chain(src, _filter(b, "K", 0.7, "4"))
    union = b.combine("union", left, right, id="7")
    other = b.source("S2", schema, 500, id="S2")
    minus = b.combine("difference", union, other, selectivity=0.6, id="8")
    tail = b.chain(minus, _filter(b, "A", 0.9, "9"), _filter(b, "B", 0.8, "10"))
    b.target("T1", schema, tail, id="T1")
    b.target("T2", schema, minus, id="T2")
    return b.build(), ["3", "5"]


def _dotted_ids():
    """Members ``a``, ``a.a`` and ``b``: two orderings render alike."""
    b = WorkflowBuilder()
    src = b.source("S", ["K", "A", "B"], 1000, id="S")
    tail = b.chain(
        src,
        _filter(b, "A", 0.5, "a"),
        _filter(b, "B", 0.4, "a.a"),
        _filter(b, "K", 0.3, "b"),
    )
    b.target("T", ["K", "A", "B"], tail, id="T")
    return b.build(), ["a", "a.a", "b"]


def _punctuated_ids():
    """Member ids made of the signature's own punctuation."""
    b = WorkflowBuilder()
    src = b.source("S", ["K", "A", "B"], 1000, id="S")
    tail = b.chain(
        src,
        _filter(b, "A", 0.5, "a//b"),
        _filter(b, "B", 0.4, "(c)"),
        _filter(b, "K", 0.3, "d.e"),
    )
    b.target("T", ["K", "A", "B"], tail, id="T")
    return b.build(), ["a//b", "(c)", "d.e"]


def _union_branch():
    """S1 -> 1 -> 2 -> U <- S2 -> 3: the union's branches sort at the
    source ids, so the group's segment sits in a sorted branch without
    deciding the sort."""
    b = WorkflowBuilder()
    schema = ["K", "A", "B"]
    left = b.chain(
        b.source("S1", schema, 1000, id="S1"),
        _filter(b, "A", 0.5, "1"),
        _filter(b, "B", 0.2, "2"),
    )
    right = b.chain(
        b.source("S2", schema, 500, id="S2"), _filter(b, "K", 0.7, "3")
    )
    union = b.combine("union", left, right, id="U")
    b.target("T", schema, union, id="T")
    return b.build(), ["1", "2"]


def _regenerated_attribute():
    """S -> 1 -> 2 -> 3: 1 and 3 both generate X, and 2 projects X out
    between them.  SWA(1,2) and SWA(2,3) fail on the same member step (3
    on the flow that already holds X), so each reason must still name
    its own swap."""
    b = WorkflowBuilder()
    src = b.source("S", ["K", "A", "B"], 1000, id="S")

    def generate(attr, id):
        return b.activity(
            "function_apply",
            {"function": "f", "inputs": [attr], "output": "X",
             "drop_inputs": False},
            id=id,
        )

    project = b.activity("projection", {"attrs": ["X"]}, id="2")
    tail = b.chain(src, generate("A", "1"), project, generate("B", "3"))
    b.target("T", ["K", "A", "B", "X"], tail, id="T")
    return b.build(), ["1", "2", "3"]


def _dual_target():
    """Two targets whose signatures part right after the shared source:
    the group's segment decides their order."""
    workflow = dual_target_scenario().workflow
    group = _first_group(workflow.copy())
    return workflow, [member.id for member in group]


_HAND_BUILT = {
    "tail-fan-out": _tail_fan_out,
    "tail-attribute-set-union": lambda: _tail_attribute_set("union"),
    "tail-attribute-set-target": lambda: _tail_attribute_set("target"),
    "last-ulp": _last_ulp,
    "difference-two-targets": _difference_two_targets,
    "dotted-ids": _dotted_ids,
    "punctuated-ids": _punctuated_ids,
    "union-branch": _union_branch,
    "dual-target": _dual_target,
    "regenerated-attribute": _regenerated_attribute,
}

#: Hand-built groups whose segment decides a sort, so every ordering
#: re-renders the signature instead of splicing it.
_RENDERED = {"difference-two-targets", "dual-target"}


def _explore(workflow, member_ids, greedy):
    model = ProcessedRowsCostModel()
    base = SearchState.initial(workflow, model)
    members = [workflow.node_by_id(member_id) for member_id in member_ids]
    recorder = Recorder()
    with use_recorder(recorder):
        outcome = _explore_group(
            base, members, model, "HS", greedy, group_cap=64
        )
    return outcome, _transitions(recorder)


def _walk(workflow, member_ids):
    """Every ordering the kernel reaches, paired with the materialized
    workflow: ``(swap, kernel successor, slow apply() outcome)``."""
    model = ProcessedRowsCostModel()
    base = SearchState.initial(workflow, model)
    kernel = GroupKernel(
        base, [workflow.node_by_id(i) for i in member_ids], model, "HS"
    )
    frontier = [(kernel.root, workflow)]
    seen = {kernel.root.signature}
    steps = []
    recorder = Recorder()
    while frontier:
        ordering, current = frontier.pop()
        with use_recorder(recorder):
            candidates = list(kernel.successors(ordering))
        for (first_id, second_id), successor in candidates:
            swap = Swap(
                current.node_by_id(first_id), current.node_by_id(second_id)
            )
            try:
                slow = swap.apply(current)
            except ReproError as exc:
                slow = str(exc)
            steps.append((swap, successor, slow))
            if successor is not None and successor.signature not in seen:
                seen.add(successor.signature)
                frontier.append((successor, slow))
    reasons = [
        event["reason"]
        for event in _transitions(recorder)
        if not event["accepted"]
    ]
    return steps, reasons


class TestHandBuilt:
    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("name", sorted(_HAND_BUILT))
    def test_group_matches_twin(self, name, greedy):
        workflow, members = _HAND_BUILT[name]()
        kernel = _explore(workflow, members, greedy)
        twin = _twin(lambda: _explore(workflow, members, greedy))
        assert kernel == twin

    @pytest.mark.parametrize("name", sorted(_HAND_BUILT))
    def test_hs_matches_twin(self, name):
        workflow, _ = _HAND_BUILT[name]()
        _assert_kernel_matches_twin(workflow)

    @pytest.mark.parametrize("name", sorted(_HAND_BUILT))
    def test_every_ordering_matches_the_materialized_state(self, name):
        workflow, members = _HAND_BUILT[name]()
        model = ProcessedRowsCostModel()
        steps, reasons = _walk(workflow, members)
        assert steps
        expected_reasons = []
        for swap, successor, slow in steps:
            if isinstance(slow, str):
                assert successor is None, swap.describe()
                expected_reasons.append(slow)
                continue
            assert successor is not None, swap.describe()
            assert successor.cost == estimate(slow, model).total
            assert successor.signature == state_signature(slow)
        assert reasons == expected_reasons

    def test_tail_fan_out_fails_condition_2(self):
        steps, reasons = _walk(*_tail_fan_out())
        assert "SWA(2,3): 3 must have exactly one consumer (condition 2)" in (
            reasons
        )
        assert any(successor is not None for _, successor, _ in steps)

    @pytest.mark.parametrize(
        "downstream,message",
        [
            ("union", "branch schemas"),
            ("target", "recordset T declared"),
        ],
    )
    def test_tail_attribute_set_rejected_downstream(self, downstream, message):
        _, reasons = _walk(*_tail_attribute_set(downstream))
        assert len(reasons) == 1
        assert reasons[0].startswith("SWA(1,2) produced an invalid state: ")
        assert message in reasons[0]

    def test_last_ulp_cost_is_exact(self):
        assert (1000 * 0.1) * 0.55 != (1000 * 0.55) * 0.1
        workflow, members = _last_ulp()
        steps, _ = _walk(workflow, members)
        _, successor, slow = steps[0]
        model = ProcessedRowsCostModel()
        base = estimate(workflow, model)
        tail = workflow.node_by_id("2")
        assert successor.cards[-1] != base.cardinalities[tail]
        assert successor.cost == estimate(slow, model).total

    def test_branch_order_flips(self):
        workflow, members = _difference_two_targets()
        assert "((S.3.5)//(S.4)).7" in state_signature(workflow)
        steps, _ = _walk(workflow, members)
        _, successor, _ = steps[0]
        assert "((S.4)//(S.5.3)).7" in successor.signature

    @pytest.mark.parametrize("name", sorted(_HAND_BUILT))
    def test_signature_path(self, name):
        workflow, members = _HAND_BUILT[name]()
        model = ProcessedRowsCostModel()
        kernel = GroupKernel(
            SearchState.initial(workflow, model),
            [workflow.node_by_id(member) for member in members],
            model,
            "HS",
        )
        assert (kernel._pieces is None) == (name in _RENDERED)

    def test_dotted_ids_dedupe_on_the_signature(self):
        workflow, members = _dotted_ids()
        (path, explored), _ = _explore(workflow, members, greedy=False)
        signatures = [signature for signature, _ in explored]
        assert len(signatures) == len(set(signatures))
        # SWA(a,a.a) renders like the base ordering, so it is never new.
        assert state_signature(workflow) == "S.a.a.a.b.T"
        assert "S.a.a.a.b.T" not in signatures


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_every_searched_group_splices(seed, monkeypatch):
    """fig1 (``seed`` None) and small seeds 0-2."""
    if seed is None:
        workflow = fig1_workflow().workflow
    else:
        workflow = generate_workload("small", seed=seed).workflow
    spliced = []
    build = GroupKernel.__init__

    def recording(self, *args):
        build(self, *args)
        spliced.append(self._pieces is not None)

    monkeypatch.setattr(GroupKernel, "__init__", recording)
    for greedy in (False, True):
        heuristic_search(workflow.copy(), greedy=greedy)
    assert spliced and all(spliced)


def test_cost_oracle_catches_a_divergent_kernel(monkeypatch):
    priced = GroupKernel.successors

    def skewed(self, parent):
        for pair, successor in priced(self, parent):
            if successor is not None:
                successor = successor._replace(cost=successor.cost + 1.0)
            yield pair, successor

    monkeypatch.setattr(GroupKernel, "successors", skewed)
    full_recost = flags.set_full_recost(False)
    oracle = flags.set_cost_oracle(True)
    try:
        with pytest.raises(AssertionError, match="group kernel diverges"):
            heuristic_search(fig1_workflow().workflow)
    finally:
        flags.set_full_recost(full_recost)
        flags.set_cost_oracle(oracle)


def _signed(monkeypatch):
    """Every ``(kernel, member tuple)`` the kernels build an ordering for."""
    signed = []
    sign = GroupKernel._signature

    def recording(self, members):
        signed.append((self, tuple(members)))
        return sign(self, members)

    monkeypatch.setattr(GroupKernel, "_signature", recording)
    return signed


class TestOrderingsPricedOnce:
    """A kernel builds at most one ``Ordering`` per member tuple: a swap
    back to a known ordering (or a second path to it) returns the kept
    one."""

    def test_hand_built(self, monkeypatch):
        signed = _signed(monkeypatch)
        for name in sorted(_HAND_BUILT):
            workflow, members = _HAND_BUILT[name]()
            for greedy in (False, True):
                _explore(workflow, members, greedy)
            _walk(workflow, members)
        assert signed
        assert len(signed) == len(set(signed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small(self, seed, monkeypatch):
        signed = _signed(monkeypatch)
        workflow = generate_workload("small", seed=seed).workflow
        for greedy in (False, True):
            heuristic_search(workflow.copy(), greedy=greedy)
        assert signed
        assert len(signed) == len(set(signed))


def _pricing_calls(monkeypatch):
    """Every semantic guard a kernel evaluates, as ``(first, second)``,
    and every member step it prices, as ``(member, input attributes,
    input cardinalities)``."""
    guards, steps, inputs, checking = [], [], {}, []
    check, guard = Swap.check, Swap._semantic_guard
    derive, outputs = Activity.derive_output, group_kernel.activity_outputs

    def checked(self, workflow):
        # Swap.check ends in the guard: state-building steps call it.
        checking.append(self)
        try:
            return check(self, workflow)
        finally:
            checking.pop()

    def guarded(self):
        if not checking:
            guards.append((self.first, self.second))
        return guard(self)

    def derived(self, input_schemas):
        inputs[self] = tuple(schema.attrs for schema in input_schemas)
        return derive(self, input_schemas)

    def priced(model, activity, input_cards):
        # The kernel derives a member's output schema just before it
        # prices the member.
        steps.append((activity, inputs[activity], input_cards))
        return outputs(model, activity, input_cards)

    monkeypatch.setattr(Swap, "check", checked)
    monkeypatch.setattr(Swap, "_semantic_guard", guarded)
    monkeypatch.setattr(Activity, "derive_output", derived)
    monkeypatch.setattr(group_kernel, "activity_outputs", priced)
    return guards, steps


class TestOnePricingTablePerSearch:
    """The group kernels of one search share their pair guards and
    member steps: Phase IV re-explores the same members under the same
    input from several states, and each pair's guard and each step is
    still evaluated at most once per search."""

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small(self, seed, greedy, monkeypatch):
        guards, steps = _pricing_calls(monkeypatch)
        workflow = generate_workload("small", seed=seed).workflow
        heuristic_search(workflow, greedy=greedy)
        assert guards and steps
        assert len(guards) == len(set(guards))
        assert len(steps) == len(set(steps))

    @pytest.mark.parametrize("greedy", [False, True])
    def test_pool_tasks_price_through_their_own_tables(self, greedy):
        """At ``jobs=2`` each pool task prices its groups through a table
        of its own, and the answer equals the serial one."""
        for seed in range(3):
            workflow = generate_workload("small", seed=seed).workflow
            runs = [
                heuristic_search(
                    workflow.copy(),
                    greedy=greedy,
                    budget=SearchBudget(jobs=jobs),
                )
                for jobs in (1, 2)
            ]
            serial, parallel = (
                (
                    run.best.signature,
                    run.best.cost,
                    run.visited_states,
                    [step.to_dict() for step in run.lineage],
                )
                for run in runs
            )
            assert parallel == serial, seed
