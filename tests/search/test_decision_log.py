"""The decision log's rejected transitions.

Each search step applies a transition once, on the fast path; a rejected
step records that exception's message as its reason.  The message must be
the one the slow twin ``Transition.apply`` raises for the same transition
on the same state, and the log must not depend on ``jobs``.  HS prices
its group swaps with the group kernel, which never calls ``apply_fast``:
there the whole log must equal the ``REPRO_FULL_RECOST`` run's, where
every group rejection comes from ``Transition.apply``.
"""

import pytest

from repro import SearchBudget, optimize
from repro.core import flags
from repro.core.transitions.base import Transition
from repro.exceptions import ReproError
from repro.obs import NULL_RECORDER, TRANSITION_EVENT, Recorder, use_recorder
from repro.workloads import fig1_workflow, generate_workload

#: ES's reason for an applicable transition whose state was seen before.
_DUPLICATE = "duplicate state (signature already visited)"


def _workflow(name):
    if name == "fig1":
        return fig1_workflow().workflow
    # tiny seed 2: ES exhausts its space (153 states) in well under a second.
    return generate_workload("tiny", seed=2).workflow


def _decisions(workflow, algorithm, jobs=1):
    recorder = Recorder()
    with use_recorder(recorder):
        optimize(workflow, algorithm, budget=SearchBudget(jobs=jobs))
    return [
        event["fields"]
        for event in recorder.events()
        if event.get("name") == TRANSITION_EVENT
    ]


def _fast_path_rejections(decisions):
    return [
        (event["transition"], event["reason"])
        for event in decisions
        if not event["accepted"]
        and event["cost_after"] is None
        and event["reason"] != _DUPLICATE
    ]


@pytest.mark.parametrize("algorithm", ["hs", "es", "sa"])
@pytest.mark.parametrize("workload", ["fig1", "tiny"])
def test_rejection_reason_is_the_slow_path_message(
    monkeypatch, algorithm, workload
):
    twin = None
    if algorithm == "hs":
        previous = flags.set_full_recost(True)
        try:
            twin = _decisions(_workflow(workload), algorithm)
        finally:
            flags.set_full_recost(previous)
    raised = []
    fast = Transition.apply_fast

    def apply_fast(self, workflow):
        try:
            return fast(self, workflow)
        except ReproError as exc:
            try:
                self.apply(workflow)
            except ReproError as slow:
                raised.append((self.describe(), str(exc), str(slow)))
            else:
                raised.append((self.describe(), str(exc), None))
            raise

    monkeypatch.setattr(Transition, "apply_fast", apply_fast)
    decisions = _decisions(_workflow(workload), algorithm)

    rejected = [event for event in decisions if not event["accepted"]]
    assert rejected, "the corpus must exercise rejections"
    assert all(event["reason"] for event in rejected)
    # HS rejects nothing outside its groups on fig1.
    assert raised or (algorithm, workload) == ("hs", "fig1")
    for description, fast_message, slow_message in raised:
        assert fast_message == slow_message, description
    intercepted = [
        (description, fast_message)
        for description, fast_message, _ in raised
    ]
    if twin is None:
        assert _fast_path_rejections(decisions) == intercepted
        return
    assert decisions == twin
    # Phase II/III transitions still go through apply_fast: their
    # rejections appear in the log, in order, among the group rejections.
    remaining = iter(_fast_path_rejections(decisions))
    assert all(rejection in remaining for rejection in intercepted)


@pytest.mark.parametrize("algorithm", ["hs", "es", "sa"])
@pytest.mark.parametrize("workload", ["fig1", "tiny"])
def test_decision_log_is_jobs_independent(workload, algorithm):
    serial = _decisions(_workflow(workload), algorithm, jobs=1)
    parallel = _decisions(_workflow(workload), algorithm, jobs=2)
    assert parallel == serial


#: ``Recorder(decisions=False)`` cases: every algorithm on fig1 and tiny
#: seed 2, HS, HS-Greedy and SA on small seed 0, and the group fan-out
#: at ``jobs=2``.
_SWITCH_WORKFLOWS = {
    "fig1": lambda: fig1_workflow().workflow,
    "tiny": lambda: generate_workload("tiny", seed=2).workflow,
    "small": lambda: generate_workload("small", seed=0).workflow,
}
_SWITCH_CASES = [
    pytest.param(
        workload, algorithm, jobs, id=f"{workload}-{algorithm}-{jobs}"
    )
    for workload, algorithms in (
        ("fig1", ("hs", "greedy", "es", "sa")),
        ("tiny", ("hs", "greedy", "es", "sa")),
        ("small", ("hs", "greedy", "sa")),
    )
    for algorithm in algorithms
    for jobs in ((1, 2) if algorithm in ("hs", "greedy") else (1,))
]


def _transition_counters(recorder):
    return {
        tuple(sorted(event["tags"].items())): event["value"]
        for event in recorder.events()
        if event["type"] == "counter" and event["name"] == "search.transitions"
    }


def _logged(recorder):
    return [
        event
        for event in recorder.events()
        if event.get("name") == TRANSITION_EVENT
    ]


@pytest.mark.parametrize("workload,algorithm,jobs", _SWITCH_CASES)
def test_keeping_no_decisions_changes_only_the_log(workload, algorithm, jobs):
    """``decisions=False`` drops the events, never a result or a count."""
    full, lean = Recorder(), Recorder(decisions=False)
    outcomes = []
    for recorder in (NULL_RECORDER, full, lean):
        with use_recorder(recorder):
            result = optimize(
                _SWITCH_WORKFLOWS[workload](),
                algorithm,
                budget=SearchBudget(jobs=jobs),
            )
        outcomes.append(
            (
                result.best_cost,
                result.best.signature,
                result.lineage,
                result.visited_states,
                result.completed,
            )
        )
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    assert not _logged(lean)
    counters = _transition_counters(full)
    assert _transition_counters(lean) == counters
    assert sum(counters.values()) == len(_logged(full)) > 0
