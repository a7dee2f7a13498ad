"""Grand tour: the full product surface on one workload, end to end.

generate → lint → optimize → serialize → reload → execute with
checkpoints → calibrate → re-optimize — asserting semantic
equivalence at every hop.  If any two subsystems disagree about what a
workflow *is*, this test is where it shows.
"""

from repro import optimize
from repro.core.lint import lint_workflow
from repro.core.signature import state_signature
from repro.engine import (
    CheckpointStore,
    Executor,
    as_multiset,
    calibrate_workflow,
    empirically_equivalent,
)
from repro.io import dumps, loads
from repro.workloads import generate_workload


def test_grand_tour():
    workload = generate_workload("small", seed=11)
    data = workload.make_data(1, n=120)
    executor = Executor(context=workload.context)

    # 1. The generated design honours the naming discipline.
    errors = [
        f for f in lint_workflow(workload.workflow) if f.level.value == "error"
    ]
    assert errors == []

    # 2. Logical optimization improves the design and keeps semantics.
    result = optimize(workload.workflow, algorithm="hs")
    assert result.best_cost < result.initial_cost
    assert empirically_equivalent(
        workload.workflow, result.best.workflow, data, executor
    )

    # 3. The optimized design survives a JSON round-trip bit-for-bit.
    reloaded = loads(dumps(result.best.workflow))
    assert state_signature(reloaded) == result.best.signature

    # 4. Checkpointed execution of the reloaded design matches a plain run,
    #    including across a mid-run failure.
    reference = executor.run(reloaded, data)
    fail_at = reloaded.topological_order()[len(reloaded) // 2].id
    store = CheckpointStore(fail_before=fail_at)
    from repro.engine import SimulatedFailure

    try:
        executor.run(reloaded, data, checkpoint=store)
    except SimulatedFailure:
        pass
    resumed = executor.run(reloaded, data, checkpoint=store)
    for name, rows in reference.targets.items():
        assert as_multiset(resumed.targets[name]) == as_multiset(rows)

    # 5. Calibration with measured selectivities keeps semantics, and the
    #    re-optimized calibrated design is equivalent to the original.
    calibrated = calibrate_workflow(reloaded, data, executor)
    recalibrated = optimize(calibrated, algorithm="greedy")
    assert empirically_equivalent(
        workload.workflow, recalibrated.best.workflow, data, executor
    )
