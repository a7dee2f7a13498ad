#!/usr/bin/env python3
"""Profile a workflow, calibrate its selectivities, re-optimize.

The closed loop a production deployment wants:

1. run the current design under a :class:`~repro.obs.Recorder` and read
   the :class:`TraceReport` to see which activity actually dominates the
   night window;
2. measure real per-activity selectivities on the same run
   (:func:`measure_selectivities`) — the declared guesses are often off;
3. rebuild the workflow with measured selectivities
   (:func:`calibrate_workflow`) and re-optimize: with truthful numbers
   the optimizer may choose a different design.

Run:  python examples/profiling_and_calibration.py
"""

from repro import optimize
from repro.core.cost import ProcessedRowsCostModel, estimate
from repro.engine import (
    Executor,
    TraceReport,
    calibrate_workflow,
    measure_selectivities,
)
from repro.obs import Recorder
from repro.workloads import generate_workload


def main():
    workload = generate_workload("small", seed=6)
    executor = Executor(context=workload.context)
    data = workload.make_data(data_seed=1, n=400)

    print("=== 1. profile the current design ===")
    recorder = Recorder()
    executor.run(workload.workflow, data, recorder=recorder)
    print(TraceReport.from_recorder(recorder).render(top=8))

    print("\n=== 2. declared vs measured selectivities ===")
    measured = measure_selectivities(workload.workflow, data, executor)
    print(f"{'activity':<28}{'declared':>10}{'measured':>10}")
    for activity in sorted(workload.workflow.activities(), key=lambda a: a.id):
        if activity.id in measured:
            print(
                f"[{activity.id}] {activity.name:<22}"
                f"{activity.selectivity:>10.2f}{measured[activity.id]:>10.2f}"
            )

    print("\n=== 3. calibrate and re-optimize ===")
    model = ProcessedRowsCostModel()
    calibrated = calibrate_workflow(workload.workflow, data, executor)
    before = optimize(workload.workflow)
    after = optimize(calibrated)
    print(f"optimized with declared selectivities: {before.best.signature}")
    print(f"optimized with measured  selectivities: {after.best.signature}")
    same = before.best.signature == after.best.signature
    print(f"same design either way: {same}")
    print(
        f"calibrated-model cost of the calibrated optimum: "
        f"{estimate(after.best.workflow, model).total:,.0f} "
        f"(initial: {estimate(calibrated, model).total:,.0f})"
    )


if __name__ == "__main__":
    main()
