"""Parallel == serial determinism, the worker pool, and the batch driver.

The contract: for any jobs value, every algorithm returns its serial
answer.  HS and HS-Greedy use the workers, and return a byte-identical
best state and visited count because group explorations are hermetic and
their outcomes are merged deterministically in group order by the main
process; ES and SA ignore jobs.  Warm transposition-cache runs replay the
same streams and agree too.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    SearchBudget,
    exhaustive_search,
    heuristic_search,
    optimize,
    optimize_many,
)
from repro.core.search import heuristic as heuristic_module
from repro.core.search import state as state_module
from repro.core.search import transposition as transposition_module
from repro.core.search.parallel import WorkerPool
from repro.fuzz import FuzzConfig, run_fuzz
from repro.obs import Recorder, use_recorder
from repro.workloads import fig1_workflow, generate_workload


def _square(value: int) -> int:
    return value * value


class TestWorkerPool:
    def test_map_preserves_order(self):
        with WorkerPool(2) as pool:
            assert pool.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_single_job_runs_inline(self):
        pool = WorkerPool(1)
        assert pool.map(_square, [2, 3]) == [4, 9]
        assert pool._executor is None  # never forked

    def test_unpicklable_task_falls_back_to_serial(self):
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                assert pool.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]


class TestHSDeterminism:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_jobs4_matches_jobs1_on_generated_workloads(self, seed):
        workload = generate_workload("small", seed=seed)
        serial = heuristic_search(
            workload.workflow.copy(), budget=SearchBudget(jobs=1)
        )
        workload = generate_workload("small", seed=seed)
        parallel = heuristic_search(
            workload.workflow.copy(), budget=SearchBudget(jobs=4)
        )
        assert parallel.best.signature == serial.best.signature
        assert parallel.best.cost == serial.best.cost
        assert parallel.visited_states == serial.visited_states
        assert serial.jobs == 1 and parallel.jobs == 4

    def test_greedy_jobs4_matches_jobs1(self):
        workload = generate_workload("small", seed=0)
        serial = heuristic_search(workload.workflow.copy(), greedy=True)
        workload = generate_workload("small", seed=0)
        parallel = heuristic_search(
            workload.workflow.copy(), greedy=True, budget=SearchBudget(jobs=4)
        )
        assert parallel.best.signature == serial.best.signature
        assert parallel.visited_states == serial.visited_states

    @pytest.mark.parametrize("greedy", [False, True])
    def test_in_process_groups_reuse_the_base_state(self, greedy, monkeypatch):
        """At jobs=1 only S0 is estimated: in-process group tasks take the
        search's own state, whose delta-maintained report is exact."""
        estimated = []
        for module in (state_module, heuristic_module, transposition_module):
            real = module.estimate

            def counting(workflow, model, real=real):
                estimated.append(workflow)
                return real(workflow, model)

            monkeypatch.setattr(module, "estimate", counting)
        workflow = generate_workload("small", seed=0).workflow
        serial = heuristic_search(workflow.copy(), greedy=greedy)
        assert estimated == [serial.initial.workflow]
        parallel = heuristic_search(
            workflow.copy(), greedy=greedy, budget=SearchBudget(jobs=2)
        )
        assert parallel.best.signature == serial.best.signature
        assert parallel.best.cost == serial.best.cost
        assert parallel.visited_states == serial.visited_states
        assert parallel.lineage == serial.lineage


#: The algorithms that run group explorations on ``jobs`` workers and
#: report that worker count; the others report ``jobs=1``.
_POOLED = ("hs", "greedy")


def _jobs_cases():
    for algorithm in ("es", "hs", "greedy", "sa"):
        # ES cases keep their original, unprefixed ids.
        prefix = "" if algorithm == "es" else f"{algorithm}-"
        for category, seed in (
            ("fig1", None), ("small", 0), ("small", 1), ("medium", 0)
        ):
            name = category if seed is None else f"{category}-{seed}"
            yield pytest.param(algorithm, category, seed, id=prefix + name)


class TestESJobs:
    @pytest.mark.parametrize("algorithm, category, seed", _jobs_cases())
    def test_jobs_do_not_change_the_result(self, algorithm, category, seed):
        """Every algorithm returns its serial answer at jobs=2: ES and SA
        ignore jobs, and HS/HS-Greedy merge their group outcomes in group
        order.  fig1 runs unbudgeted; the generated workloads stop at
        max_states=300, where the stopping point decides the plan."""

        def run(jobs):
            if category == "fig1":
                workflow, max_states = fig1_workflow().workflow, None
            else:
                workflow = generate_workload(category, seed=seed).workflow
                max_states = 300
            return optimize(
                workflow,
                algorithm,
                budget=SearchBudget(max_states=max_states, jobs=jobs),
            )

        serial, parallel = run(1), run(2)
        if algorithm == "es":
            assert serial.completed is (category == "fig1")
        assert serial.jobs == 1
        assert parallel.jobs == (2 if algorithm in _POOLED else 1)
        assert parallel.best.cost == serial.best.cost
        assert parallel.best.signature == serial.best.signature
        assert parallel.lineage == serial.lineage
        assert parallel.visited_states == serial.visited_states
        assert parallel.completed == serial.completed


class TestTelemetryDeterminism:
    """Telemetry is side-band only: jobs=N stays byte-identical to serial
    with a recorder installed, and recorded aggregates agree across runs."""

    @staticmethod
    def _run(jobs: int, recorder):
        workload = generate_workload("small", seed=0)
        with use_recorder(recorder):
            return heuristic_search(
                workload.workflow.copy(), budget=SearchBudget(jobs=jobs)
            )

    def test_jobs2_matches_jobs1_with_telemetry_enabled(self):
        plain = self._run(1, None)
        serial_recorder, parallel_recorder = Recorder(), Recorder()
        serial = self._run(1, serial_recorder)
        parallel = self._run(2, parallel_recorder)

        # Optimizer output is identical across jobs and telemetry on/off.
        for result in (serial, parallel):
            assert result.best.signature == plain.best.signature
            assert result.best.cost == plain.best.cost
            assert result.visited_states == plain.visited_states

        def spans(recorder):
            return [e for e in recorder.events() if e["type"] == "span"]

        def counters(recorder):
            return {
                (e["name"], tuple(sorted(e["tags"].items()))): e["value"]
                for e in recorder.events()
                if e["type"] == "counter"
            }

        assert spans(serial_recorder) and spans(parallel_recorder)
        # Worker span buffers are shipped back, so parallel runs record the
        # same phase/group structure and the same deterministic counts.
        def names(recorder):
            return sorted(s["name"] for s in spans(recorder))

        assert names(parallel_recorder) == names(serial_recorder)
        assert counters(parallel_recorder) == counters(serial_recorder)


class TestWarmCache:
    def test_warm_run_replays_identically_with_hits(self, tmp_path):
        workload = generate_workload("small", seed=0)
        cold = heuristic_search(
            workload.workflow.copy(), budget=SearchBudget(cache=tmp_path)
        )
        workload = generate_workload("small", seed=0)
        warm = heuristic_search(
            workload.workflow.copy(), budget=SearchBudget(cache=tmp_path)
        )
        assert cold.cache_hits == 0
        assert warm.cache_hits > 0
        assert warm.best.signature == cold.best.signature
        assert warm.best.cost == cold.best.cost
        assert warm.visited_states == cold.visited_states
        assert warm.elapsed_seconds < cold.elapsed_seconds

    def test_parallel_warm_run_agrees_too(self, tmp_path):
        workload = generate_workload("small", seed=2)
        cold = heuristic_search(
            workload.workflow.copy(), budget=SearchBudget(jobs=4, cache=tmp_path)
        )
        workload = generate_workload("small", seed=2)
        warm = heuristic_search(
            workload.workflow.copy(), budget=SearchBudget(jobs=4, cache=tmp_path)
        )
        assert warm.cache_hits > 0
        assert warm.best.signature == cold.best.signature
        assert warm.visited_states == cold.visited_states


class TestOptimizeMany:
    def test_batch_shares_cache_across_runs(self):
        workflows = [fig1_workflow().workflow, fig1_workflow().workflow]
        first, second = optimize_many(workflows, algorithm="hs")
        assert second.cache_hits > 0
        assert second.best.signature == first.best.signature
        assert second.visited_states == first.visited_states

    def test_batch_accepts_jobs(self):
        workflows = [fig1_workflow().workflow]
        (result,) = optimize_many(
            workflows, algorithm="hs", budget=SearchBudget(jobs=2)
        )
        assert result.completed
        assert result.jobs == 2


class TestFuzzParallelPath:
    def test_parallel_fuzz_matches_serial_report(self):
        config = FuzzConfig(categories=("tiny",), chain_length=4)
        serial = run_fuzz(config, seeds=4, jobs=1)
        parallel = run_fuzz(config, seeds=4, jobs=2)
        assert parallel.ok == serial.ok
        assert parallel.seeds_run == serial.seeds_run
        assert parallel.states_checked == serial.states_checked
        assert parallel.transitions_applied == serial.transitions_applied


class TestOptimizeManyKnobs:
    """Regression: the batch driver must forward *every* budget knob.

    optimize_many once rebuilt the shared budget field by field and
    silently dropped the pruning knob (prune_dominated), so batch runs
    searched a different space than the same budget passed to a
    per-workflow call.
    """

    def test_batch_honours_pruning_knobs(self):
        budget = SearchBudget(prune_dominated=True)

        def workflow():
            return generate_workload("tiny", seed=1).workflow

        direct = exhaustive_search(workflow(), budget=budget)
        unknobbed = exhaustive_search(workflow())
        # The knob must actually bite on this workload, or the equality
        # below would pass vacuously.
        assert direct.visited_states < unknobbed.visited_states
        (batch,) = optimize_many([workflow()], algorithm="es", budget=budget)
        assert batch.visited_states == direct.visited_states
        assert batch.best.cost == direct.best.cost
        assert batch.best.signature == direct.best.signature

    def test_batch_equals_per_workflow_runs(self):
        budget = SearchBudget(max_states=500)
        workflows = [
            generate_workload("tiny", seed=seed).workflow for seed in range(3)
        ]
        batch = optimize_many(
            [wf.copy() for wf in workflows], algorithm="hs", budget=budget
        )
        for workflow, result in zip(workflows, batch):
            direct = heuristic_search(workflow.copy(), budget=budget)
            assert result.best.cost == direct.best.cost
            assert result.best.signature == direct.best.signature


class TestThreadedParentStartMethod:
    """Regression: forking a multi-threaded parent can deadlock workers.

    A forked child inherits the parent's lock states but not the threads
    that would release them; when the daemon's worker threads create
    pools, the pool must switch to forkserver/spawn.
    """

    def test_single_threaded_parent_prefers_fork(self):
        from multiprocessing import get_all_start_methods

        if "fork" not in get_all_start_methods():
            pytest.skip("platform has no fork")
        if threading.active_count() > 1:
            pytest.skip("test runner is already multi-threaded")
        assert WorkerPool._start_method() == "fork"

    def test_multithreaded_parent_avoids_fork(self):
        stop = threading.Event()
        keeper = threading.Thread(target=stop.wait, daemon=True)
        keeper.start()
        try:
            assert WorkerPool._start_method() in ("forkserver", "spawn")
        finally:
            stop.set()
            keeper.join(timeout=5.0)

    def test_pool_works_from_a_threaded_parent(self):
        stop = threading.Event()
        keeper = threading.Thread(target=stop.wait, daemon=True)
        keeper.start()
        try:
            with WorkerPool(2) as pool:
                assert pool.map(_square, [3, 1, 2]) == [9, 1, 4]
        finally:
            stop.set()
            keeper.join(timeout=5.0)

    def test_search_from_a_threaded_parent_matches_serial(self):
        workload = generate_workload("tiny", seed=0)
        serial = heuristic_search(
            workload.workflow.copy(), budget=SearchBudget(jobs=1)
        )
        results: list = []

        def run() -> None:
            results.append(
                heuristic_search(
                    generate_workload("tiny", seed=0).workflow,
                    budget=SearchBudget(jobs=2),
                )
            )

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=120.0)
        assert results, "threaded search did not finish"
        assert results[0].best.signature == serial.best.signature
        assert results[0].best.cost == serial.best.cost
