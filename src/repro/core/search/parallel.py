"""Process-pool execution layer for the search algorithms, plus the
batch driver that amortizes pool and cache across many workflows.

One parallelization scheme (Liu's shared-caching + parallel-partitions
recipe for ETL dataflows): HS / HS-Greedy Phase I/IV local-group
exploration is embarrassingly parallel — one pool task per local group,
outcomes merged deterministically in group order by the main process
(see :mod:`repro.core.search.heuristic`) — so parallel runs return
byte-identical best states and visited counts to serial ones.  ``jobs``
is a speed knob only: every algorithm returns the same answer for any
value of it.

ES and SA have no parallel path and report ``jobs=1``.  ES's frontier is
not a set of independent partitions: each expansion changes which state
is cheapest next, so expanding several states at once changes the plan a
budgeted run returns.  SA is one seeded Metropolis chain, sequential by
construction.

All tasks are pure functions of picklable inputs.  A payload the pool
cannot ship (say, a closure-based cost model) or a pool-infrastructure
failure degrades the call to the serial path — with a ``RuntimeWarning``
and a telemetry counter, never silently — while exceptions raised *by
a task* propagate to the caller on every path.

The pool is also a **fork server**: :meth:`WorkerPool.preload` installs
a payload (workflow + cost model) in the parent before the workers fork,
so forked children inherit it through copy-on-write instead of receiving
it pickled per task.  HS ships compact ``(token, lineage-script)``
references against the preloaded workflow (see
:mod:`repro.core.search.heuristic`), and the engine's partitioned
executor reuses the same pool for its shard fan-out
(:mod:`repro.engine.partition`).
"""

from __future__ import annotations

import pickle
import threading
import warnings
from dataclasses import replace
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, Iterable, Sequence

from repro.core.cost.model import CostModel
from repro.core.search.annealing import annealing_search
from repro.core.search.budget import SearchBudget
from repro.core.search.exhaustive import exhaustive_search
from repro.core.search.greedy import greedy_search
from repro.core.search.heuristic import heuristic_search
from repro.core.search.result import OptimizationResult
from repro.core.search.transposition import TranspositionCache
from repro.core.workflow import ETLWorkflow
from repro.exceptions import ReproError
from repro.obs import get_recorder

__all__ = [
    "WorkerPool",
    "preloaded",
    "unload",
    "ALGORITHMS",
    "run_search",
    "optimize_many",
]

#: One registry for every accepted algorithm spelling.
ALGORITHMS: dict[str, Callable[..., OptimizationResult]] = {
    "annealing": annealing_search,
    "sa": annealing_search,
    "exhaustive": exhaustive_search,
    "es": exhaustive_search,
    "heuristic": heuristic_search,
    "hs": heuristic_search,
    "greedy": greedy_search,
    "hs-greedy": greedy_search,
}


#: Fork-server payloads: installed in the parent *before* the pool's
#: workers start, so fork children inherit them copy-on-write and tasks
#: can reference a heavy object by token instead of pickling it.  Spawn
#: children receive a pickled copy once, via the pool initializer.
_PRELOADED: dict[str, Any] = {}

#: Keep at most this many preload payloads in the parent — long batch
#: runs over many distinct workflows evict insertion-oldest entries
#: (forked workers keep their inherited copies regardless).
_PRELOAD_CAP = 64

#: Sentinel marking a map slot whose pool future has not resolved yet.
_PENDING: Any = object()


def _install_preloaded(payload: dict[str, Any]) -> None:
    """Pool initializer (spawn start method): install preloads by value."""
    _PRELOADED.update(payload)


def preloaded(token: str) -> Any:
    """The payload :meth:`WorkerPool.preload` installed under ``token``.

    Called from worker tasks; raises ``KeyError`` when the token was
    never installed in this process — a real wiring bug that must
    propagate, not degrade.
    """
    return _PRELOADED[token]


def unload(token: str) -> None:
    """Drop a preload payload from this process (no-op when absent).

    For one-shot payloads (e.g. the engine's per-run shard context) that
    should not linger in the parent until cap eviction.  Running forked
    workers keep their inherited copies — callers close their pool
    alongside this.
    """
    _PRELOADED.pop(token, None)


class WorkerPool:
    """A lazily-started process pool with an *accounted* serial fallback.

    Workers start on first use — ``fork`` where available and the parent
    is single-threaded (tasks inherit the loaded modules and any
    :meth:`preload` payloads without re-import or pickling), else
    ``forkserver``/``spawn`` with preloads shipped once via the pool
    initializer (see :meth:`_start_method`).  Failures are split two ways:

    * **infrastructure** failures (pool cannot start, a worker died, the
      payload cannot be pickled) degrade the call to in-process
      execution, with a ``RuntimeWarning`` (once per pool) and a bump of
      the ``degraded_counter`` telemetry counter per degraded call —
      parallelism is an accelerator here, never a requirement, but its
      loss is never silent;
    * exceptions raised **by the task itself** propagate to the caller
      unchanged, exactly as they would in-process.

    The fallback is idempotent: tasks that completed inside a pool that
    later broke keep their results — only unfinished tasks re-run
    in-process, so per-task side channels (telemetry event buffers) are
    produced exactly once per task.
    """

    def __init__(
        self, jobs: int, degraded_counter: str = "search.pool_degraded"
    ):
        self.jobs = max(1, int(jobs))
        self.degraded_counter = degraded_counter
        self._executor: ProcessPoolExecutor | None = None
        #: Preload tokens the running executor's workers inherited.
        self._executor_tokens: frozenset[str] = frozenset()
        self._warned_degraded = False

    def preload(self, token: str, payload: Any) -> None:
        """Install ``payload`` under ``token`` for worker-side lookup.

        Must be called before the tasks that call :func:`preloaded` with
        the token are mapped.  If the pool's workers already started
        without this token, the pool is restarted — the fork-server
        contract is that children fork *after* the preload, inheriting
        it for free.
        """
        if token not in _PRELOADED:
            # Tokens are content hashes (fingerprints), so an existing
            # entry is interchangeable with ``payload`` — keep it, and
            # keep the running workers that inherited it.
            while len(_PRELOADED) >= _PRELOAD_CAP:
                _PRELOADED.pop(next(iter(_PRELOADED)))
            _PRELOADED[token] = payload
        if self._executor is not None and token not in self._executor_tokens:
            self.close()

    @staticmethod
    def _start_method() -> str:
        """Pick the safest available start method for this parent.

        ``fork`` is the cheap default (children inherit loaded modules and
        preloads copy-on-write) — but forking a *multi-threaded* parent is
        undefined behaviour in POSIX: another thread may hold an internal
        lock (allocator, logging, asyncio) at fork time and the child
        deadlocks on first use.  The serve daemon is exactly such a parent,
        so when any other thread is alive we switch to ``forkserver``
        (single-threaded fork origin, preloads shipped by initializer) or
        ``spawn``.
        """
        available = get_all_start_methods()
        if threading.active_count() > 1:
            for method in ("forkserver", "spawn"):
                if method in available:
                    return method
        return "fork" if "fork" in available else "spawn"

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            method = self._start_method()
            tokens = frozenset(_PRELOADED)
            if method == "fork":
                # Children inherit ``_PRELOADED`` through fork; no
                # initializer needed (and none of its pickling cost).
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=get_context(method)
                )
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=get_context(method),
                    initializer=_install_preloaded,
                    initargs=(dict(_PRELOADED),),
                )
            self._executor_tokens = tokens
        return self._executor

    def _degrade(self, reason: str) -> None:
        """Account one genuine degradation: counter always, warning once."""
        recorder = get_recorder()
        if recorder.active:
            recorder.counter(self.degraded_counter).add()
        if not self._warned_degraded:
            self._warned_degraded = True
            warnings.warn(
                f"worker pool degraded to serial execution: {reason}",
                RuntimeWarning,
                stacklevel=4,
            )

    def map(self, task: Callable, args: Iterable) -> list:
        """Run ``task`` over ``args``, preserving order.

        Task-raised exceptions propagate; only infrastructure failures
        (unstartable pool, unpicklable payload, broken worker) fall back
        to in-process execution — accounted via :meth:`_degrade`.
        """
        args = list(args)
        if self.jobs <= 1 or len(args) <= 1:
            return [task(arg) for arg in args]
        try:
            executor = self._ensure()
        except OSError as exc:
            self._degrade(f"pool failed to start ({exc})")
            return [task(arg) for arg in args]
        # Probe payload picklability explicitly, up front: an unshippable
        # payload is a *degradation*; without the probe it would surface
        # as an opaque future exception indistinguishable from task bugs.
        try:
            pickle.dumps((task, args[0]), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickling raises many concrete types
            self._degrade(f"task payload is not picklable ({exc})")
            return [task(arg) for arg in args]
        try:
            futures = [executor.submit(task, arg) for arg in args]
        except (RuntimeError, OSError) as exc:
            self._degrade(f"pool rejected task submission ({exc})")
            self.close()
            return [task(arg) for arg in args]
        results: list = [_PENDING] * len(args)
        try:
            for index, future in enumerate(futures):
                results[index] = future.result()
        except (BrokenProcessPool, pickle.PicklingError) as exc:
            # Infrastructure died mid-run.  Keep every result the pool
            # did deliver (idempotent fallback: a completed task's
            # telemetry buffer is absorbed exactly once) and recompute
            # only the rest in-process.
            self._degrade(f"pool broke mid-run ({exc.__class__.__name__})")
            self.close()
            for index, future in enumerate(futures):
                if results[index] is not _PENDING:
                    continue
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    results[index] = future.result()
                else:
                    results[index] = task(args[index])
        except BaseException:
            # A task-raised error propagates; don't leave stragglers
            # running behind the caller's back.
            for future in futures:
                future.cancel()
            raise
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._executor_tokens = frozenset()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- dispatch + batch driver -------------------------------------------------------------


def run_search(
    algorithm: str,
    workflow: ETLWorkflow,
    model: CostModel | None = None,
    budget: SearchBudget | None = None,
    pool: WorkerPool | None = None,
    **kwargs,
) -> OptimizationResult:
    """Dispatch one run to the algorithm registry (every spelling)."""
    try:
        search = ALGORITHMS[algorithm.lower()]
    except KeyError:
        raise ReproError(
            f"unknown algorithm {algorithm!r}; choose one of "
            f"{sorted(set(ALGORITHMS))}"
        ) from None
    return search(workflow, model=model, budget=budget, pool=pool, **kwargs)


def optimize_many(
    workflows: Sequence[ETLWorkflow],
    algorithm: str = "heuristic",
    model: CostModel | None = None,
    budget: SearchBudget | None = None,
    **kwargs,
) -> list[OptimizationResult]:
    """Optimize a batch of workflows on one shared pool and cache.

    The heavy-traffic batch case: worker processes are forked once and
    the transposition cache persists across runs, so repeated (or
    similar) workflows skip re-exploration — repeats of a workflow
    already optimized in the batch report nonzero ``cache_hits`` and
    return in a fraction of the first run's time.
    """
    budget = budget if budget is not None else SearchBudget()
    cache, owned_cache = TranspositionCache.resolve(budget.cache)
    # dataclasses.replace keeps *every* knob — rebuilding the budget field
    # by field once silently dropped the pruning knob (prune_dominated),
    # so batch runs ignored it.
    shared_budget = replace(budget, cache=cache)
    jobs = budget.resolved_jobs()
    pool = WorkerPool(jobs) if jobs > 1 else None
    try:
        return [
            run_search(
                algorithm,
                workflow,
                model=model,
                budget=shared_budget,
                pool=pool,
                **kwargs,
            )
            for workflow in workflows
        ]
    finally:
        if pool is not None:
            pool.close()
        if owned_cache:
            cache.flush()
