"""Unit coverage for the result memo and the admission queue."""

from __future__ import annotations

import threading

import pytest

from repro import SearchBudget
from repro.core.search.parallel import ALGORITHMS
from repro.serve.memo import ResultMemo, memo_key
from repro.serve.queue import AdmissionError, Job, JobQueue, TenantPolicy


def _job(tenant: str = "acme") -> Job:
    return Job(tenant=tenant, payload={}, run=lambda job, pool: None)


class TestMemoKey:
    def test_jobs_is_excluded(self):
        # Every algorithm returns its serial answer at jobs=N, so a result
        # computed at any worker count answers a request at any other.
        for algorithm in ALGORITHMS:
            keys = {
                memo_key(
                    "fp", "processed_rows", algorithm, SearchBudget(jobs=jobs)
                )
                for jobs in (1, 2, 8, 0)
            }
            assert len(keys) == 1, algorithm

    @pytest.mark.parametrize(
        "knob",
        [
            {"max_states": 10},
            {"max_seconds": 1.0},
            {"prune_dominated": True},
            {"max_states": 10, "prune_dominated": True},
            {"max_seconds": 1.0, "prune_dominated": True},
        ],
    )
    def test_every_outcome_knob_is_included(self, knob):
        base = memo_key("fp", "processed_rows", "hs", SearchBudget())
        varied = memo_key("fp", "processed_rows", "hs", SearchBudget(**knob))
        assert base != varied

    def test_algorithm_is_case_insensitive(self):
        budget = SearchBudget()
        assert memo_key("fp", "m", "HS", budget) == memo_key(
            "fp", "m", "hs", budget
        )

    def test_fingerprint_and_model_distinguish(self):
        budget = SearchBudget()
        assert memo_key("a", "m", "hs", budget) != memo_key(
            "b", "m", "hs", budget
        )
        assert memo_key("a", "m", "hs", budget) != memo_key(
            "a", "n", "hs", budget
        )


class TestResultMemo:
    def test_get_put_and_stats(self):
        memo = ResultMemo(capacity=4)
        assert memo.get("k") is None
        memo.put("k", {"best_cost": 1.0})
        assert memo.get("k") == {"best_cost": 1.0}
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        memo = ResultMemo(capacity=2)
        memo.put("a", {"v": 1})
        memo.put("b", {"v": 2})
        memo.get("a")  # bump a most-recently-used
        memo.put("c", {"v": 3})  # evicts b, not a
        assert memo.get("b") is None
        assert memo.get("a") == {"v": 1}
        assert memo.get("c") == {"v": 3}
        assert len(memo) == 2

    def test_first_write_wins(self):
        # A racing double-compute produced the same deterministic value;
        # the incumbent stays.
        memo = ResultMemo(capacity=2)
        memo.put("k", {"v": "first"})
        memo.put("k", {"v": "second"})
        assert memo.get("k") == {"v": "first"}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultMemo(capacity=0)


class TestTenantPolicy:
    def test_clamp_floors_stopping_criteria(self):
        policy = TenantPolicy(max_states=100, max_seconds=2.0)
        effective = policy.clamp(
            SearchBudget(max_states=10_000, max_seconds=60.0), max_jobs=4
        )
        assert effective.max_states == 100
        assert effective.max_seconds == 2.0

    def test_clamp_keeps_tighter_request(self):
        policy = TenantPolicy(max_states=100)
        effective = policy.clamp(SearchBudget(max_states=5), max_jobs=4)
        assert effective.max_states == 5

    def test_unbounded_request_gets_the_ceiling(self):
        policy = TenantPolicy(max_states=100, max_seconds=2.0)
        effective = policy.clamp(SearchBudget(), max_jobs=4)
        assert effective.max_states == 100
        assert effective.max_seconds == 2.0

    def test_jobs_capped_by_server(self):
        effective = TenantPolicy().clamp(SearchBudget(jobs=64), max_jobs=2)
        assert effective.jobs == 2

    def test_cache_is_stripped(self):
        effective = TenantPolicy().clamp(
            SearchBudget(cache="/tmp/somewhere"), max_jobs=1
        )
        assert effective.cache is None

    def test_pruning_knobs_survive_the_clamp(self):
        requested = SearchBudget(prune_dominated=True)
        effective = TenantPolicy(max_states=50).clamp(requested, max_jobs=1)
        assert effective.prune_dominated


class TestJobQueue:
    def test_fifo_and_task_done(self):
        queue = JobQueue(capacity=4, policy=TenantPolicy())
        first, second = _job(), _job()
        queue.submit(first)
        queue.submit(second)
        assert queue.depth() == 2
        assert queue.next_job(timeout=0.1) is first
        assert queue.next_job(timeout=0.1) is second
        assert queue.inflight() == {"acme": 2}
        queue.task_done(first)
        queue.task_done(second)
        assert queue.inflight() == {}

    def test_queue_full_rejects(self):
        queue = JobQueue(capacity=1, policy=TenantPolicy())
        queue.submit(_job("a"))
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_job("b"))
        assert excinfo.value.code == "queue-full"
        assert queue.stats()["rejected_full"] == 1

    def test_tenant_limit_rejects(self):
        queue = JobQueue(capacity=8, policy=TenantPolicy(max_inflight=1))
        queue.submit(_job("acme"))
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_job("acme"))
        assert excinfo.value.code == "tenant-limit"
        # Another tenant still gets in.
        queue.submit(_job("other"))
        assert queue.stats()["rejected_tenant"] == 1

    def test_tenant_limit_counts_running_jobs(self):
        # A job popped by a worker still holds its tenant slot until
        # task_done releases it.
        queue = JobQueue(capacity=8, policy=TenantPolicy(max_inflight=1))
        job = _job("acme")
        queue.submit(job)
        assert queue.next_job(timeout=0.1) is job
        with pytest.raises(AdmissionError):
            queue.submit(_job("acme"))
        queue.task_done(job)
        queue.submit(_job("acme"))

    def test_close_rejects_and_wakes_waiters(self):
        queue = JobQueue(capacity=4, policy=TenantPolicy())
        woke: list[object] = []
        waiter = threading.Thread(
            target=lambda: woke.append(queue.next_job(timeout=10.0))
        )
        waiter.start()
        queue.close()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert woke == [None]
        assert queue.closed
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(_job())
        assert excinfo.value.code == "shutting-down"

    def test_next_job_timeout_returns_none(self):
        queue = JobQueue(capacity=4, policy=TenantPolicy())
        assert queue.next_job(timeout=0.01) is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            JobQueue(capacity=0, policy=TenantPolicy())
