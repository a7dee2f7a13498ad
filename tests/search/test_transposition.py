"""Transposition cache: memo semantics, disk layer, namespacing."""

from __future__ import annotations

import json

import pytest

from repro.core.cost.estimator import estimate
from repro.core.cost.model import LinearCostModel, ProcessedRowsCostModel
from repro.core.search.transposition import (
    CacheNamespace,
    DeferredCostReport,
    TranspositionCache,
    default_cache_dir,
)
from repro.core.signature import workflow_fingerprint
from repro.obs import Recorder, use_recorder
from repro.workloads import fig1_workflow, two_branch_scenario


@pytest.fixture
def workflow():
    wf = fig1_workflow().workflow
    wf.validate()
    wf.propagate_schemas()
    return wf


class TestResolve:
    def test_none_is_memory_only(self):
        cache, owned = TranspositionCache.resolve(None)
        assert owned and cache.directory is None

    def test_false_is_memory_only(self):
        cache, _ = TranspositionCache.resolve(False)
        assert cache.directory is None

    def test_true_uses_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        cache, owned = TranspositionCache.resolve(True)
        assert owned and cache.directory == tmp_path / "cc"
        assert default_cache_dir() == tmp_path / "cc"

    def test_path_is_disk_backed(self, tmp_path):
        cache, _ = TranspositionCache.resolve(tmp_path)
        assert cache.directory == tmp_path

    def test_instance_is_shared_not_owned(self):
        shared = TranspositionCache()
        cache, owned = TranspositionCache.resolve(shared)
        assert cache is shared and not owned


class TestCostMemo:
    def test_hit_and_miss_accounting(self, workflow):
        cache = TranspositionCache()
        ns = cache.namespace(workflow, ProcessedRowsCostModel())
        assert ns.get_cost("sig-a") is None
        ns.put_cost("sig-a", 123.5)
        assert ns.get_cost("sig-a") == 123.5
        assert cache.misses == 1
        assert cache.hits == 1

    def test_first_write_wins(self, workflow):
        cache = TranspositionCache()
        ns = cache.namespace(workflow, ProcessedRowsCostModel())
        ns.put_cost("sig", 1.0)
        ns.put_cost("sig", 2.0)
        assert ns.get_cost("sig") == 1.0


class TestNamespacing:
    def test_distinct_workflows_do_not_share(self):
        cache = TranspositionCache()
        model = ProcessedRowsCostModel()
        fig1 = fig1_workflow().workflow
        fig1.validate(), fig1.propagate_schemas()
        other = two_branch_scenario().workflow
        other.validate(), other.propagate_schemas()
        cache.namespace(fig1, model).put_cost("sig", 1.0)
        assert cache.namespace(other, model).get_cost("sig") is None

    def test_distinct_models_do_not_share(self, workflow):
        cache = TranspositionCache()
        cache.namespace(workflow, ProcessedRowsCostModel()).put_cost("s", 1.0)
        assert cache.namespace(workflow, LinearCostModel()).get_cost("s") is None

    def test_fingerprint_stable_across_copies(self, workflow):
        assert workflow_fingerprint(workflow) == workflow_fingerprint(
            workflow.copy()
        )

    def test_fingerprint_differs_for_different_content(self, workflow):
        other = two_branch_scenario().workflow
        other.validate()
        other.propagate_schemas()
        assert workflow_fingerprint(workflow) != workflow_fingerprint(other)


class TestDiskLayer:
    def test_flush_then_reload(self, tmp_path, workflow):
        model = ProcessedRowsCostModel()
        cache = TranspositionCache(tmp_path)
        ns = cache.namespace(workflow, model)
        ns.put_cost("sig-x", 9.25)
        ns.put_group("gk", {"path": [["a", "b"]], "explored": [["s", 1.0]]})
        cache.flush()

        reloaded = TranspositionCache(tmp_path)
        ns2 = reloaded.namespace(workflow, model)
        assert ns2.get_cost("sig-x") == 9.25
        assert ns2.get_group("gk") == {
            "path": [["a", "b"]],
            "explored": [["s", 1.0]],
        }

    def test_corrupt_file_is_a_cold_cache(self, tmp_path, workflow):
        model = ProcessedRowsCostModel()
        cache = TranspositionCache(tmp_path)
        ns = cache.namespace(workflow, model)
        ns.put_cost("sig", 1.0)
        cache.flush()
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        reloaded = TranspositionCache(tmp_path)
        assert reloaded.namespace(workflow, model).get_cost("sig") is None

    def test_unknown_format_version_ignored(self, tmp_path, workflow):
        model = ProcessedRowsCostModel()
        cache = TranspositionCache(tmp_path)
        ns = cache.namespace(workflow, model)
        ns.put_cost("sig", 1.0)
        cache.flush()
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text(encoding="utf-8"))
            data["format_version"] = 999
            path.write_text(json.dumps(data), encoding="utf-8")
        reloaded = TranspositionCache(tmp_path)
        assert reloaded.namespace(workflow, model).get_cost("sig") is None

    def test_memory_cache_flush_is_noop(self, workflow):
        cache = TranspositionCache()
        cache.namespace(workflow, ProcessedRowsCostModel()).put_cost("s", 1.0)
        cache.flush()  # must not raise or write anywhere


class TestTrim:
    """The serve daemon keeps a bounded number of namespaces."""

    @pytest.fixture
    def spaces(self, workflow):
        """Three distinct (workflow, model) namespace keys."""
        other = two_branch_scenario().workflow
        other.validate()
        other.propagate_schemas()
        return [
            (workflow, ProcessedRowsCostModel()),
            (workflow, LinearCostModel()),
            (other, ProcessedRowsCostModel()),
        ]

    def test_least_recently_used_goes_first(self, tmp_path, spaces):
        (a, b, c) = spaces
        cache = TranspositionCache(tmp_path)
        first = cache.namespace(*a)
        second = cache.namespace(*b)
        second.put_cost("b", 2.0)
        assert cache.namespace(*a) is first  # b is now least recent
        cache.namespace(*c)
        cache.trim(2)
        assert cache.namespace_count == 2 and cache.evictions == 1
        # Flushed before it was dropped; the namespaces kept are not.
        assert [path.name for path in tmp_path.glob("*.json")] == [
            f"{second.key}.json"
        ]
        assert cache.namespace(*a) is first
        reloaded = cache.namespace(*b)
        assert reloaded is not second
        assert reloaded.get_cost("b") == 2.0
        cache.trim(2)  # c is now least recent
        assert cache.namespace_count == 2 and cache.evictions == 2
        assert cache.namespace(*b) is reloaded

    def test_memory_only_cache_drops_the_entries(self, spaces):
        (a, b, _) = spaces
        cache = TranspositionCache()
        cache.namespace(*a).put_cost("a", 1.0)
        cache.namespace(*b)
        cache.trim(1)
        assert cache.namespace_count == 1 and cache.evictions == 1
        assert cache.namespace(*a).get_cost("a") is None

    def test_trim_below_the_limit_keeps_everything(self, spaces):
        cache = TranspositionCache()
        held = [cache.namespace(*space) for space in spaces]
        cache.trim(3)
        assert cache.evictions == 0
        assert [cache.namespace(*space) for space in spaces] == held

    def test_concurrent_trims_count_every_eviction(self, spaces, monkeypatch):
        """Four threads create and trim namespaces at a short switch
        interval: every namespace created is still held or was counted
        as evicted."""
        import sys
        import threading

        created = []
        load = CacheNamespace._load

        def counting(self):
            created.append(self.key)
            load(self)

        monkeypatch.setattr(CacheNamespace, "_load", counting)
        cache = TranspositionCache()
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def churn(offset: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for i in range(300):
                    cache.namespace(*spaces[(offset + i) % len(spaces)])
                    cache.trim(1)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(offset,))
            for offset in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert cache.namespace_count == 1
        assert cache.evictions + cache.namespace_count == len(created)


class TestMergeOnWrite:
    """Concurrent writers union their entries instead of clobbering."""

    def _pair(self, tmp_path, workflow):
        model = ProcessedRowsCostModel()
        first = TranspositionCache(tmp_path)
        second = TranspositionCache(tmp_path)
        # Both load before either flushes — the racing-writers shape.
        return first.namespace(workflow, model), second.namespace(
            workflow, model
        ), model

    def test_second_writer_keeps_first_writers_entries(
        self, tmp_path, workflow
    ):
        ns1, ns2, model = self._pair(tmp_path, workflow)
        ns1.put_cost("sig-a", 1.0)
        ns1.put_group("gk-a", {"path": [], "explored": []})
        ns2.put_cost("sig-b", 2.0)
        ns1._cache.flush()
        ns2._cache.flush()  # last writer: must merge, not clobber

        reloaded = TranspositionCache(tmp_path).namespace(workflow, model)
        assert reloaded.get_cost("sig-a") == 1.0
        assert reloaded.get_cost("sig-b") == 2.0
        assert reloaded.get_group("gk-a") is not None
        assert ns2._cache.merge_conflicts == 0

    def test_divergent_value_counts_conflict_ours_win(
        self, tmp_path, workflow
    ):
        ns1, ns2, model = self._pair(tmp_path, workflow)
        ns1.put_cost("sig", 1.0)
        ns2.put_cost("sig", 2.0)
        ns1._cache.flush()
        recorder = Recorder()
        with use_recorder(recorder):
            ns2._cache.flush()
        assert ns2._cache.merge_conflicts == 1
        counters = [
            e for e in recorder.events()
            if e["type"] == "counter"
            and e["name"] == "search.transposition.merge_conflicts"
        ]
        assert counters and counters[0]["value"] == 1
        reloaded = TranspositionCache(tmp_path).namespace(workflow, model)
        assert reloaded.get_cost("sig") == 2.0  # the flusher's value won

    def test_dropped_group_is_not_resurrected_by_merge(
        self, tmp_path, workflow
    ):
        model = ProcessedRowsCostModel()
        first = TranspositionCache(tmp_path)
        ns1 = first.namespace(workflow, model)
        ns1.put_group("gk", {"path": [], "explored": []})
        first.flush()

        second = TranspositionCache(tmp_path)
        ns2 = second.namespace(workflow, model)
        assert ns2.get_group("gk") is not None
        ns2.drop_group("gk")
        second.flush()

        reloaded = TranspositionCache(tmp_path).namespace(workflow, model)
        assert reloaded.get_group("gk") is None


class TestDeferredCostReport:
    def test_total_known_breakdown_lazy(self, workflow):
        model = ProcessedRowsCostModel()
        full = estimate(workflow, model)
        deferred = DeferredCostReport(full.total, workflow, model)
        assert deferred.total == full.total
        assert deferred._full is None  # not yet materialized
        assert deferred.node_costs == full.node_costs
        assert deferred._full is not None
        for node in workflow.nodes():
            assert deferred.cost_of(node) == full.cost_of(node)


class TestThreadSafety:
    """Regression: the in-memory maps are shared by daemon worker threads.

    Unsynchronized dict updates can lose writes (and corrupt the
    hit/miss counters) under concurrent get/put; the cache now holds an
    RLock around every in-memory operation.
    """

    def test_two_thread_hammer_loses_no_updates(self, workflow):
        import threading

        cache = TranspositionCache()
        ns = cache.namespace(workflow, ProcessedRowsCostModel())
        per_thread = 2_000
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def hammer(thread_id: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for i in range(per_thread):
                    signature = f"sig-{thread_id}-{i}"
                    ns.put_cost(signature, float(i))
                    assert ns.get_cost(signature) == float(i)
                    # Contend on shared keys too, both map and counters.
                    ns.put_cost(f"shared-{i % 50}", float(i % 50))
                    ns.get_cost(f"shared-{i % 50}")
                    ns.get_cost(f"missing-{thread_id}-{i}")
                    ns.put_group(
                        f"group-{thread_id}-{i}", {"value": i}
                    )
                    assert ns.get_group(f"group-{thread_id}-{i}") == {
                        "value": i
                    }
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors
        # No lost updates: every private key from both threads survived.
        for thread_id in (0, 1):
            for i in range(per_thread):
                assert ns.get_cost(f"sig-{thread_id}-{i}") == float(i)
        # Counter bookkeeping stayed consistent under contention: each
        # loop does 3 hits (own sig, shared, group) and 1 guaranteed miss
        # plus the put-path misses; totals must reflect every operation.
        assert cache.misses >= 2 * per_thread
        assert cache.hits + cache.misses > 0

    def test_batched_puts_survive_concurrent_flushes(
        self, tmp_path, workflow
    ):
        """Three threads put cost batches while a fourth flushes, which
        replaces the namespace's cost dict; at a short switch interval
        no batch may land in a replaced dict."""
        import sys
        import threading

        ns = TranspositionCache(tmp_path).namespace(
            workflow, ProcessedRowsCostModel()
        )
        writers_done = threading.Event()
        barrier = threading.Barrier(4)

        def write(thread_id: int) -> None:
            barrier.wait(timeout=10.0)
            for batch in range(1000):
                ns.put_costs(
                    [(f"sig-{thread_id}-{batch}-{i}", 1.0) for i in range(5)]
                )

        def flush() -> None:
            barrier.wait(timeout=10.0)
            while not writers_done.is_set():
                ns.flush()

        writers = [
            threading.Thread(target=write, args=(tid,)) for tid in range(3)
        ]
        flusher = threading.Thread(target=flush)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in (*writers, flusher):
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
            writers_done.set()
            flusher.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*writers, flusher))
        assert len(ns.costs) == 3 * 1000 * 5

    def test_concurrent_namespace_creation_is_single(self, workflow):
        import threading

        cache = TranspositionCache()
        model = ProcessedRowsCostModel()
        barrier = threading.Barrier(4)
        spaces: list = []

        def make() -> None:
            barrier.wait(timeout=10.0)
            spaces.append(cache.namespace(workflow, model))

        threads = [threading.Thread(target=make) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(spaces) == 4
        assert len({id(ns) for ns in spaces}) == 1

    def test_single_thread_behaviour_unchanged(self, workflow):
        cache = TranspositionCache()
        ns = cache.namespace(workflow, ProcessedRowsCostModel())
        assert ns.get_cost("sig") is None
        ns.put_cost("sig", 42.0)
        assert ns.get_cost("sig") == 42.0
        assert cache.hits == 1 and cache.misses == 1
