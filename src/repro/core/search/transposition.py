"""Shared transposition cache for the state-space search (all algorithms).

Chess engines memoize positions reached through transposed move orders; the
ETL state space transposes the same way — Phase III of HS re-derives states
Phase II already visited, simulated annealing walks back over its own
trail, and in the heavy-traffic batch case the *same workflow* is optimized
again and again.  This module provides the shared memo:

* **cost totals** keyed on :func:`~repro.core.signature.state_signature` —
  a state re-encountered through any path (or any run) skips re-costing;
* **group explorations** keyed on ``(state signature, local-group member
  ids, strategy)`` — the dominant cost of HS (Phase I/IV swap exploration,
  >99 % of wall-clock on large workflows) is replayed from the memo instead
  of re-searched;
* an optional **on-disk layer** (JSON, one file per workflow/cost-model
  namespace under ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) that makes
  the memo survive across processes, so repeated optimization of the same
  workflow — `Liu's shared-caching argument <https://arxiv.org/abs/1409.1639>`_
  — costs a fraction of the first run.

Entries are namespaced by :func:`~repro.core.signature.workflow_fingerprint`
plus a cost-model key, because state signatures identify states only within
one optimization problem.  Cached values are only ever values the same
deterministic computation would have produced, so warm and cold runs return
identical best states; they may differ in the last float ulp of *recorded*
costs when a value computed incrementally is replayed, which is why the
deterministic search paths (HS group exploration) consult the memo at
dispatch granularity, never mid-exploration.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.cost.estimator import CostReport, estimate, estimate_incremental
from repro.core.cost.model import CostModel
from repro.core.signature import state_signature, workflow_fingerprint
from repro.core.workflow import ETLWorkflow, Node
from repro.obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.search.state import SearchState
    from repro.core.transitions.base import Transition

__all__ = [
    "TranspositionCache",
    "CacheNamespace",
    "DeferredCostReport",
    "default_cache_dir",
]

# v2: cost entries carry their incremental components ({"t": total,
# "n": recosted-node count}) instead of a bare float, so warm-run
# telemetry can report how much delta work the cached value replaced.
_FORMAT_VERSION = 2


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return Path(explicit).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def _model_key(model: CostModel) -> str:
    """Namespace component identifying the cost model.

    Custom models that carry tunable state should expose a
    ``cost_model_key()`` method returning a stable string; class identity
    is the fallback (sufficient for the shipped stateless models).
    """
    key = getattr(model, "cost_model_key", None)
    if callable(key):
        return str(key())
    return f"{type(model).__module__}.{type(model).__qualname__}"


class DeferredCostReport:
    """A cost report whose total is known (from the cache) but whose
    per-node breakdown is computed only if the state is ever expanded.

    Most generated states are never expanded (best-first search under a
    budget discards the bulk of its frontier), so on cache hits the full
    topological costing pass is skipped entirely.  Duck-types
    :class:`~repro.core.cost.estimator.CostReport`.
    """

    __slots__ = ("total", "_workflow", "_model", "_full")

    #: A cache hit re-derives nothing, so the delta-recost telemetry
    #: (``search.delta_recost_nodes``) counts deferred reports as zero.
    recosted_nodes = 0

    def __init__(self, total: float, workflow: ETLWorkflow, model: CostModel):
        self.total = total
        self._workflow = workflow
        self._model = model
        self._full: CostReport | None = None

    def materialize(self) -> CostReport:
        """Compute (once) and return the full per-node report."""
        if self._full is None:
            self._full = estimate(self._workflow, self._model)
        return self._full

    @property
    def node_costs(self) -> dict[Node, float]:
        return self.materialize().node_costs

    @property
    def cardinalities(self) -> dict[Node, float]:
        return self.materialize().cardinalities

    def cost_of(self, node: Node) -> float:
        return self.materialize().cost_of(node)

    def __reduce__(self):
        # Workers receive the materialized report so they never re-estimate.
        return (CostReport, (self.total, self.node_costs, self.cardinalities))


class CacheNamespace:
    """The cache slice of one (workflow family, cost model) pair."""

    def __init__(self, cache: "TranspositionCache", key: str):
        self._cache = cache
        self.key = key
        self.costs: dict[str, dict[str, Any]] = {}
        self.groups: dict[str, dict[str, Any]] = {}
        self.dirty = False
        # Group keys dropped this run: excluded from merge-on-write so a
        # concurrent writer's copy does not resurrect them.
        self._dropped_groups: set[str] = set()
        self._load()

    # -- persistence ------------------------------------------------------------

    def _path(self) -> Path | None:
        if self._cache.directory is None:
            return None
        return self._cache.directory / f"{self.key}.json"

    @staticmethod
    def _read_file(path: Path) -> tuple[dict[str, Any], dict[str, Any]]:
        """Best-effort read of an on-disk layer; empty when absent/corrupt."""
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            # A corrupt or unreadable cache file is a cold cache, not an
            # error: the search recomputes everything it needs.
            return {}, {}
        if data.get("format_version") != _FORMAT_VERSION:
            return {}, {}
        return data.get("costs", {}), data.get("groups", {})

    def _load(self) -> None:
        path = self._path()
        if path is None or not path.exists():
            return
        costs, groups = self._read_file(path)
        self.costs.update(costs)
        self.groups.update(groups)

    def flush(self) -> None:
        with self._cache._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        path = self._path()
        if path is None or not self.dirty:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{self.key}.", suffix=".tmp", dir=path.parent
            )
            # Merge-on-write: a concurrent run may have replaced the file
            # since we loaded it.  Re-read under the temp file and union
            # its entries with ours (ours win on divergence, which is
            # counted — entries are deterministic, so genuine conflicts
            # indicate cost-model drift, not racing writers).  os.replace
            # then publishes the union atomically instead of clobbering
            # the other writer's entries.
            disk_costs, disk_groups = (
                self._read_file(path) if path.exists() else ({}, {})
            )
            conflicts = 0
            merged_costs = dict(disk_costs)
            for signature, total in self.costs.items():
                if signature in merged_costs and merged_costs[signature] != total:
                    conflicts += 1
                merged_costs[signature] = total
            merged_groups = {
                key: entry
                for key, entry in disk_groups.items()
                if key not in self._dropped_groups
            }
            for key, entry in self.groups.items():
                if key in merged_groups and merged_groups[key] != entry:
                    conflicts += 1
                merged_groups[key] = entry
            payload = {
                "format_version": _FORMAT_VERSION,
                "costs": merged_costs,
                "groups": merged_groups,
            }
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
            self.costs = merged_costs
            self.groups = merged_groups
            if conflicts:
                self._cache.merge_conflicts += conflicts
                get_recorder().counter(
                    "search.transposition.merge_conflicts"
                ).add(conflicts)
            self.dirty = False
        except OSError:
            return

    # -- cost totals ------------------------------------------------------------

    def get_cost(self, signature: str) -> float | None:
        recorder = get_recorder()
        started = time.perf_counter() if recorder.active else 0.0
        with self._cache._lock:
            entry = self.costs.get(signature)
            if entry is None:
                self._cache.misses += 1
            else:
                self._cache.hits += 1
        if recorder.active:
            recorder.histogram("search.transposition_lookup_seconds").observe(
                time.perf_counter() - started
            )
        if entry is None:
            recorder.counter(
                "search.transposition", kind="cost", outcome="miss"
            ).add()
            return None
        recorder.counter(
            "search.transposition", kind="cost", outcome="hit"
        ).add()
        return entry["t"]

    def put_cost(self, signature: str, total: float, recosted: int = 0) -> None:
        with self._cache._lock:
            if signature not in self.costs:
                self.costs[signature] = {"t": total, "n": recosted}
                self.dirty = True

    def put_costs(self, entries: list[tuple[str, float]]) -> None:
        """:meth:`put_cost` for each ``(signature, total)``, in order,
        under one lock acquisition."""
        with self._cache._lock:
            costs = self.costs  # a flush replaces the dict under the lock
            for signature, total in entries:
                if signature not in costs:
                    costs[signature] = {"t": total, "n": 0}
                    self.dirty = True

    # -- group-exploration memo --------------------------------------------------

    def get_group(self, key: str) -> dict[str, Any] | None:
        recorder = get_recorder()
        started = time.perf_counter() if recorder.active else 0.0
        with self._cache._lock:
            entry = self.groups.get(key)
            if entry is None:
                self._cache.misses += 1
            else:
                self._cache.hits += 1
        if recorder.active:
            recorder.histogram("search.transposition_lookup_seconds").observe(
                time.perf_counter() - started
            )
        if entry is None:
            recorder.counter(
                "search.transposition", kind="group", outcome="miss"
            ).add()
            return None
        recorder.counter(
            "search.transposition", kind="group", outcome="hit"
        ).add()
        return entry

    def put_group(self, key: str, entry: dict[str, Any]) -> None:
        with self._cache._lock:
            self.groups[key] = entry
            self._dropped_groups.discard(key)
            self.dirty = True

    def drop_group(self, key: str) -> None:
        with self._cache._lock:
            if self.groups.pop(key, None) is not None:
                self._dropped_groups.add(key)
                self.dirty = True

    # -- successor construction ----------------------------------------------------

    def successor(
        self,
        parent: "SearchState",
        transition: "Transition",
        workflow: ETLWorkflow,
        model: CostModel,
        signature: str | None = None,
    ) -> "SearchState":
        """Build a successor state, reusing a memoized cost when possible.

        On a hit the successor carries a :class:`DeferredCostReport` — the
        per-node breakdown is only computed if the state is ever expanded.
        """
        from repro.core.search.state import LineageStep, SearchState
        from repro.obs.provenance import transition_targets

        if signature is None:
            signature = state_signature(workflow)
        total = self.get_cost(signature)
        if total is not None:
            report: Any = DeferredCostReport(total, workflow, model)
        else:
            report = estimate_incremental(
                workflow, model, parent.report, transition.affected_nodes()
            )
            self.put_cost(signature, report.total, report.recosted_nodes)
            recorder = get_recorder()
            if recorder.active:
                recorder.counter("search.delta_recost_nodes").add(
                    report.recosted_nodes
                )
        return SearchState(
            workflow=workflow,
            signature=signature,
            report=report,
            produced_by=transition,
            depth=parent.depth + 1,
            lineage=parent.lineage
            + (
                LineageStep(
                    mnemonic=transition.mnemonic,
                    transition=transition.describe(),
                    cost_after=report.total,
                    targets=transition_targets(transition),
                ),
            ),
        )


class TranspositionCache:
    """Signature-keyed memo shared by every search algorithm.

    One instance may back many runs (see
    :func:`~repro.core.search.parallel.optimize_many`); per-workflow
    namespaces keep unrelated search spaces apart.  ``hits`` / ``misses``
    aggregate across namespaces; algorithms report the per-run delta as
    ``OptimizationResult.cache_hits``.  Namespaces stay in memory until
    :meth:`trim` drops them.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory).expanduser() if directory else None
        self.hits = 0
        self.misses = 0
        #: Entries whose value diverged from a concurrent writer's during a
        #: merge-on-write flush (ours won; see :meth:`CacheNamespace.flush`).
        self.merge_conflicts = 0
        #: Namespaces dropped by :meth:`trim`.
        self.evictions = 0
        #: Least recently used first (:meth:`namespace` moves a key last).
        self._namespaces: dict[str, CacheNamespace] = {}
        # One instance is shared across the serve daemon's worker threads;
        # every in-memory read-modify-write (entry insertion, hit/miss
        # accounting, namespace creation, flush) happens under this lock.
        # Reentrant because flush() takes it and the obs counter callbacks
        # it reaches may live on the same thread.
        self._lock = threading.RLock()

    @classmethod
    def resolve(cls, spec: Any) -> tuple["TranspositionCache", bool]:
        """Interpret a :attr:`SearchBudget.cache` value.

        Returns ``(cache, owned)`` — ``owned`` is True when this call
        created the instance (the caller is then responsible for flushing
        it at the end of the run).

        * ``None`` / ``False`` — fresh in-memory cache, no disk layer;
        * ``True`` — on-disk cache at :func:`default_cache_dir`;
        * path-like — on-disk cache rooted at that directory;
        * an existing :class:`TranspositionCache` — shared, not owned.
        """
        if isinstance(spec, TranspositionCache):
            return spec, False
        if spec is None or spec is False:
            return cls(), True
        if spec is True:
            return cls(default_cache_dir()), True
        return cls(spec), True

    def namespace(self, workflow: ETLWorkflow, model: CostModel) -> CacheNamespace:
        """The cache slice for one workflow family under one cost model."""
        key = f"{workflow_fingerprint(workflow)}-{_model_key(model)}"
        # Path-safe: fingerprint is hex, the model key may hold dots only.
        key = "".join(c if c.isalnum() or c in "._-" else "_" for c in key)
        with self._lock:
            found = self._namespaces.pop(key, None)
            if found is None:
                found = CacheNamespace(self, key)
            self._namespaces[key] = found
            return found

    @property
    def namespace_count(self) -> int:
        """Namespaces held in memory."""
        return len(self._namespaces)

    def trim(self, limit: int) -> None:
        """Keep at most ``limit`` namespaces, least recently used out
        first, each flushed to the disk layer before it is dropped.

        A search that holds a dropped namespace keeps using it (entries
        it adds afterwards are not written back: the cache is
        best-effort); a later :meth:`namespace` call reloads the disk
        layer.
        """
        with self._lock:
            while len(self._namespaces) > limit:
                oldest = next(iter(self._namespaces))
                self._namespaces.pop(oldest)._flush_locked()
                self.evictions += 1

    def flush(self) -> None:
        """Write every dirty namespace to the disk layer (no-op without one)."""
        with self._lock:
            namespaces = list(self._namespaces.values())
        for namespace in namespaces:
            namespace.flush()
