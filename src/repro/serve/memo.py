"""Request-level result memo: a repeat optimize is a dictionary lookup.

Heavy multi-tenant traffic is dominated by near-duplicate requests — the
same workflow re-optimized on every pipeline deploy, dashboard refresh,
or retry.  The transposition cache already makes a *warm* search cheap;
this memo removes the search entirely: the full serialized
:class:`~repro.core.search.result.OptimizationResult` is keyed on
everything the answer depends on —

    workflow fingerprint × cost model × algorithm × budget knobs

— and a repeat request replays the stored payload.  ``jobs`` is
**excluded** from the key: every algorithm's jobs=N run returns the same
answer as its serial run, so a result computed at any worker count
answers a request at any other.  The stopping and pruning knobs
(``max_states``/``max_seconds``/``prune_dominated``) are all
**included**: they change which state the search returns, so each
combination memoizes separately.

The memo is bounded (LRU) and thread-safe — the daemon's worker threads
populate it while the asyncio thread probes it on admission.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.core.search.budget import SearchBudget
from repro.core.search.parallel import ALGORITHMS

__all__ = ["ResultMemo", "memo_key"]

#: Default bound on memoized results; one entry holds a full serialized
#: result (plan + lineage), so the cap is a memory budget, not a hint.
DEFAULT_CAPACITY = 1024


def memo_key(
    fingerprint: str,
    model: str,
    algorithm: str,
    budget: SearchBudget,
) -> str:
    """The canonical memo key for one optimize request.

    ``fingerprint`` is :func:`~repro.core.signature.workflow_fingerprint`
    of the submitted workflow — a content hash, so two tenants submitting
    the same workflow share one entry (results carry no tenant data).
    ``algorithm`` is any spelling :data:`ALGORITHMS` accepts.
    """
    canonical = ALGORITHMS[algorithm.lower()].__name__.removesuffix("_search")
    parts = [
        fingerprint,
        model,
        canonical,
        f"states={budget.max_states}",
        f"seconds={budget.max_seconds}",
        f"dominated={budget.prune_dominated}",
    ]
    return "|".join(parts)


class ResultMemo:
    """A bounded, thread-safe LRU of serialized optimization results."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("ResultMemo capacity must be at least 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict[str, Any]]" = OrderedDict()

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, bumping it most-recently-used.

        Returns the stored dict itself; callers must treat it as frozen
        (the server composes response envelopes *around* it, never into
        it).
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload`` under ``key``, evicting least-recently-used.

        First write wins on a racing double-compute: both runs produced
        the same deterministic value, so keeping the incumbent avoids a
        pointless LRU bump for the loser.
        """
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = payload
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
