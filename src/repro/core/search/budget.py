"""The unified search budget — one knob object for all four algorithms.

:class:`SearchBudget` is the only budget surface: a single value object
accepted (as ``budget=``) by :func:`~repro.optimize`,
:func:`~repro.core.search.exhaustive.exhaustive_search`,
:func:`~repro.core.search.heuristic.heuristic_search`,
:func:`~repro.core.search.greedy.greedy_search` and
:func:`~repro.core.search.annealing.annealing_search` alike.

Besides the two stopping criteria it carries the two *execution* knobs the
parallel engine introduces:

* ``jobs`` — worker processes for HS/HS-Greedy group exploration
  (``1`` = serial, ``<= 0`` = one per CPU); ES and SA ignore it, and no
  algorithm's answer depends on it;
* ``cache`` — the transposition-cache specification, see
  :meth:`~repro.core.search.transposition.TranspositionCache.resolve`.

It also carries the one *pruning* knob that was measured to pay, off by
default so the default budget reproduces the unpruned algorithms
byte-for-byte: ``prune_dominated`` (ES only) drops frontier states
dominated by a cheaper already-seen state of the same dominance class
(see :func:`~repro.core.search.exhaustive.dominance_class`).

Budgets also arrive from outside the program (the serve protocol), so
construction checks every field's type as well as its range.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ReproError

__all__ = ["SearchBudget"]


@dataclass(frozen=True)
class SearchBudget:
    """Uniform stopping and execution budget for one optimizer run.

    Attributes:
        max_states: stop after this many unique states were generated
            (signature-deduplicated); the run reports ``completed=False``.
        max_seconds: wall-clock budget; best-so-far is returned with
            ``completed=False`` when it trips.
        jobs: worker processes for HS/HS-Greedy local-group exploration
            (same result for any value).  ES and SA ignore it.  ``1``
            (the default) keeps every algorithm on its serial path;
            values ``<= 0`` mean "one worker per CPU".
        cache: transposition-cache specification — ``None``/``False`` for
            a run-local in-memory cache, ``True`` for the default on-disk
            location (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), a
            path-like for an explicit cache directory, or a
            :class:`~repro.core.search.transposition.TranspositionCache`
            instance to share one cache across runs.
        prune_dominated: ES only — drop generated states whose dominance
            class already holds a state at least as cheap from the
            frontier.  A heuristic — it may change budget-truncated
            outcomes, never the cost of a state it keeps; on completed
            spaces the optimum is unchanged.
    """

    max_states: int | None = None
    max_seconds: float | None = None
    jobs: int = 1
    cache: Any = None
    prune_dominated: bool = False

    def __post_init__(self) -> None:
        if self.max_states is not None:
            _require("max_states", self.max_states, numbers.Integral)
            if self.max_states < 1:
                raise ReproError("SearchBudget.max_states must be at least 1")
        if self.max_seconds is not None:
            _require("max_seconds", self.max_seconds, numbers.Real)
            # Written so that NaN fails: every comparison with NaN is false.
            if not self.max_seconds >= 0:
                raise ReproError("SearchBudget.max_seconds must be >= 0")
        _require("jobs", self.jobs, numbers.Integral)
        _require("prune_dominated", self.prune_dominated, bool)

    def resolved_jobs(self) -> int:
        """The effective worker count (``jobs <= 0`` means one per CPU)."""
        if self.jobs <= 0:
            return os.cpu_count() or 1
        return int(self.jobs)


def _require(field: str, value: Any, kind: type) -> None:
    """Raise unless ``value`` is a ``kind``; a bool is only ever a bool
    (``True`` is an ``int`` to ``isinstance``)."""
    if not isinstance(value, kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise ReproError(
            f"SearchBudget.{field} must be {kind.__name__}, got {value!r}"
        )
