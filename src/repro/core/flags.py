"""Process-wide debug/compatibility switches for the fast paths.

Three environment variables gate the performance machinery:

* ``REPRO_FULL_RECOST=1`` — force every transition onto the slow,
  obviously-correct twin (full copy + full structural validation + full
  schema propagation + from-scratch costing), and explore and compose
  HS local groups by building a ``SearchState`` per swap
  (:meth:`~repro.core.search.state.SearchState.try_successor`) instead
  of running the group kernel.  This is the baseline the differential
  suites and ``benchmarks/bench_parallel.py`` compare the fast paths
  against.
* ``REPRO_COST_ORACLE=1`` — run *both* paths for every transition and
  assert they agree: same accept/reject verdict, same derived schemata,
  and a valid patched topological order; every HS group exploration
  runs the group kernel and its state-building twin (unrecorded) and
  asserts the same ``(path, explored)`` outcome, and every composed
  group path is applied swap by swap too and must give the same state.
  Combined with the exact ``estimate_incremental == estimate``
  guarantee this is the debug oracle the optimization is pinned with;
  it is also wired into the
  fuzz oracles (``repro fuzz`` cost-consistency check).
* ``REPRO_NO_COLUMNAR=1`` — disable the engine's fused columnar
  kernels: :class:`~repro.engine.columnar.FusedChainRunner`, the one
  row-wise chain runner of streaming, sharded and batch-granular
  checkpointed runs, takes its row-operator fallback for every chain,
  and streaming sources skip the column build.  Only
  :mod:`repro.engine.columnar` and the streaming source batcher read
  it.  The differential/property suites flip this to compare the two
  paths; it is also the escape hatch if a fused kernel ever misbehaves
  in production.

All are read once at import and can be toggled programmatically (tests,
benchmarks) via the setters below.
"""

from __future__ import annotations

import os

__all__ = [
    "full_recost_enabled",
    "set_full_recost",
    "cost_oracle_enabled",
    "set_cost_oracle",
    "columnar_enabled",
    "set_columnar",
]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false")


_full_recost = _env_flag("REPRO_FULL_RECOST")
_cost_oracle = _env_flag("REPRO_COST_ORACLE")
_columnar = not _env_flag("REPRO_NO_COLUMNAR")


def full_recost_enabled() -> bool:
    """True when transitions must take the slow full-recost twin."""
    return _full_recost


def set_full_recost(enabled: bool) -> bool:
    """Toggle the slow twin; returns the previous value."""
    global _full_recost
    previous = _full_recost
    _full_recost = bool(enabled)
    return previous


def cost_oracle_enabled() -> bool:
    """True when every fast-path transition is cross-checked."""
    return _cost_oracle


def set_cost_oracle(enabled: bool) -> bool:
    """Toggle the differential oracle; returns the previous value."""
    global _cost_oracle
    previous = _cost_oracle
    _cost_oracle = bool(enabled)
    return previous


def columnar_enabled() -> bool:
    """True when the streaming engine may use fused columnar kernels."""
    return _columnar


def set_columnar(enabled: bool) -> bool:
    """Toggle the columnar fast path; returns the previous value."""
    global _columnar
    previous = _columnar
    _columnar = bool(enabled)
    return previous
