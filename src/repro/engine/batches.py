"""Batching primitives for the streaming execution engine.

The streaming executor (:mod:`repro.engine.streaming`) moves rows through
the workflow in fixed-size chunks instead of materializing every
intermediate flow.  This module holds the pieces that are useful on their
own:

* :class:`ExecutionBudget` — the caller-facing knob accepted by
  :meth:`repro.engine.executor.Executor.run`;
* :class:`ResidentLedger` — run-wide accounting of *resident rows* (rows
  the engine is currently holding in memory) with per-owner peaks;
* :class:`SpillableRowBuffer` — an append-only batch store that
  overflows to disk once the run exceeds its resident-row budget;
* :func:`iter_batches` / :func:`rebatch` — chunking helpers.  Both
  accept either a :class:`~repro.engine.columnar.Batch` or a plain row
  sequence and always yield ``Batch``.

Accounting model
----------------
"Resident rows" counts the engine's own working state: the source batch
currently in flight, batches emitted by blocking operators, buffered
fan-out flows, and blocking-operator accumulator entries (aggregation
groups, dedup survivors, join build rows, difference/intersection
counters).  Rows held by *derived* in-chain batches are bounded by the
source batch and are not double-counted; the final target lists returned
in :class:`~repro.engine.executor.ExecutionResult` are part of the API
contract and are likewise not charged against the budget.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.engine.columnar import Batch
from repro.engine.rows import Row
from repro.exceptions import ExecutionError

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ExecutionBudget",
    "ResidentLedger",
    "SpillableRowBuffer",
    "StreamingMetrics",
    "iter_batches",
    "rebatch",
]

#: Default rows per batch for the streaming engine.
DEFAULT_BATCH_SIZE = 4096


@dataclass(frozen=True)
class ExecutionBudget:
    """What the streaming engine may hold in memory, and where to spill.

    Attributes:
        batch_size: rows per pipeline chunk (default 4096).
        max_resident_rows: soft ceiling on resident rows.  Spillable
            buffers flush to disk once the run is over this ceiling;
            non-spillable accumulator state (e.g. aggregation groups) is
            counted honestly but cannot shrink below its natural size.
            ``None`` disables spilling and only tracks the peak.
        spill_dir: directory for spill files; created on demand.  Without
            it, exceeding ``max_resident_rows`` keeps rows in memory (the
            ledger still records the true peak).
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    max_resident_rows: int | None = None
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ExecutionError(
                f"batch_size must be at least 1, got {self.batch_size}"
            )
        if self.max_resident_rows is not None and self.max_resident_rows < 1:
            raise ExecutionError(
                f"max_resident_rows must be at least 1, got "
                f"{self.max_resident_rows}"
            )


class ResidentLedger:
    """Run-wide resident-row accounting with per-owner peaks.

    Owners are node/activity ids; :meth:`acquire` / :meth:`release` are
    called by the streaming operators as rows enter and leave the engine's
    working state.  The global peak is what a run's
    :class:`StreamingMetrics` reports and what the bounded-memory bench
    asserts against the budget.
    """

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.current = 0
        self.peak = 0
        self.spilled_rows = 0
        self._owner_current: dict[str, int] = {}
        self._owner_peak: dict[str, int] = {}

    def acquire(self, owner: str, rows: int) -> None:
        if rows <= 0:
            return
        self.current += rows
        if self.current > self.peak:
            self.peak = self.current
        held = self._owner_current.get(owner, 0) + rows
        self._owner_current[owner] = held
        if held > self._owner_peak.get(owner, 0):
            self._owner_peak[owner] = held

    def release(self, owner: str, rows: int) -> None:
        if rows <= 0:
            return
        self.current -= rows
        self._owner_current[owner] = self._owner_current.get(owner, 0) - rows

    def note_spill(self, rows: int) -> None:
        self.spilled_rows += rows

    @property
    def over_budget(self) -> bool:
        return self.limit is not None and self.current > self.limit

    def peak_for(self, owner: str) -> int:
        return self._owner_peak.get(owner, 0)


class SpillableRowBuffer:
    """An append-only batch store that spills to disk past the row budget.

    Appends go to an in-memory tail of :class:`Batch` pieces; whenever
    the run's ledger reports the budget exceeded (and a spill directory
    is configured), the tail is flushed to a pickle-framed spill file.
    The spill format is **columnar**: a piece with a usable column view
    pickles as one ``('c', num_rows, columns)`` frame — one tuple of
    column lists instead of one dict per row — and a ragged piece falls
    back to a ``('r', rows)`` row frame.  Iteration replays the spilled
    frames followed by the in-memory tail, preserving append order, so a
    buffer behaves exactly like the flow list it replaces.

    The buffer freezes on first read: the accumulate phase of a blocking
    operator is strictly before its emit phase, so appending after a read
    is a programming error, not a use case.
    """

    def __init__(
        self,
        ledger: ResidentLedger,
        owner: str,
        spill_dir: str | None = None,
    ):
        self._ledger = ledger
        self._owner = owner
        self._spill_dir = spill_dir
        self._memory: list[Batch] = []
        self._memory_rows = 0
        self._spill_path: str | None = None
        self._spilled_count = 0
        self._frozen = False
        self._closed = False

    def __len__(self) -> int:
        return self._spilled_count + self._memory_rows

    @property
    def spilled(self) -> bool:
        return self._spilled_count > 0

    def extend(self, rows: Batch | Sequence[Row]) -> None:
        if self._frozen:
            raise ExecutionError(
                f"buffer for {self._owner!r} is frozen (already being read)"
            )
        piece = Batch.from_rows(rows)
        if not piece:
            return
        if (
            self._spill_dir is not None
            and self._ledger.limit is not None
            and self._memory
            and self._ledger.current + piece.num_rows > self._ledger.limit
        ):
            # Shed what we already hold *before* admitting the new batch,
            # so the buffer itself never pushes the run past its budget.
            self._flush()
        self._memory.append(piece)
        self._memory_rows += piece.num_rows
        self._ledger.acquire(self._owner, piece.num_rows)
        if self._ledger.over_budget and self._spill_dir is not None:
            self._flush()

    def _flush(self) -> None:
        if not self._memory:
            return
        if self._spill_path is None:
            os.makedirs(self._spill_dir, exist_ok=True)
            fd, self._spill_path = tempfile.mkstemp(
                prefix=f".{self._owner.replace(os.sep, '_')}.",
                suffix=".spill",
                dir=self._spill_dir,
            )
            os.close(fd)
        with open(self._spill_path, "ab") as handle:
            for piece in self._memory:
                columns = piece.columns_or_none()
                if columns is not None:
                    frame = ("c", piece.num_rows, columns)
                else:
                    frame = ("r", piece.to_rows())
                pickle.dump(frame, handle, protocol=pickle.HIGHEST_PROTOCOL)
        flushed = self._memory_rows
        self._spilled_count += flushed
        self._ledger.release(self._owner, flushed)
        self._ledger.note_spill(flushed)
        self._memory = []
        self._memory_rows = 0

    def _pieces(self) -> Iterator[Batch]:
        """All stored pieces in append order (spilled first, then memory)."""
        self._frozen = True
        if self._spill_path is not None:
            with open(self._spill_path, "rb") as handle:
                while True:
                    try:
                        frame = pickle.load(handle)
                    except EOFError:
                        break
                    if frame[0] == "c":
                        yield Batch.from_columns(frame[2], frame[1])
                    else:
                        yield Batch.from_rows(frame[1])
        yield from self._memory

    def rows(self) -> Iterator[Row]:
        """All rows in append order (spilled frames first, then memory)."""
        for piece in self._pieces():
            yield from piece.rows()

    def batches(self, batch_size: int) -> Iterator[Batch]:
        """The stored pieces re-chunked to ``batch_size`` batches.

        Re-chunking concatenates and slices whole pieces (columnar when
        the layouts line up), never round-tripping through row dicts;
        pieces already at ``batch_size`` pass through untouched.
        """
        pending: list[Batch] = []
        held = 0
        for piece in self._pieces():
            pending.append(piece)
            held += piece.num_rows
            while held >= batch_size:
                merged = (
                    pending[0] if len(pending) == 1 else Batch.concat(pending)
                )
                if merged.num_rows == batch_size:
                    yield merged
                    pending = []
                    held = 0
                else:
                    yield merged.slice(0, batch_size)
                    rest = merged.slice(batch_size, merged.num_rows)
                    pending = [rest]
                    held = rest.num_rows
        if held:
            yield pending[0] if len(pending) == 1 else Batch.concat(pending)

    def close(self) -> None:
        """Release memory accounting and delete the spill file.

        Idempotent, and guaranteed to run for engine-owned buffers: the
        streaming run closes every buffer it created in a ``finally``
        (shielded per buffer, so one failing close cannot leak another
        buffer's spill file).  Direct users get the same guarantee from
        the context-manager form, and :meth:`__del__` is a last-resort
        net for buffers dropped without either.
        """
        if self._closed:
            return
        self._closed = True
        self._ledger.release(self._owner, self._memory_rows)
        self._memory = []
        self._memory_rows = 0
        if self._spill_path is not None:
            try:
                os.remove(self._spill_path)
            except OSError:
                pass
            self._spill_path = None

    def __enter__(self) -> "SpillableRowBuffer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Interpreter-shutdown safety: attributes may not exist if
        # __init__ itself failed part-way.
        if getattr(self, "_closed", True):
            return
        try:
            self.close()
        except Exception:
            pass


@dataclass
class StreamingMetrics:
    """What one streaming run measured about itself."""

    batch_size: int
    max_resident_rows: int | None
    peak_resident_rows: int = 0
    spilled_rows: int = 0
    #: Batches processed per (component) activity id.
    batches_by_activity: dict[str, int] = field(default_factory=dict)

    @property
    def within_budget(self) -> bool:
        return (
            self.max_resident_rows is None
            or self.peak_resident_rows <= self.max_resident_rows
        )


def iter_batches(
    rows: Batch | Sequence[Row], batch_size: int
) -> Iterator[Batch]:
    """``rows`` (a :class:`Batch` or row sequence) chunked into batches
    of at most ``batch_size`` rows.  Always yields :class:`Batch`."""
    batch = rows if isinstance(rows, Batch) else Batch.from_rows(rows)
    for start in range(0, batch.num_rows, batch_size):
        yield batch.slice(start, start + batch_size)


def rebatch(
    rows: Batch | Iterable[Row], batch_size: int
) -> Iterator[Batch]:
    """Re-chunk an arbitrary row iterable (or a :class:`Batch`) into
    :class:`Batch` chunks of at most ``batch_size`` rows."""
    if isinstance(rows, Batch):
        yield from iter_batches(rows, batch_size)
        return
    chunk: list[Row] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_size:
            yield Batch.from_rows(chunk)
            chunk = []
    if chunk:
        yield Batch.from_rows(chunk)
