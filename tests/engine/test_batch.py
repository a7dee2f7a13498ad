"""The public :class:`Batch` type, chunking helpers, and columnar spill.

Covers the API-surface contract of the columnar redesign: dual row/column
storage with lazy conversion both ways, the ``iter_batches`` / ``rebatch``
helpers that accept either representation and always yield ``Batch``,
and the pickle-framed columnar spill format round-trip.
"""

import pytest

from repro.engine import (
    Batch,
    ExecutionBudget,
    Executor,
    ResidentLedger,
    SpillableRowBuffer,
    iter_batches,
    rebatch,
)
from repro.exceptions import ExecutionError


ROWS = [{"A": i, "B": str(i)} for i in range(5)]


class TestBatchConstruction:
    def test_from_rows_round_trip(self):
        batch = Batch.from_rows(ROWS)
        assert batch.num_rows == len(batch) == 5
        assert batch.to_rows() == ROWS
        assert list(batch.rows()) == ROWS
        assert list(batch) == ROWS

    def test_from_rows_keeps_row_objects(self):
        batch = Batch.from_rows(ROWS)
        assert batch.to_rows()[0] is ROWS[0]
        assert batch.row_at(3) is ROWS[3]

    def test_from_rows_on_a_batch_is_identity(self):
        batch = Batch.from_rows(ROWS)
        assert Batch.from_rows(batch) is batch

    def test_from_columns_round_trip(self):
        columns = {"A": [0, 1, 2], "B": ["x", "y", "z"]}
        batch = Batch.from_columns(columns, 3)
        assert batch.num_rows == 3
        assert batch.columns is columns  # not copied
        assert batch.to_rows() == [
            {"A": 0, "B": "x"},
            {"A": 1, "B": "y"},
            {"A": 2, "B": "z"},
        ]
        assert batch.row_at(1) == {"A": 1, "B": "y"}
        assert batch.schema == ("A", "B")

    def test_lazy_column_build_from_rows(self):
        batch = Batch.from_rows(ROWS)
        columns = batch.columns
        assert columns["A"] == [0, 1, 2, 3, 4]
        assert columns["B"] == ["0", "1", "2", "3", "4"]
        assert batch.columns_or_none() is columns

    def test_ragged_rows_have_no_columns(self):
        ragged = Batch.from_rows([{"A": 1}, {"A": 2, "B": 3}])
        assert ragged.columns_or_none() is None
        with pytest.raises(ExecutionError, match="differing attribute"):
            _ = ragged.columns
        # The row adapter still works bit-identically.
        assert ragged.to_rows() == [{"A": 1}, {"A": 2, "B": 3}]

    def test_missing_attribute_has_no_columns(self):
        ragged = Batch.from_rows([{"A": 1, "B": 2}, {"A": 3, "C": 4}])
        assert ragged.columns_or_none() is None

    def test_empty_and_bool(self):
        assert not Batch.from_rows([])
        assert Batch.from_rows([{"A": 1}])
        assert Batch.from_columns({}, 0).num_rows == 0


class TestBatchSlicing:
    def test_slice_and_select_columnar(self):
        batch = Batch.from_columns({"A": list(range(6))}, 6)
        assert batch.slice(2, 4).to_rows() == [{"A": 2}, {"A": 3}]
        assert batch.select([0, 5]).to_rows() == [{"A": 0}, {"A": 5}]

    def test_slice_row_backed(self):
        batch = Batch.from_rows(ROWS)
        assert batch.slice(1, 3).to_rows() == ROWS[1:3]

    def test_concat_mixed_layouts(self):
        left = Batch.from_columns({"A": [1, 2]}, 2)
        right = Batch.from_rows([{"A": 3}])
        merged = Batch.concat([left, right])
        assert merged.to_rows() == [{"A": 1}, {"A": 2}, {"A": 3}]


class TestChunkingHelpers:
    def test_iter_batches_accepts_rows_and_batches(self):
        for source in (ROWS, Batch.from_rows(ROWS)):
            chunks = list(iter_batches(source, 2))
            assert all(isinstance(chunk, Batch) for chunk in chunks)
            assert [chunk.num_rows for chunk in chunks] == [2, 2, 1]
            assert [
                row for chunk in chunks for row in chunk.to_rows()
            ] == ROWS

    def test_rebatch_accepts_iterables_and_batches(self):
        for source in (iter(ROWS), Batch.from_rows(ROWS)):
            chunks = list(rebatch(source, 3))
            assert all(isinstance(chunk, Batch) for chunk in chunks)
            assert [chunk.num_rows for chunk in chunks] == [3, 2]

    def test_unknown_attribute_still_raises(self):
        import repro.engine.batches as batches_module

        with pytest.raises(AttributeError):
            _ = batches_module.no_such_helper


class TestColumnarSpill:
    def _buffer(self, tmp_path, limit=4):
        ledger = ResidentLedger(limit=limit)
        return ledger, SpillableRowBuffer(
            ledger, "node", spill_dir=str(tmp_path)
        )

    def test_round_trip_preserves_order(self, tmp_path):
        _, buffer = self._buffer(tmp_path)
        rows = [{"A": i, "B": i * i} for i in range(20)]
        for start in range(0, 20, 5):
            buffer.extend(Batch.from_rows(rows[start : start + 5]))
        assert buffer.spilled
        assert list(buffer.rows()) == rows
        buffer.close()

    def test_spill_frames_are_columnar(self, tmp_path):
        import pickle

        _, buffer = self._buffer(tmp_path)
        clean = [{"A": i} for i in range(10)]
        for start in range(0, 10, 5):
            buffer.extend(Batch.from_rows(clean[start : start + 5]))
        buffer._flush()
        ragged = Batch.from_rows([{"A": 1}, {"B": 2}])
        buffer.extend(ragged)
        buffer._flush()
        kinds = []
        with open(buffer._spill_path, "rb") as handle:
            while True:
                try:
                    frame = pickle.load(handle)
                except EOFError:
                    break
                kinds.append(frame[0])
        assert "c" in kinds  # clean pieces spill as column blocks
        assert "r" in kinds  # ragged pieces fall back to row frames
        assert list(buffer.rows()) == clean + [{"A": 1}, {"B": 2}]
        buffer.close()

    def test_rebatching_yields_batches(self, tmp_path):
        _, buffer = self._buffer(tmp_path)
        rows = [{"A": i} for i in range(11)]
        for start in range(0, 11, 3):
            buffer.extend(rows[start : start + 3])
        chunks = list(buffer.batches(4))
        assert all(isinstance(chunk, Batch) for chunk in chunks)
        assert [chunk.num_rows for chunk in chunks] == [4, 4, 3]
        assert [
            row for chunk in chunks for row in chunk.to_rows()
        ] == rows
        buffer.close()

    def test_spill_under_budget_via_engine(self, tmp_path):
        # End-to-end: a streaming run with a tight resident-row budget
        # spills through the columnar format and still matches the
        # materializing run.
        from repro.workloads import generate_workload

        workload = generate_workload("small", seed=3)
        data = workload.make_data(3)
        executor = Executor(context=workload.context)
        base = executor.run(workload.workflow, data)
        streamed = executor.run(
            workload.workflow,
            data,
            budget=ExecutionBudget(
                batch_size=8,
                max_resident_rows=32,
                spill_dir=str(tmp_path),
            ),
        )
        assert streamed.targets == base.targets
        assert streamed.streaming is not None
        assert streamed.streaming.peak_resident_rows <= 32
