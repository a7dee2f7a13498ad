"""Fused columnar kernels vs the row-at-a-time operators.

One test per row-wise template kind plus the cross-cutting codegen
features (None-hoisting, scalar inlining, reject tracking, the
``REPRO_NO_COLUMNAR`` escape hatch): for every chain the streaming run
with fused kernels must be bit-identical — targets, stats, rejects, and
error messages — to both the materializing run and the streaming run
with the columnar path disabled.
"""

import pytest

from repro.core.activity import Activity
from repro.core.flags import set_columnar
from repro.core.recordset import RecordSet, RecordSetKind
from repro.core.schema import Schema
from repro.core.workflow import ETLWorkflow
from repro.engine import (
    EngineContext,
    ExecutionBudget,
    Executor,
    default_scalar_functions,
)
from repro.engine.columnar import FusedChainRunner, supports_columnar
from repro.exceptions import ExecutionError
from repro.templates import default_library


def chain_workflow(steps, schema, out_schema, cardinality=10):
    library = default_library()
    workflow = ETLWorkflow()
    source = RecordSet(
        "S",
        "S",
        Schema(schema),
        kind=RecordSetKind.SOURCE,
        cardinality=cardinality,
    )
    target = RecordSet(
        "T", "T", Schema(out_schema), kind=RecordSetKind.TARGET
    )
    workflow.add_node(source)
    workflow.add_node(target)
    previous = source
    for index, (name, params) in enumerate(steps):
        activity = Activity(
            f"a{index}", library.get(name), params, selectivity=0.5
        )
        workflow.add_node(activity)
        workflow.add_edge(previous, activity)
        previous = activity
    workflow.add_edge(previous, target)
    return workflow


def assert_paths_agree(
    steps,
    rows,
    schema,
    out_schema,
    context=None,
    batch_size=3,
):
    """Materializing == row-streaming == fused-columnar-streaming."""
    workflow = chain_workflow(steps, schema, out_schema, len(rows))
    executor = (
        Executor(context=context) if context is not None else Executor()
    )
    data = {"S": rows}
    budget = ExecutionBudget(batch_size=batch_size)

    base = executor.run(workflow, data, collect_rejects=True)
    previous = set_columnar(False)
    try:
        row_streamed = executor.run(
            workflow, data, collect_rejects=True, budget=budget
        )
    finally:
        set_columnar(previous)
    fused = executor.run(
        workflow, data, collect_rejects=True, budget=budget
    )

    assert fused.targets == row_streamed.targets == base.targets
    assert (
        fused.stats.rows_processed
        == row_streamed.stats.rows_processed
        == base.stats.rows_processed
    )
    assert (
        fused.stats.rows_output
        == row_streamed.stats.rows_output
        == base.stats.rows_output
    )
    assert fused.rejects == row_streamed.rejects == base.rejects
    return fused


class TestPerTemplateKernels:
    def test_selection_every_operator(self):
        rows = [{"A": value, "B": 1} for value in (3, None, 5, 7, 5, 0)]
        for op in ("<", "<=", ">", ">=", "==", "!="):
            assert_paths_agree(
                [("selection", {"attr": "A", "op": op, "value": 5})],
                rows,
                ("A", "B"),
                ("A", "B"),
            )

    def test_not_null(self):
        rows = [{"A": 1}, {"A": None}, {"A": 0}, {"A": None}]
        assert_paths_agree(
            [("not_null", {"attr": "A"})], rows, ("A",), ("A",)
        )

    def test_range_check(self):
        rows = [{"A": value} for value in (-1, 0, 5, 10, 11, None)]
        assert_paths_agree(
            [("range_check", {"attr": "A", "low": 0, "high": 10})],
            rows,
            ("A",),
            ("A",),
        )

    def test_pk_check_single_key_scalar_set(self):
        # All-1-tuple references take the scalar-set kernel.
        context = EngineContext(references={"ref": frozenset({(2,), (4,)})})
        rows = [{"K": value} for value in (1, 2, 3, 4, 5)]
        result = assert_paths_agree(
            [("pk_check", {"key_attrs": ("K",), "reference": "ref"})],
            rows,
            ("K",),
            ("K",),
            context=context,
        )
        assert result.targets["T"] == [{"K": 1}, {"K": 3}, {"K": 5}]

    def test_pk_check_composite_key(self):
        context = EngineContext(references={"ref": frozenset({(1, 2)})})
        rows = [{"K": 1, "L": 2}, {"K": 1, "L": 3}, {"K": 2, "L": 2}]
        result = assert_paths_agree(
            [("pk_check", {"key_attrs": ("K", "L"), "reference": "ref"})],
            rows,
            ("K", "L"),
            ("K", "L"),
            context=context,
        )
        assert result.targets["T"] == [{"K": 1, "L": 3}, {"K": 2, "L": 2}]

    def test_projection(self):
        rows = [{"A": i, "B": i * 2, "C": -i} for i in range(5)]
        assert_paths_agree(
            [("projection", {"attrs": ("B",)})],
            rows,
            ("A", "B", "C"),
            ("A", "C"),
        )

    @pytest.mark.parametrize(
        "function",
        ["scale_double", "shift_up", "negate", "dollar_to_euro"],
    )
    def test_function_apply_inlined_scalars(self, function):
        # These four have pure-expression inline forms in the kernel.
        context = EngineContext(scalar_functions=default_scalar_functions())
        rows = [{"A": value} for value in (1, None, 2.5, -3)]
        assert_paths_agree(
            [
                (
                    "function_apply",
                    {"function": function, "inputs": ("A",), "output": "A"},
                )
            ],
            rows,
            ("A",),
            ("A",),
            context=context,
        )

    def test_function_apply_non_inlined_scalar(self):
        # date_us_to_eu is multi-statement: applied via the bound callable.
        context = EngineContext(scalar_functions=default_scalar_functions())
        rows = [{"D": "12/31/2004"}, {"D": None}, {"D": "01/02/2003"}]
        assert_paths_agree(
            [
                (
                    "function_apply",
                    {
                        "function": "date_us_to_eu",
                        "inputs": ("D",),
                        "output": "D",
                    },
                )
            ],
            rows,
            ("D",),
            ("D",),
            context=context,
        )

    def test_function_apply_new_output_drops_inputs(self):
        context = EngineContext(scalar_functions=default_scalar_functions())
        rows = [{"A": 1, "B": 2}, {"A": 3, "B": 4}]
        result = assert_paths_agree(
            [
                (
                    "function_apply",
                    {"function": "negate", "inputs": ("A",), "output": "N"},
                )
            ],
            rows,
            ("A", "B"),
            ("B", "N"),
            context=context,
        )
        assert result.targets["T"] == [{"B": 2, "N": -1}, {"B": 4, "N": -3}]

    def test_surrogate_key_mapping_and_callable(self):
        for table in ({10: 100, 20: 200, 30: 300}, lambda key: key * 10):
            context = EngineContext(lookups={"dim": table})
            rows = [{"K": 10, "X": 1}, {"K": 20, "X": 2}, {"K": 30, "X": 3}]
            result = assert_paths_agree(
                [
                    (
                        "surrogate_key",
                        {"lookup": "dim", "key_attr": "K", "skey_attr": "SK"},
                    )
                ],
                rows,
                ("K", "X"),
                ("X", "SK"),
                context=context,
            )
            assert [row["SK"] for row in result.targets["T"]] == [
                100,
                200,
                300,
            ]

    def test_surrogate_key_missing_key_same_error(self):
        context = EngineContext(lookups={"dim": {10: 100}})
        steps = [
            ("surrogate_key", {"lookup": "dim", "key_attr": "K", "skey_attr": "SK"})
        ]
        workflow = chain_workflow(steps, ("K",), ("SK",), 2)
        executor = Executor(context=context)
        data = {"S": [{"K": 10}, {"K": 99}]}
        messages = []
        for budget in (None, ExecutionBudget(batch_size=2)):
            with pytest.raises(ExecutionError) as excinfo:
                executor.run(workflow, data, budget=budget)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "lookup 'dim' has no surrogate for key 99" in messages[0]


class TestCodegenFeatures:
    def test_none_check_hoisting_chain(self):
        # not_null proves A non-null; the later selection and range_check
        # on A drop their None guards — results must not change.
        rows = [{"A": value} for value in (None, 1, 5, 9, None, 12, 7)]
        assert_paths_agree(
            [
                ("not_null", {"attr": "A"}),
                ("selection", {"attr": "A", "op": ">", "value": 2}),
                ("range_check", {"attr": "A", "low": 0, "high": 10}),
                ("not_null", {"attr": "A"}),  # free count-only stage
            ],
            rows,
            ("A",),
            ("A",),
        )

    def test_function_apply_invalidates_hoisting(self):
        # negate(None) is None: the applied column must regain its None
        # guard after the function even though not_null ran before it.
        context = EngineContext(scalar_functions=default_scalar_functions())
        rows = [{"A": 1, "B": None}, {"A": 2, "B": 2}, {"A": None, "B": 3}]
        assert_paths_agree(
            [
                ("not_null", {"attr": "B"}),
                (
                    "function_apply",
                    {"function": "negate", "inputs": ("B",), "output": "B"},
                ),
                ("selection", {"attr": "B", "op": "<", "value": 0}),
            ],
            rows,
            ("A", "B"),
            ("A", "B"),
            context=context,
        )

    def test_long_mixed_chain_with_rejects(self):
        context = EngineContext(
            scalar_functions=default_scalar_functions(),
            lookups={"dim": {i: i + 1000 for i in range(50)}},
            references={"ref": frozenset({(2,), (44,)})},
        )
        rows = [
            {"K": i, "A": (None if i % 7 == 0 else i), "B": i % 5}
            for i in range(40)
        ]
        assert_paths_agree(
            [
                ("not_null", {"attr": "A"}),
                ("selection", {"attr": "A", "op": ">", "value": 3}),
                ("pk_check", {"key_attrs": ("K",), "reference": "ref"}),
                (
                    "function_apply",
                    {"function": "shift_up", "inputs": ("A",), "output": "A"},
                ),
                ("range_check", {"attr": "A", "low": 1000, "high": 1035}),
                (
                    "surrogate_key",
                    {"lookup": "dim", "key_attr": "K", "skey_attr": "SK"},
                ),
                ("projection", {"attrs": ("B",)}),
            ],
            rows,
            ("K", "A", "B"),
            ("A", "SK"),
            context=context,
            batch_size=7,
        )

    def test_cached_kernels_pin_resolved_context_objects(self):
        # The global program cache keys on id() of the resolved context
        # objects, so every compiled kernel must keep those objects
        # alive — otherwise a dead reference set's (or scalar's) id can
        # be recycled by a different object that then wrongly hits the
        # stale entry.  The pk_check single-key unwrap and the inlined
        # scalars bind *derived* objects, so they pin the originals.
        from repro.engine import Batch, default_registry

        library = default_library()
        reference = frozenset({(1,), (2,)})
        scalar = default_scalar_functions()["negate"]
        context = EngineContext(
            references={"ref": reference},
            scalar_functions={"negate": scalar},
        )
        runner = FusedChainRunner(context, default_registry())
        runner.add(
            (
                Activity(
                    "a0",
                    library.get("pk_check"),
                    {"key_attrs": ["K"], "reference": "ref"},
                    selectivity=0.5,
                ),
                Activity(
                    "a1",
                    library.get("function_apply"),
                    {"function": "negate", "inputs": ["K"], "output": "K"},
                    selectivity=1.0,
                ),
            )
        )
        out, _, _ = runner.run_batch(Batch.from_columns({"K": [1, 3]}, 2))
        assert out.to_rows() == [{"K": -3}]
        kernel = runner._programs[("K",)]
        pinned = list(kernel.__globals__.values())
        assert any(obj is reference for obj in pinned)
        assert any(obj is scalar for obj in pinned)

    def test_ragged_batches_fall_back_to_rows(self):
        # Rows with differing attribute sets cannot build columns; the
        # runner must fall back per batch without changing results.
        from repro.engine import Batch, default_registry

        library = default_library()
        runner = FusedChainRunner(EngineContext(), default_registry())
        activity = Activity(
            "a0",
            library.get("not_null"),
            {"attr": "A"},
            selectivity=0.5,
        )
        runner.add((activity,))

        ragged = Batch.from_rows([{"A": 1}, {"A": 2, "B": 3}])
        out, counts, rejects = runner.run_batch(ragged)
        assert out.to_rows() == [{"A": 1}, {"A": 2, "B": 3}]
        assert counts == [(2, 2)]

    def test_supports_columnar_excludes_custom_operators(self):
        from repro.engine import default_registry

        library = default_library()
        activity = Activity(
            "a0",
            library.get("not_null"),
            {"attr": "A"},
            selectivity=0.5,
        )
        registry = default_registry()
        assert supports_columnar(activity, registry)
        registry.register(
            "not_null",
            lambda act, inputs, ctx: list(inputs[0]),
            replace=True,
        )
        assert not supports_columnar(activity, registry)

    def test_escape_hatch_disables_fusion(self, monkeypatch):
        # REPRO_NO_COLUMNAR routes everything through row operators: the
        # chain runner never compiles a kernel.
        calls = []
        from repro.engine import columnar

        original = columnar._compile_chain

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(columnar, "_compile_chain", counting)
        monkeypatch.setattr(columnar, "_PROGRAM_CACHE", {})
        rows = [{"A": i} for i in range(6)]
        steps = [("selection", {"attr": "A", "op": ">", "value": 2})]
        workflow = chain_workflow(steps, ("A",), ("A",), len(rows))
        executor = Executor()
        previous = set_columnar(False)
        try:
            executor.run(
                workflow,
                {"S": rows},
                budget=ExecutionBudget(batch_size=2),
            )
        finally:
            set_columnar(previous)
        assert not calls
        executor.run(
            workflow, {"S": rows}, budget=ExecutionBudget(batch_size=2)
        )
        assert calls


def _odd_a_template():
    """A custom row-wise FILTER: keeps rows whose ``A`` is odd."""
    from repro.templates.base import (
        ActivityKind,
        ActivityTemplate,
        CostShape,
        SchemaPlan,
    )

    return ActivityTemplate(
        name="odd_a",
        kind=ActivityKind.FILTER,
        arity=1,
        cost_shape=CostShape.LINEAR,
        param_names=(),
        planner=lambda params: SchemaPlan(
            functionality_per_input=(Schema(("A",)),),
            generated=Schema(()),
            projected_out=Schema(()),
        ),
        doc="keep rows with an odd A",
    )


def _custom_between_builtins():
    """σ(A>2) → f(B) → custom odd_a → NN(B) → f(A), with the custom
    operator registered beside the builtins."""
    from repro.engine import default_registry

    library = default_library()
    stages = [
        (library.get("selection"), {"attr": "A", "op": ">", "value": 2}),
        (
            library.get("function_apply"),
            {"function": "negate", "inputs": ["B"], "output": "B"},
        ),
        (_odd_a_template(), {}),
        (library.get("not_null"), {"attr": "B"}),
        (
            library.get("function_apply"),
            {"function": "scale_double", "inputs": ["A"], "output": "A"},
        ),
    ]
    rows = [
        {"A": i, "B": None if i % 5 == 0 else i * 10, "K": i}
        for i in range(40)
    ]
    workflow = ETLWorkflow()
    source = RecordSet(
        "S", "S", Schema(("A", "B", "K")), kind=RecordSetKind.SOURCE,
        cardinality=len(rows),
    )
    target = RecordSet(
        "T", "T", Schema(("A", "B", "K")), kind=RecordSetKind.TARGET
    )
    workflow.add_node(source)
    workflow.add_node(target)
    previous = source
    for index, (template, params) in enumerate(stages):
        activity = Activity(f"a{index}", template, params, selectivity=0.5)
        workflow.add_node(activity)
        workflow.add_edge(previous, activity)
        previous = activity
    workflow.add_edge(previous, target)
    registry = default_registry()
    registry.register(
        "odd_a",
        lambda activity, inputs, ctx: [
            row for row in inputs[0] if row["A"] % 2 == 1
        ],
    )
    return workflow, {"S": rows}, Executor(registry=registry)


class TestOneChainRunner:
    """Every batched path runs row-wise chains through FusedChainRunner:
    a custom template falls back to the row operators on its own, and
    its builtin neighbours still compile."""

    def _compiled_stretches(self, monkeypatch, run):
        from repro.engine import columnar

        compiled = set()
        original = columnar._compile_chain

        def probe(stages, *args):
            compiled.add(tuple(stage.id for stage in stages))
            return original(stages, *args)

        monkeypatch.setattr(columnar, "_compile_chain", probe)
        monkeypatch.setattr(columnar, "_PROGRAM_CACHE", {})
        return run(), compiled

    def _assert_matches(self, base, result):
        assert result.targets == base.targets
        assert result.stats.rows_processed == base.stats.rows_processed
        assert result.stats.rows_output == base.stats.rows_output
        assert result.rejects == base.rejects

    @pytest.mark.parametrize("collect_rejects", [False, True])
    def test_streaming(self, monkeypatch, collect_rejects):
        workflow, data, executor = _custom_between_builtins()
        base = executor.run(workflow, data, collect_rejects=collect_rejects)
        result, compiled = self._compiled_stretches(
            monkeypatch,
            lambda: executor.run(
                workflow,
                data,
                collect_rejects=collect_rejects,
                budget=ExecutionBudget(batch_size=4),
            ),
        )
        self._assert_matches(base, result)
        assert compiled == {("a0", "a1"), ("a3", "a4")}

    def test_partitioned_shards(self, monkeypatch):
        from repro.engine.partition import execute_partitioned

        workflow, data, executor = _custom_between_builtins()
        base = executor.run(workflow, data, collect_rejects=True)
        result, compiled = self._compiled_stretches(
            monkeypatch,
            lambda: execute_partitioned(
                executor,
                workflow,
                data,
                ExecutionBudget(batch_size=4),
                3,
                collect_rejects=True,
                jobs=1,
            ),
        )
        self._assert_matches(base, result)
        assert compiled == {("a0", "a1"), ("a3", "a4")}

    def test_batch_granular_checkpoint(self, monkeypatch):
        from repro.engine import CheckpointStore

        workflow, data, executor = _custom_between_builtins()
        base = executor.run(workflow, data)
        result, compiled = self._compiled_stretches(
            monkeypatch,
            lambda: executor.run(
                workflow,
                data,
                budget=ExecutionBudget(batch_size=4),
                checkpoint=CheckpointStore(),
            ),
        )
        self._assert_matches(base, result)
        assert compiled == {("a0",), ("a1",), ("a3",), ("a4",)}
