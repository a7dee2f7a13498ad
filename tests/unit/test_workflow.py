"""Unit tests for the workflow graph: structure, propagation, local groups."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.activity import Activity
from repro.core.recordset import RecordSet, RecordSetKind
from repro.core.schema import Schema
from repro.core.workflow import ETLWorkflow
from repro.exceptions import SchemaError, WorkflowError
from repro.templates import builtin as t
from repro.workloads import fig1_workflow, generate_workload


def source(node_id="1", name="S", attrs=("KEY", "V1"), cardinality=100.0):
    return RecordSet(node_id, name, Schema(attrs), RecordSetKind.SOURCE, cardinality)


def target(node_id="9", name="DW", attrs=("KEY", "V1")):
    return RecordSet(node_id, name, Schema(attrs), RecordSetKind.TARGET)


def filter_activity(node_id="2", attr="V1"):
    return Activity(node_id, t.NOT_NULL, {"attr": attr}, selectivity=0.9)


def linear_workflow():
    """source -> NN -> target"""
    wf = ETLWorkflow()
    src = wf.add_node(source())
    nn = wf.add_node(filter_activity())
    dst = wf.add_node(target())
    wf.add_edge(src, nn)
    wf.add_edge(nn, dst)
    return wf, src, nn, dst


class TestConstruction:
    def test_add_duplicate_node_rejected(self):
        wf = ETLWorkflow()
        node = source()
        wf.add_node(node)
        with pytest.raises(WorkflowError, match="already in workflow"):
            wf.add_node(node)

    def test_add_duplicate_id_rejected(self):
        wf = ETLWorkflow()
        wf.add_node(source("1", "A"))
        with pytest.raises(WorkflowError, match="duplicate node id"):
            wf.add_node(source("1", "B"))

    def test_add_edge_unknown_node(self):
        wf = ETLWorkflow()
        src = wf.add_node(source())
        with pytest.raises(WorkflowError, match="not in workflow"):
            wf.add_edge(src, filter_activity())

    def test_add_edge_twice_rejected(self):
        wf, src, nn, _ = linear_workflow()
        with pytest.raises(WorkflowError, match="already exists"):
            wf.add_edge(src, nn)

    def test_bad_port_rejected(self):
        wf = ETLWorkflow()
        src = wf.add_node(source())
        nn = wf.add_node(filter_activity())
        with pytest.raises(WorkflowError, match="port"):
            wf.add_edge(src, nn, port=2)

    @pytest.mark.parametrize("port", [True, False, 1.0, 0.0, "1"])
    def test_port_must_be_an_int(self, port):
        # True == 1 and 1.0 == 1, but they would render as "#True" and
        # "#1.0" in the fingerprint and round-trip as true/1.0 in JSON.
        wf = ETLWorkflow()
        src = wf.add_node(source())
        nn = wf.add_node(filter_activity())
        with pytest.raises(WorkflowError, match=f"got {port!r}$"):
            wf.add_edge(src, nn, port=port)
        assert not wf.has_edge(src, nn)

    def test_unhashable_is_not_a_node(self):
        wf, src, *_ = linear_workflow()
        assert [] not in wf
        with pytest.raises(WorkflowError, match="not in workflow"):
            wf.add_edge([], src)

    def test_non_node_rejected(self):
        with pytest.raises(WorkflowError, match="not a workflow node"):
            ETLWorkflow().add_node("not-a-node")

    def test_node_by_id(self):
        wf, _, nn, _ = linear_workflow()
        assert wf.node_by_id("2") is nn
        with pytest.raises(WorkflowError):
            wf.node_by_id("404")

    def test_removed_node_leaves_the_id_index(self):
        wf, src, nn, dst = linear_workflow()
        wf.remove_node(nn)
        with pytest.raises(WorkflowError, match="no node with id '2'"):
            wf.node_by_id(nn.id)
        assert wf.downstream(src) == set()
        assert wf.upstream(dst) == set()
        assert list(wf.edges()) == []


class TestValidate:
    def test_linear_workflow_is_valid(self):
        wf, *_ = linear_workflow()
        wf.validate()
        assert wf.is_valid()

    def test_empty_workflow_invalid(self):
        with pytest.raises(WorkflowError, match="empty"):
            ETLWorkflow().validate()

    def test_activity_without_consumer(self):
        wf = ETLWorkflow()
        src = wf.add_node(source())
        nn = wf.add_node(filter_activity())
        wf.add_edge(src, nn)
        with pytest.raises(WorkflowError, match="no consumer"):
            wf.validate()

    def test_activity_without_provider(self):
        wf = ETLWorkflow()
        nn = wf.add_node(filter_activity())
        dst = wf.add_node(target())
        wf.add_edge(nn, dst)
        with pytest.raises(WorkflowError, match="arity 1 but 0"):
            wf.validate()

    def test_binary_needs_two_providers(self):
        wf = ETLWorkflow()
        src = wf.add_node(source())
        union = wf.add_node(Activity("5", t.UNION, {}))
        dst = wf.add_node(target())
        wf.add_edge(src, union, port=0)
        wf.add_edge(union, dst)
        with pytest.raises(WorkflowError, match="arity 2 but 1"):
            wf.validate()

    def test_binary_port_collision(self):
        wf = ETLWorkflow()
        s1 = wf.add_node(source("1", "A"))
        s2 = wf.add_node(source("2", "B"))
        union = wf.add_node(Activity("5", t.UNION, {}))
        dst = wf.add_node(target())
        wf.add_edge(s1, union, port=0)
        wf.add_edge(s2, union, port=0)
        wf.add_edge(union, dst)
        with pytest.raises(WorkflowError, match="ports"):
            wf.validate()

    def test_source_with_provider_invalid(self):
        wf = ETLWorkflow()
        s1 = wf.add_node(source("1", "A"))
        s2 = wf.add_node(source("2", "B"))
        wf.add_edge(s1, s2)
        with pytest.raises(WorkflowError):
            wf.validate()

    def test_cycle_detected(self):
        wf = ETLWorkflow()
        a = wf.add_node(filter_activity("1"))
        b = wf.add_node(filter_activity("2"))
        wf.add_edge(a, b)
        wf.add_edge(b, a)
        with pytest.raises(WorkflowError, match="cycle"):
            wf.validate()

    def test_target_with_consumer_invalid(self):
        wf = ETLWorkflow()
        src = wf.add_node(source())
        dst = wf.add_node(target("8"))
        other = wf.add_node(filter_activity("3"))
        dst2 = wf.add_node(target("9", "DW2"))
        wf.add_edge(src, dst)
        wf.add_edge(dst, other)
        wf.add_edge(other, dst2)
        with pytest.raises(WorkflowError, match="has a consumer"):
            wf.validate()


class TestPropagation:
    def test_linear_propagation(self):
        wf, src, nn, dst = linear_workflow()
        derived = wf.propagate_schemas()
        assert derived[src].output == Schema(["KEY", "V1"])
        assert derived[nn].inputs == (Schema(["KEY", "V1"]),)
        assert derived[dst].output == Schema(["KEY", "V1"])

    def test_functionality_violation_detected(self):
        wf = ETLWorkflow()
        src = wf.add_node(source(attrs=("KEY",)))
        nn = wf.add_node(filter_activity(attr="GHOST"))
        dst = wf.add_node(target(attrs=("KEY",)))
        wf.add_edge(src, nn)
        wf.add_edge(nn, dst)
        with pytest.raises(SchemaError, match="missing"):
            wf.propagate_schemas()
        assert not wf.is_valid()

    def test_target_schema_mismatch_detected(self):
        wf = ETLWorkflow()
        src = wf.add_node(source(attrs=("KEY", "V1")))
        nn = wf.add_node(filter_activity())
        dst = wf.add_node(target(attrs=("KEY", "V1", "EXTRA")))
        wf.add_edge(src, nn)
        wf.add_edge(nn, dst)
        with pytest.raises(SchemaError, match="declared"):
            wf.propagate_schemas()

    def test_generated_attribute_appears_downstream(self):
        wf = ETLWorkflow()
        src = wf.add_node(source(attrs=("KEY", "V1")))
        convert = wf.add_node(
            Activity(
                "2",
                t.FUNCTION_APPLY,
                {"function": "scale_double", "inputs": ("V1",), "output": "W1"},
            )
        )
        dst = wf.add_node(target(attrs=("KEY", "W1")))
        wf.add_edge(src, convert)
        wf.add_edge(convert, dst)
        derived = wf.propagate_schemas()
        assert derived[convert].output.attrs == ("KEY", "W1")


class TestTopology:
    def test_topological_order_is_deterministic(self):
        wf, src, nn, dst = linear_workflow()
        assert wf.topological_order() == [src, nn, dst]
        assert wf.topological_order() == [src, nn, dst]  # cached path

    def test_cache_invalidation_on_mutation(self):
        wf, src, nn, dst = linear_workflow()
        wf.topological_order()
        extra = wf.add_node(filter_activity("3", attr="KEY"))
        wf.remove_edge(nn, dst)
        wf.add_edge(nn, extra)
        wf.add_edge(extra, dst)
        assert wf.topological_order() == [src, nn, extra, dst]

    def test_copy_shares_nodes_not_structure(self):
        wf, src, nn, dst = linear_workflow()
        dup = wf.copy()
        assert nn in dup
        dup.remove_edge(nn, dst)
        assert wf.has_edge(nn, dst)
        assert not dup.has_edge(nn, dst)

    def test_sources_and_targets(self):
        wf, src, _, dst = linear_workflow()
        assert wf.sources() == [src]
        assert wf.targets() == [dst]

    def test_downstream(self):
        wf, src, nn, dst = linear_workflow()
        assert wf.downstream(src) == {nn, dst}
        assert wf.downstream(dst) == set()

    def test_len_and_contains(self):
        wf, src, *_ = linear_workflow()
        assert len(wf) == 3
        assert src in wf


def _closure(start, neighbours):
    """Transitive closure of ``neighbours`` from ``start``, by BFS."""
    seen, frontier = set(), list(neighbours(start))
    while frontier:
        node = frontier.pop(0)
        if node not in seen:
            seen.add(node)
            frontier.extend(neighbours(node))
    return seen


GRAPHS = [
    pytest.param(lambda: fig1_workflow().workflow, id="fig1"),
    *(
        pytest.param(
            lambda seed=seed: generate_workload("small", seed=seed).workflow,
            id=f"small-{seed}",
        )
        for seed in range(4)
    ),
    pytest.param(
        lambda: generate_workload("medium", seed=0).workflow, id="medium-0"
    ),
]


class TestGraphQueries:
    @pytest.mark.parametrize("build", GRAPHS)
    def test_reach_is_the_closure_of_the_adjacency(self, build):
        wf = build()
        for node in wf.nodes():
            assert wf.downstream(node) == _closure(node, wf.consumers)
            assert wf.upstream(node) == _closure(node, wf.providers)

    @pytest.mark.parametrize("build", GRAPHS)
    def test_edges_match_the_adjacency(self, build):
        wf = build()
        edges = list(wf.edges())
        assert len(edges) == len(set(edges))
        assert set(edges) == {
            (p, c) for p in wf.nodes() for c in wf.consumers(p)
        }
        assert all(wf.has_edge(p, c) for p, c in edges)
        # Providers come in node insertion order.
        order = {node: index for index, node in enumerate(wf.nodes())}
        ranks = [order[p] for p, _ in edges]
        assert ranks == sorted(ranks)


def test_no_graph_library_is_imported():
    """The package imports no third-party graph library at run time."""
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.serve.server, repro.engine\n"
        "import repro.io, repro.workloads, repro.core.lint\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


class TestLocalGroups:
    def test_fig1_groups(self, fig1):
        groups = [[a.id for a in g] for g in fig1.workflow.local_groups()]
        assert groups == [["3"], ["4", "5", "6"], ["8"]]

    def test_group_of(self, fig1):
        wf = fig1.workflow
        activity = wf.node_by_id("5")
        assert [a.id for a in wf.group_of(activity)] == ["4", "5", "6"]

    def test_group_of_binary_raises(self, fig1):
        wf = fig1.workflow
        union = wf.node_by_id("7")
        with pytest.raises(WorkflowError):
            wf.group_of(union)

    def test_linear_workflow_single_group(self):
        wf, _, nn, _ = linear_workflow()
        groups = wf.local_groups()
        assert len(groups) == 1
        assert groups[0] == [nn]
