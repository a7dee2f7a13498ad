"""The documented public API surface stays importable and coherent."""

import importlib

import pytest


TOP_LEVEL = [
    "Activity",
    "CompositeActivity",
    "ETLWorkflow",
    "NamingRegistry",
    "RecordSet",
    "RecordSetKind",
    "Schema",
    "WorkflowBuilder",
    "state_signature",
    "symbolically_equivalent",
    "CostModel",
    "ProcessedRowsCostModel",
    "LinearCostModel",
    "estimate",
    "HSConfig",
    "OptimizationResult",
    "exhaustive_search",
    "heuristic_search",
    "greedy_search",
    "annealing_search",
    "optimize",
    "ReproError",
]


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_top_level_exports(name):
    import repro

    assert hasattr(repro, name), name
    assert name in repro.__all__


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.core.transitions",
        "repro.core.cost",
        "repro.core.search",
        "repro.core.impact",
        "repro.core.lint",
        "repro.core.builder",
        "repro.templates",
        "repro.templates.catalog",
        "repro.engine",
        "repro.engine.tracing",
        "repro.workloads",
        "repro.experiments",
        "repro.io",
        "repro.cli",
    ],
)
def test_submodules_import(module):
    imported = importlib.import_module(module)
    assert imported.__doc__, f"{module} lacks a module docstring"


def test_all_lists_are_accurate():
    """Every name in a package's __all__ actually exists."""
    for module_name in (
        "repro",
        "repro.core",
        "repro.core.transitions",
        "repro.core.cost",
        "repro.core.search",
        "repro.engine",
        "repro.templates",
        "repro.workloads",
        "repro.experiments",
        "repro.io",
    ):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
