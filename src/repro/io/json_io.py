"""JSON (de)serialization of ETL workflows.

A workflow serializes to a self-contained document: recordsets with their
schemas/kinds/cardinalities, activities with template name + parameters +
selectivity, and the port-annotated edge list.  Deserialization resolves
templates against a :class:`~repro.templates.TemplateLibrary` (the default
library unless one is supplied), so custom templates round-trip as long
as the reader registers them too.

Merged (composite) activities serialize as their component list; the
reader re-merges them, so MER packages survive a round-trip.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.activity import Activity, CompositeActivity
from repro.core.recordset import RecordSet, RecordSetKind
from repro.core.schema import Schema
from repro.core.workflow import ETLWorkflow, Node
from repro.exceptions import ReproError
from repro.templates.library import TemplateLibrary, default_library

__all__ = ["workflow_to_dict", "workflow_from_dict", "dumps", "loads", "save", "load"]

FORMAT_VERSION = 1


def _params_to_json(params: dict[str, Any]) -> dict[str, Any]:
    """Tuples become lists in JSON; record which keys to restore."""
    encoded: dict[str, Any] = {}
    tuple_keys: list[str] = []
    for key, value in params.items():
        if isinstance(value, tuple):
            encoded[key] = list(value)
            tuple_keys.append(key)
        else:
            encoded[key] = value
    if tuple_keys:
        encoded["__tuple_keys__"] = tuple_keys
    return encoded


def _params_from_json(encoded: dict[str, Any]) -> dict[str, Any]:
    params = dict(encoded)
    tuple_keys = params.pop("__tuple_keys__", [])
    for key in tuple_keys:
        params[key] = tuple(params[key])
    return params


def _activity_to_dict(activity: Activity) -> dict[str, Any]:
    if isinstance(activity, CompositeActivity):
        return {
            "type": "composite",
            "components": [_activity_to_dict(c) for c in activity.components],
        }
    return {
        "type": "activity",
        "id": activity.id,
        "template": activity.template.name,
        "params": _params_to_json(activity.params),
        "selectivity": activity.selectivity,
        "name": activity.name,
    }


def _activity_from_dict(
    data: dict[str, Any], library: TemplateLibrary
) -> Activity:
    if data["type"] == "composite":
        components = tuple(
            _activity_from_dict(c, library) for c in data["components"]
        )
        return CompositeActivity(components)
    return Activity(
        data["id"],
        library.get(data["template"]),
        _params_from_json(data["params"]),
        selectivity=data.get("selectivity", 1.0),
        name=data.get("name"),
    )


def workflow_to_dict(workflow: ETLWorkflow) -> dict[str, Any]:
    """A JSON-ready representation of the workflow."""
    nodes: list[dict[str, Any]] = []
    for node in workflow.topological_order():
        if isinstance(node, RecordSet):
            nodes.append(
                {
                    "type": "recordset",
                    "id": node.id,
                    "name": node.name,
                    "schema": list(node.schema),
                    "kind": node.kind.value,
                    "cardinality": node.cardinality,
                }
            )
        else:
            nodes.append(_activity_to_dict(node))
    edges = [
        {
            "provider": provider.id,
            "consumer": consumer.id,
            "port": workflow.edge_port(provider, consumer),
        }
        for provider, consumer in workflow.edges()
    ]
    edges.sort(key=lambda e: (e["consumer"], e["port"], e["provider"]))
    return {"format_version": FORMAT_VERSION, "nodes": nodes, "edges": edges}


def workflow_from_dict(
    data: dict[str, Any], library: TemplateLibrary | None = None
) -> ETLWorkflow:
    """Rebuild a workflow from :func:`workflow_to_dict` output."""
    workflow = _build_workflow(data, library)
    workflow.validate()
    workflow.propagate_schemas()
    return workflow


def _build_workflow(
    data: dict[str, Any], library: TemplateLibrary | None = None
) -> ETLWorkflow:
    """The document's nodes and edges, neither validated nor propagated."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(
            f"unsupported workflow format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    library = library if library is not None else default_library()
    workflow = ETLWorkflow()
    by_id: dict[str, Node] = {}
    for node_data in data["nodes"]:
        node: Node
        if node_data["type"] == "recordset":
            node = RecordSet(
                node_data["id"],
                node_data["name"],
                Schema(node_data["schema"]),
                RecordSetKind(node_data["kind"]),
                node_data.get("cardinality", 0.0),
            )
        else:
            node = _activity_from_dict(node_data, library)
        workflow.add_node(node)
        by_id[node.id] = node
    for edge in data["edges"]:
        workflow.add_edge(
            by_id[edge["provider"]], by_id[edge["consumer"]], port=edge["port"]
        )
    return workflow


def dumps(workflow: ETLWorkflow, indent: int | None = 2) -> str:
    """Serialize a workflow to a JSON string."""
    return json.dumps(workflow_to_dict(workflow), indent=indent)


def loads(text: str, library: TemplateLibrary | None = None) -> ETLWorkflow:
    """Deserialize a workflow from a JSON string."""
    return workflow_from_dict(json.loads(text), library)


def save(workflow: ETLWorkflow, path: str) -> None:
    """Write a workflow to a JSON file (atomically)."""
    from repro.io.atomic import atomic_write_text

    atomic_write_text(path, dumps(workflow))


def load(path: str, library: TemplateLibrary | None = None) -> ETLWorkflow:
    """Read a workflow from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read(), library)
