"""JSON (de)serialization of transaction Markov models.

The paper's deployment story (Fig. 6) trains the Markov models off-line from
a workload trace and ships them to every node in the cluster, where Houdini
uses them on-line.  That split needs a durable representation of a trained
model.  This module provides one: a plain-JSON document that captures the
graph structure and the visit counters.  Probabilities and probability
tables are *not* stored — they are derived data, and re-running the
processing phase on load is cheap, keeps the file format small, and
guarantees the loaded model is internally consistent.

The format is versioned so future changes stay detectable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from ..errors import ModelError
from ..types import PartitionSet, QueryType
from .model import MarkovModel
from .vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, VertexKey, VertexKind

#: Format version written into every document.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Vertex keys
# ----------------------------------------------------------------------
def vertex_key_to_dict(key: VertexKey) -> dict[str, Any]:
    """Encode a vertex key as a JSON-compatible dictionary."""
    return {
        "kind": key.kind.value,
        "name": key.name,
        "counter": key.counter,
        "partitions": list(key.partitions),
        "previous": list(key.previous),
    }


_SPECIAL_KEYS = {key.kind: key for key in (BEGIN_KEY, COMMIT_KEY, ABORT_KEY)}


def vertex_key_from_dict(data: Mapping[str, Any]) -> VertexKey:
    """Decode a vertex key produced by :func:`vertex_key_to_dict` — to the
    canonical object of that state (keys are hash-consed)."""
    try:
        kind = VertexKind(data["kind"])
    except (KeyError, ValueError) as exc:
        raise ModelError(f"invalid vertex kind in {data!r}") from exc
    if kind is not VertexKind.QUERY:
        return _SPECIAL_KEYS[kind]
    return VertexKey.query(
        data["name"],
        int(data["counter"]),
        PartitionSet.of(data.get("partitions", [])),
        PartitionSet.of(data.get("previous", [])),
    )


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
def model_to_dict(model: MarkovModel) -> dict[str, Any]:
    """Encode one model (graph structure + counters) as a dictionary."""
    vertices = []
    for vertex in model.vertices():
        entry: dict[str, Any] = {
            "key": vertex_key_to_dict(vertex.key),
            "hits": vertex.hits,
        }
        if vertex.query_type is not None:
            entry["query_type"] = vertex.query_type.value
        vertices.append(entry)
    edges = []
    for vertex in model.vertices():
        for edge in model.edges_from(vertex.key):
            edges.append(
                {
                    "source": vertex_key_to_dict(edge.source),
                    "target": vertex_key_to_dict(edge.target),
                    "hits": edge.hits,
                }
            )
    return {
        "format_version": FORMAT_VERSION,
        "procedure": model.procedure,
        "num_partitions": model.num_partitions,
        "transactions_observed": model.transactions_observed,
        "vertices": vertices,
        "edges": edges,
    }


def model_from_dict(data: Mapping[str, Any]) -> MarkovModel:
    """Rebuild a model from :func:`model_to_dict` output.

    Only the counters are stored, so the processing phase runs on the loaded
    model: it carries edge probabilities and probability tables and is ready
    for Houdini.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported Markov model format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    model = MarkovModel(data["procedure"], int(data["num_partitions"]))
    for entry in data.get("vertices", []):
        key = vertex_key_from_dict(entry["key"])
        query_type = None
        if "query_type" in entry:
            query_type = QueryType(entry["query_type"])
        vertex = model.add_placeholder(key, query_type)
        vertex.hits = int(entry.get("hits", 0))
    for entry in data.get("edges", []):
        source = vertex_key_from_dict(entry["source"])
        target = vertex_key_from_dict(entry["target"])
        hits = int(entry.get("hits", 0))
        edge = model._add_edge_visit(source, target, 0)
        edge.hits = hits
    model.transactions_observed = int(data.get("transactions_observed", 0))
    model.process()
    return model


# ----------------------------------------------------------------------
# Model collections (one file per application, keyed by procedure)
# ----------------------------------------------------------------------
def models_to_dict(models: Mapping[str, MarkovModel]) -> dict[str, Any]:
    """Encode a ``{procedure: model}`` mapping (the per-application bundle)."""
    return {
        "format_version": FORMAT_VERSION,
        "models": {name: model_to_dict(model) for name, model in sorted(models.items())},
    }


def models_from_dict(data: Mapping[str, Any]) -> dict[str, MarkovModel]:
    """Decode a bundle produced by :func:`models_to_dict`."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported Markov model bundle version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return {
        name: model_from_dict(entry) for name, entry in data.get("models", {}).items()
    }


def save_models(models: Mapping[str, MarkovModel], path: str | Path) -> Path:
    """Write a model bundle to ``path`` as JSON; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(models_to_dict(models), indent=2, sort_keys=True), encoding="utf-8"
    )
    return target


def load_models(path: str | Path) -> dict[str, MarkovModel]:
    """Load a model bundle previously written by :func:`save_models`."""
    text = Path(path).read_text(encoding="utf-8")
    return models_from_dict(json.loads(text))
