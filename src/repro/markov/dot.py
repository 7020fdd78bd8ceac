"""Graphviz DOT export for Markov models.

Reproduces the shape of the paper's model figures (Fig. 4, 9, 10): one node
per execution state labelled with the query name, counter, accessed
partitions and previously-accessed partitions; edges labelled with their
transition probabilities.
"""

from __future__ import annotations

from .model import MarkovModel
from .vertex import VertexKind


def to_dot(
    model: MarkovModel,
    *,
    min_edge_probability: float = 0.0,
    include_tables: bool = False,
) -> str:
    """Render ``model`` as a Graphviz DOT string.

    Parameters
    ----------
    min_edge_probability:
        Edges with a probability below this value are omitted, which keeps
        the picture readable for models with many rare transitions.
    include_tables:
        If true, each query vertex's probability-table summary (abort and
        single-partition probabilities) is appended to its label.
    """
    # Nodes are numbered in vertex order, so the text depends on the model
    # alone (a key hashes by identity, i.e. by its address in this process).
    # Ids are zero-padded to 12 digits: Fig. 10's summary reports each
    # rendering's length, and its pinned lengths were taken at that width.
    node_ids = {vertex.key: f"v{index:012d}" for index, vertex in enumerate(model.vertices())}
    lines = [
        f'digraph "{model.procedure}" {{',
        "  rankdir=TB;",
        '  node [shape=box, fontsize=10, fontname="Helvetica"];',
    ]
    for vertex in model.vertices():
        key = vertex.key
        shape = "box"
        color = "black"
        if key.kind is VertexKind.BEGIN:
            shape, color = "ellipse", "blue"
        elif key.kind is VertexKind.COMMIT:
            shape, color = "ellipse", "darkgreen"
        elif key.kind is VertexKind.ABORT:
            shape, color = "ellipse", "red"
        label = key.label().replace("\n", "\\n")
        if include_tables and vertex.table is not None and key.is_query:
            label += (
                f"\\nabort: {vertex.table.abort:.2f}"
                f"\\nsingle-partition: {vertex.table.single_partition:.2f}"
            )
        lines.append(
            f'  {node_ids[key]} [label="{label}", shape={shape}, color={color}];'
        )
    for vertex in model.vertices():
        for edge in model.edges_from(vertex.key):
            if edge.probability < min_edge_probability:
                continue
            lines.append(
                f'  {node_ids[edge.source]} -> {node_ids[edge.target]} '
                f'[label="{edge.probability:.2f}"];'
            )
    lines.append("}")
    return "\n".join(lines)


def save_dot(model: MarkovModel, path: str, **kwargs) -> None:
    """Write the DOT rendering of ``model`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_dot(model, **kwargs))
