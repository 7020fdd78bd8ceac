"""Transaction Markov models (the paper's Section 3)."""

from .builder import MarkovModelBuilder, build_models_from_trace, models_summary
from .dot import save_dot, to_dot
from .model import MarkovModel, PathStep
from .serialization import (
    load_models,
    model_from_dict,
    model_to_dict,
    models_from_dict,
    models_to_dict,
    save_models,
)
from .probability_table import ProbabilityTable
from .vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, Edge, Vertex, VertexKey, VertexKind

__all__ = [
    "MarkovModel",
    "model_to_dict",
    "model_from_dict",
    "models_to_dict",
    "models_from_dict",
    "save_models",
    "load_models",
    "PathStep",
    "MarkovModelBuilder",
    "build_models_from_trace",
    "models_summary",
    "ProbabilityTable",
    "Vertex",
    "VertexKey",
    "VertexKind",
    "Edge",
    "BEGIN_KEY",
    "COMMIT_KEY",
    "ABORT_KEY",
    "to_dot",
    "save_dot",
]
