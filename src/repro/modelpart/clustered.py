"""Partitioned Markov models and their run-time selector (paper §5.3, Fig. 9).

A :class:`ClusteredModels` bundle holds, for one stored procedure, the
feature set chosen by feed-forward selection, the fitted clusterer, the
decision tree that routes new requests to a cluster, and one Markov model per
cluster.  :class:`PartitionedModelProvider` exposes the whole application's
bundles through the same :class:`~repro.houdini.providers.ModelProvider`
interface the estimator already uses, so Houdini is oblivious to whether it
is running with global or partitioned models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..markov.model import MarkovModel
from ..ml.decision_tree import DecisionTreeClassifier
from ..types import ProcedureRequest
from .features import FeatureDefinition, FeatureExtractor, encode_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ml.em import GaussianMixtureModel


@dataclass
class ClusteredModels:
    """Per-procedure partitioned models plus their selection machinery."""

    procedure: str
    extractor: FeatureExtractor
    selected_features: tuple[FeatureDefinition, ...]
    clusterer: GaussianMixtureModel | None
    decision_tree: DecisionTreeClassifier | None
    models: dict[int, MarkovModel] = field(default_factory=dict)
    #: Fallback used when a request routes to a cluster with no model (or
    #: when no clustering was possible at all).
    fallback: MarkovModel | None = None

    # ------------------------------------------------------------------
    def cluster_of(self, parameters: Sequence) -> int:
        """Which cluster a new request's parameters belong to."""
        if not self.selected_features:
            return 0
        vector = self.extractor.vector(parameters, self.selected_features)
        if self.decision_tree is not None:
            return self.decision_tree.predict(vector)
        if self.clusterer is not None:
            encoded = encode_matrix([vector])[0]
            return self.clusterer.predict_one(encoded)
        return 0

    def model_for(self, parameters: Sequence) -> MarkovModel | None:
        cluster = self.cluster_of(parameters)
        model = self.models.get(cluster)
        if model is not None:
            return model
        return self.fallback

    @property
    def num_clusters(self) -> int:
        return len(self.models)

    def total_vertices(self) -> int:
        return sum(model.vertex_count() for model in self.models.values())

    def describe(self) -> str:
        features = ", ".join(d.name for d in self.selected_features) or "<none>"
        return (
            f"{self.procedure}: {self.num_clusters} clusters on [{features}], "
            f"{self.total_vertices()} total vertices"
        )


class PartitionedModelProvider:
    """ModelProvider backed by per-cluster Markov models (paper "partitioned")."""

    name = "partitioned"

    def __init__(
        self,
        clustered: Mapping[str, ClusteredModels],
        fallback_models: Mapping[str, MarkovModel] | None = None,
    ) -> None:
        self._clustered = dict(clustered)
        self._fallback = dict(fallback_models or {})

    # ------------------------------------------------------------------
    def model_for(self, request: ProcedureRequest) -> MarkovModel | None:
        bundle = self._clustered.get(request.procedure)
        if bundle is not None:
            model = bundle.model_for(request.parameters)
            if model is not None:
                return model
        return self._fallback.get(request.procedure)

    def models(self) -> Iterable[MarkovModel]:
        for bundle in self._clustered.values():
            yield from bundle.models.values()
        for procedure, model in self._fallback.items():
            if procedure not in self._clustered:
                yield model

    def bundle_for(self, procedure: str) -> ClusteredModels | None:
        return self._clustered.get(procedure)

    def describe(self) -> str:
        lines = [bundle.describe() for bundle in self._clustered.values()]
        return "\n".join(sorted(lines))

    def total_vertices(self) -> int:
        return sum(model.vertex_count() for model in self.models())
