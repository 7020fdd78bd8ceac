"""Tests for model partitioning (clustering + selection + provider)."""

import pytest

from repro.houdini import HoudiniConfig
from repro.modelpart import (
    FeatureExtractor,
    ModelPartitioner,
    PartitionedModelProvider,
    PartitionerConfig,
)
from repro.types import ProcedureRequest


@pytest.fixture(scope="module")
def partitioner(tpcc_artifacts):
    instance = tpcc_artifacts.benchmark
    return ModelPartitioner(
        instance.catalog,
        tpcc_artifacts.mappings,
        houdini_config=HoudiniConfig(),
        config=PartitionerConfig(
            feature_selection="heuristic", min_records=40, min_cluster_records=10,
        ),
        base_partition_chooser=lambda record: instance.generator.home_partition(
            ProcedureRequest(record.procedure, record.parameters)
        ),
    )


class TestHeuristicPartitioning:
    def test_neworder_clusters_on_supply_warehouse_shape(self, partitioner, tpcc_artifacts):
        records = tpcc_artifacts.trace.for_procedure("neworder")
        bundle = partitioner.partition_procedure(
            records, "neworder", tpcc_artifacts.models["neworder"]
        )
        assert bundle is not None
        names = {definition.name for definition in bundle.selected_features}
        assert "ARRAYALLSAMEHASH(i_w_ids)" in names
        assert bundle.num_clusters >= 1
        assert bundle.total_vertices() > 0

    def test_provider_routes_requests_to_cluster_models(self, partitioner, tpcc_artifacts):
        provider = partitioner.build_provider(
            tpcc_artifacts.trace, dict(tpcc_artifacts.models)
        )
        assert isinstance(provider, PartitionedModelProvider)
        request = ProcedureRequest.of("neworder", (0, 0, 1, (1, 2), (0, 0), (1, 1)))
        model = provider.model_for(request)
        assert model is not None
        assert model.procedure == "neworder"
        # Procedures with too few records fall back to the global model.
        fallback_request = ProcedureRequest.of("stocklevel", (0, 0, 15))
        assert provider.model_for(fallback_request) is not None

    def test_bundle_description(self, partitioner, tpcc_artifacts):
        provider = partitioner.build_provider(
            tpcc_artifacts.trace, dict(tpcc_artifacts.models)
        )
        text = provider.describe()
        assert "neworder" in text
        assert provider.total_vertices() > 0


class TestFeedForwardSelection:
    def test_search_runs_and_reports_history(self, tpcc_artifacts):
        instance = tpcc_artifacts.benchmark
        partitioner = ModelPartitioner(
            instance.catalog,
            tpcc_artifacts.mappings,
            houdini_config=HoudiniConfig(),
            config=PartitionerConfig(
                feature_selection="feedforward",
                max_rounds=1,
                max_test_records=60,
                max_clusters=3,
                max_candidate_features=4,
            ),
            base_partition_chooser=lambda record: instance.generator.home_partition(
                ProcedureRequest(record.procedure, record.parameters)
            ),
        )
        records = tpcc_artifacts.trace.for_procedure("payment")
        extractor = FeatureExtractor(
            instance.catalog.procedure("payment"), instance.catalog.scheme
        )
        candidates = extractor.informative_definitions(
            [record.parameters for record in records[:100]]
        )[:4]
        result = partitioner.select_features(
            records, "payment", extractor, candidates, tpcc_artifacts.models["payment"]
        )
        assert result.evaluated_sets == len(candidates)
        assert result.baseline_cost >= 0
        assert len(result.history) == result.evaluated_sets
        # Whatever the outcome, the chosen cost can never be worse than the
        # baseline (the search keeps the global model otherwise).
        assert result.best_cost <= result.baseline_cost
