"""Tests for JSON (de)serialization of Markov models."""

from __future__ import annotations

import json

import pytest

from repro.errors import ModelError
from repro.markov import (
    MarkovModel,
    PathStep,
    load_models,
    model_from_dict,
    model_to_dict,
    models_from_dict,
    models_to_dict,
    save_models,
)
from repro.markov.serialization import vertex_key_from_dict, vertex_key_to_dict
from repro.markov.vertex import BEGIN_KEY, COMMIT_KEY, VertexKey, VertexKind
from repro.types import PartitionSet, QueryType
from tests.conftest import add_path


def _sample_model(aborts: int = 3, commits: int = 17, process: bool = True) -> MarkovModel:
    model = MarkovModel("SampleProc", 4)
    happy = [
        PathStep("GetItem", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([]), 0),
        PathStep("UpdateItem", QueryType.WRITE, PartitionSet.of([0]), PartitionSet.of([0]), 0),
    ]
    crossing = [
        PathStep("GetItem", QueryType.READ, PartitionSet.of([0]), PartitionSet.of([]), 0),
        PathStep("UpdateItem", QueryType.WRITE, PartitionSet.of([1]), PartitionSet.of([0]), 0),
    ]
    for _ in range(commits):
        add_path(model, happy, aborted=False)
    for _ in range(aborts):
        add_path(model, crossing, aborted=True)
    if process:
        model.process()
    return model


class TestVertexKeyRoundTrip:
    def test_query_key_round_trips(self):
        key = VertexKey.query("Q", 2, PartitionSet.of([1, 3]), PartitionSet.of([0]))
        assert vertex_key_from_dict(vertex_key_to_dict(key)) == key

    def test_special_keys_round_trip(self):
        for key in (BEGIN_KEY, COMMIT_KEY):
            assert vertex_key_from_dict(vertex_key_to_dict(key)) == key

    def test_invalid_kind_raises_model_error(self):
        with pytest.raises(ModelError):
            vertex_key_from_dict({"kind": "nonsense"})


class TestModelRoundTrip:
    def test_graph_structure_is_preserved(self):
        original = _sample_model()
        restored = model_from_dict(model_to_dict(original))
        assert restored.procedure == original.procedure
        assert restored.num_partitions == original.num_partitions
        assert restored.vertex_count() == original.vertex_count()
        assert restored.edge_count() == original.edge_count()
        assert restored.transactions_observed == original.transactions_observed

    def test_edge_probabilities_match_after_reprocessing(self):
        original = _sample_model()
        restored = model_from_dict(model_to_dict(original))
        for vertex in original.vertices():
            for edge in original.edges_from(vertex.key):
                assert restored.edge_probability(edge.source, edge.target) == pytest.approx(
                    edge.probability
                )

    def test_probability_tables_match_after_reprocessing(self):
        original = _sample_model()
        restored = model_from_dict(model_to_dict(original))
        for vertex in original.vertices():
            if not vertex.key.is_query:
                continue
            assert restored.probability_table(vertex.key).approx_equal(
                original.probability_table(vertex.key), tolerance=1e-9
            )

    def test_loading_an_unprocessed_model_processes_it(self):
        processed = _sample_model()
        unprocessed = _sample_model(process=False)
        assert not unprocessed.processed
        restored = model_from_dict(model_to_dict(unprocessed))
        assert restored.processed
        for vertex in processed.vertices():
            assert restored.probability_table(vertex.key).approx_equal(
                processed.probability_table(vertex.key), tolerance=1e-9
            )

    def test_json_round_trip(self):
        original = _sample_model()
        restored = model_from_dict(json.loads(json.dumps(model_to_dict(original))))
        assert restored.vertex_count() == original.vertex_count()

    def test_unknown_format_version_is_rejected(self):
        payload = model_to_dict(_sample_model())
        payload["format_version"] = 99
        with pytest.raises(ModelError):
            model_from_dict(payload)

    def test_vertex_hits_survive_round_trip(self):
        original = _sample_model()
        restored = model_from_dict(model_to_dict(original))
        for vertex in original.vertices():
            assert restored.vertex(vertex.key).hits == vertex.hits

    def test_query_types_survive_round_trip(self):
        original = _sample_model()
        restored = model_from_dict(model_to_dict(original))
        for vertex in original.vertices():
            if not vertex.key.is_query:
                continue
            assert restored.vertex(vertex.key).query_type == vertex.query_type


class TestModelBundles:
    def test_bundle_round_trip(self):
        models = {"A": _sample_model(), "B": _sample_model(aborts=0, commits=5)}
        models["B"].procedure = "B"
        restored = models_from_dict(models_to_dict(models))
        assert set(restored) == {"A", "B"}
        assert restored["A"].vertex_count() == models["A"].vertex_count()

    def test_bundle_version_check(self):
        payload = models_to_dict({"A": _sample_model()})
        payload["format_version"] = -1
        with pytest.raises(ModelError):
            models_from_dict(payload)

    def test_save_and_load_files(self, tmp_path):
        models = {"SampleProc": _sample_model()}
        path = save_models(models, tmp_path / "bundle" / "models.json")
        assert path.exists()
        restored = load_models(path)
        assert set(restored) == {"SampleProc"}
        assert restored["SampleProc"].processed


class TestTrainedModelsRoundTrip:
    def test_real_tpcc_models_round_trip(self, tpcc_artifacts):
        for name, model in tpcc_artifacts.models.items():
            restored = model_from_dict(model_to_dict(model))
            assert restored.vertex_count() == model.vertex_count()
            assert restored.edge_count() == model.edge_count()
            # The restored model supports estimation immediately.
            assert restored.processed


@pytest.fixture(scope="module")
def pristine_tpcc_artifacts():
    """Freshly trained models, untouched by other tests' run-time learning.

    The byte-identical guarantee below holds for a model processed in one
    pass from its counters; the shared session artifacts may have been
    incrementally recomputed by learning tests, which can differ from a full
    reprocess in the last ulp.
    """
    from repro.session import ClusterSpec, train

    return train(ClusterSpec(
        benchmark="tpcc", num_partitions=4, trace_transactions=600, seed=11
    ))


class TestDeserializedEstimates:
    """A deserialized model must be *observationally byte-identical* for
    Houdini: path estimates built from the round-tripped models must match
    the originals exactly (vertices, probabilities, partition predictions,
    expected remaining queries) — guards the regenerate-on-load design."""

    def test_tpcc_round_trip_estimates_are_identical(self, pristine_tpcc_artifacts):
        from repro.houdini import GlobalModelProvider, HoudiniConfig, PathEstimator

        tpcc_artifacts = pristine_tpcc_artifacts
        catalog = tpcc_artifacts.benchmark.catalog
        restored_models = models_from_dict(models_to_dict(tpcc_artifacts.models))
        original = PathEstimator(
            catalog,
            GlobalModelProvider(tpcc_artifacts.models),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
        )
        restored = PathEstimator(
            catalog,
            GlobalModelProvider(restored_models),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
        )
        for name, model in tpcc_artifacts.models.items():
            twin = restored_models[name]
            for vertex in model.vertices():
                assert twin.vertex(vertex.key).expected_remaining_queries == \
                    vertex.expected_remaining_queries
        for request in tpcc_artifacts.benchmark.generator.generate(150):
            mine = original.estimate(request)
            theirs = restored.estimate(request)
            assert mine.vertices == theirs.vertices
            assert mine.edge_probabilities == theirs.edge_probabilities
            assert mine.abort_probability == theirs.abort_probability
            assert mine.predicted_abort == theirs.predicted_abort
            assert mine.work_units == theirs.work_units
            assert mine.touched_partitions() == theirs.touched_partitions()
            assert mine.finish_points() == theirs.finish_points()
            for pid, prediction in mine.partitions.items():
                other = theirs.partitions[pid]
                assert prediction.access_confidence == other.access_confidence
                assert prediction.last_access_index == other.last_access_index
                assert prediction.written == other.written
                assert prediction.access_count == other.access_count
