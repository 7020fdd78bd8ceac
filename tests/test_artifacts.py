"""Tests for the durable artifact bundle (train once, deploy everywhere)."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import ArtifactBundle, ArtifactError
from repro.houdini import Houdini, HoudiniConfig
from repro.types import ProcedureRequest


@pytest.fixture(scope="module")
def tpcc_bundle(tpcc_artifacts) -> ArtifactBundle:
    return ArtifactBundle.from_trained(tpcc_artifacts)


class TestBundleConstruction:
    def test_from_trained_captures_cluster_layout(self, tpcc_artifacts, tpcc_bundle):
        catalog = tpcc_artifacts.benchmark.catalog
        assert tpcc_bundle.benchmark == "tpcc"
        assert tpcc_bundle.num_partitions == catalog.num_partitions
        assert tpcc_bundle.trace_transactions == len(tpcc_artifacts.trace)
        assert len(tpcc_bundle) == len(tpcc_artifacts.models)

    def test_matches_cluster(self, tpcc_bundle):
        assert tpcc_bundle.matches_cluster(tpcc_bundle.num_partitions)
        assert not tpcc_bundle.matches_cluster(tpcc_bundle.num_partitions * 2)

    def test_provider_serves_every_procedure(self, tpcc_bundle):
        provider = tpcc_bundle.provider()
        assert set(provider.procedures()) == set(tpcc_bundle.models)

    def test_describe_mentions_benchmark(self, tpcc_bundle):
        assert "tpcc" in tpcc_bundle.describe()


class TestBundlePersistence:
    def test_save_writes_three_files(self, tpcc_bundle, tmp_path):
        target = tpcc_bundle.save(tmp_path / "artifacts")
        names = {p.name for p in target.iterdir()}
        assert names == {"models.json", "mappings.json", "metadata.json"}

    def test_round_trip_preserves_models_and_mappings(self, tpcc_bundle, tmp_path):
        target = tpcc_bundle.save(tmp_path / "artifacts")
        restored = ArtifactBundle.load(target)
        assert set(restored.models) == set(tpcc_bundle.models)
        assert set(restored.mappings) == set(tpcc_bundle.mappings)
        for name, model in tpcc_bundle.models.items():
            assert restored.models[name].vertex_count() == model.vertex_count()

    def test_metadata_round_trip(self, tpcc_bundle, tmp_path):
        target = tpcc_bundle.save(tmp_path / "artifacts")
        restored = ArtifactBundle.load(target)
        assert restored.benchmark == tpcc_bundle.benchmark
        assert restored.num_partitions == tpcc_bundle.num_partitions
        assert restored.trace_transactions == tpcc_bundle.trace_transactions

    def test_missing_file_raises(self, tpcc_bundle, tmp_path):
        target = tpcc_bundle.save(tmp_path / "artifacts")
        (target / "mappings.json").unlink()
        with pytest.raises(ArtifactError):
            ArtifactBundle.load(target)

    def test_bad_metadata_version_raises(self, tpcc_bundle, tmp_path):
        target = tpcc_bundle.save(tmp_path / "artifacts")
        metadata = json.loads((target / "metadata.json").read_text())
        metadata["format_version"] = 12345
        (target / "metadata.json").write_text(json.dumps(metadata))
        with pytest.raises(ArtifactError):
            ArtifactBundle.load(target)

    def test_corrupt_metadata_raises(self, tpcc_bundle, tmp_path):
        target = tpcc_bundle.save(tmp_path / "artifacts")
        (target / "metadata.json").write_text("{not json")
        with pytest.raises(ArtifactError):
            ArtifactBundle.load(target)


class TestDeployedBundleDrivesHoudini:
    def test_loaded_bundle_produces_plans(self, tpcc_artifacts, tpcc_bundle, tmp_path):
        """A bundle written to disk can be loaded on a 'different node' and
        drive Houdini for real requests without retraining."""
        target = tpcc_bundle.save(tmp_path / "artifacts")
        restored = ArtifactBundle.load(target)
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            restored.provider(),
            restored.mappings,
            HoudiniConfig(),
            learning=False,
        )
        generator = tpcc_artifacts.benchmark.generator
        plans = [houdini.plan(generator.next_request()) for _ in range(20)]
        assert all(plan.plan.base_partition >= 0 for plan in plans)
        # At least some plans should be confident single-partition plans.
        assert any(plan.decision.predicted_single_partition for plan in plans)
