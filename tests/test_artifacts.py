"""Tests for the durable artifact bundle (train once, deploy everywhere)."""

from __future__ import annotations

import json
import re

import pytest

from repro.artifacts import ArtifactBundle, ArtifactError
from repro.houdini import Houdini, HoudiniConfig
from repro.types import ProcedureRequest


#: case -> (file, what the corrupted file holds, from what ``save`` wrote).
CORRUPT = {
    "metadata-not-json": ("metadata.json", lambda text: "{not json"),
    "metadata-another-version": (
        "metadata.json", lambda text: json.dumps({**json.loads(text), "format_version": 12345}),
    ),
    "metadata-a-list": ("metadata.json", lambda text: "[1]"),
    "metadata-null": ("metadata.json", lambda text: "null"),
    "metadata-partitions-not-a-number": (
        "metadata.json", lambda text: json.dumps({**json.loads(text), "num_partitions": "x"}),
    ),
    "models-truncated": ("models.json", lambda text: text[: len(text) // 2]),
    "models-a-list": ("models.json", lambda text: "[1]"),
    "models-another-version": (
        "models.json", lambda text: json.dumps({**json.loads(text), "format_version": 99}),
    ),
    "mappings-truncated": ("mappings.json", lambda text: text[: len(text) // 2]),
    "mappings-a-list": ("mappings.json", lambda text: "[1]"),
}


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

    @pytest.mark.parametrize("name,corrupt", CORRUPT.values(), ids=list(CORRUPT))
    def test_a_corrupt_file_raises_an_error_naming_it(self, tpcc_bundle, tmp_path, name, corrupt):
        target = tpcc_bundle.save(tmp_path / "artifacts")
        path = target / name
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(ArtifactError, match=re.escape(str(path))):
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
