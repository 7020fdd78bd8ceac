"""Durable off-line artifacts: training once, deploying everywhere.

The paper's deployment model (Fig. 6) splits Houdini's life cycle in two:

* **off-line** — a sample workload trace is used to build the Markov models
  and the parameter mappings;
* **on-line** — every node in the cluster is handed those artifacts and uses
  them to predict incoming transactions.

This module gives that hand-off a concrete form: an :class:`ArtifactBundle`
holds the trained models and mappings plus enough metadata to detect when
they no longer apply (the models must be regenerated whenever the database's
partitioning scheme changes, §3.1), and can be written to / read from a
directory of JSON files.

>>> from repro.artifacts import ArtifactBundle
>>> from repro.session import ClusterSpec, train
>>> trained = train(ClusterSpec(benchmark="tpcc", num_partitions=4, trace_transactions=300))
>>> bundle = ArtifactBundle.from_trained(trained)
>>> path = bundle.save("/tmp/tpcc-artifacts")          # doctest: +SKIP
>>> restored = ArtifactBundle.load("/tmp/tpcc-artifacts")  # doctest: +SKIP
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from .errors import ReproError
from .houdini import GlobalModelProvider
from .mapping import ParameterMappingSet, load_mappings, save_mappings
from .markov import MarkovModel, load_models, save_models

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import TrainedArtifacts

#: Version of the on-disk bundle layout.
BUNDLE_FORMAT_VERSION = 1

_MODELS_FILE = "models.json"
_MAPPINGS_FILE = "mappings.json"
_METADATA_FILE = "metadata.json"


class ArtifactError(ReproError):
    """Raised when an artifact bundle is missing, malformed or mismatched."""


@dataclass
class ArtifactBundle:
    """Trained Markov models + parameter mappings + provenance metadata."""

    models: dict[str, MarkovModel]
    mappings: ParameterMappingSet
    benchmark: str = ""
    num_partitions: int = 0
    partitions_per_node: int = 2
    trace_transactions: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @staticmethod
    def from_trained(trained: "TrainedArtifacts") -> "ArtifactBundle":
        """Build a bundle from :func:`repro.session.train` output."""
        catalog = trained.benchmark.catalog
        return ArtifactBundle(
            models=dict(trained.models),
            mappings=trained.mappings,
            benchmark=trained.benchmark.bundle.name,
            num_partitions=catalog.num_partitions,
            partitions_per_node=catalog.scheme.partitions_per_node,
            trace_transactions=len(trained.trace),
        )

    # ------------------------------------------------------------------
    def provider(self) -> GlobalModelProvider:
        """A model provider ready to hand to :class:`repro.houdini.Houdini`."""
        return GlobalModelProvider(self.models)

    def metadata(self) -> dict[str, Any]:
        """The provenance metadata stored next to the models."""
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "benchmark": self.benchmark,
            "num_partitions": self.num_partitions,
            "partitions_per_node": self.partitions_per_node,
            "trace_transactions": self.trace_transactions,
            "procedures": sorted(self.models),
            "extra": self.extra,
        }

    def matches_cluster(self, num_partitions: int, partitions_per_node: int = 2) -> bool:
        """Whether this bundle was trained for the given cluster layout.

        The paper is explicit that models must be regenerated when the
        partitioning scheme changes; deployments should check this before
        wiring a loaded bundle into Houdini.
        """
        return (
            self.num_partitions == num_partitions
            and self.partitions_per_node == partitions_per_node
        )

    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Write the bundle into ``directory`` (created if needed)."""
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        save_models(self.models, target / _MODELS_FILE)
        save_mappings(self.mappings, target / _MAPPINGS_FILE)
        (target / _METADATA_FILE).write_text(
            json.dumps(self.metadata(), indent=2, sort_keys=True), encoding="utf-8"
        )
        return target

    @staticmethod
    def load(directory: str | Path, *, process: bool = True) -> "ArtifactBundle":
        """Read a bundle previously written by :meth:`save`."""
        source = Path(directory)
        metadata_path = source / _METADATA_FILE
        models_path = source / _MODELS_FILE
        mappings_path = source / _MAPPINGS_FILE
        for path in (metadata_path, models_path, mappings_path):
            if not path.exists():
                raise ArtifactError(f"artifact bundle is missing {path.name!r} in {source}")
        metadata = _read_metadata(metadata_path)
        models = load_models(models_path, process=process)
        mappings = load_mappings(mappings_path)
        return ArtifactBundle(
            models=models,
            mappings=mappings,
            benchmark=metadata.get("benchmark", ""),
            num_partitions=int(metadata.get("num_partitions", 0)),
            partitions_per_node=int(metadata.get("partitions_per_node", 2)),
            trace_transactions=int(metadata.get("trace_transactions", 0)),
            extra=dict(metadata.get("extra", {})),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.models)

    def describe(self) -> str:
        """One-line human summary used by the CLI and examples."""
        return (
            f"ArtifactBundle(benchmark={self.benchmark!r}, "
            f"procedures={len(self.models)}, partitions={self.num_partitions}, "
            f"trace={self.trace_transactions} txns)"
        )


def _read_metadata(path: Path) -> Mapping[str, Any]:
    try:
        metadata = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"malformed artifact metadata in {path}: {exc}") from exc
    version = metadata.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact bundle version {version!r} "
            f"(expected {BUNDLE_FORMAT_VERSION})"
        )
    return metadata
