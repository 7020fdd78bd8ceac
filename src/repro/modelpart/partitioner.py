"""Model partitioning: clustering + feed-forward feature selection (paper §5).

The :class:`ModelPartitioner` turns a per-procedure workload trace into a set
of *partitioned* Markov models:

1. candidate features are extracted from the procedure's input parameters
   (Table 1), dropping the ones that never vary;
2. **feed-forward selection** (§5.2) searches for the feature set whose
   clustered models predict a held-out test workset best: the per-procedure
   trace is split into training (30%) / validation (30%) / testing (40%)
   worksets, the clusterer is seeded on the training set, per-cluster models
   are built from the validation set, and the candidate is scored by the
   accuracy (penalty) of Houdini's estimates over the testing set;
3. with the winning feature set, the transactions are clustered with the
   EM mixture, one Markov model is trained per cluster, and a decision tree
   (§5.3) is fitted so that run-time requests can be routed to the right
   model in microseconds.

A ``heuristic`` selection mode is also provided: it skips the (expensive)
search and uses the feature combination the paper itself shows for NewOrder
in Fig. 9 — the hash of the first scalar parameter plus the array-parameter
length/homogeneity features.  The full search remains the default for the
accuracy experiments; the heuristic mode is used by the large throughput
sweeps where search time would dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .. import schema
from ..catalog.schema import Catalog
from ..evaluation.accuracy import AccuracyEvaluator
from ..houdini.config import HoudiniConfig
from ..houdini.houdini import Houdini
from ..mapping.parameter_mapping import ParameterMappingSet
from ..markov.builder import MarkovModelBuilder, TraceBaseChooser
from ..markov.model import MarkovModel
from ..ml.decision_tree import DecisionTreeClassifier
from ..schema import spec
from ..workload.trace import WorkloadTrace
from .clustered import ClusteredModels, PartitionedModelProvider
from .features import FeatureCategory, FeatureDefinition, FeatureExtractor, encode_matrix


@dataclass
class PartitionerConfig:
    """Knobs for the model-partitioning pipeline."""

    #: "feedforward" (paper §5.2) or "heuristic" (fixed Fig. 9-style set).
    feature_selection: str = spec("feedforward", choices=("feedforward", "heuristic"))
    #: Maximum feed-forward round (feature-set size).
    max_rounds: int = spec(2, kind="int", ge=1)
    #: Fraction of best-scoring sets whose features survive to the next round.
    top_fraction: float = spec(0.10, kind="float", gt=0, le=1)
    #: Trace split used by feed-forward selection (paper: 30/30/40).
    training_fraction: float = spec(0.30, kind="float", gt=0, lt=1)
    validation_fraction: float = spec(0.30, kind="float", gt=0, lt=1)
    #: Procedures with fewer trace records than this keep their global model.
    min_records: int = spec(60, kind="int", ge=0)
    #: Upper bound on the number of clusters the EM search considers.
    max_clusters: int = spec(6, kind="int", ge=1)
    #: Cap on the number of testing-workset records scored per candidate.
    max_test_records: int = spec(300, kind="int", ge=1)
    #: Cap on candidate features entering round one.
    max_candidate_features: int = spec(16, kind="int", ge=1)
    #: Clusters with fewer trace records than this are not given their own
    #: model; requests routed to them fall back to the procedure's global
    #: model (guards against data fragmentation on small traces).
    min_cluster_records: int = spec(20, kind="int", ge=0)
    seed: int = spec(0, kind="int")

    def __post_init__(self) -> None:
        schema.check(self, ValueError)


@dataclass
class FeatureSearchResult:
    """Outcome of feed-forward selection for one procedure."""

    procedure: str
    best_features: tuple[FeatureDefinition, ...]
    best_cost: float
    baseline_cost: float
    evaluated_sets: int = 0
    rounds: int = 0
    history: list[tuple[tuple[str, ...], float]] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return bool(self.best_features) and self.best_cost < self.baseline_cost


class ModelPartitioner:
    """Builds partitioned Markov models for an application."""

    def __init__(
        self,
        catalog: Catalog,
        mappings: ParameterMappingSet,
        *,
        houdini_config: HoudiniConfig | None = None,
        config: PartitionerConfig | None = None,
        base_partition_chooser: TraceBaseChooser | None = None,
    ) -> None:
        self.catalog = catalog
        self.mappings = mappings
        self.houdini_config = houdini_config or HoudiniConfig()
        self.config = config or PartitionerConfig()
        self.builder = MarkovModelBuilder(
            catalog, base_partition_chooser=base_partition_chooser
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build_provider(
        self,
        trace: WorkloadTrace,
        global_models: dict[str, MarkovModel] | None = None,
    ) -> PartitionedModelProvider:
        """Partition every procedure's model where it helps."""
        if global_models is None:
            global_models = self.builder.build(trace)
        clustered: dict[str, ClusteredModels] = {}
        for procedure_name in trace.procedures:
            records = trace.for_procedure(procedure_name)
            if len(records) < self.config.min_records:
                continue
            bundle = self.partition_procedure(
                records, procedure_name, global_models.get(procedure_name)
            )
            if bundle is not None:
                clustered[procedure_name] = bundle
        return PartitionedModelProvider(clustered, global_models)

    def partition_procedure(
        self,
        records: WorkloadTrace,
        procedure_name: str,
        fallback_model: MarkovModel | None,
    ) -> ClusteredModels | None:
        """Cluster one procedure's transactions and build per-cluster models."""
        procedure = self.catalog.procedure(procedure_name)
        extractor = FeatureExtractor(procedure, self.catalog.scheme)
        sample = [record.parameters for record in records[: max(200, self.config.min_records)]]
        candidates = extractor.informative_definitions(sample)
        if not candidates:
            return None
        candidates = candidates[: self.config.max_candidate_features]
        if self.config.feature_selection == "heuristic":
            selected = tuple(
                self._heuristic_features(procedure_name, candidates, sample)
            )
            if not selected:
                return None
        else:
            search = self.select_features(records, procedure_name, extractor, candidates,
                                          fallback_model)
            if not search.improved:
                return None
            selected = search.best_features
        return self._build_bundle(records, procedure_name, extractor, selected, fallback_model)

    # ------------------------------------------------------------------
    # Feed-forward selection (§5.2)
    # ------------------------------------------------------------------
    def select_features(
        self,
        records: WorkloadTrace,
        procedure_name: str,
        extractor: FeatureExtractor,
        candidates: Sequence[FeatureDefinition],
        fallback_model: MarkovModel | None,
    ) -> FeatureSearchResult:
        training, validation, testing = records.split(
            self.config.training_fraction,
            self.config.validation_fraction,
            1.0 - self.config.training_fraction - self.config.validation_fraction,
        )
        testing = WorkloadTrace(testing.records[: self.config.max_test_records])
        baseline_cost = self._baseline_cost(procedure_name, fallback_model, testing)
        result = FeatureSearchResult(
            procedure=procedure_name,
            best_features=(),
            best_cost=baseline_cost,
            baseline_cost=baseline_cost,
        )
        surviving = list(candidates)
        best_round_cost = baseline_cost
        previous_sets: list[tuple[FeatureDefinition, ...]] = [()]
        for round_number in range(1, self.config.max_rounds + 1):
            result.rounds = round_number
            candidate_sets = self._candidate_sets(surviving, previous_sets, round_number)
            if not candidate_sets:
                break
            scored: list[tuple[float, tuple[FeatureDefinition, ...]]] = []
            for feature_set in candidate_sets:
                cost = self._evaluate_feature_set(
                    feature_set, procedure_name, extractor,
                    training, validation, testing, fallback_model,
                )
                result.evaluated_sets += 1
                result.history.append((tuple(f.name for f in feature_set), cost))
                scored.append((cost, feature_set))
            scored.sort(key=lambda pair: pair[0])
            round_best_cost, round_best_set = scored[0]
            if round_best_cost < result.best_cost:
                result.best_cost = round_best_cost
                result.best_features = round_best_set
            # Keep the features appearing in the top sets for the next round.
            keep = max(1, int(len(scored) * self.config.top_fraction))
            surviving = []
            previous_sets = []
            for _, feature_set in scored[:keep]:
                previous_sets.append(feature_set)
                for feature in feature_set:
                    if feature not in surviving:
                        surviving.append(feature)
            if round_best_cost >= best_round_cost:
                # No improvement over the previous rounds: stop searching.
                break
            best_round_cost = round_best_cost
        return result

    def _candidate_sets(self, surviving, previous_sets, round_number):
        if round_number == 1:
            return [(feature,) for feature in surviving]
        sets: list[tuple[FeatureDefinition, ...]] = []
        seen: set[tuple[str, ...]] = set()
        for base in previous_sets:
            for feature in surviving:
                if feature in base:
                    continue
                candidate = tuple(sorted((*base, feature), key=lambda f: f.name))
                key = tuple(f.name for f in candidate)
                if len(candidate) == round_number and key not in seen:
                    seen.add(key)
                    sets.append(candidate)
        return sets

    # ------------------------------------------------------------------
    def _baseline_cost(self, procedure_name, fallback_model, testing: WorkloadTrace) -> float:
        if fallback_model is None or len(testing) == 0:
            return float("inf")
        provider = PartitionedModelProvider({}, {procedure_name: fallback_model})
        return self._cost_with_provider(provider, testing)

    def _evaluate_feature_set(
        self,
        feature_set: tuple[FeatureDefinition, ...],
        procedure_name: str,
        extractor: FeatureExtractor,
        training: WorkloadTrace,
        validation: WorkloadTrace,
        testing: WorkloadTrace,
        fallback_model: MarkovModel | None,
    ) -> float:
        if len(training) == 0 or len(validation) == 0 or len(testing) == 0:
            return float("inf")
        clusterer = self._fit_clusterer(encode_matrix([
            extractor.vector(record.parameters, feature_set) for record in training
        ]))
        assignments = clusterer.predict(encode_matrix([
            extractor.vector(record.parameters, feature_set) for record in validation
        ]))
        models = self._models_per_cluster(procedure_name, validation, assignments)
        bundle = ClusteredModels(
            procedure=procedure_name,
            extractor=extractor,
            selected_features=feature_set,
            clusterer=clusterer,
            decision_tree=None,
            models=models,
            fallback=fallback_model,
        )
        provider = PartitionedModelProvider(
            {procedure_name: bundle},
            {procedure_name: fallback_model} if fallback_model else {},
        )
        return self._cost_with_provider(provider, testing)

    def _fit_clusterer(self, matrix: list[list[float]]):
        """The EM mixture fitted to an encoded feature matrix; numpy loads
        here, at the first fit, and not when the module is imported."""
        from ..ml.em import EMClustering

        return EMClustering(
            max_clusters=self.config.max_clusters, seed=self.config.seed
        ).fit(matrix)

    def _cost_with_provider(self, provider, testing: WorkloadTrace) -> float:
        houdini = Houdini(
            self.catalog, provider, self.mappings, self.houdini_config, learning=False
        )
        evaluator = AccuracyEvaluator(houdini)
        report = evaluator.evaluate(testing)
        if report.transactions == 0:
            return float("inf")
        return report.total_penalty / report.transactions

    def _models_per_cluster(self, procedure_name, records: WorkloadTrace, assignments):
        by_cluster: dict[int, list] = {}
        for record, cluster in zip(records, assignments):
            by_cluster.setdefault(int(cluster), []).append(record)
        models: dict[int, MarkovModel] = {}
        for cluster, cluster_records in by_cluster.items():
            if len(cluster_records) < self.config.min_cluster_records:
                # Too little data to be trustworthy: requests routed here use
                # the procedure's global model instead.
                continue
            model = MarkovModel(procedure_name, self.catalog.num_partitions)
            self.builder.extend(model, cluster_records)
            model.process()
            models[cluster] = model
        return models

    # ------------------------------------------------------------------
    # Final bundle construction
    # ------------------------------------------------------------------
    def _build_bundle(
        self,
        records: WorkloadTrace,
        procedure_name: str,
        extractor: FeatureExtractor,
        selected: tuple[FeatureDefinition, ...],
        fallback_model: MarkovModel | None,
    ) -> ClusteredModels:
        vectors = [extractor.vector(record.parameters, selected) for record in records]
        matrix = encode_matrix(vectors)
        clusterer = self._fit_clusterer(matrix)
        assignments = clusterer.predict(matrix)
        models = self._models_per_cluster(procedure_name, records, assignments)
        tree: DecisionTreeClassifier | None = None
        if len(set(int(a) for a in assignments)) > 1:
            tree = DecisionTreeClassifier(min_samples_leaf=3)
            tree.fit(vectors, [int(a) for a in assignments],
                     feature_names=[d.name for d in selected])
        return ClusteredModels(
            procedure=procedure_name,
            extractor=extractor,
            selected_features=selected,
            clusterer=clusterer,
            decision_tree=tree,
            models=models,
            fallback=fallback_model,
        )

    # ------------------------------------------------------------------
    def _heuristic_features(
        self,
        procedure_name: str,
        candidates: Sequence[FeatureDefinition],
        sample_parameters: Sequence[Sequence],
    ) -> list[FeatureDefinition]:
        """Cheap, mapping-guided feature set used when the full feed-forward
        search is too expensive (large throughput sweeps).

        The choice targets the two transaction properties the paper's Fig. 9
        clustering captures: whether an array of partition keys is
        homogeneous (ARRAYALLSAMEHASH / ARRAYLENGTH of parameters that feed
        partitioning columns, found via the parameter mappings) and which
        control-flow branch small flag-like scalar parameters select
        (NORMALIZEDVALUE of low-cardinality scalars).  Hash-value clustering
        is left to the feed-forward search because it fragments small traces.
        """
        partitioning_params = self._partitioning_array_parameters(procedure_name)
        selected: list[FeatureDefinition] = []
        for definition in candidates:
            if definition.parameter_index in partitioning_params and definition.category in (
                FeatureCategory.ARRAY_ALL_SAME_HASH, FeatureCategory.ARRAY_LENGTH
            ):
                selected.append(definition)
        for definition in candidates:
            if definition.category is not FeatureCategory.NORMALIZED_VALUE:
                continue
            values = {
                self._scalar_value(parameters, definition.parameter_index)
                for parameters in sample_parameters
            }
            values.discard(None)
            # Only genuinely flag-like parameters (two observed values) are
            # worth a cluster split without running the full search.
            if len(values) == 2:
                selected.append(definition)
        return selected[:4]

    def _partitioning_array_parameters(self, procedure_name: str) -> set[int]:
        """Procedure array parameters that feed a partitioning column."""
        mapping = self.mappings.get(procedure_name)
        if mapping is None:
            return set()
        procedure = self.catalog.procedure(procedure_name)
        result: set[int] = set()
        for statement in procedure.statements.values():
            table = self.catalog.schema.table(statement.table)
            if table.replicated or table.partition_column is None:
                continue
            index = statement.partitioning_parameter_index(table.partition_column)
            if index is None:
                continue
            entry = mapping.entry_for(statement.name, index)
            if entry is not None and entry.array_aligned:
                result.add(entry.procedure_param_index)
        return result

    @staticmethod
    def _scalar_value(parameters: Sequence, index: int):
        if index >= len(parameters):
            return None
        value = parameters[index]
        if isinstance(value, (list, tuple)):
            return None
        return value
