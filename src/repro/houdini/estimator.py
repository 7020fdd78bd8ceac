"""Initial execution-path estimation (paper §4.2).

Starting from the ``begin`` state of the procedure's Markov model, the
estimator repeatedly:

1. enumerates the successor states (the candidate queries),
2. uses the parameter mapping to predict the partitions each candidate query
   would access from the procedure's input parameters,
3. keeps the candidates that are *valid* — their partition set matches the
   prediction and their previously-accessed set matches the transaction's
   history so far,
4. follows the valid transition with the greatest edge probability (falling
   back to the greatest-probability structurally-consistent edge when the
   partitions cannot be resolved, as the paper does for conditional
   branches),

until it reaches the commit or abort state or exhausts the configured path
length.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..catalog.schema import Catalog
from ..mapping.parameter_mapping import ParameterMappingSet
from ..markov.model import MarkovModel, SuccessorView
from ..markov.vertex import Vertex, VertexKey, VertexKind
from ..types import EMPTY_PARTITION_SET, PartitionId, PartitionSet, ProcedureRequest
from .compiled import CompiledProcedure
from .config import HoudiniConfig
from .estimate import PartitionPrediction, PathEstimate
from .providers import ModelProvider


def _pool_rank(pair: tuple[VertexKey, float]) -> tuple[float, int]:
    """Candidate ordering: greatest probability, fewest partitions."""
    return (pair[1], -len(pair[0].partitions))


def _position_rank(entry: tuple) -> int:
    """Sort grouped candidates back into canonical record order."""
    return entry[0]


def _pick(pool: list[tuple[VertexKey, float]]) -> tuple[VertexKey, float]:
    """The pool's best candidate and its weight renormalized over the pool."""
    if len(pool) == 1:
        key, probability = pool[0]
        return key, 1.0 if probability > 0 else 0.0
    best = max(pool, key=_pool_rank)
    total = sum(probability for _, probability in pool)
    if total <= 0:
        return best[0], 0.0
    return best[0], best[1] / total


#: Successor count from which the per-name group index beats the linear
#: record scan in :meth:`PathEstimator._choose` (measured on TPC-C, whose
#: branch vertices fan out 2-4 ways — too narrow for the index — and on
#: run-time-grown models, where placeholder vertices fan out much wider).
_GROUPED_CHOICE_MIN_FANOUT = 8


class PathEstimator:
    """Stateless walker: Markov model + compiled resolvers -> path estimate.

    The only state kept is the per-procedure compiled resolver table; reuse
    of finished walks is the facade's business
    (:class:`~repro.houdini.cache.EstimateCache`).
    """

    def __init__(
        self,
        catalog: Catalog,
        provider: ModelProvider,
        mappings: ParameterMappingSet,
        config: HoudiniConfig | None = None,
    ) -> None:
        self.catalog = catalog
        self.provider = provider
        self.mappings = mappings
        self.config = config or HoudiniConfig()
        #: Per-procedure compiled statement resolvers, built once on first
        #: use.  Safe to cache for the estimator's lifetime: they depend only
        #: on the catalog and the mappings, both fixed at construction.
        self._compiled: dict[str, CompiledProcedure] = {}

    def _compiled_for(self, procedure_name: str) -> CompiledProcedure:
        compiled = self._compiled.get(procedure_name)
        if compiled is None:
            compiled = CompiledProcedure(
                self.catalog.procedure(procedure_name),
                self.catalog,
                self.mappings.get(procedure_name),
            )
            self._compiled[procedure_name] = compiled
        return compiled

    # ------------------------------------------------------------------
    def estimate(
        self, request: ProcedureRequest, model: MarkovModel | None = None
    ) -> PathEstimate:
        """Walk the model once and return the initial path estimate.

        ``model`` is the caller's already-resolved model for the request
        (the facade resolves it for the memo key); by default the provider
        is asked.  The estimate is *degenerate* when prediction is disabled
        for the procedure or no processed model exists.
        """
        estimate = PathEstimate(procedure=request.procedure)
        if request.procedure in self.config.disabled_procedures:
            estimate.degenerate = True
            return estimate
        if model is None:
            model = self.provider.model_for(request)
        if model is None or not model.processed:
            estimate.degenerate = True
            return estimate
        self._walk(
            estimate, model, request.parameters, self._compiled_for(request.procedure)
        )
        return estimate

    def footprint_and_signature(
        self, request: ProcedureRequest
    ) -> tuple[frozenset[PartitionId] | None, tuple | None]:
        """``(predicted footprint, binding signature)`` of a request.

        The footprint is what the parameter mappings alone say the request
        may touch (the run-time monitor's early-prepare guard; ``None``
        without a mapping); the signature is everything a walk reads from
        the parameters (the memo key; ``None`` when nothing can vouch for
        the walk).  See :class:`~repro.houdini.compiled.CompiledProcedure`.
        """
        # No mapping means no answer, decided before the catalog is
        # consulted (an unmapped, uncataloged procedure must not raise).
        if self.mappings.get(request.procedure) is None:
            return None, None
        return self._compiled_for(request.procedure).footprint_and_signature(
            request.parameters
        )

    def predicted_footprint(self, request: ProcedureRequest) -> frozenset[PartitionId] | None:
        """Partitions the parameter mappings alone say the request may touch."""
        return self.footprint_and_signature(request)[0]

    # ------------------------------------------------------------------
    def _walk(
        self,
        estimate: PathEstimate,
        model: MarkovModel,
        parameters: Sequence[Any],
        compiled: CompiledProcedure,
    ) -> None:
        current = model.begin
        vertices = estimate.vertices
        probabilities = estimate.edge_probabilities
        path_vertices = estimate.path_vertices
        views = estimate.read_views
        tables = estimate.read_tables
        vertices.append(current)
        path_vertices.append(None)
        tables.append(None)
        accumulated = EMPTY_PARTITION_SET
        counters: dict[str, int] = {}
        confidence = 1.0
        query_index = 0
        view_of = model.successor_view
        choose = self._choose
        for _ in range(self.config.max_path_length):
            view = view_of(current)
            views.append(view)
            if not view.records:
                break
            chosen, probability = choose(
                view, parameters, accumulated, counters, estimate, compiled
            )
            vertices.append(chosen)
            probabilities.append(probability)
            confidence *= probability
            if chosen.is_query:
                vertex = self._account_for_vertex(
                    estimate, model, chosen, confidence, query_index
                )
                path_vertices.append(vertex)
                tables.append(vertex.table)
                counters[chosen.name] = chosen.counter + 1
                accumulated = accumulated.union(chosen.partitions)
                query_index += 1
            else:
                path_vertices.append(None)
                tables.append(None)
                if chosen.is_terminal:
                    estimate.predicted_abort = chosen.kind is VertexKind.ABORT
                    break
            current = chosen
        if len(tables) < 2 or tables[1] is None:
            # No first query state with a table: the decision's OP2
            # reference is begin's (OptimizationSelector.decide).
            tables[0] = model.find_vertex(model.begin).table
        estimate._confidence_cache = (len(probabilities), confidence)

    def _choose(
        self,
        view: SuccessorView,
        parameters: Sequence[Any],
        accumulated: PartitionSet,
        counters: dict[str, int],
        estimate: PathEstimate,
        compiled: CompiledProcedure,
    ) -> tuple[VertexKey, float]:
        """Pick the next state among a vertex's successors.

        The returned probability is the chosen edge's weight *renormalized
        over the candidate pool it was chosen from*.  A transition that the
        parameter mapping resolved unambiguously (only one valid candidate)
        therefore contributes a confidence of 1.0 — knowing the parameters
        removes the uncertainty the raw edge weight encodes — while genuine
        control-flow choices (several valid candidates, or the edge-weight
        fallback of §4.2) contribute their relative likelihood, which is what
        the confidence-threshold pruning of §4.3 acts on.
        """
        successors = view.records
        estimate.work_units += len(successors)
        if len(successors) == 1:
            # A single successor wins regardless of the validity checks
            # (pool = valid or consistent or successors), so the partition
            # prediction can be skipped entirely.
            key, probability = view.pairs[0]
            return key, 1.0 if probability > 0 else 0.0
        # When every non-terminal successor belongs to one statement, the
        # prediction pins the partitions and history, so the next state is
        # resolved with a single index probe: at most one successor can
        # match, making it the whole valid pool (probability 1.0).
        single_name = view.single_name
        if single_name is not None and not view.has_terminal:
            expected_counter = counters.get(single_name, 0)
            predicted = compiled.predict_partitions(
                single_name, expected_counter, parameters, accumulated
            )
            if predicted is not None:
                hit = view.probe(single_name, expected_counter, accumulated, predicted)
                if hit is not None:
                    return hit[0], 1.0 if hit[1] > 0 else 0.0
        elif len(successors) >= _GROUPED_CHOICE_MIN_FANOUT:
            # Multi-name (or terminal-bearing) vertex with a wide fan-out:
            # resolve each candidate name with one probe of the per-name
            # group index instead of scanning every successor record.  Pool
            # membership and ordering are identical to the full scan below
            # (positions restore the canonical record order); below the
            # fan-out threshold the plain scan is cheaper than the group
            # bookkeeping.
            return self._choose_grouped(view, parameters, accumulated, counters, compiled)
        valid: list[tuple[VertexKey, float]] = []
        consistent: list[tuple[VertexKey, float]] = []
        partition_cache: dict[tuple[str, int], PartitionSet | None] = {}
        counters_get = counters.get
        for key, probability, is_terminal, name, counter, previous, partitions in successors:
            if is_terminal:
                valid.append((key, probability))
                continue
            expected_counter = counters_get(name, 0)
            if counter != expected_counter:
                continue
            if previous is not accumulated and previous != accumulated:
                continue
            consistent.append((key, probability))
            cache_key = (name, expected_counter)
            if cache_key in partition_cache:
                predicted = partition_cache[cache_key]
            else:
                predicted = compiled.predict_partitions(
                    name, expected_counter, parameters, accumulated
                )
                partition_cache[cache_key] = predicted
            if predicted is not None and (
                partitions is predicted or partitions == predicted
            ):
                valid.append((key, probability))
        return _pick(valid or consistent or view.pairs)

    def _choose_grouped(
        self,
        view: SuccessorView,
        parameters: Sequence[Any],
        accumulated: PartitionSet,
        counters: dict[str, int],
        compiled: CompiledProcedure,
    ) -> tuple[VertexKey, float]:
        """Multi-name candidate selection via the per-name group index.

        Behaviourally identical to the record scan in :meth:`_choose`: the
        valid pool is (terminals + per-name partition matches), the
        consistent pool is the counter/history-matching candidates, and both
        are kept in canonical record order so tie-breaking and probability
        renormalization agree with the scan bit-for-bit.
        """
        groups, names, terminals = view.groups()
        counters_get = counters.get
        valid: list[tuple] = list(terminals)
        consistent: list[tuple] = []
        for name in names:
            expected_counter = counters_get(name, 0)
            group = groups.get((name, expected_counter, accumulated))
            if not group:
                continue
            consistent.extend(group)
            predicted = compiled.predict_partitions(
                name, expected_counter, parameters, accumulated
            )
            if predicted is None:
                continue
            for entry in group:
                partitions = entry[3]
                if partitions is predicted or partitions == predicted:
                    valid.append(entry)
        ranked = valid or consistent
        if not ranked:
            return _pick(view.pairs)
        ranked.sort(key=_position_rank)
        return _pick([(entry[1], entry[2]) for entry in ranked])

    # ------------------------------------------------------------------
    @staticmethod
    def _account_for_vertex(
        estimate: PathEstimate,
        model: MarkovModel,
        key: VertexKey,
        confidence: float,
        query_index: int,
    ) -> Vertex:
        """Fold one query state into the estimate; returns its vertex."""
        # The chosen key always comes from the model's own successor records.
        vertex = model.find_vertex(key)
        table = vertex.table
        if table is not None and table.abort > estimate.abort_probability:
            estimate.abort_probability = table.abort
        is_write = vertex.query_type is not None and vertex.query_type.is_write
        predictions = estimate.partitions
        for partition_id in key.partitions:
            prediction = predictions.get(partition_id)
            if prediction is None:
                predictions[partition_id] = PartitionPrediction(
                    partition_id=partition_id,
                    access_confidence=confidence,
                    last_access_index=query_index,
                    written=is_write,
                    access_count=1,
                )
                count = 1
            else:
                prediction.last_access_index = query_index
                prediction.written = prediction.written or is_write
                prediction.access_count += 1
                count = prediction.access_count
            # Online OP1 argmax (ties keep the smaller partition id).
            best = estimate._base_partition
            if (
                best is None
                or count > estimate._base_count
                or (count == estimate._base_count and partition_id < best)
            ):
                estimate._base_partition = partition_id
                estimate._base_count = count
        return vertex
