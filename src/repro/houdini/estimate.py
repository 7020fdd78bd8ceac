"""Initial execution-path estimates (paper §4.2-4.3).

A :class:`PathEstimate` is what Houdini produces for a new transaction
request before it starts: the most likely sequence of execution states, the
confidence attached to each step, and the derived per-optimization
predictions (base partition, lock set with per-partition confidence, abort
probability, per-partition finish points).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..markov.model import SuccessorView
from ..markov.probability_table import ProbabilityTable
from ..markov.vertex import Vertex, VertexKey, VertexKind
from ..types import PartitionId


@dataclass(slots=True)
class PartitionPrediction:
    """Prediction for one partition derived from the estimated path."""

    partition_id: PartitionId
    #: Confidence that the transaction accesses the partition at all: the
    #: product of the edge probabilities up to the first state that touches
    #: it (paper §4.3, OP2).
    access_confidence: float
    #: Index (into the estimated query sequence) of the last state predicted
    #: to touch the partition; used for OP4 / early prepare.
    last_access_index: int
    #: Whether any predicted access is a write.
    written: bool = False
    #: Number of estimated queries predicted to touch the partition
    #: (maintained by the estimator's walk; OP1 picks the maximum).
    access_count: int = 0


@dataclass(slots=True)
class PathEstimate:
    """Houdini's initial estimate for one transaction request."""

    procedure: str
    #: Estimated vertex sequence (begin ... terminal); may end early when the
    #: walk hits the path-length ceiling or a dead end.
    vertices: list[VertexKey] = field(default_factory=list)
    #: Probability of each traversed edge, aligned with ``vertices[1:]``.
    edge_probabilities: list[float] = field(default_factory=list)
    #: The model's :class:`Vertex` for each query state the walk accounted
    #: for, aligned with ``vertices`` (``None`` for begin and terminals), so
    #: the run-time monitor need not probe the model again for a state the
    #: walk already fetched.  A model never replaces a vertex object, so the
    #: record stays valid for as long as the estimate is served.  Empty for
    #: an estimate no walk produced.
    path_vertices: list[Vertex | None] = field(
        default_factory=list, repr=False, compare=False
    )
    #: What the walk read from the model, aligned with ``vertices``: the
    #: ``SuccessorView`` fetched at each step, and the probability table of
    #: each query state accounted for (``None`` elsewhere, or a placeholder's
    #: missing one) — with ``begin``'s in slot 0 when no first query state's
    #: table exists to be the decision's OP2 reference.  The model replaces
    #: these objects and never mutates them; "each is still in place" is the
    #: plan memo's validity rule (``MarkovModel.still_publishes``).
    read_views: list[SuccessorView] = field(default_factory=list, repr=False, compare=False)
    read_tables: list[ProbabilityTable | None] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Per-partition predictions derived from the path.
    partitions: dict[PartitionId, PartitionPrediction] = field(default_factory=dict)
    #: Greatest abort probability found in the probability tables along the
    #: path (the conservative OP3 input, §4.3).
    abort_probability: float = 0.0
    #: Whether the estimated path itself terminates at the abort state.
    predicted_abort: bool = False
    #: Number of candidate-state evaluations the estimator performed
    #: (proxy for the estimation cost charged by the simulator).
    work_units: int = 0
    #: True when the estimate was produced by a degenerate/disabled path
    #: (e.g. Houdini disabled for the procedure or no model available).
    degenerate: bool = False
    #: Cached ``(len(vertices), query vertices)`` pair — the optimization
    #: selector reads :attr:`query_vertices` several times per decision.
    _query_vertices_cache: tuple[int, list[VertexKey]] | None = field(
        default=None, repr=False, compare=False
    )
    #: Cached ``(len(partitions), finish points)`` pair — computed once the
    #: walk is done, read by both the decision and the run-time monitor.
    _finish_points_cache: tuple[int, dict[PartitionId, int]] | None = field(
        default=None, repr=False, compare=False
    )
    #: Cached ``(len(edge_probabilities), confidence)`` pair — the walk
    #: already maintains the running product, so it stores it here.
    _confidence_cache: tuple[int, float] | None = field(
        default=None, repr=False, compare=False
    )
    #: Online argmax over the per-partition access counts, maintained by the
    #: estimator's walk so :meth:`base_partition` is O(1) for walked
    #: estimates (ties keep the smaller partition id).
    _base_partition: PartitionId | None = field(
        default=None, repr=False, compare=False
    )
    _base_count: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def confidence(self) -> float:
        """Overall confidence: the product of the traversed edge probabilities."""
        cached = self._confidence_cache
        if cached is not None and cached[0] == len(self.edge_probabilities):
            return cached[1]
        value = 1.0
        for probability in self.edge_probabilities:
            value *= probability
        self._confidence_cache = (len(self.edge_probabilities), value)
        return value

    @property
    def query_vertices(self) -> list[VertexKey]:
        cached = self._query_vertices_cache
        if cached is not None and cached[0] == len(self.vertices):
            return cached[1]
        result = [v for v in self.vertices if v.is_query]
        self._query_vertices_cache = (len(self.vertices), result)
        return result

    @property
    def query_count(self) -> int:
        return len(self.query_vertices)

    @property
    def reached_terminal(self) -> bool:
        return bool(self.vertices) and self.vertices[-1].kind in (
            VertexKind.COMMIT, VertexKind.ABORT
        )

    def touched_partitions(self) -> list[PartitionId]:
        return sorted(self.partitions)

    def predicted_single_partition(self) -> bool:
        return len(self.partitions) <= 1

    def base_partition(self) -> PartitionId | None:
        """OP1: the partition accessed by the most predicted queries."""
        if self._base_partition is not None:
            return self._base_partition
        partitions = self.partitions
        if partitions and any(p.access_count for p in partitions.values()):
            # Estimator-built estimates carry the per-partition access counts
            # accumulated during the walk; reuse them instead of re-counting
            # over the query vertices.
            if len(partitions) == 1:
                return next(iter(partitions))
            best = min(
                partitions.values(),
                key=lambda p: (-p.access_count, p.partition_id),
            )
            return best.partition_id
        counts: dict[PartitionId, int] = {}
        for vertex in self.query_vertices:
            for partition_id in vertex.partitions:
                counts[partition_id] = counts.get(partition_id, 0) + 1
        if not counts:
            return None
        if len(counts) == 1:
            return next(iter(counts))
        # Deterministic tie-break on the partition id keeps runs reproducible.
        return min(counts, key=lambda p: (-counts[p], p))

    def finish_points(self) -> dict[PartitionId, int]:
        """OP4: per-partition index of the last predicted access.

        The returned dict is cached and shared — callers must not mutate it.
        """
        cached = self._finish_points_cache
        if cached is not None and cached[0] == len(self.partitions):
            return cached[1]
        result = {
            prediction.partition_id: prediction.last_access_index
            for prediction in self.partitions.values()
        }
        self._finish_points_cache = (len(self.partitions), result)
        return result

    def describe(self) -> str:
        """Readable multi-line summary used by examples."""
        lines = [f"Path estimate for {self.procedure!r} "
                 f"(confidence {self.confidence:.3f}, abort {self.abort_probability:.3f})"]
        for index, vertex in enumerate(self.vertices):
            probability = self.edge_probabilities[index - 1] if index >= 1 else 1.0
            lines.append(f"  [{index}] p={probability:.2f} {vertex}")
        return "\n".join(lines)
