"""The transaction Markov model (paper Section 3).

A :class:`MarkovModel` is a directed graph of execution states for one stored
procedure.  It is built in two phases:

* **construction** — execution paths (from a workload trace or from live
  transactions) are folded into the graph, creating vertices and counting
  edge visits;
* **processing** — edge probabilities are computed from the visit counts, and
  every vertex's probability table (Fig. 5) is pre-computed by walking the
  graph from the terminal states backwards.

Models can keep learning at run time: unknown states become placeholder
vertices, each attempt's transitions are appended to the model's transition
log (:meth:`MarkovModel.log_transitions`) and folded into the visit counters
in one aggregated pass, and calling :meth:`MarkovModel.process` again
refreshes the probabilities and tables from the counters without rebuilding
the graph (Section 4.5), republishing only the views and tables that changed.
A processed model always has its edge probabilities, successor views and
probability tables.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

from ..errors import ModelError
from ..types import PartitionSet, QueryType
from .probability_table import ProbabilityTable
from .vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, Edge, Vertex, VertexKey


_hits = attrgetter("hits")


def _with_cells(column: list[float], partitions: Sequence[int], value: float) -> list[float]:
    """``column`` with ``value`` at every index in ``partitions``: the column
    itself when each of those cells already holds it, else a changed copy.
    A column may be shared by several tables, so it is never set in place."""
    for partition_id in partitions:
        if column[partition_id] != value:
            column = list(column)
            for index in partitions:
                column[index] = value
            return column
    return column


@dataclass(frozen=True)
class PathStep:
    """One step of an execution path handed to the construction phase."""

    statement: str
    query_type: QueryType
    partitions: PartitionSet
    previous: PartitionSet
    counter: int

    def key(self) -> VertexKey:
        return VertexKey.query(self.statement, self.counter, self.partitions, self.previous)


class SuccessorView:
    """Everything the planner reads about one vertex's outgoing edges.

    A function of the vertex's edge *set* and each ``edge.probability``,
    built once and shared — do not mutate:

    * ``pairs`` — ``(target, probability)`` sorted by descending probability,
      ties by :attr:`VertexKey.sort_token`;
    * ``records`` — the same successors, same order, with the estimator's
      per-candidate fields denormalized: ``(key, probability, is_terminal,
      name, counter, previous, partitions)`` (its inner loop unpacks one
      tuple per candidate instead of performing five attribute lookups);
    * ``single_name`` — the statement name every non-terminal successor
      shares, else ``None``; ``has_terminal`` — whether commit/abort is a
      successor.  A single-name, terminal-free vertex resolves its next state
      with one :meth:`probe`.

    The probe index and the per-name groups are built on first use.
    """

    __slots__ = ("pairs", "records", "single_name", "has_terminal", "_index", "_groups")

    def __init__(self, edges: Iterable[Edge]) -> None:
        pairs = [(edge.target, edge.probability) for edge in edges]
        pairs.sort(key=lambda pair: (-pair[1], pair[0].sort_token))
        self.pairs = pairs
        self.records = [
            (key, probability, key.is_terminal, key.name, key.counter,
             key.previous, key.partitions)
            for key, probability in pairs
        ]
        names = {key.name for key, _ in pairs if not key.is_terminal}
        self.single_name = next(iter(names)) if len(names) == 1 else None
        self.has_terminal = any(key.is_terminal for key, _ in pairs)
        self._index: dict[tuple, tuple[VertexKey, float]] | None = None
        self._groups: tuple[dict, tuple[str, ...], tuple] | None = None

    def probe(
        self, name: str, counter: int, previous: PartitionSet, partitions: PartitionSet
    ) -> tuple[VertexKey, float] | None:
        """O(1) lookup of one non-terminal successor by its identity fields:
        the canonical ``(target, probability)`` pair, or ``None``."""
        index = self._index
        if index is None:
            index = self._index = {
                (key.name, key.counter, key.previous, key.partitions): (key, probability)
                for key, probability in self.pairs
                if not key.is_terminal
            }
        return index.get((name, counter, previous, partitions))

    def groups(self) -> tuple[dict, tuple[str, ...], tuple]:
        """Per-name index for wide multi-name vertices: ``(groups, names,
        terminals)``.

        * ``groups`` maps ``(name, counter, previous)`` to the tuple of
          matching successors ``(position, key, probability, partitions)``,
          where ``position`` is the rank in :attr:`records` (it restores the
          canonical order of a candidate pool);
        * ``names`` lists the distinct non-terminal statement names in
          first-appearance order;
        * ``terminals`` lists the terminal successors as ``(position, key,
          probability)``.
        """
        if self._groups is None:
            groups: dict[tuple, list] = {}
            names: list[str] = []
            terminals: list[tuple] = []
            for position, record in enumerate(self.records):
                key, probability, is_terminal, name, counter, previous, partitions = record
                if is_terminal:
                    terminals.append((position, key, probability))
                    continue
                bucket = groups.get((name, counter, previous))
                if bucket is None:
                    groups[(name, counter, previous)] = bucket = []
                    if name not in names:
                        names.append(name)
                bucket.append((position, key, probability, partitions))
            self._groups = (
                {group_key: tuple(bucket) for group_key, bucket in groups.items()},
                tuple(names),
                tuple(terminals),
            )
        return self._groups


class MarkovModel:
    """Execution-state graph for a single stored procedure."""

    def __init__(self, procedure: str, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ModelError("model needs at least one partition")
        self.procedure = procedure
        self.num_partitions = num_partitions
        self._vertices: dict[VertexKey, Vertex] = {}
        self._edges: dict[VertexKey, dict[VertexKey, Edge]] = {}
        self._reverse: dict[VertexKey, set[VertexKey]] = {}
        self.transactions_observed = 0
        self._processed = False
        self._stale = False
        #: Monotonic counter of *prediction-relevant* changes: it advances
        #: when a vertex or edge is created and when :meth:`process`
        #: recomputes probabilities/tables, but NOT on count-only edge visits
        #: (those are logged and folded later, and leave every probability —
        #: and therefore every walk — intact until the next processing
        #: pass).  For the plan memo
        #: (:mod:`repro.houdini.cache`) it is the O(1) fast path only: an
        #: unmoved version proves a memoized walk valid, a moved one proves
        #: nothing — the walk is then asked what it read
        #: (:meth:`still_publishes`).
        self.version = 0
        #: One :class:`SuccessorView` per vertex (see :meth:`successor_view`).
        self._successor_views: dict[VertexKey, SuccessorView] = {}
        #: Vertices whose outgoing edge counts changed (or that were created)
        #: since the last processing pass.  ``None`` means "everything" —
        #: the model has never been processed with its current structure.
        self._dirty: set[VertexKey] | None = None
        #: Vertices whose probability table must be recomputed by the next
        #: incremental pass that reaches them although their probabilities may
        #: not move: a new outgoing edge, or a query type given to a
        #: placeholder.
        self._reshaped: set[VertexKey] = set()
        #: Whether the last pass that computed tables found the graph
        #: acyclic.  Edges are never removed, so a cycle is permanent, and one
        #: closed since that pass runs through a dirty vertex: an incremental
        #: pass then orders only the dirty vertices and their ancestors.
        self._acyclic = False
        #: The run-time transition log: every learning attempt's ``(source,
        #: target)`` pairs, appended once by :meth:`log_transitions`.  Edge
        #: hit counts are folded from it in one aggregated pass before
        #: anything reads them (:meth:`_fold_log`), and model maintenance
        #: takes the whole log at each check (:meth:`drain_log`), which
        #: bounds it by one maintenance interval.
        self._transition_log: list[tuple[VertexKey, VertexKey]] = []
        #: How many leading log entries are already in the edge hit counts.
        self._log_folded = 0
        for key in (BEGIN_KEY, COMMIT_KEY, ABORT_KEY):
            self._add_vertex(key, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def begin(self) -> VertexKey:
        return BEGIN_KEY

    @property
    def commit(self) -> VertexKey:
        return COMMIT_KEY

    @property
    def abort(self) -> VertexKey:
        return ABORT_KEY

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def stale(self) -> bool:
        """True when run-time learning added counts not yet reflected in the
        probabilities (the trigger examined by model maintenance, §4.5)."""
        return self._stale

    def vertex_count(self) -> int:
        return len(self._vertices)

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._edges.values())

    def vertex(self, key: VertexKey) -> Vertex:
        try:
            return self._vertices[key]
        except KeyError:
            raise ModelError(f"unknown vertex {key}") from None

    def find_vertex(self, key: VertexKey) -> Vertex | None:
        """Like :meth:`vertex`, but returns ``None`` for unknown keys (one
        dict probe on the hot path)."""
        return self._vertices.get(key)

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def edges_from(self, key: VertexKey) -> list[Edge]:
        self._fold_log()
        return list(self._edges.get(key, {}).values())

    def successor_view(self, key: VertexKey) -> SuccessorView:
        """The vertex's :class:`SuccessorView` (the planner fetches it once
        per walk step).

        A view is a function of the vertex's edge set and edge probabilities:
        a new edge drops it (rebuilt here, read-through, on the next call),
        :meth:`process` replaces it for every dirty vertex, and counting a
        visit to an existing edge leaves it alone — run-time learning keeps
        serving the same object until the structure or the probabilities
        move.  An unknown vertex gets an empty view that is not kept.
        """
        view = self._successor_views.get(key)
        if view is None:
            view = SuccessorView(self._edges.get(key, {}).values())
            if key in self._vertices:
                self._successor_views[key] = view
        return view

    def successors(self, key: VertexKey) -> list[tuple[VertexKey, float]]:
        """Outgoing (target, probability) pairs sorted by descending
        probability — ``successor_view(key).pairs``; shared, do not mutate."""
        return self.successor_view(key).pairs

    def still_publishes(
        self,
        keys: Sequence[VertexKey],
        views: Sequence[SuccessorView],
        tables: Sequence[ProbabilityTable | None],
    ) -> bool:
        """Whether everything a walk read is still what the model publishes
        (the plan memo's validity rule, :mod:`repro.houdini.cache`).

        ``views[i]`` must be the successor view of ``keys[i]`` — a dropped,
        not-yet-rebuilt view counts as replaced — and ``tables[i]`` its
        probability table.  A ``None`` table means "not read", except at a
        query state: a walk reads every query state's table, and ``None``
        there is a placeholder's missing one.  Identity is the whole test
        because a published view or table is replaced, never mutated; nor is
        a table's column, which tables may share (:meth:`_table_for`).
        """
        current_view = self._successor_views.get
        for key, view in zip(keys, views):
            if current_view(key) is not view:
                return False
        vertices = self._vertices
        for key, table in zip(keys, tables):
            if (table is not None or key.is_query) and vertices[key].table is not table:
                return False
        return True

    def edge(self, source: VertexKey, target: VertexKey) -> Edge | None:
        self._fold_log()
        return self._edges.get(source, {}).get(target)

    def edge_probability(self, source: VertexKey, target: VertexKey) -> float:
        # A probability moves only in process(): no need to fold the log.
        targets = self._edges.get(source)
        edge = targets.get(target) if targets else None
        return edge.probability if edge else 0.0

    def probability_table(self, key: VertexKey) -> ProbabilityTable:
        vertex = self.vertex(key)
        if vertex.table is None:
            raise ModelError(
                f"vertex {key} has no probability table; call process() first"
            )
        return vertex.table

    # ------------------------------------------------------------------
    # Construction phase
    # ------------------------------------------------------------------
    def _add_vertex(self, key: VertexKey, query_type: QueryType | None) -> Vertex:
        vertex = self._vertices.get(key)
        if vertex is None:
            vertex = Vertex(key=key, query_type=query_type)
            self._vertices[key] = vertex
            self._edges.setdefault(key, {})
            self._reverse.setdefault(key, set())
            self.version += 1
            if self._dirty is not None:
                self._dirty.add(key)
        elif query_type is not None and vertex.query_type is None:
            vertex.query_type = query_type
            self._reshaped.add(key)
        return vertex

    def _new_edge(self, source: VertexKey, target: VertexKey) -> Edge:
        """The one edge creation, shared by :meth:`_add_edge_visit` and
        :meth:`log_transitions`.

        A new edge changes the successor structure (its probability stays
        0.0 until the next processing pass, but it already participates in
        candidate pools), so the source's successor view is dropped and
        memoized walks must go.
        """
        edge = Edge(source=source, target=target)
        self._edges.setdefault(source, {})[target] = edge
        self._reverse.setdefault(target, set()).add(source)
        self.version += 1
        self._successor_views.pop(source, None)
        if self._dirty is not None:  # else the next pass is a full one
            self._reshaped.add(source)
        return edge

    def _add_edge_visit(self, source: VertexKey, target: VertexKey, count: int = 1) -> Edge:
        """Count ``count`` visits to an edge at once (construction,
        deserialization); run-time learning logs its visits instead
        (:meth:`log_transitions`).

        No source is marked dirty: every caller leaves the model
        unprocessed (:meth:`fold_path` resets ``_processed``,
        deserialization fills a new model), so the next :meth:`process` is
        a full pass.
        """
        targets = self._edges.get(source)
        edge = targets.get(target) if targets is not None else None
        if edge is None:
            edge = self._new_edge(source, target)
        edge.hits += count
        return edge

    def fold_path(
        self, path: Iterable[tuple[VertexKey, QueryType]], aborted: bool, count: int = 1
    ) -> None:
        """Fold ``count`` transactions that took one execution path into the
        model: ``path`` lists the ``(query key, query type)`` states between
        begin and the commit/abort terminal, and every state and edge on it
        gains ``count`` hits.  A path folded once with its count leaves the
        model as folding it ``count`` times does."""
        add_vertex, add_edge_visit = self._add_vertex, self._add_edge_visit
        current = BEGIN_KEY
        self._vertices[current].hits += count
        for key, query_type in path:
            add_vertex(key, query_type).hits += count
            add_edge_visit(current, key, count)
            current = key
        terminal = ABORT_KEY if aborted else COMMIT_KEY
        self._vertices[terminal].hits += count
        add_edge_visit(current, terminal, count)
        self.transactions_observed += count
        self._processed = False

    def add_placeholder(self, key: VertexKey, query_type: QueryType | None = None) -> Vertex:
        """Add a vertex for a state seen at run time but absent from the model.

        The paper (Section 4.4): "If the transaction reaches a state that does
        not exist in the model, then a new vertex is added as a placeholder;
        no further information can be derived about that state until Houdini
        recomputes the model's probabilities."
        """
        vertex = self._add_vertex(key, query_type)
        self._stale = True
        return vertex

    # ------------------------------------------------------------------
    # Run-time learning: the transition log
    # ------------------------------------------------------------------
    def log_transitions(
        self,
        transitions: Sequence[tuple[VertexKey, VertexKey]],
        known: Sequence[Vertex] = (),
    ) -> None:
        """Log one attempt's ``(source, target)`` pairs (§4.4): the one
        run-time learning write.

        What planning reads between two processing passes is written now:
        each target's hit count (the OP3 support gate reads it), a
        placeholder for an unknown state, and a new edge (which drops its
        source's view and moves :attr:`version`).  Edge hit counts, which
        only processing and the edge accessors read, are appended to the log
        and folded later in one aggregated pass.

        ``known`` lists the target :class:`Vertex` objects of a leading run
        of ``transitions`` whose edges the caller knows exist (the run-time
        monitor's followed estimate: the walk fetched every one); only the
        pairs after it are probed.
        """
        if not transitions:
            return
        for vertex in known:
            vertex.hits += 1
        vertices = self._vertices
        edges = self._edges
        for source, target in islice(transitions, len(known), None):
            if source not in vertices:
                self.add_placeholder(source)
            vertex = vertices.get(target)
            if vertex is None:
                vertex = self.add_placeholder(target)
            vertex.hits += 1
            if target not in edges[source]:
                self._new_edge(source, target)
        self._transition_log.extend(transitions)
        self._stale = True

    def logged_transitions(self) -> int:
        """How many transitions the log holds (logged since the last
        :meth:`drain_log`)."""
        return len(self._transition_log)

    def _fold_log(self) -> None:
        """Fold the log entries not yet counted into the edge hits.

        Every reader of edge counts calls this first: a pair folded twice or
        never is a wrong count that no probability shows until the next
        recompute (a reader that skips the fold fails
        ``tests/property/test_property_transition_log.py``).
        """
        log = self._transition_log
        folded = self._log_folded
        if folded < len(log):
            self._count_visits(Counter(islice(log, folded, None)))
            self._log_folded = len(log)

    def drain_log(self) -> tuple[list[tuple[VertexKey, VertexKey]], Counter]:
        """Hand the whole log over and start an empty one (model
        maintenance, at each check).

        Every entry is in the edge hit counts when this returns.  Returns the
        entries in log order and their count per pair, pairs in first-seen
        order.
        """
        log = self._transition_log
        counts = Counter(log)
        folded = self._log_folded
        if folded == 0:
            self._count_visits(counts)
        elif folded < len(log):
            self._count_visits(Counter(islice(log, folded, None)))
        self._transition_log = []
        self._log_folded = 0
        return log, counts

    def _count_visits(self, counts: Counter) -> None:
        """Add aggregated logged visits to existing edges (one pass,
        first-seen order) and mark their sources dirty."""
        edges = self._edges
        for (source, target), count in counts.items():
            edges[source][target].hits += count
        if self._dirty is not None:
            self._dirty.update(map(itemgetter(0), counts))

    # ------------------------------------------------------------------
    # Processing phase
    # ------------------------------------------------------------------
    def process(self) -> None:
        """Compute edge probabilities, successor views and probability tables.

        The first call (and any call on a model whose full structure is new,
        e.g. right after deserialization) processes every vertex.  Subsequent
        calls are **incremental**: only vertices whose outgoing edge counts
        changed since the last pass — plus their ancestors, whose tables
        depend on them — are re-derived.  Run-time model maintenance (§4.5)
        therefore pays for the drifted part of the graph, not the whole model.

        An incremental pass republishes only what changed: a dirty vertex
        whose recomputed probabilities are bit-equal keeps its published
        :class:`SuccessorView`, and a table is recomputed only when an input
        moved and replaced only when the result differs (:meth:`_refresh`).
        A kept object is never mutated, so the replaced-never-mutated rule
        the plan memo relies on still holds.  The pass orders only the dirty
        vertices and their ancestors (:meth:`_affected_closure`), not the
        whole graph.
        """
        self._fold_log()
        dirty = self._dirty
        incremental = self._processed and dirty is not None
        if incremental and not dirty:
            # Nothing changed since the last pass: probabilities, successor
            # views and tables are all still valid.
            self._stale = False
            return
        vertices = self._vertices
        edges = self._edges
        views = self._successor_views
        if incremental:
            changed = self._compute_edge_probabilities(dirty)
            for key in dirty:
                if key in vertices and (key in changed or key not in views):
                    views[key] = SuccessorView(edges[key].values())
        else:
            self._compute_edge_probabilities(None)
            for key in vertices:
                views[key] = SuccessorView(edges[key].values())
        complete = False
        if incremental and self._acyclic:
            order, complete = self._topological_order(self._affected_closure(dirty))
            if complete:
                self._refresh(order, changed)
        if not complete:
            order, complete = self._topological_order()
            if complete:
                self._compute_probability_tables_ordered(order)
                self._compute_remaining_queries(order)
            else:
                # Run-time placeholder edges introduced a cycle: fall back
                # to the bounded fixed-point pass over the whole graph.
                self._compute_probability_tables_fixed_point(order)
                self._compute_remaining_queries(order, reset=True)
            self._reshaped.clear()
        self._acyclic = complete
        self._dirty = set()
        self._processed = True
        self._stale = False
        # Probabilities and tables changed: memoized walks are invalid.
        self.version += 1

    def _compute_edge_probabilities(self, sources: set[VertexKey] | None) -> set[VertexKey]:
        """Recompute outgoing probabilities (for ``sources``, or everywhere);
        returns the sources where any probability moved."""
        edges = self._edges
        changed: set[VertexKey] = set()
        for key in edges if sources is None else sources:
            targets = edges.get(key)
            if not targets:
                continue
            total = sum(map(_hits, targets.values()))
            for edge in targets.values():
                probability = edge.hits / total if total > 0 else 0.0
                if probability != edge.probability:
                    edge.probability = probability
                    changed.add(key)
        return changed

    def _affected_closure(self, dirty: set[VertexKey]) -> set[VertexKey]:
        """Dirty vertices plus every vertex that can reach one of them.

        A vertex's probability table depends on its outgoing probabilities
        and its descendants' tables, so a dirtied edge invalidates exactly
        its source and the source's ancestors.
        """
        affected: set[VertexKey] = set()
        stack = [key for key in dirty if key in self._vertices]
        while stack:
            key = stack.pop()
            if key in affected:
                continue
            affected.add(key)
            for parent in self._reverse.get(key, ()):
                if parent not in affected:
                    stack.append(parent)
        return affected

    def _topological_order(
        self, region: set[VertexKey] | None = None
    ) -> tuple[list[VertexKey], bool]:
        """Vertices ordered so every child precedes its parents.

        The paper's models are acyclic, so a reverse topological order exists
        and guarantees a vertex's table is computed only after all of its
        children's (Section 3.2).  Returns the order plus a flag saying
        whether it covers every vertex; if run-time placeholder edges
        introduced a cycle, the affected vertices are appended at the end,
        the flag is False, and the caller falls back to a bounded fixed-point
        pass.

        With ``region`` (a set holding every parent of its members, e.g. an
        :meth:`_affected_closure`) only the region is ordered, counting only
        children inside it, and nothing is appended when the order falls
        short.
        """
        if region is None:
            out_degree = {key: len(self._edges.get(key, {})) for key in self._vertices}
        else:
            out_degree = {key: len(region.intersection(self._edges[key])) for key in region}
        ready = deque(key for key, degree in out_degree.items() if degree == 0)
        order: list[VertexKey] = []
        seen: set[VertexKey] = set()
        while ready:
            key = ready.popleft()
            if key in seen:
                continue
            seen.add(key)
            order.append(key)
            for parent in self._reverse.get(key, ()):  # parents now have one fewer child
                out_degree[parent] -= 1
                if out_degree[parent] == 0:
                    ready.append(parent)
        complete = len(order) == len(out_degree)
        if complete or region is not None:
            return order, complete
        leftovers = [key for key in self._vertices if key not in seen]
        return order + leftovers, False

    def _compute_probability_tables_ordered(self, order: Sequence[VertexKey]) -> None:
        """Single-pass table derivation, valid when children precede parents.

        This is the acyclic common case: one pass in reverse topological
        order reaches the fixed point directly, so the bounded iteration (and
        its per-vertex ``approx_equal`` comparisons) is skipped entirely.
        """
        vertices = self._vertices
        for key in order:
            vertices[key].table = self._table_for(key)

    def _refresh(self, order: Sequence[VertexKey], changed: set[VertexKey]) -> None:
        """The incremental form of :meth:`_compute_probability_tables_ordered`
        and :meth:`_compute_remaining_queries`: republish only what changed.

        A table is a function of the vertex's edges and their probabilities,
        its query type and its children's tables; the expected remaining
        queries, of the edges, probabilities and the children's expectations.
        Each is recomputed only when one of its inputs moved — a probability
        (``changed``), the shape (``_reshaped``), or a child's value replaced
        earlier in this pass — and a recomputed table bit-equal to the
        published one keeps the published object, so the vertex's parents can
        skip in turn.  (``==`` is bit-equality here: every value is a
        non-negative sum of products of probabilities, so neither ``-0.0``
        nor NaN occurs.)
        """
        vertices = self._vertices
        edges = self._edges
        reshaped = self._reshaped
        replaced: set[VertexKey] = set()
        moved: set[VertexKey] = set()
        for key in order:
            vertex = vertices[key]
            targets = edges[key]
            own = key in changed or key in reshaped
            published = vertex.table
            if published is None or own or not replaced.isdisjoint(targets):
                reshaped.discard(key)
                table = self._table_for(key)
                if table != published:
                    vertex.table = table
                    replaced.add(key)
            if (own or not moved.isdisjoint(targets)) and not key.is_terminal:
                expectation = 0.0
                for target, edge in targets.items():
                    expectation += edge.probability * (
                        (1.0 if target.is_query else 0.0)
                        + vertices[target].expected_remaining_queries
                    )
                if expectation != vertex.expected_remaining_queries:
                    vertex.expected_remaining_queries = expectation
                    moved.add(key)

    # Cycles only appear via run-time placeholder edges; the iteration exits
    # as soon as a round leaves every table unchanged, so the bound is only
    # reached while a cycle's probabilities are still converging (a self-loop
    # of probability p closes the gap by factor p per round).
    def _compute_probability_tables_fixed_point(
        self, order: Sequence[VertexKey], fixed_point_rounds: int = 64
    ) -> None:
        for _ in range(fixed_point_rounds):
            changed = False
            for key in order:
                new_table = self._table_for(key)
                vertex = self._vertices[key]
                if vertex.table is None or not vertex.table.approx_equal(new_table):
                    vertex.table = new_table
                    changed = True
            if not changed:
                break

    def _table_for(self, key: VertexKey) -> ProbabilityTable:
        """A new table for ``key`` from its edges and its children's tables.

        A lone certain edge (most query states) takes its child's values, so
        the table shares each of the child's columns whose cells already hold
        what a query state sets (1.0 where it reads or writes, finish 0.0
        there), and copies only a column it must change
        (:func:`_with_cells`).  No column is ever set in place: a published
        column is replaced with its table, never mutated.
        """
        if key == COMMIT_KEY:
            return ProbabilityTable.for_commit(self.num_partitions)
        if key == ABORT_KEY:
            return ProbabilityTable.for_abort(self.num_partitions)
        vertices = self._vertices
        children: list[tuple[float, ProbabilityTable]] = []
        for target, edge in self._edges.get(key, {}).items():
            child_table = vertices[target].table
            if child_table is None:
                child_table = ProbabilityTable(self.num_partitions)
            children.append((edge.probability, child_table))
        table = ProbabilityTable.weighted_sum(self.num_partitions, children)
        if key.is_query:
            if len(key.accessed_partitions()) > 1:
                table.single_partition = 0.0
            partitions = key.partitions.partitions
            if vertices[key].query_type is QueryType.WRITE:
                table.write = _with_cells(table.write, partitions, 1.0)
            else:
                table.read = _with_cells(table.read, partitions, 1.0)
            table.finish = _with_cells(table.finish, partitions, 0.0)
        return table

    def _compute_remaining_queries(
        self, order: Sequence[VertexKey], *, reset: bool = False
    ) -> None:
        """Annotate vertices with the expected number of remaining queries.

        This is the "expected remaining run time" extension sketched in the
        paper's future-work section; the cost model converts query counts to
        time when it is used for scheduling.  ``order`` must list children
        before parents; ``reset`` zeroes the annotations first, which the
        cyclic fallback uses to reproduce the old single-sweep semantics.
        """
        vertices = self._vertices
        if reset:
            for key in order:
                vertices[key].expected_remaining_queries = 0.0
        for key in order:
            vertex = vertices[key]
            if key.is_terminal:
                vertex.expected_remaining_queries = 0.0
                continue
            expectation = 0.0
            for edge in self._edges.get(key, {}).values():
                child_cost = 1.0 if edge.target.is_query else 0.0
                expectation += edge.probability * (
                    child_cost + vertices[edge.target].expected_remaining_queries
                )
            vertex.expected_remaining_queries = expectation

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MarkovModel {self.procedure!r} vertices={self.vertex_count()} "
            f"edges={self.edge_count()} txns={self.transactions_observed}>"
        )
