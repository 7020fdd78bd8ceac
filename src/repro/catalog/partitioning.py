"""Partitioning schemes and the partition estimator ("internal API").

H-Store horizontally partitions each table on one column; a row's home
partition is a deterministic function of that column's value.  The paper
relies on an internal API (its reference [5]) that, given a query and its
parameters, returns the set of partitions the query will access.  That logic
lives here so that the storage engine, the Markov-model builder, the Houdini
estimator and the baselines all share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import CatalogError
from ..types import PartitionId, PartitionSet
from .statement import Operation, Statement
from .table import Table


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash for partitioning values.

    Python's built-in ``hash`` for strings is randomized per process, which
    would make traces non-reproducible, so strings are folded manually with a
    small FNV-1a style loop.  Integers hash to themselves, which also makes
    tests easy to reason about (warehouse ``w`` lands on partition
    ``w % num_partitions`` when warehouses are numbered from zero).
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    if isinstance(value, str):
        acc = 2166136261
        for ch in value.encode("utf-8"):
            acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
        return acc
    if isinstance(value, (tuple, list)):
        acc = 0
        for element in value:
            acc = (acc * 31 + stable_hash(element)) & 0xFFFFFFFF
        return acc
    raise CatalogError(f"cannot hash partitioning value of type {type(value).__name__}")


@dataclass(frozen=True)
class PartitionScheme:
    """Maps partitioning-column values to partition ids.

    Parameters
    ----------
    num_partitions:
        Total number of partitions in the cluster.
    partitions_per_node:
        How many partitions each node hosts (the paper uses two).  Used to
        derive the node that owns a partition.
    """

    num_partitions: int
    partitions_per_node: int = 2

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise CatalogError("num_partitions must be >= 1")
        if self.partitions_per_node < 1:
            raise CatalogError("partitions_per_node must be >= 1")

    @property
    def num_nodes(self) -> int:
        return (self.num_partitions + self.partitions_per_node - 1) // self.partitions_per_node

    def all_partitions(self) -> PartitionSet:
        return PartitionSet.of(range(self.num_partitions))

    def partition_for_value(self, value: Any) -> PartitionId:
        """Home partition of a row given its partitioning-column value."""
        return stable_hash(value) % self.num_partitions

    def partitions_for_node(self, node_id: int) -> PartitionSet:
        start = node_id * self.partitions_per_node
        stop = min(start + self.partitions_per_node, self.num_partitions)
        if start >= self.num_partitions:
            raise CatalogError(f"node {node_id} out of range")
        return PartitionSet.of(range(start, stop))


class PartitionEstimator:
    """Computes the set of partitions a bound statement invocation touches.

    This is the reproduction of the DBMS "internal API" (paper reference [5])
    used both off-line (Markov-model construction from traces) and on-line
    (Houdini's initial path estimation via parameter mappings).
    """

    #: Resolver kinds (see :meth:`resolve`); payload ``None`` / the fixed
    #: :class:`PartitionSet` / the routing parameter's index.
    REPLICATED_READ = 0
    FIXED = 1
    PARAM = 2

    def __init__(self, scheme: PartitionScheme) -> None:
        self.scheme = scheme
        #: The broadcast set and the interned one-partition sets, indexed by
        #: partition id: every routing decision returns one of these.
        self.all_partitions = scheme.all_partitions()
        self.singletons = tuple(
            PartitionSet.of([pid]) for pid in range(scheme.num_partitions)
        )
        #: :meth:`resolve` results for :meth:`partitions_for`.  Keyed by
        #: statement identity; the statement is pinned in the value so the id
        #: cannot be recycled.
        self._resolvers: dict[int, tuple[Statement, int, Any]] = {}

    # ------------------------------------------------------------------
    def partitions_for(
        self,
        table: Table,
        statement: Statement,
        parameters: Sequence[Any],
        *,
        base_partition: PartitionId | None = None,
    ) -> PartitionSet:
        """Partitions accessed by ``statement`` bound to ``parameters``.

        Replicated tables are read locally at the base partition (writes to
        replicated tables touch every partition).  Partitioned tables are
        accessed at the home partition of the bound partitioning-column
        value; if the statement has no binding on the partitioning column the
        access is a broadcast to every partition.

        This is the off-line form of the API (model construction from
        traces).  The execution engine applies the same :meth:`resolve`
        result inline, from its per-procedure step table.
        """
        resolver = self._resolvers.get(id(statement))
        if resolver is None:
            resolver = (statement, *self.resolve(table, statement))
            self._resolvers[id(statement)] = resolver
        _, kind, payload = resolver
        if kind == self.FIXED:
            return payload
        if kind == self.PARAM:
            if payload >= len(parameters):
                raise CatalogError(
                    f"statement {statement.name!r} expects at least {payload + 1} parameters"
                )
            value = parameters[payload]
            if type(value) is int:
                # stable_hash(int) is the int itself.
                return self.singletons[value % self.scheme.num_partitions]
            if value is None:
                return self.all_partitions
            return self.singletons[stable_hash(value) % self.scheme.num_partitions]
        # REPLICATED_READ: local to wherever the control code runs.
        if base_partition is not None:
            return self.singletons[base_partition]
        return self.all_partitions

    def resolve(self, table: Table, statement: Statement) -> tuple[int, Any]:
        """The catalog-determined part of the routing decision, as
        ``(kind, payload)``: replication, partition column, literal vs
        parameter binding.  Fixed per statement — callers cache it."""
        if table.replicated:
            if statement.operation is Operation.SELECT:
                return (self.REPLICATED_READ, None)
            return (self.FIXED, self.all_partitions)
        partition_column = table.partition_column
        if partition_column is None:
            # Unpartitioned, unreplicated tables live on partition zero.
            return (self.FIXED, self.singletons[0])
        literal = statement.partitioning_literal(partition_column)
        if literal is not None:
            return (
                self.FIXED,
                self.singletons[self.scheme.partition_for_value(literal)],
            )
        index = statement.partitioning_parameter_index(partition_column)
        if index is None:
            return (self.FIXED, self.all_partitions)
        return (self.PARAM, index)
