"""Pre-computed per-vertex probability tables (paper Fig. 5, §3.2).

Each vertex carries a table of estimates about what happens *after* a
transaction reaches that state:

* ``single_partition`` — probability that every future query executes on the
  same partition where the control code is running (OP1),
* ``abort`` — probability the transaction eventually aborts (OP3),
* per partition: the probability that a future query **reads** or **writes**
  data there (OP2), and conversely the probability that the transaction is
  **finished** with that partition (OP4).

Pre-computing these tables avoids an expensive traversal of the model per
transaction; the paper measures that optimization as saving ~24% of the
on-line computation time, and the ablation bench
``benchmarks/bench_ablation_precompute.py`` reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ModelError


@dataclass(slots=True)
class ProbabilityTable:
    """The full probability table of one vertex.

    The per-partition estimates are three flat columns indexed by partition
    id; read them through the ``*_probability`` accessors.  A model's tables
    may share columns (a vertex with one certain edge shares its child's
    unchanged ones), so the model never sets a column in place: a changed
    column is a new list.
    """

    num_partitions: int
    single_partition: float = 0.0
    abort: float = 0.0
    read: list[float] = field(default_factory=list)
    write: list[float] = field(default_factory=list)
    finish: list[float] = field(default_factory=list)
    #: Lazily cached output of :meth:`positive_access`.
    _positive_access: tuple[tuple[int, float], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ModelError("probability table needs at least one partition")
        if not self.read and not self.write and not self.finish:
            self.read = [0.0] * self.num_partitions
            self.write = [0.0] * self.num_partitions
            self.finish = [1.0] * self.num_partitions
        elif not (
            len(self.read) == len(self.write) == len(self.finish) == self.num_partitions
        ):
            raise ModelError("partition probability columns have the wrong length")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def _checked(self, partition_id: int) -> int:
        if not 0 <= partition_id < self.num_partitions:
            raise ModelError(f"partition {partition_id} out of range")
        return partition_id

    def read_probability(self, partition_id: int) -> float:
        return self.read[self._checked(partition_id)]

    def write_probability(self, partition_id: int) -> float:
        return self.write[self._checked(partition_id)]

    def finish_probability(self, partition_id: int) -> float:
        return self.finish[self._checked(partition_id)]

    def access_probability(self, partition_id: int) -> float:
        """Probability of any future access (read or write)."""
        partition_id = self._checked(partition_id)
        return max(self.read[partition_id], self.write[partition_id])

    def positive_access(self) -> tuple[tuple[int, float], ...]:
        """Cached ``(partition, access probability)`` pairs with access > 0.

        A published table is replaced, never mutated, and its columns are
        never set in place, so the cache cannot go stale for on-line
        readers.  The optimization selector iterates this instead of probing
        every partition of every table on the estimated path.
        """
        cached = self._positive_access
        if cached is None:
            cached = tuple(
                (partition_id, read if read >= write else write)
                for partition_id, (read, write) in enumerate(zip(self.read, self.write))
                if read > 0.0 or write > 0.0
            )
            self._positive_access = cached
        return cached

    def accessed_partitions(self, threshold: float) -> list[int]:
        """Partitions whose future access probability meets ``threshold``."""
        return [
            p for p, (read, write) in enumerate(zip(self.read, self.write))
            if max(read, write) >= threshold
        ]

    def finished_partitions(self, threshold: float) -> list[int]:
        """Partitions whose finish probability meets ``threshold``."""
        return [p for p, finish in enumerate(self.finish) if finish >= threshold]

    # ------------------------------------------------------------------
    # Construction helpers used by the processing phase
    # ------------------------------------------------------------------
    @staticmethod
    def for_commit(num_partitions: int) -> "ProbabilityTable":
        """Terminal table for the commit state: finished with everything."""
        return ProbabilityTable(num_partitions, single_partition=1.0, abort=0.0)

    @staticmethod
    def for_abort(num_partitions: int) -> "ProbabilityTable":
        """Terminal table for the abort state: abort probability one."""
        return ProbabilityTable(num_partitions, single_partition=1.0, abort=1.0)

    @staticmethod
    def weighted_sum(
        num_partitions: int,
        children: list[tuple[float, "ProbabilityTable"]],
    ) -> "ProbabilityTable":
        """Combine children tables weighted by their edge probabilities.

        A lone certain edge shares its child's columns; any other mix builds
        new ones.
        """
        total_weight = sum(weight for weight, _ in children)
        if total_weight <= 0:
            return ProbabilityTable(num_partitions)
        if len(children) == 1 and total_weight == 1.0:
            # A lone certain edge (most query states): x * 1.0 / 1.0 == x,
            # so the child's columns are shared, not copied.
            child = children[0][1]
            return ProbabilityTable(
                num_partitions, child.single_partition, child.abort,
                child.read, child.write, child.finish,
            )
        weights = [weight for weight, _ in children]

        def mix(columns: list) -> list[float]:
            # ((w0*x0 + w1*x1) + ...) / total per cell, left to right.
            mixed = [weights[0] * value for value in columns[0]]
            for weight, column in zip(weights[1:], columns[1:]):
                mixed = [acc + weight * value for acc, value in zip(mixed, column)]
            return [value / total_weight for value in mixed]

        single_partition, abort = mix([(t.single_partition, t.abort) for _, t in children])
        return ProbabilityTable(
            num_partitions, single_partition, abort,
            mix([t.read for _, t in children]),
            mix([t.write for _, t in children]),
            mix([t.finish for _, t in children]),
        )

    def approx_equal(self, other: "ProbabilityTable", tolerance: float = 1e-9) -> bool:
        """Structural comparison used by convergence checks and tests."""
        if self.num_partitions != other.num_partitions:
            return False
        if abs(self.single_partition - other.single_partition) > tolerance:
            return False
        if abs(self.abort - other.abort) > tolerance:
            return False
        for mine, theirs in (
            (self.read, other.read), (self.write, other.write), (self.finish, other.finish)
        ):
            if any(abs(a - b) > tolerance for a, b in zip(mine, theirs)):
                return False
        return True
