"""Shared experiment configuration and small formatting helpers.

Every experiment accepts an :class:`ExperimentScale` that controls how much
work it does.  The paper's configuration (100,000-transaction traces, five
cluster sizes up to 64 partitions, five-minute measured runs on a physical
cluster) is available as :meth:`ExperimentScale.paper`, but the default used
by the pytest benchmark harness is a scaled-down configuration that preserves
the workload mixes and therefore the qualitative results while finishing in
minutes on a laptop.  ``REPRO_SCALE=small|medium|large`` selects a preset,
and individual fields can be overridden via keyword arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .. import schema
from ..errors import SessionError
from ..schema import spec


@dataclass(frozen=True)
class ExperimentScale:
    """How much work each experiment performs.

    Validation is strict: out-of-range values raise
    :class:`~repro.errors.SessionError` at construction, and
    :meth:`from_env` rejects unknown ``REPRO_SCALE`` values instead of
    silently falling back to the default."""

    name: str = spec("small", kind="str")
    #: Transactions recorded in the sample workload trace (paper: 100,000).
    trace_transactions: int = spec(1500, kind="int", ge=1)
    #: Transactions executed per simulator run (paper: 5-minute runs).
    simulated_transactions: int = spec(800, kind="int", ge=1)
    #: Cluster sizes (number of partitions) for the scaling experiments
    #: (paper: 4, 8, 16, 32, 64).
    partition_counts: tuple[int, ...] = spec((4, 8, 16), kind="int", ge=1, each=True)
    #: Cluster size used by the fixed-size experiments (paper: 16).
    accuracy_partitions: int = spec(8, kind="int", ge=1)
    #: Confidence-threshold sweep for the Fig. 13 experiment.
    thresholds: tuple[float, ...] = spec(
        (0.0, 0.2, 0.4, 0.6, 0.8, 1.0), kind="float", ge=0, le=1, each=True
    )
    #: Transactions evaluated per configuration in the accuracy experiment.
    accuracy_test_transactions: int = spec(600, kind="int", ge=1)
    #: Whether partitioned models use the full feed-forward search.
    feedforward_selection: bool = spec(False, kind="bool")
    #: Base RNG seed.
    seed: int = spec(7, kind="int")

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        schema.check(self, SessionError, "ExperimentScale.")
        if not self.partition_counts:
            raise SessionError("ExperimentScale.partition_counts must not be empty")

    # ------------------------------------------------------------------
    @staticmethod
    def small() -> "ExperimentScale":
        return ExperimentScale()

    @staticmethod
    def medium() -> "ExperimentScale":
        return ExperimentScale(
            name="medium",
            trace_transactions=4000,
            simulated_transactions=2000,
            partition_counts=(4, 8, 16, 32),
            accuracy_partitions=16,
            accuracy_test_transactions=1500,
        )

    @staticmethod
    def large() -> "ExperimentScale":
        return ExperimentScale(
            name="large",
            trace_transactions=20000,
            simulated_transactions=6000,
            partition_counts=(4, 8, 16, 32, 64),
            accuracy_partitions=16,
            accuracy_test_transactions=5000,
            feedforward_selection=True,
        )

    @staticmethod
    def paper() -> "ExperimentScale":
        return ExperimentScale(
            name="paper",
            trace_transactions=100000,
            simulated_transactions=50000,
            partition_counts=(4, 8, 16, 32, 64),
            accuracy_partitions=16,
            accuracy_test_transactions=50000,
            thresholds=tuple(round(0.05 * i, 2) for i in range(21)),
            feedforward_selection=True,
        )

    @staticmethod
    def from_env(default: "ExperimentScale | None" = None) -> "ExperimentScale":
        """Pick a preset via the ``REPRO_SCALE`` environment variable.

        Unset (or empty) falls back to ``default`` (or the small preset);
        an unrecognized value raises :class:`SessionError` naming the valid
        presets — a typo must not silently run the wrong scale.
        """
        presets = {
            "small": ExperimentScale.small,
            "medium": ExperimentScale.medium,
            "large": ExperimentScale.large,
            "paper": ExperimentScale.paper,
        }
        raw = os.environ.get("REPRO_SCALE", "")
        name = raw.strip().lower()
        if not name:
            return default or ExperimentScale.small()
        if name not in presets:
            raise SessionError(
                f"unknown REPRO_SCALE value {raw!r}; valid presets: "
                f"{', '.join(sorted(presets))} (unset it to use the default)"
            )
        return presets[name]()

    def override(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)


#: Benchmarks evaluated by the paper, in its presentation order.
BENCHMARKS = ("tatp", "tpcc", "auctionmark")


def run_session(
    artifacts,
    strategy,
    *,
    transactions: int,
    policy=None,
    admission_limits=None,
    clients_per_partition: int = 4,
):
    """Drive one closed-loop run through the session API.

    Every experiment routes its simulator runs through here; the single
    implementation is the :func:`repro.pipeline.simulate` shim, which opens
    a :class:`~repro.session.ClusterSession` over the trained artifacts and
    the prebuilt strategy, drives it for ``transactions`` closed-loop
    submissions, and closes it.  Results are byte-identical to the
    historical one-shot ``ClusterSimulator.run()``.
    """
    from .. import pipeline

    return pipeline.simulate(
        artifacts,
        strategy,
        transactions=transactions,
        policy=policy,
        admission_limits=admission_limits,
        clients_per_partition=clients_per_partition,
    )


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a simple fixed-width text table."""
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
