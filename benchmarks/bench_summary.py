"""Headline summary — the abstract's three claims, recomputed.

Paper: correct optimization selection for ~93% of transactions, ~41% average
throughput improvement over the non-Houdini baseline, ~5.8% estimation
overhead.  This benchmark reruns the Table 3, Figure 12 and Figure 11
pipelines at the selected scale and reports the reproduction's equivalents
side by side.

The summary is deterministic (simulated throughput, modelled estimation
cost), so at ``REPRO_SCALE=small`` every number is pinned to the printed
digit, for both partition sweeps: the full one (4, 8, 16 partitions) and the
trimmed one this benchmark reports (8, 16).  The headline improvement is
the mean of the per-benchmark rows under it, so those are pinned too.  At a
scale without pins the trimmed summary keeps the loose bounds (accuracy above
50%, overhead below 25%, improvement above -10%) and the full sweep is
skipped.  CI's ``headline-fidelity`` job runs this file; a change that moves
a value re-pins it here and says why.
"""

import pytest

from repro.experiments import run_summary
from repro.experiments.common import BENCHMARKS

#: scale -> sweep -> (accuracy %, improvement %, estimation overhead %,
#: improvement % per benchmark), as printed (one decimal).
PINNED = {
    "small": {
        "full": ("82.2", "76.9", "3.7", {"tatp": "130.5", "tpcc": "51.2", "auctionmark": "49.1"}),
        "trimmed": ("82.2", "58.6", "3.7", {"tatp": "115.6", "tpcc": "32.0", "auctionmark": "28.0"}),
    },
}


def _printed(result) -> tuple:
    return (
        f"{result.accuracy_pct:.1f}",
        f"{result.throughput_improvement_pct:.1f}",
        f"{result.estimation_overhead_pct:.1f}",
        {name: f"{result.figure12.improvement_over_baseline(name):.1f}" for name in BENCHMARKS},
    )


def _summary(benchmark, scale, save_result, sweep: str):
    partition_counts = scale.partition_counts
    if sweep == "trimmed":
        # Trim the cluster sweep a little so the default (small)
        # configuration stays quick.
        partition_counts = tuple(partition_counts[-2:])
    result = benchmark.pedantic(
        run_summary, args=(scale.override(partition_counts=partition_counts),),
        rounds=1, iterations=1,
    )
    save_result("summary" if sweep == "trimmed" else f"summary_{sweep}", result.format())
    return result


def test_headline_summary(benchmark, scale, save_result):
    result = _summary(benchmark, scale, save_result, "trimmed")
    pinned = PINNED.get(scale.name, {}).get("trimmed")
    if pinned is not None:
        assert _printed(result) == pinned
    else:
        # No pins at this scale: the loose bounds every scale has held.
        assert result.accuracy_pct > 50.0
        assert result.estimation_overhead_pct < 25.0
        assert result.throughput_improvement_pct > -10.0


def test_headline_summary_full_sweep(benchmark, scale, save_result):
    # The full sweep only exists to be pinned; without pins it is not run.
    pinned = PINNED.get(scale.name, {}).get("full")
    if pinned is None:
        pytest.skip(f"no full-sweep headline pins at scale {scale.name!r}")
    assert _printed(_summary(benchmark, scale, save_result, "full")) == pinned
