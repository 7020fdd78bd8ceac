"""A maintenance recompute evicts, at once, the plan-memo entries it staled.

TPC-C with learning on, at the default maintenance interval (a drift check
every 200 attempts): after every check that recomputed a model, every memo
entry of that model must still be valid (``MarkovModel.still_publishes``),
so none holds a view or table the recompute replaced.  Without the sweep a
stale entry stays until its signature is looked up again, which most
NewOrder signatures never are, and it pins the retired objects meanwhile.

Evicting early changes what the memo holds, never what a lookup finds: the
memo's hits, misses and uncacheable lookups are pinned at what they read
before the sweep existed.  Under the partitioned provider a procedure has
one model per cluster, and a recompute of one leaves its siblings' entries
valid, so a sweep that drops a whole procedure's entries (the per-procedure
flush the sweep replaces) loses hits (``test_a_per_procedure_flush``).
"""

from __future__ import annotations

import pytest

from repro.houdini import EstimateCache
from repro.session import Cluster, ClusterSpec
from tests.conftest import trained

TRANSACTIONS = 1500

#: (hits, misses, uncacheable) over ``TRANSACTIONS``, recorded before the
#: sweep existed (stale entries were then evicted only by a lookup).
PINNED = {
    "houdini": (1102, 473, 0),
    "houdini-partitioned": (1322, 253, 0),
}


def run(strategy: str) -> tuple[list[str], tuple[int, int, int]]:
    """Run TPC-C, checking the memo after every recompute; returns the
    recomputed procedures and the memo's (hits, misses, uncacheable)."""
    spec = ClusterSpec(
        benchmark="tpcc", num_partitions=4, trace_transactions=300, seed=11,
        strategy=strategy,
    )
    session = Cluster.open(spec, artifacts=trained("tpcc", 4, 300, 11))
    houdini = session.houdini
    cache = houdini.estimate_cache
    after_attempt = houdini.after_attempt
    recomputed: list[str] = []

    def checked(request, houdini_plan, attempt) -> None:
        maintenances = houdini.maintenance.maintenances()
        before = {id(m): m.stats.recomputations for m in maintenances}
        after_attempt(request, houdini_plan, attempt)
        for maintenance in houdini.maintenance.maintenances():
            if maintenance.stats.recomputations == before.get(id(maintenance), 0):
                continue
            model = maintenance.model
            recomputed.append(model.procedure)
            stale = [
                key for key, entry in cache._entries.items()
                if entry.model is model and not model.still_publishes(
                    entry.estimate.vertices, entry.estimate.read_views,
                    entry.estimate.read_tables,
                )
            ]
            assert not stale, (
                f"{len(stale)} entries of {model.procedure} outlived the recompute "
                "that staled them"
            )

    houdini.after_attempt = checked
    session.run_for(txns=TRANSACTIONS)
    session.close()
    stats = cache.stats
    return recomputed, (stats.hits, stats.misses, stats.uncacheable)


def check(strategy: str) -> None:
    recomputed, counts = run(strategy)
    assert len(recomputed) >= 3 and "neworder" in recomputed, recomputed
    assert counts == PINNED[strategy], f"memo counts {counts} moved from {PINNED[strategy]}"


@pytest.mark.parametrize("strategy", sorted(PINNED))
def test_a_recompute_leaves_no_stale_entry_and_every_lookup_alike(strategy):
    check(strategy)


def _flush_the_procedures(self, recomputed):
    return sum(self.invalidate_procedure(model.procedure) for model in recomputed)


def test_a_per_procedure_flush(monkeypatch):
    """It leaves no stale entry either, but drops the sibling cluster
    models' valid entries with it."""
    monkeypatch.setattr(EstimateCache, "evict_replaced", _flush_the_procedures)
    with pytest.raises(AssertionError, match="moved from"):
        check("houdini-partitioned")
