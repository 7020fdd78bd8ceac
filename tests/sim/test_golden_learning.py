"""Golden learning oracle: a learning-on run's results *and models*, pinned.

``golden_learning.json`` was recorded from the commit *before* count-only
edge visits stopped dropping the successor arrays and probability tables
became flat columns.  When a cached structure is invalidated, and how a
table stores its cells, may change; which transactions run, what
maintenance decides and every float a model ends up holding may not.  The
end-to-end benchmark pins throughput and the committed count only; this pins
the whole ``SimulationResult``, the maintenance counters, and a digest of
each final model (graph, counters, edge probabilities, table cells, expected
remaining queries).

Re-record (only in a change that means to alter what learning computes)::

    PYTHONPATH=src:. python tests/sim/test_golden_learning.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.markov.serialization import model_to_dict
from repro.session import Cluster, ClusterSpec
from tests.conftest import trained

GOLDEN = Path(__file__).with_name("golden_learning.json")
BENCHMARKS = ("tpcc", "tatp")


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def model_state(model) -> dict:
    """Everything a model holds, floats via ``repr`` (bit-exact in JSON)."""
    derived = []
    for vertex in model.vertices():
        table = vertex.table
        partitions = range(model.num_partitions)
        derived.append({
            "key": str(vertex.key),
            "edges": [(str(e.target), e.hits, e.probability)
                      for e in model.edges_from(vertex.key)],
            "successors": [(str(k), p) for k, p in model.successors(vertex.key)],
            "expected_remaining_queries": vertex.expected_remaining_queries,
            "table": None if table is None else {
                "single_partition": table.single_partition,
                "abort": table.abort,
                "read": [table.read_probability(p) for p in partitions],
                "write": [table.write_probability(p) for p in partitions],
                "finish": [table.finish_probability(p) for p in partitions],
            },
        })
    return {"stored": model_to_dict(model), "derived": derived}


def run_learning(benchmark: str) -> dict:
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=16, strategy="houdini",
        trace_transactions=1500, seed=0, learning=True,
    )
    session = Cluster.open(spec, artifacts=trained(benchmark, 16, 1500, 0))
    session.run_for(txns=1500)
    houdini = session.houdini
    result = session.close()
    maintenance = houdini.maintenance.stats_by_procedure()
    return {
        "result": json.loads(json.dumps(result.to_dict())),
        "maintenance": maintenance,
        "model_digests": {
            model.procedure: _digest(model_state(model))
            for model in houdini.provider.models()
        },
        # Readable landmark: the run must actually exercise maintenance.
        "recomputations": sum(e["recomputations"] for e in maintenance.values()),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", BENCHMARKS)
def test_learning_run_matches_parent(name, golden):
    expected = golden[name]
    actual = run_learning(name)
    assert actual["maintenance"] == expected["maintenance"]
    assert actual["result"] == expected["result"]
    assert actual["model_digests"] == expected["model_digests"]


def test_golden_exercises_maintenance(golden):
    assert set(golden) == set(BENCHMARKS)
    assert golden["tpcc"]["recomputations"] > 0, "the case must actually recompute"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: run_learning(name) for name in BENCHMARKS},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {GOLDEN}")
