"""Golden Markov-model oracle: what the builder derives, bit for bit.

``golden_models.json`` was recorded from the commit *before* the builder
stopped building a ``PathStep`` list per record and started folding interned
vertex keys straight into the model.  How the builder walks the trace may
change; which models it builds and in which order, each model's vertices and
edges in insertion order, every hit count, every probability-table float and
expected-remaining-queries value to the last bit, each edge's probability,
``version`` and ``transactions_observed`` may not (``reference.model_state``;
no set is read, so the digest does not depend on ``PYTHONHASHSEED`` or on
allocation addresses).  The traces and base-partition chooser are the ones
``session.train`` uses for these arguments (16 partitions, seed 0).

Re-record (only in a change that means to alter what the builder derives)::

    PYTHONPATH=src:. python tests/markov/test_golden_models.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.markov import MarkovModel, build_models_from_trace
from repro.session import build_benchmark, record_trace
from repro.types import ProcedureRequest
from tests.markov.reference import model_state

GOLDEN = Path(__file__).with_name("golden_models.json")
PARTITIONS = 16
SEED = 0
#: ``(benchmark, trace transactions)`` — the cases of the mapping golden.
CASES = (
    ("tpcc", 1500), ("tpcc", 4000), ("tatp", 1500), ("smallbank", 1500),
    ("auctionmark", 1500),
)


def model_digest(models: dict[str, MarkovModel]) -> dict:
    state = model_state(models)
    return {
        "models": len(state),
        "vertices": sum(len(vertices) for _, _, vertices, _, _, _ in state),
        "edges": sum(len(edges) for _, _, _, edges, _, _ in state),
        "digest": hashlib.sha256(repr(state).encode("utf-8")).hexdigest(),
    }


def case_key(benchmark: str, transactions: int) -> str:
    return f"{benchmark}-{transactions}"


def build_case(benchmark: str, transactions: int) -> dict:
    instance = build_benchmark(benchmark, PARTITIONS, seed=SEED)
    trace = record_trace(instance, transactions)
    models = build_models_from_trace(
        instance.catalog,
        trace,
        base_partition_chooser=lambda record: instance.generator.home_partition(
            ProcedureRequest(record.procedure, record.parameters)
        ),
    )
    return model_digest(models)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,transactions", CASES)
def test_models_match_parent(name, transactions, golden):
    assert build_case(name, transactions) == golden[case_key(name, transactions)]


def test_golden_covers_every_case(golden):
    assert set(golden) == {case_key(*case) for case in CASES}
    assert all(entry["vertices"] > 0 and entry["edges"] > 0 for entry in golden.values())


if __name__ == "__main__":
    recorded = {case_key(*case): build_case(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN}")
