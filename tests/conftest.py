"""Shared fixtures for the test suite.

Expensive artifacts (populated benchmark databases, recorded traces, trained
models) are built once per session at a deliberately small scale; individual
tests that need pristine state build their own instances.
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import settings

from repro.benchmarks import get_benchmark
from repro.catalog import (
    Catalog,
    Operation,
    PartitionScheme,
    ProcedureParameter,
    Schema,
    Statement,
    StoredProcedure,
    Table,
    integer,
    param,
    string,
)
from repro.houdini import (
    EstimateCache,
    GlobalModelProvider,
    Houdini,
    HoudiniConfig,
    MaintenanceRegistry,
)
from repro.markov import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, MarkovModel, PathStep, VertexKey
from repro.session import ClusterSpec, train
from repro.storage import Database
from repro.types import PartitionSet, QueryType

# Long Hypothesis budget for CI jobs (``--hypothesis-profile=long``); applies
# to property tests that leave ``max_examples`` to the profile.
settings.register_profile("long", max_examples=2000, deadline=None)


def to_steps(raw_path) -> list[PathStep]:
    """Turn ``(statement, partition, is_write)`` triples into an execution
    path with per-statement counters and the accumulated previous set."""
    steps, counters, previous = [], {}, PartitionSet.of([])
    for name, partition, is_write in raw_path:
        partitions = PartitionSet.of([partition])
        steps.append(PathStep(
            statement=name,
            query_type=QueryType.WRITE if is_write else QueryType.READ,
            partitions=partitions, previous=previous,
            counter=counters.get(name, 0),
        ))
        counters[name] = counters.get(name, 0) + 1
        previous = previous.union(partitions)
    return steps


def add_path(model: MarkovModel, steps, aborted: bool) -> list[VertexKey]:
    """``model.fold_path`` over :class:`PathStep` objects; returns the vertex
    keys visited (begin ... terminal)."""
    path = [(step.key(), step.query_type) for step in steps]
    model.fold_path(path, aborted)
    return [BEGIN_KEY, *(key for key, _ in path), ABORT_KEY if aborted else COMMIT_KEY]


def edge_distribution(model: MarkovModel, source: VertexKey) -> dict[VertexKey, float]:
    """The probability of each outgoing edge of ``source`` (probabilities
    only, so the transition log is left unfolded)."""
    return {edge.target: edge.probability for edge in model._edges.get(source, {}).values()}


class SelfTuneHost:
    """What a self-tuning manager drives of a Houdini: the global provider,
    the maintenance registry, the config and the real ``swap_model`` —
    without a catalog or mappings."""

    swap_model = Houdini.swap_model

    def __init__(self, models, estimate_caching: bool = False) -> None:
        self.config = HoudiniConfig()
        self.provider = GlobalModelProvider(models)
        self.maintenance = MaintenanceRegistry(self.config)
        self.estimate_cache = EstimateCache(self.config) if estimate_caching else None


# ----------------------------------------------------------------------
# A tiny hand-rolled schema/procedure used by catalog/engine unit tests.
# ----------------------------------------------------------------------
class TransferProcedure(StoredProcedure):
    """Move "points" between two accounts (possibly on different partitions)."""

    name = "transfer"
    parameters = (
        ProcedureParameter("from_id"),
        ProcedureParameter("to_id"),
        ProcedureParameter("amount"),
    )
    statements = {
        "GetFrom": Statement(
            name="GetFrom", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_ID": param(0)},
        ),
        "GetTo": Statement(
            name="GetTo", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_ID": param(0)},
        ),
        "Debit": Statement(
            name="Debit", table="ACCOUNT", operation=Operation.UPDATE,
            where={"A_ID": param(0)}, set_values={"A_BALANCE": param(1)},
        ),
        "Credit": Statement(
            name="Credit", table="ACCOUNT", operation=Operation.UPDATE,
            where={"A_ID": param(0)}, set_values={"A_BALANCE": param(1)},
        ),
    }

    def run(self, ctx, from_id, to_id, amount):
        source = ctx.execute("GetFrom", [from_id])
        target = ctx.execute("GetTo", [to_id])
        if not source or not target:
            ctx.abort("unknown account")
        source_balance = source[0]["A_BALANCE"]
        if source_balance < amount:
            ctx.abort("insufficient funds")
        ctx.execute("Debit", [from_id, source_balance - amount])
        ctx.execute("Credit", [to_id, target[0]["A_BALANCE"] + amount])
        return True


def make_account_schema() -> Schema:
    schema = Schema()
    schema.add_table(Table(
        name="ACCOUNT",
        columns=[integer("A_ID"), string("A_OWNER"), integer("A_BALANCE")],
        primary_key=["A_ID"],
        partition_column="A_ID",
    ))
    return schema


@pytest.fixture
def account_catalog() -> Catalog:
    return Catalog(make_account_schema(), PartitionScheme(4, 2), [TransferProcedure()])


@pytest.fixture
def account_database(account_catalog: Catalog) -> Database:
    database = Database(account_catalog.schema, account_catalog.num_partitions)
    for account_id in range(16):
        database.load_row("ACCOUNT", {
            "A_ID": account_id,
            "A_OWNER": f"owner-{account_id}",
            "A_BALANCE": 100,
        })
    return database


# ----------------------------------------------------------------------
# Session-scoped benchmark artifacts (small but realistic).
# ----------------------------------------------------------------------
@functools.cache
def _trained(benchmark: str, partitions: int, trace: int, seed: int) -> bytes:
    return pickle.dumps(train(ClusterSpec(
        benchmark=benchmark, num_partitions=partitions,
        trace_transactions=trace, seed=seed,
    )))


def trained(benchmark: str, partitions: int, trace: int, seed: int):
    """A private copy of the artifacts ``session.train`` builds for these
    arguments: trained once per session, unpickled per use.  Runs mutate the
    database (and, with learning on, the models), so every run needs its
    own.  Import it as ``from tests.conftest import trained`` — one module
    object, one cache."""
    return pickle.loads(_trained(benchmark, partitions, trace, seed))


@pytest.fixture(scope="session")
def tpcc_artifacts():
    return train(ClusterSpec(
        benchmark="tpcc", num_partitions=4, trace_transactions=600, seed=11
    ))


@pytest.fixture(scope="session")
def tatp_artifacts():
    return train(ClusterSpec(
        benchmark="tatp", num_partitions=4, trace_transactions=600, seed=11
    ))


@pytest.fixture(scope="session")
def auctionmark_artifacts():
    return train(ClusterSpec(
        benchmark="auctionmark", num_partitions=4, trace_transactions=600, seed=11
    ))


@pytest.fixture(scope="session")
def tpcc_houdini(tpcc_artifacts):
    config = HoudiniConfig()
    return Houdini(
        tpcc_artifacts.benchmark.catalog,
        GlobalModelProvider(tpcc_artifacts.models),
        tpcc_artifacts.mappings,
        config,
        learning=False,
    )


@pytest.fixture(scope="session")
def tpcc_instance_factory():
    """Factory building fresh (unshared) small TPC-C instances."""

    def build(num_partitions: int = 4, seed: int = 5):
        return get_benchmark("tpcc").build(num_partitions, seed=seed)

    return build
