"""Tests for the SmallBank benchmark."""

from __future__ import annotations

import pytest

from repro.benchmarks import available_benchmarks, get_benchmark
from repro.engine import ExecutionEngine
from repro.errors import UserAbort
from repro.session import Cluster, ClusterSpec
from repro.types import ProcedureRequest


@pytest.fixture(scope="module")
def instance():
    return get_benchmark("smallbank").build(4, seed=3)


def _total_money(database) -> float:
    total = 0.0
    for store in database.partitions():
        for table in ("SAVINGS", "CHECKING"):
            total += store.heap(table).aggregate({}, "BAL", sum)
    return total


class TestRegistryAndLoad:
    def test_registered(self):
        assert "smallbank" in available_benchmarks()

    def test_load_populates_all_three_tables(self, instance):
        config = instance.config
        for table in ("ACCOUNTS", "SAVINGS", "CHECKING"):
            rows = sum(store.heap(table).row_count() if hasattr(store.heap(table), "row_count")
                       else len(store.heap(table)) for store in instance.database.partitions())
            assert rows == config.num_accounts

    def test_rows_live_on_their_home_partition(self, instance):
        scheme = instance.catalog.scheme
        for store in instance.database.partitions():
            for row in store.heap("ACCOUNTS").rows():
                assert scheme.partition_for_value(row["CUSTID"]) == store.partition_id


class TestProcedures:
    def test_balance_sums_savings_and_checking(self, instance):
        engine = ExecutionEngine(instance.catalog, instance.database)
        result = engine.execute_attempt(
            ProcedureRequest.of("Balance", (1,)),
            base_partition=instance.generator.home_partition(
                ProcedureRequest.of("Balance", (1,))
            ),
        )
        assert result.committed
        assert result.return_value > 0

    def test_transact_savings_aborts_on_overdraft(self, instance):
        engine = ExecutionEngine(instance.catalog, instance.database)
        request = ProcedureRequest.of("TransactSavings", (2, -1e9))
        result = engine.execute_attempt(
            request, base_partition=instance.generator.home_partition(request)
        )
        assert not result.committed
        assert result.abort_reason is not None

    def test_send_payment_moves_money_between_partitions(self, instance):
        engine = ExecutionEngine(instance.catalog, instance.database)
        # Customers 1 and 2 hash to different partitions (identity hash).
        before = _total_money(instance.database)
        request = ProcedureRequest.of("SendPayment", (1, 2, 10.0))
        result = engine.execute_attempt(request, base_partition=1 % 4)
        assert result.committed
        assert len(result.touched_partitions) == 2
        assert _total_money(instance.database) == pytest.approx(before)

    def test_amalgamate_conserves_money(self, instance):
        engine = ExecutionEngine(instance.catalog, instance.database)
        before = _total_money(instance.database)
        request = ProcedureRequest.of("Amalgamate", (5, 6))
        result = engine.execute_attempt(request, base_partition=5 % 4)
        assert result.committed
        assert _total_money(instance.database) == pytest.approx(before)
        # Customer 5 is drained.
        balance = engine.execute_attempt(
            ProcedureRequest.of("Balance", (5,)), base_partition=5 % 4
        )
        assert balance.return_value == pytest.approx(0.0)


class TestWorkload:
    def test_generator_is_deterministic(self):
        a = get_benchmark("smallbank").build(4, seed=9)
        b = get_benchmark("smallbank").build(4, seed=9)
        assert [r.parameters for r in a.generator.generate(50)] == [
            r.parameters for r in b.generator.generate(50)
        ]

    def test_mix_includes_two_customer_transactions(self, instance):
        requests = instance.generator.generate(400)
        two_customer = [r for r in requests if r.procedure in ("Amalgamate", "SendPayment")]
        assert 0.25 <= len(two_customer) / len(requests) <= 0.55

    def test_runs_through_the_simulator(self):
        spec = ClusterSpec(benchmark="smallbank", num_partitions=4, trace_transactions=300, seed=3)
        with Cluster.open(spec) as session:
            result = session.run_for(txns=250)
        assert result.total_transactions == 250
        # The 40% two-customer mix must produce real distributed work.
        assert result.distributed > 25
        assert result.throughput_txn_per_sec > 0

    def test_houdini_predicts_better_than_assume_single_partition(self):
        spec = ClusterSpec(benchmark="smallbank", num_partitions=4, trace_transactions=400, seed=3)
        with Cluster.open(spec) as session:
            houdini = session.run_for(txns=250)
        with Cluster.open(spec, strategy="assume-single-partition") as session:
            naive = session.run_for(txns=250)
        assert houdini.restarts < naive.restarts
        assert houdini.throughput_txn_per_sec > naive.throughput_txn_per_sec
