"""Property-based test: parameter mappings recover known data flows.

We synthesize traces for the ACCOUNT transfer procedure where, by
construction, each query parameter is copied from a known procedure
parameter.  Whatever the parameter values are, the mapping builder must
recover those links with coefficient 1.0 and resolve them back correctly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, PartitionScheme
from repro.mapping import ParameterMappingBuilder
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace
from tests.conftest import TransferProcedure, make_account_schema
from tests.houdini.reference import resolve


def make_catalog() -> Catalog:
    return Catalog(make_account_schema(), PartitionScheme(4, 2), [TransferProcedure()])

account_ids = st.integers(min_value=0, max_value=500)
amounts = st.integers(min_value=1, max_value=99)


@st.composite
def transfer_traces(draw):
    count = draw(st.integers(min_value=5, max_value=25))
    records = []
    for txn_id in range(count):
        source = draw(account_ids)
        target = draw(st.integers(min_value=501, max_value=1000))
        amount = draw(amounts)
        records.append(TransactionTraceRecord(
            txn_id=txn_id,
            procedure="transfer",
            parameters=(source, target, amount),
            queries=(
                QueryTraceRecord("GetFrom", (source,)),
                QueryTraceRecord("GetTo", (target,)),
                QueryTraceRecord("Debit", (source, 100 - amount)),
                QueryTraceRecord("Credit", (target, 100 + amount)),
            ),
        ))
    return WorkloadTrace(records)


class TestMappingRecovery:
    @given(transfer_traces())
    @settings(max_examples=25, deadline=None)
    def test_known_links_recovered_and_resolvable(self, trace):
        builder = ParameterMappingBuilder(make_catalog(), min_comparisons=3)
        mapping = builder.build(trace, "transfer")

        get_from = mapping.entry_for("GetFrom", 0)
        get_to = mapping.entry_for("GetTo", 0)
        assert get_from is not None and get_from.procedure_param_index == 0
        assert get_to is not None and get_to.procedure_param_index == 1
        assert get_from.coefficient == 1.0

        # Resolution round-trips for arbitrary new parameters.
        parameters = (123, 987, 5)
        assert resolve(mapping, "GetFrom", 0, 0, parameters) == 123
        assert resolve(mapping, "GetTo", 0, 0, parameters) == 987
        assert resolve(mapping, "Debit", 0, 0, parameters) == 123
