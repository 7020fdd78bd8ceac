"""Property: the one-pass Markov-model builder builds exactly what the
step-list builder builds (folded keys ≡ ``PathStep`` lists, for models).

Generated traces over a small hand-rolled catalog are fed to
``MarkovModelBuilder`` and to ``tests/markov/reference.py``'s
``StepListModelBuilder``.  The catalog routes every way the partition
estimator can: a parameter-routed statement (a ``None`` value broadcasts), a
replicated-table read (local to the record's base partition), a
replicated-table write (every partition), a literal-routed statement, a
statement with no binding on the partitioning column and an insert into an
unpartitioned table.  Two procedures declare a statement of the same name
that routes on different parameters.  Records interleave the procedures,
repeat statements (so invocation counters advance), abort, and carry inputs
the default base-partition chooser must skip (``None``, booleans).

The production builder folds each distinct path once with its count, so a
second strategy (:func:`repeated_traces`) makes paths repeat: each procedure
reuses 1-3 statement-sequence templates with fresh values that often route
alike, and a record may be followed by a twin that differs only in
``aborted``, only in the base partition a replicated read is local to, or
only in a ``None`` routing value (a broadcast).  Procedures interleave, so a
procedure's distinct paths come from several groups and must be folded in
order of first record.  ``--hypothesis-show-statistics`` reports the share
of drawn traces that repeat a path.

Both builders must agree on ``reference.model_state`` — model order, vertex
and edge insertion order, hit counts, probability bits, ``version`` and
``transactions_observed`` — on ``steps_for_record``, on ``add_path``'s
return value, and on the exception type when one fault is planted: an
unknown statement, a parameter tuple too short for its routing index, an
unknown procedure, or (for ``extend``) a record of another procedure.
``extend`` must also leave the same model behind when it raises.
Tier-1 runs the default budget; CI's ``training-smoke`` job runs
``--hypothesis-profile=long``.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

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
from repro.catalog.partitioning import PartitionEstimator, default_base_partition
from repro.errors import ReproError
from repro.markov import MarkovModel, MarkovModelBuilder
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace
from tests.conftest import add_path
from tests.markov import reference
from tests.markov.reference import StepListModelBuilder, model_state

PARTITIONS = 4
GET_ITEM = Statement(
    name="GetItem", table="ITEM", operation=Operation.SELECT, where={"I_ID": param(0)}
)
PUT_ITEM = Statement(
    name="PutItem", table="ITEM", operation=Operation.UPDATE,
    where={"I_ID": param(0)}, set_values={"I_NAME": param(1)},
)


class Alpha(StoredProcedure):
    name = "alpha"
    parameters = (ProcedureParameter("a"), ProcedureParameter("b"))
    statements = {
        "GetAccount": Statement(
            name="GetAccount", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_ID": param(0)},
        ),
        "Credit": Statement(
            name="Credit", table="ACCOUNT", operation=Operation.UPDATE,
            where={"A_ID": param(1)}, set_values={"A_BALANCE": param(0)},
        ),
        "GetHome": Statement(
            name="GetHome", table="ACCOUNT", operation=Operation.SELECT, where={"A_ID": 7},
        ),
        "GetItem": GET_ITEM,
        "PutItem": PUT_ITEM,
    }

    def run(self, ctx, *params):  # pragma: no cover - never executed here
        raise NotImplementedError


class Beta(StoredProcedure):
    name = "beta"
    parameters = (ProcedureParameter("a"),)
    statements = {
        # Same name as alpha's, routed on the other parameter.
        "GetAccount": Statement(
            name="GetAccount", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_ID": param(1)},
        ),
        "ScanAccounts": Statement(
            name="ScanAccounts", table="ACCOUNT", operation=Operation.SELECT,
            where={"A_BALANCE": param(0)},
        ),
        "Log": Statement(
            name="Log", table="LOG", operation=Operation.INSERT,
            insert_values={"L_ID": param(0), "L_TEXT": param(1)},
        ),
        "GetItem": GET_ITEM,
    }

    def run(self, ctx, *params):  # pragma: no cover - never executed here
        raise NotImplementedError


def make_catalog() -> Catalog:
    schema = Schema()
    schema.add_table(Table(
        name="ACCOUNT", columns=[integer("A_ID"), integer("A_BALANCE")],
        primary_key=["A_ID"], partition_column="A_ID",
    ))
    schema.add_table(Table(
        name="ITEM", columns=[integer("I_ID"), string("I_NAME")],
        primary_key=["I_ID"], replicated=True,
    ))
    schema.add_table(Table(name="LOG", columns=[integer("L_ID"), string("L_TEXT")]))
    return Catalog(schema, PartitionScheme(PARTITIONS, 2), [Alpha(), Beta()])


CATALOG = make_catalog()
PROCEDURES = {"alpha": tuple(Alpha.statements), "beta": tuple(Beta.statements)}
VALUES = st.sampled_from([0, 1, 2, 3, 5, 7, 11, "x", "y", None])
INPUTS = st.one_of(VALUES, st.booleans())
FAULTS = ("unknown_statement", "short_parameters", "unknown_procedure")


@st.composite
def traces(draw, fault=None):
    records = []
    for txn_id in range(draw(st.integers(1, 10))):
        procedure = draw(st.sampled_from(sorted(PROCEDURES)))
        queries = tuple(
            QueryTraceRecord(
                draw(st.sampled_from(PROCEDURES[procedure])),
                tuple(draw(st.lists(VALUES, min_size=2, max_size=3))),
            )
            for _ in range(draw(st.integers(0, 8)))
        )
        records.append(TransactionTraceRecord(
            txn_id, procedure, tuple(draw(st.lists(INPUTS, max_size=3))), queries,
            aborted=draw(st.booleans()),
        ))
    if fault is not None:
        at = draw(st.integers(0, len(records) - 1))
        records[at] = plant(draw, records[at], fault)
    return WorkloadTrace(records)


#: Values that differ but often route alike (0 and 4, 1 and 5 share a
#: partition), so that paths repeat.
ALIKE = st.sampled_from([0, 1, 4, 5, None])
TWINS = (None, "aborted", "base", "none_value")


@st.composite
def repeated_traces(draw, fault=None):
    templates = {
        procedure: draw(st.lists(
            st.lists(st.sampled_from(statements), max_size=4).map(tuple),
            min_size=1, max_size=3,
        ))
        for procedure, statements in PROCEDURES.items()
    }
    records = []
    count = draw(st.integers(1, 16))
    while len(records) < count:
        procedure = draw(st.sampled_from(sorted(PROCEDURES)))
        queries = tuple(
            QueryTraceRecord(name, tuple(draw(st.lists(ALIKE, min_size=2, max_size=3))))
            for name in draw(st.sampled_from(templates[procedure]))
        )
        record = TransactionTraceRecord(
            len(records), procedure, tuple(draw(st.lists(ALIKE, max_size=2))), queries,
            aborted=draw(st.booleans()),
        )
        records.append(record)
        twin = draw(st.sampled_from(TWINS))
        if twin is not None:
            records.append(twin_of(draw, record, twin, len(records)))
    if fault is not None:
        at = draw(st.integers(0, len(records) - 1))
        records[at] = plant(draw, records[at], fault)
    return WorkloadTrace(records)


def twin_of(draw, record: TransactionTraceRecord, twin: str, txn_id: int):
    """``record`` changed in one respect only."""
    parameters, queries, aborted = record.parameters, record.queries, record.aborted
    if twin == "aborted":
        aborted = not aborted
    elif twin == "base":
        # The default chooser homes the first scalar: a new first parameter
        # moves the base partition, which only a replicated read sees.
        base = default_base_partition(CATALOG.scheme, parameters)
        parameters = ((base + 1) % PARTITIONS, *parameters)
    else:
        routed = [
            index for index, (name, _, _) in enumerate(queries)
            if routing_slot(record.procedure, name) is not None
        ]
        if routed:
            index = draw(st.sampled_from(routed))
            name, values, partitions = queries[index]
            values = list(values)
            values[routing_slot(record.procedure, name)] = None
            queries = (*queries[:index], (name, tuple(values), partitions), *queries[index + 1:])
    return TransactionTraceRecord(txn_id, record.procedure, parameters, queries, aborted)


def routing_slot(procedure: str, name: str) -> int | None:
    """The parameter a statement is routed on, if it is routed on one."""
    statement = CATALOG.procedure(procedure).statement(name)
    kind, payload = CATALOG.estimator.resolve(CATALOG.schema.table(statement.table), statement)
    return payload if kind == PartitionEstimator.PARAM else None


def repeats_a_path(trace: WorkloadTrace) -> bool:
    steps = StepListModelBuilder(CATALOG).steps_for_record
    paths = {
        (record.procedure, tuple(steps(record)), record.aborted) for record in trace
    }
    return len(paths) < len(trace)


def plant(draw, record: TransactionTraceRecord, fault: str) -> TransactionTraceRecord:
    if fault == "unknown_procedure":
        return TransactionTraceRecord(record.txn_id, "ghost", record.parameters, record.queries)
    queries = list(record.queries)
    queries.insert(draw(st.integers(0, len(queries))), (
        QueryTraceRecord("NoSuchStatement", (1, 2)) if fault == "unknown_statement"
        # Both procedures route GetAccount on a parameter: () is too short.
        else QueryTraceRecord("GetAccount", ())
    ))
    return TransactionTraceRecord(
        record.txn_id, record.procedure, record.parameters, tuple(queries), record.aborted
    )


def outcome(action):
    try:
        return ("returned", action())
    except ReproError as error:
        return ("raised", type(error))


@given(traces(), st.booleans())
@settings(deadline=None)
def test_builder_equals_step_list_reference(trace, precompute_tables):
    built = MarkovModelBuilder(CATALOG, precompute_tables=precompute_tables)
    expected = StepListModelBuilder(CATALOG, precompute_tables=precompute_tables)
    assert model_state(built.build(trace)) == model_state(expected.build(trace))
    for record in trace:
        assert built.steps_for_record(record) == expected.steps_for_record(record)


@given(repeated_traces(), st.booleans())
@settings(deadline=None)
def test_repeated_paths_build_what_the_reference_builds(trace, precompute_tables):
    event(f"repeats a path: {repeats_a_path(trace)}")
    built = MarkovModelBuilder(CATALOG, precompute_tables=precompute_tables)
    expected = StepListModelBuilder(CATALOG, precompute_tables=precompute_tables)
    assert model_state(built.build(trace)) == model_state(expected.build(trace))


@given(traces())
@settings(deadline=None)
def test_add_path_adapter_equals_reference(trace):
    steps = StepListModelBuilder(CATALOG).steps_for_record
    adapted = {name: MarkovModel(name, PARTITIONS) for name in trace.procedures}
    folded = {name: MarkovModel(name, PARTITIONS) for name in trace.procedures}
    for record in trace:
        path = steps(record)
        assert add_path(adapted[record.procedure], path, record.aborted) == (
            reference.add_path(folded[record.procedure], path, record.aborted)
        )
    assert model_state(adapted) == model_state(folded)


@given(st.sampled_from(FAULTS).flatmap(
    lambda fault: st.one_of(traces(fault), repeated_traces(fault))
))
@settings(deadline=None)
def test_a_planted_fault_raises_what_the_reference_raises(trace):
    built = outcome(lambda: model_state(MarkovModelBuilder(CATALOG).build(trace)))
    expected = outcome(lambda: model_state(StepListModelBuilder(CATALOG).build(trace)))
    assert built == expected
    assert built[0] == "raised"


@given(
    st.sampled_from((None, *FAULTS)).flatmap(
        lambda fault: st.one_of(traces(fault), repeated_traces(fault))
    ),
    st.sampled_from(sorted(PROCEDURES)),
)
@settings(deadline=None)
def test_extend_with_foreign_records_matches_reference(trace, procedure):
    """``extend`` folds records up to the first foreign or faulty one, then
    raises."""
    sides = []
    for builder in (MarkovModelBuilder(CATALOG), StepListModelBuilder(CATALOG)):
        model = MarkovModel(procedure, PARTITIONS)
        sides.append((outcome(lambda: builder.extend(model, trace)), model_state({"m": model})))
    assert sides[0] == sides[1]
