"""Property: the column-counting mapping builder derives exactly what the
pairwise builder derives (columns ≡ pairwise, for parameter mappings).

Generated multi-procedure traces are fed to ``ParameterMappingBuilder`` and
to ``tests/mapping/reference.py``'s ``PairwiseMappingBuilder`` with the same
``threshold`` and ``min_comparisons``.  Two strategies draw them:

* ``traces`` draws every statement sequence afresh, so nearly every record
  is a group of its own.  The traces interleave procedures and repeat
  statements (so invocation counters advance past array ends), mix scalars
  with arrays of every length from zero, and draw values whose equality is
  easy to get wrong: ``True`` beside ``1``, ``0.0`` beside ``-0.0``, NaN
  (one shared object and fresh ones), ``None``, strings, and dicts (which
  cannot be hashed) in scalars, array elements and query parameters.
* ``repeated_traces`` reuses 1-3 statement-sequence templates across
  records with fresh values, so the builder counts whole columns of
  multi-record groups.  A template may hold one statement at different
  arities, and a record may give a position another arity or a list in a
  slot that is a scalar in the group's other records, so positions split
  into blocks whose first records interleave with other groups.  Its values
  come from a pool dense in ``True`` and ``1``, the shared NaN, ``-0.0`` and
  equal dicts, so they meet inside repeated columns.

Query parameters are mostly copied from the record's own inputs, so real
links compete with coincidences; list-valued query parameters are skipped by
both builders.  Both must agree on the procedure order of the set, each
mapping's entries in insertion order with bit-equal coefficients, and the
entry every slot resolves to (``reference.mapping_state``);
``build(trace, name)`` must agree with ``build_all``.  Tier-1 runs the
default budget; CI's ``training-smoke`` job runs
``--hypothesis-profile=long``.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro.mapping import ParameterMappingBuilder
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace
from tests.mapping.reference import PairwiseMappingBuilder, mapping_state

PROCEDURES = ("alpha", "beta", "gamma")
STATEMENTS = ("Q0", "Q1", "Q2")
SHARED_NAN = math.nan
OBJECT = {"k": 1}
VALUES = st.one_of(
    st.sampled_from([0, 1, 2, True, False, 0.0, -0.0, 1.0, SHARED_NAN, None, "a", OBJECT]),
    st.builds(float, st.just("nan")),
    st.integers(min_value=-3, max_value=3),
)


class AnyCatalog:
    """Both builders only look procedures up; every name exists here."""

    def procedure(self, name: str) -> str:
        return name


def parameter(draw):
    if draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from((tuple, list)))
        return kind(draw(st.lists(VALUES, max_size=4)))
    return draw(VALUES)


def query_value(draw, parameters, counter, values=VALUES):
    """Mostly a copy of one procedure input (the aligned element of an array),
    else a fresh value or a list the builders must skip."""
    choice = draw(st.integers(0, 5))
    if choice <= 3 and parameters:
        source = parameters[draw(st.integers(0, len(parameters) - 1))]
        if not isinstance(source, (list, tuple)):
            return source
        if counter < len(source):
            return source[counter]
    if choice == 5:
        return draw(st.lists(values, max_size=2))
    return draw(values)


@st.composite
def traces(draw):
    arity = {name: draw(st.integers(0, 4)) for name in PROCEDURES}
    records = []
    for txn_id in range(draw(st.integers(1, 12))):
        procedure = draw(st.sampled_from(PROCEDURES))
        parameters = tuple(parameter(draw) for _ in range(arity[procedure]))
        counters: dict[str, int] = {}
        queries = []
        for _ in range(draw(st.integers(0, 8))):
            statement = draw(st.sampled_from(STATEMENTS))
            counter = counters.get(statement, 0)
            counters[statement] = counter + 1
            values = tuple(
                query_value(draw, parameters, counter) for _ in range(draw(st.integers(0, 3)))
            )
            queries.append(QueryTraceRecord(statement, values))
        records.append(TransactionTraceRecord(txn_id, procedure, parameters, tuple(queries)))
    return WorkloadTrace(records)


#: Values that meet inside repeated columns: ``True`` beside ``1``, the
#: shared NaN, ``-0.0`` beside ``0``, and equal dicts (one shared object).
POOL = st.one_of(
    st.sampled_from([1, True, 0, False, -0.0, SHARED_NAN, OBJECT, "a"]),
    st.builds(dict, k=st.integers(0, 1)),
)


@st.composite
def repeated_traces(draw):
    """Records reusing 1-3 statement-sequence templates with fresh values.

    A template is a list of ``(statement, arity)``; each procedure draws one
    or two parameter shapes (a ``None`` is a scalar, a number an array of
    that length).  One query in five is drawn at another arity."""
    template = st.lists(st.tuples(st.sampled_from(STATEMENTS), st.integers(0, 3)),
                        min_size=1, max_size=6)
    templates = draw(st.lists(template, min_size=1, max_size=3))
    shape = st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=4)
    shapes = {name: draw(st.lists(shape, min_size=1, max_size=2)) for name in PROCEDURES}
    records = []
    for txn_id in range(draw(st.integers(2, 16))):
        procedure = draw(st.sampled_from(PROCEDURES))
        parameters = tuple(
            draw(POOL) if length is None else draw(st.sampled_from((tuple, list)))(
                draw(POOL) for _ in range(length))
            for length in draw(st.sampled_from(shapes[procedure]))
        )
        counters: dict[str, int] = {}
        queries = []
        for statement, arity in draw(st.sampled_from(templates)):
            counter = counters.get(statement, 0)
            counters[statement] = counter + 1
            if draw(st.integers(0, 4)) == 0:
                arity = draw(st.integers(0, 3))
            values = tuple(query_value(draw, parameters, counter, POOL) for _ in range(arity))
            queries.append(QueryTraceRecord(statement, values))
        records.append(TransactionTraceRecord(txn_id, procedure, parameters, tuple(queries)))
    return WorkloadTrace(records)


THRESHOLDS = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0))


def counters_out_of_order() -> WorkloadTrace:
    """A pair first compared at counter 2, then at 0 and 1, with match ratios
    1/4, 1/4 and 2/5: the geometric mean's log sum has other bits when the
    positions are added in sorted order rather than first-compared order.
    Random traces almost never line this up."""
    records = [TransactionTraceRecord(0, "alpha", (10,), (
        QueryTraceRecord("Q0", ()), QueryTraceRecord("Q0", ()), QueryTraceRecord("Q0", (10,)),
    ))]
    for txn_id in range(1, 5):
        value = 11 if txn_id == 1 else -1
        records.append(TransactionTraceRecord(
            txn_id, "alpha", (10 + txn_id,), (QueryTraceRecord("Q0", (value,)),) * 3
        ))
    return WorkloadTrace(records)


def assert_builders_agree(trace, threshold, min_comparisons):
    options = {"threshold": threshold, "min_comparisons": min_comparisons}
    built = ParameterMappingBuilder(AnyCatalog(), **options)
    expected = mapping_state(PairwiseMappingBuilder(AnyCatalog(), **options).build_all(trace))
    assert mapping_state(built.build_all(trace)) == expected
    for procedure_state in expected:
        single = built.build(trace, procedure_state[0])
        assert mapping_state({single.procedure: single}) == [procedure_state]


@given(traces(), THRESHOLDS, st.integers(0, 4))
@example(counters_out_of_order(), 0.0, 0)
@settings(deadline=None)
def test_builder_equals_pairwise_reference(trace, threshold, min_comparisons):
    assert_builders_agree(trace, threshold, min_comparisons)


@given(repeated_traces(), THRESHOLDS, st.integers(0, 4))
@settings(deadline=None)
def test_builder_equals_pairwise_reference_on_repeated_sequences(
    trace, threshold, min_comparisons
):
    assert_builders_agree(trace, threshold, min_comparisons)
