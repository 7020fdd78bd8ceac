"""Compiled per-procedure statement resolvers.

Houdini's path estimation runs on the critical path of every transaction
(§6.3 measures 46.5% of a short transaction's run time spent estimating), so
every piece of per-step work matters.  Resolved the paper-literal way (the
reference kept in ``tests/houdini/reference.py``), every candidate state of
every walk re-derives the same catalog facts: whether the statement's table
is replicated, which column it is partitioned on, whether the partitioning
column is bound to a literal or to a parameter, and which parameter index
that is.  None of that depends on the request — it is fixed by the catalog
and the parameter mapping.

A :class:`CompiledProcedure` therefore resolves each statement exactly once,
at model-load time, down to one of four resolver kinds:

* ``CONST`` — the partition set is fully known at compile time (literal
  bindings, unpartitioned tables, broadcasts, replicated writes);
* ``DOMINANT`` — a replicated read, predicted to run wherever the
  transaction's control code runs (its first touched partition);
* ``UNKNOWN`` — the partitioning parameter is unmapped, so no prediction can
  be made before execution;
* ``MAPPED`` — the partitioning parameter is mapped: the only per-request
  work left is one read of the mapped procedure parameter plus a hash of
  the value.

The procedure's mapping-only partition footprint (used by the run-time
monitor's early-prepare guard) is compiled the same way: its static part is
a precomputed set and only mapped, array-aligned slots are resolved per
request.

Binding signatures
------------------

The walk consults the request parameters *only* through the ``MAPPED``
resolvers, i.e. through ``partition_for_value`` of each mapped slot.
:meth:`CompiledProcedure.binding_signature` returns exactly those values, so
two requests with equal signatures walk the same path through any model of
the procedure — which is what lets the facade's plan memo
(:class:`~repro.houdini.cache.EstimateCache`) key a finished walk by
``(procedure, model, signature)``.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..catalog.procedure import StoredProcedure
from ..catalog.schema import Catalog
from ..catalog.statement import Operation
from ..errors import EstimationError, UnknownStatementError
from ..mapping.parameter_mapping import ParameterMapping
from ..types import PartitionId, PartitionSet

#: Resolver kinds (see module docstring).
CONST = 0
DOMINANT = 1
UNKNOWN = 2
MAPPED = 3

#: Upper bound on the invocation counters scanned by the footprint
#: computation.
MAX_FOOTPRINT_COUNTER = 128


class CompiledStatement:
    """One statement's partition resolver, fixed at compile time.

    ``MAPPED`` resolvers snapshot the winning mapping entry's procedure
    parameter index and array alignment, so the per-request work is a couple
    of tuple indexings — the ``mapping.entry_for`` probe happens at compile
    time, not per candidate state.
    """

    __slots__ = ("name", "kind", "constant", "param_index", "proc_param_index", "array_aligned")

    def __init__(
        self,
        name: str,
        kind: int,
        constant: PartitionSet | None = None,
        param_index: int | None = None,
        proc_param_index: int | None = None,
        array_aligned: bool = False,
    ) -> None:
        self.name = name
        self.kind = kind
        self.constant = constant
        self.param_index = param_index
        self.proc_param_index = proc_param_index
        self.array_aligned = array_aligned


class CompiledProcedure:
    """All of one procedure's statement resolvers plus its footprint plan.

    Instances are immutable once built and depend only on the catalog and the
    procedure's parameter mapping, both fixed for the lifetime of a
    :class:`~repro.houdini.estimator.PathEstimator` — the estimator compiles
    each procedure once and reuses it for every request.
    """

    __slots__ = (
        "procedure",
        "statements",
        "_mapping",
        "_scheme",
        "_singletons",
        "_all_frozen",
        "_footprint_all",
        "_footprint_static",
        "_footprint_dynamic",
    )

    def __init__(
        self,
        procedure: StoredProcedure,
        catalog: Catalog,
        mapping: ParameterMapping | None,
    ) -> None:
        scheme = catalog.scheme
        schema = catalog.schema
        self.procedure = procedure.name
        self._mapping = mapping
        self._scheme = scheme
        self._singletons = tuple(
            PartitionSet.of([pid]) for pid in range(scheme.num_partitions)
        )
        self._all_frozen = frozenset(range(scheme.num_partitions))
        all_partitions = scheme.all_partitions()
        statements: dict[str, CompiledStatement] = {}
        footprint_static: set[PartitionId] = set()
        footprint_all = False
        #: (procedure-parameter index, array_aligned) pairs for the mapped
        #: slots whose footprint contribution depends on the request
        #: parameters (deduplicated: two statements keyed by the same
        #: procedure parameter contribute the same partitions).
        footprint_dynamic: list[tuple[int, bool]] = []
        for statement in procedure.statements.values():
            name = statement.name
            table = schema.table(statement.table)
            if table.replicated:
                if statement.operation is Operation.SELECT:
                    # Local read wherever the control code runs; contributes
                    # nothing to the mapping-only footprint.
                    statements[name] = CompiledStatement(name, DOMINANT)
                else:
                    statements[name] = CompiledStatement(name, CONST, all_partitions)
                    footprint_all = True
                continue
            partition_column = table.partition_column
            if partition_column is None:
                statements[name] = CompiledStatement(name, CONST, self._singletons[0])
                footprint_static.add(0)
                continue
            literal = statement.partitioning_literal(partition_column)
            if literal is not None:
                pid = scheme.partition_for_value(literal)
                statements[name] = CompiledStatement(name, CONST, self._singletons[pid])
                footprint_static.add(pid)
                continue
            index = statement.partitioning_parameter_index(partition_column)
            if index is None:
                statements[name] = CompiledStatement(name, CONST, all_partitions)
                footprint_all = True
                continue
            entry = mapping.entry_for(name, index) if mapping is not None else None
            if entry is None:
                statements[name] = CompiledStatement(name, UNKNOWN)
                footprint_all = True
                continue
            statements[name] = CompiledStatement(
                name,
                MAPPED,
                param_index=index,
                proc_param_index=entry.procedure_param_index,
                array_aligned=entry.array_aligned,
            )
            slot = (entry.procedure_param_index, entry.array_aligned)
            if slot not in footprint_dynamic:
                footprint_dynamic.append(slot)
        self.statements = statements
        self._footprint_all = footprint_all
        self._footprint_static = frozenset(footprint_static)
        self._footprint_dynamic = tuple(footprint_dynamic)

    # ------------------------------------------------------------------
    def predict_partitions(
        self,
        statement_name: str,
        counter: int,
        parameters: Sequence[Any],
        accumulated: PartitionSet,
    ) -> PartitionSet | None:
        """Partitions the statement's next invocation would touch.

        Returns ``None`` when the prediction cannot be made (the candidate is
        then treated as "uncertain" and only structural checks apply).
        Behaviourally identical to the paper-literal reference resolver
        (``tests/houdini/reference.py``), minus the per-call catalog walk.
        """
        compiled = self.statements.get(statement_name)
        if compiled is None:
            raise UnknownStatementError(self.procedure, statement_name)
        kind = compiled.kind
        if kind == CONST:
            return compiled.constant
        if kind == MAPPED:
            proc_index = compiled.proc_param_index
            if proc_index >= len(parameters):
                raise EstimationError(
                    f"mapping for {self.procedure!r} references parameter "
                    f"{proc_index} but only {len(parameters)} were supplied"
                )
            value = parameters[proc_index]
            if compiled.array_aligned:
                if not isinstance(value, (list, tuple)) or counter >= len(value):
                    return None
                value = value[counter]
            if value is None:
                return None
            return self._singletons[self._scheme.partition_for_value(value)]
        if kind == DOMINANT:
            if accumulated.partitions:
                return self._singletons[accumulated.partitions[0]]
            return None
        return None  # UNKNOWN

    # ------------------------------------------------------------------
    def _resolve_slots(
        self, parameters: Sequence[Any]
    ) -> tuple[frozenset[PartitionId], tuple | None]:
        """The single mapped-slot resolution loop behind the footprint and
        signature accessors.

        Returns ``(static ∪ resolved dynamic partitions, signature)``; the
        signature is ``None`` when it cannot vouch for the walk (an array
        longer than the compiled counter bound).  Raises
        :class:`~repro.errors.EstimationError` when the mapping references a
        parameter the request did not supply.
        """
        partition_for_value = self._scheme.partition_for_value
        parameter_count = len(parameters)
        footprint: set[PartitionId] = set(self._footprint_static)
        signature: list = []
        compilable = True
        for proc_index, array_aligned in self._footprint_dynamic:
            if proc_index >= parameter_count:
                raise EstimationError(
                    f"mapping for {self.procedure!r} references parameter "
                    f"{proc_index} but only {parameter_count} were supplied"
                )
            value = parameters[proc_index]
            if array_aligned:
                if not isinstance(value, (list, tuple)):
                    signature.append(None)
                    continue
                if len(value) > MAX_FOOTPRINT_COUNTER:
                    # Too long for a signature to vouch for the walk; the
                    # footprint still counts the bounded prefix.
                    compilable = False
                    for element in value[:MAX_FOOTPRINT_COUNTER]:
                        if element is not None:
                            footprint.add(partition_for_value(element))
                    continue
                bindings = tuple(
                    None if element is None else partition_for_value(element)
                    for element in value
                )
                signature.append(bindings)
                for pid in bindings:
                    if pid is not None:
                        footprint.add(pid)
            elif value is None:
                signature.append(None)
            else:
                pid = partition_for_value(value)
                signature.append(pid)
                footprint.add(pid)
        return frozenset(footprint), (tuple(signature) if compilable else None)

    def binding_signature(self, parameters: Sequence[Any]) -> tuple | None:
        """Everything the estimator's walk reads from the parameters.

        The walk consults the request parameters only through the compiled
        ``MAPPED`` resolvers — i.e. through ``partition_for_value`` of each
        mapped slot's value (element-wise for array-aligned slots, whose
        length also matters because an exhausted array predicts ``None``).
        The returned tuple captures exactly that, so two requests with equal
        signatures walk an identical path through the same model.

        Returns ``None`` when no signature can vouch for the request (an
        array longer than the compiled counter bound, or a mapping that
        references a missing parameter) — such a walk is never memoized.
        """
        if not self._footprint_dynamic:
            return ()
        try:
            return self._resolve_slots(parameters)[1]
        except EstimationError:
            # A missing parameter is the walk's concern (it only fails if it
            # actually reaches the affected statement), not the signature's.
            return None

    def footprint_and_signature(
        self, parameters: Sequence[Any]
    ) -> tuple[frozenset[PartitionId] | None, tuple | None]:
        """One-pass ``(footprint, binding signature)`` for a request.

        Equivalent to calling :meth:`footprint` and
        :meth:`binding_signature` separately, but the mapped slots are
        resolved once — this is the hot path of every ``Houdini.plan`` call,
        where both values are needed.
        """
        if self._mapping is None:
            return None, None
        if self._footprint_all:
            # The footprint is the whole cluster regardless of the
            # parameters (a broadcast, replicated write, or unmapped
            # partitioning parameter), so — like :meth:`footprint` — no
            # parameter validation happens on this path.
            return self._all_frozen, self.binding_signature(parameters)
        if not self._footprint_dynamic:
            return self._footprint_static, ()
        return self._resolve_slots(parameters)

    def footprint(self, parameters: Sequence[Any]) -> frozenset[PartitionId] | None:
        """Partitions the parameter mappings alone say a request may touch.

        ``None`` when the procedure has no mapping at all (nothing can be
        said); the full partition range when any statement is a broadcast,
        a replicated write, or has an unmapped partitioning parameter.
        """
        return self.footprint_and_signature(parameters)[0]

