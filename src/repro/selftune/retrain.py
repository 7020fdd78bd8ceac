"""Background retraining from the recorded tail.

A retrain job freezes a copy of the procedure's recent transition paths (the
run-time monitor records complete begin -> ... -> commit/abort chains) and
rebuilds a fresh :class:`~repro.markov.model.MarkovModel` from them — the
same construction path off-line training uses, so the §4.1 invariants
(terminal vertices, placeholder typing, probability tables) all hold.

"Background" is modelled in **simulated time**: the job becomes ready
``retrain_latency_ms`` after it started on the simulator's transaction
clock, and the actual rebuild happens at the completion boundary between two
transactions.  That keeps runs byte-deterministic — the wall clock never
decides when a retrained model lands.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..markov.model import MarkovModel
from ..markov.vertex import ABORT_KEY


@dataclass(frozen=True)
class RetrainJob:
    """One in-flight background retrain for a procedure."""

    procedure: str
    started_at_ms: float
    ready_at_ms: float
    #: Frozen copy of the recorded tail: a tuple of transition paths, each a
    #: tuple of (source, target) VertexKey pairs spanning begin to terminal.
    paths: tuple


def retrain_model(old_model: MarkovModel, paths) -> MarkovModel:
    """Rebuild a procedure's model from recorded transition paths.

    Each path is a begin -> ... -> terminal chain of ``(source, target)``
    pairs, folded the way off-line construction folds a trace record
    (:meth:`~repro.markov.model.MarkovModel.fold_path`).  Vertex query types
    are backfilled from ``old_model``: the run-time monitor created every
    vertex it visited there (with the invocation's query type), so the old
    model is a complete type oracle for the tail.  Begin hits and
    ``transactions_observed`` are counted per path — the OP3 selector's
    support accounting (``sampling_risk``) reads both.  The model always
    gets its probability tables, as off-line training gives every model,
    whatever ``HoudiniConfig.precompute_tables`` says: the optimization
    selector reads the begin vertex's table.
    """
    model = MarkovModel(old_model.procedure, old_model.num_partitions)
    find = old_model.find_vertex
    for path in paths:
        if not path:
            continue
        states = []
        for _, key in path[:-1]:
            previous = find(key)
            states.append((key, previous.query_type if previous is not None else None))
        model.fold_path(states, aborted=path[-1][1] is ABORT_KEY)
    model.process()
    return model
