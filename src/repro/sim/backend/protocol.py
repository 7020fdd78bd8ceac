"""Pipe-protocol tags shared by the sharded coordinator and its workers.

Both ends import these constants, so they agree on every tag *by
construction*; ``repro analyze``'s process-hygiene rule enforces that no
speaker module spells a tag out inline and that the values stay distinct.
The exchange is synchronous — one report per dispatch, nothing else ever
travels worker -> coordinator::

    (MSG_DISPATCH, request, base, locked, ops)  apply ``ops``, run one attempt
    (MSG_EFFECTS, ops)                          apply ``ops`` (no reply)
    (MSG_QUIT,)                                 exit
    (REPORT_OK, result, effects, op_counts)     the attempt, as executed
    (REPORT_ERR, message)                       the attempt raised; worker exits
"""

from __future__ import annotations

# Coordinator -> worker.
MSG_DISPATCH = "d"
MSG_EFFECTS = "x"
MSG_QUIT = "q"

# Worker -> coordinator.
REPORT_OK = "ok"
REPORT_ERR = "err"
