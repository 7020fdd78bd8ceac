"""Pluggable execution backends for the cluster simulator.

The simulator's event core (clock, scheduler, gates, planning, the retry
loop, metrics) always runs on a single coordinator; what varies is *where
an attempt's statements execute*:

* ``inline`` — on the coordinator's own engine (the default);
* ``sharded`` — partition stores are sharded across OS worker processes,
  and an attempt whose plan locks only its base partition runs on the worker
  owning that partition while the coordinator waits for its report.

The sharded backend's contract is that **simulated results are
byte-identical to the inline backend under the same seed**, on every loop
shape.  It is slower than inline by design (one synchronous round trip per
dispatched attempt): it exists as a determinism oracle — a second,
independently-stated copy of the database must agree with the first — and
as the harness for worker-fault handling.  See
:mod:`repro.sim.backend.sharded`.
"""

from .sharded import ShardedBackend

__all__ = ["ShardedBackend"]
