"""Self-tuning subsystem: the production answer to the paper's §4.5.

Maintenance (``repro.houdini.maintenance``) can recompute a drifting model's
probabilities from run-time counters, but nothing in the paper closes the
loop — drift is only acted on when an operator intervenes, and a retrained
model never reaches a running system.  This package closes it:

* :class:`SelfTuneManager` — the loop: observe -> detect -> retrain -> swap,
  fed by Houdini after every transaction attempt.  It records each
  attempt's path once, in a per-procedure ring of paths; the drift score is
  one minus §4.5 maintenance's overlap
  (:func:`~repro.houdini.maintenance.worst_overlap`) over the ring's
  trailing transitions since the last swap;
* :func:`retrain_model` — the rebuild of a drifted procedure's Markov model
  from the ring's tail, started as a :class:`RetrainJob` and timed in
  simulated milliseconds; the rebuilt model lands through
  :meth:`Houdini.swap_model <repro.houdini.houdini.Houdini.swap_model>`,
  the atomic hot swap through the existing invalidation contracts.

Enable it with ``ClusterSpec(selftune=SelfTuneConfig(...))`` (or a plain
field dict), toggle it live through the ``selftune`` field —
``session.reconfigure(selftune=...)``, a spec diff or ``repro serve``'s
``selftune on|off`` — and
read its verdicts from ``session.snapshot_metrics().selftune`` or the
``repro serve`` ``drift`` command.  An enabled self-tuner preserves
byte-determinism: same seed + same workload schedule -> same bytes.
"""

from .config import SelfTuneConfig
from .manager import SelfTuneManager, SelfTuneStats
from .retrain import RetrainJob, retrain_model

__all__ = [
    "SelfTuneConfig",
    "RetrainJob",
    "retrain_model",
    "SelfTuneManager",
    "SelfTuneStats",
]
