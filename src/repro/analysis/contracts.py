"""The registries the analyzer's determinism rule reads, as data: all
randomness and clocks route through
:class:`~repro.workload.rng.WorkloadRandom` / seeded generators, which the
byte-equivalence suites rely on.
"""

from __future__ import annotations

#: Fully-resolved call targets that introduce nondeterminism.  Calls are
#: resolved through import aliases (``from time import time`` is caught).
#: ``time.perf_counter`` is deliberately absent: see ``Houdini._resolve``.
BANNED_CALLS: dict[str, str] = {
    "time.time": "wall-clock time; simulated time comes from the event loop",
    "time.time_ns": "wall-clock time; simulated time comes from the event loop",
    "time.monotonic": "host clock; simulated time comes from the event loop",
    "time.monotonic_ns": "host clock; simulated time comes from the event loop",
    "datetime.datetime.now": "wall-clock date; derive timestamps from the run seed",
    "datetime.datetime.utcnow": "wall-clock date; derive timestamps from the run seed",
    "datetime.datetime.today": "wall-clock date; derive timestamps from the run seed",
    "datetime.date.today": "wall-clock date; derive timestamps from the run seed",
    "os.urandom": "OS entropy; route randomness through WorkloadRandom",
    "os.getrandom": "OS entropy; route randomness through WorkloadRandom",
    "uuid.uuid1": "host/time-derived id; derive ids from seeded counters",
    "uuid.uuid4": "OS entropy; derive ids from seeded counters",
}

#: Modules whose *module-level* functions draw from hidden global state.
#: Instantiating a seeded generator from them (``random.Random(seed)``,
#: ``numpy.random.default_rng(seed)``) is the sanctioned pattern and stays
#: allowed; calling the module-level singletons is banned.
BANNED_MODULE_RANDOM: dict[str, frozenset[str]] = {
    # module -> constructor names that remain allowed
    "random": frozenset({"Random"}),
    "numpy.random": frozenset({"default_rng", "Generator", "RandomState", "MT19937"}),
    "secrets": frozenset(),
}
