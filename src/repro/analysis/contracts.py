"""The registries the two analyzer rules read, as data.

* the determinism contract (all randomness and clocks route through
  :class:`~repro.workload.rng.WorkloadRandom` / seeded generators; the
  byte-equivalence suites rely on it);
* the prediction-version contract (mutating a Markov model's structure
  must advance :attr:`~repro.markov.model.MarkovModel.version`, the plan
  memo's fast-path token, and the views and tables a model publishes are
  replaced, never mutated: under a moved version the memo validates an
  entry by the identity of what its walk read).
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
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

# ----------------------------------------------------------------------
# version-bump
# ----------------------------------------------------------------------
#: Classes whose structural mutations must advance a version counter.
#: ``tracked`` names the attributes holding prediction-relevant structure;
#: any method that mutates one of them (directly, through a local alias,
#: or via a mutating dict/set method call) must — itself or through
#: another method it calls — assign/augment the ``version`` attribute.
#: An unmoved version proves every memoized walk valid; under a moved one
#: the plan memo relies on the companion rule — *a published
#: ``SuccessorView`` / ``ProbabilityTable`` is replaced, never mutated*
#: (``MarkovModel.still_publishes`` tests identity; asserted by
#: ``tests/property/test_property_successor_cache.py``).  The lazily filled
#: caches (``positive_access``, a view's probe index and groups) are the one
#: benign exception: pure functions of the immutable content.
VERSIONED_CLASSES: dict[str, dict] = {
    "MarkovModel": {
        "tracked": frozenset({"_vertices", "_edges", "_reverse"}),
        "version": "version",
        "hint": "bump self.version (or delegate to _add_vertex/_add_edge_visit)",
    },
}
