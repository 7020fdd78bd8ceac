"""The repo's enforced invariants, as data.

Every rule in :mod:`repro.analysis.rules` is parameterized by one of the
registries below instead of hard-coding class or attribute names, so
extending a contract to a new subsystem is a one-line edit here — the rule
machinery never changes.  The registries are the written-down form of the
contracts that previously lived only in docstrings and reviewers' heads:

* the determinism contract (all randomness and clocks route through
  :class:`~repro.workload.rng.WorkloadRandom` / seeded generators; the
  byte-equivalence suites rely on it);
* the prediction-version contract (mutating a Markov model's structure
  must advance :attr:`~repro.markov.model.MarkovModel.version`, the plan
  memo's fast-path token, and the views and tables a model publishes are
  replaced, never mutated: under a moved version the memo validates an
  entry by the identity of what its walk read);
* the cache-invalidation contract (derived caches are cleared through
  their named contract methods, never by reaching into private dicts);
* the serialization contract (``to_dict`` output round-trips through
  ``from_dict``).
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
#: Fully-resolved call targets that introduce nondeterminism.  Calls are
#: resolved through import aliases (``from time import time`` is caught).
#: ``time.perf_counter`` is deliberately absent: it measures *wall-clock
#: cost of the planner itself* (``estimation_ms``), which is a measured
#: quantity, not a simulated decision input.
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

#: Attribute-name suffix of cache-feeding cost constants: assigning one on
#: a live instance must go through the class's ``__setattr__`` clearing
#: path (``CostModel.__setattr__`` drops the schedule cache), so bypasses
#: — ``object.__setattr__(obj, "..._ms", v)`` or ``obj.__dict__[...]`` —
#: are violations everywhere except inside a ``__setattr__`` definition.
CACHE_FEEDING_SUFFIX = "_ms"

# ----------------------------------------------------------------------
# cache-poke
# ----------------------------------------------------------------------
#: Private cache containers and their owning class.  Touching one of these
#: attributes in code that is not inside the owner class is a violation;
#: the message names the contract method(s) to use instead.
PROTECTED_CACHES: dict[str, tuple[str, str]] = {
    # attribute -> (owner class, contract methods to use instead)
    "_entries": ("EstimateCache", "lookup()/store()/invalidate()/invalidate_procedure()"),
    "_schedule_cache": ("CostModel", "assign the *_ms field or call clear_schedule_cache()"),
    # Self-tuning (hot model swap) contract surfaces: the provider's model
    # table only changes through install_model() — the atomic swap point,
    # reached through Houdini.swap_model() — and the manager's per-procedure
    # records (ring of attempt paths) only move through its observe loop.
    "_models": ("GlobalModelProvider", "model_for()/models()/model_for_procedure()/install_model()"),
    "_states": ("SelfTuneManager", "observe()/snapshot(); a record moves through record()/tail()/window()"),
    # Scheduler queues: the ready set and the per-partition wait lists move
    # only through submit/pop, park (requeue(partition)), wake, and the
    # rekey/adopt transplant; TenantScheduler reaches them as ``self``.  A
    # wait list is partition -> lane -> predicted partition set -> heap: a
    # gate verdict is a function of the set, so wake() judges each set once
    # and moves a blocked set's waiters ahead of the lane's first clearing
    # waiter (every one of them when none clears) as one group.
    "_ready": ("TransactionScheduler", "submit()/pop()/requeue()/wake()/rekey()/adopt_from()"),
    "_wait_lists": ("TransactionScheduler", "requeue(partition)/wake()/parked_partitions()/rekey()/adopt_from()"),
    # Per-tenant queued predicted work, an exact running total (2**-1074
    # units) that the shed predictor reads on every arrival: it moves with
    # the queue itself, so only the methods that add or remove a queued
    # transaction may touch it.
    "_backlog": ("TenantScheduler", "_push()/requeue()/pop()/_drain_queued()/predicted_backlog_ms_for()"),
    # Multi-tenancy contract surfaces: virtual clocks only move at dispatch,
    # quota slots through would_admit()/admit()/release_if_admitted(), SLO
    # counters through record(), and the in-flight work heap through
    # note_dispatch()/inflight_remaining_ms().
    "_tenant_vtime": ("TenantScheduler", "note_dispatched()/fairness_snapshot()"),
    "_quota_held": ("TenantQuotaController", "would_admit()/admit()/release_if_admitted()"),
    "_slo_counts": ("SLOTracker", "record()/set_config()/snapshot()"),
    "_work_ends": ("TenancyManager", "note_dispatch()/seed_inflight()/inflight_remaining_ms()"),
    # One SuccessorView per vertex, a function of the vertex's edge set and
    # edge probabilities: a new edge pops it (_new_edge, the one drop site),
    # process() replaces it for a dirty vertex whose probabilities moved, and
    # a hit count on an existing edge is logged and folded at the check
    # (it only marks the source dirty).  A published view is replaced, never
    # mutated — its identity is what the plan memo compares
    # (still_publishes()), so nothing outside the model may hold the dict.
    "_successor_views": ("MarkovModel", "successor_view()/successors()/still_publishes()/process(); a new edge drops, a count is logged, folded at check"),
    # The run-time transition log: appended once per learning attempt, its
    # edge hits folded before any reader of edge counts, and handed whole to
    # model maintenance at each check — a pair folded twice or never is a
    # wrong count no probability shows until the next recompute.
    "_transition_log": ("MarkovModel", "log_transitions()/drain_log()/logged_transitions(); edge-count readers fold it first"),
    # The exact-mode completion log's warm-up cursor: derived from the log's
    # contents, moved only by window() and reset by its recount after an
    # in-place sort; a new episode builds a fresh log instead of clearing one.
    "_cursor": ("CompletionLog", "window(); a new episode builds a fresh CompletionLog"),
    "_cursor_committed": ("CompletionLog", "window(); a new episode builds a fresh CompletionLog"),
    # Deliberately absent: ``StatementExecutor.tables`` (the per-procedure
    # compiled step tables).  It is memoized, but it has no invalidation
    # rule to protect — a step captures only the catalog (immutable) and the
    # heaps of its own engine's database (which live exactly as long as the
    # engine), so an entry, once built, can never go stale.
}

# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
#: ``to_dict`` keys that are derived/recomputed on load by convention and
#: therefore not required to appear in ``from_dict``: ``derived`` blocks
#: are rebuilt from counters, ``version``/``summary`` are format stamps
#: and rollups regenerated on the next dump.
RECOMPUTED_KEYS: frozenset[str] = frozenset({"derived", "version", "summary"})
