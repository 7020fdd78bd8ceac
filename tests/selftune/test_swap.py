"""Hot-swap contract tests (:mod:`repro.selftune.swap`).

The swap must route every invalidation through the named contract methods
and touch **only** the swapped procedure's derived state: the other
procedures' plan-memo entries survive untouched.
(The tests inspect the private cache container directly — the cache-poke
contract only binds ``src/repro``; tests are exactly where poking is how
the contract itself gets verified.)
"""

from __future__ import annotations

import pytest

from repro.houdini import GlobalModelProvider, Houdini, HoudiniConfig
from repro.markov import MarkovModel
from repro.selftune import ModelSwapController
from repro.session import ClusterSpec, train


@pytest.fixture(scope="module")
def warm_houdini():
    """A Houdini with warmed caches for several TATP procedures."""
    artifacts = train(ClusterSpec(
        benchmark="tatp", num_partitions=4, trace_transactions=200, seed=13
    ))
    houdini = Houdini(
        artifacts.benchmark.catalog,
        GlobalModelProvider(artifacts.models),
        artifacts.mappings,
        HoudiniConfig(enable_estimate_caching=True),
        learning=False,
    )
    for request in artifacts.benchmark.generator.generate(300):
        houdini.plan(request)
    return houdini


def _two_cached_procedures(houdini) -> tuple[str, str]:
    """A cache-warmed procedure plus a different procedure to swap.

    Returns ``(swapped, protected)`` where ``protected`` has warmed
    estimate-cache entries and ``swapped`` is another procedure entirely.
    """
    cached = sorted({key[0] for key in houdini.estimate_cache._entries})
    assert cached, "no procedure warmed the estimate cache"
    protected = cached[0]
    others = sorted(
        model.procedure
        for model in houdini.provider.models()
        if model.procedure != protected
    )
    assert others, "need a second procedure to swap"
    return others[0], protected


def _fresh_replacement(old: MarkovModel) -> MarkovModel:
    model = MarkovModel(old.procedure, old.num_partitions)
    model.process()
    return model


class TestSwapContract:
    def test_swap_installs_and_returns_the_old_model(self, warm_houdini):
        procedure, _ = _two_cached_procedures(warm_houdini)
        old = warm_houdini.provider.model_for_procedure(procedure)
        new = _fresh_replacement(old)
        controller = ModelSwapController(warm_houdini)

        returned = controller.swap(procedure, new)

        assert returned is old
        assert warm_houdini.provider.model_for_procedure(procedure) is new
        assert controller.swaps_performed == 1
        # Swap back so the module fixture stays warm for the other tests.
        controller.swap(procedure, old)

    def test_swap_leaves_no_memo_entry_of_the_retired_model(self, warm_houdini):
        """Nothing memoized against the retired model can be served again:
        its entries are gone (a bare version bump would invalidate nothing —
        the memo validates by what a walk read), and with them the pins that
        kept the model's identity from being recycled."""
        _, procedure = _two_cached_procedures(warm_houdini)
        cache = warm_houdini.estimate_cache
        old = warm_houdini.provider.model_for_procedure(procedure)
        assert any(entry.model is old for entry in cache._entries.values())
        controller = ModelSwapController(warm_houdini)
        controller.swap(procedure, _fresh_replacement(old))
        assert not any(entry.model is old for entry in cache._entries.values())
        controller.swap(procedure, old)
        # Swapped back in, the model starts from an empty slate too.
        assert not any(key[0] == procedure for key in cache._entries)

    def test_swap_forgets_the_retired_models_maintenance(self, warm_houdini):
        procedure, _ = _two_cached_procedures(warm_houdini)
        old = warm_houdini.provider.model_for_procedure(procedure)
        warm_houdini.maintenance.for_model(old)
        assert any(
            m.model is old for m in warm_houdini.maintenance.maintenances()
        )
        controller = ModelSwapController(warm_houdini)
        controller.swap(procedure, _fresh_replacement(old))
        assert not any(
            m.model is old for m in warm_houdini.maintenance.maintenances()
        )
        controller.swap(procedure, old)

    def test_provider_rejects_procedure_mismatch(self, warm_houdini):
        first, second = _two_cached_procedures(warm_houdini)
        wrong = warm_houdini.provider.model_for_procedure(second)
        with pytest.raises(ValueError, match="not"):
            warm_houdini.provider.install_model(first, wrong)


class TestSwapIsolation:
    def test_swapping_p_never_evicts_qs_estimates(self, warm_houdini):
        swapped, protected = _two_cached_procedures(warm_houdini)
        cache = warm_houdini.estimate_cache
        protected_entries = {
            key: value for key, value in cache._entries.items()
            if key[0] == protected
        }
        assert protected_entries, "no warmed entries to protect"

        old = warm_houdini.provider.model_for_procedure(swapped)
        controller = ModelSwapController(warm_houdini)
        controller.swap(swapped, _fresh_replacement(old))

        # Swapping an unrelated procedure leaves the protected procedure's
        # entries as the identical objects.
        for key, value in protected_entries.items():
            assert cache._entries[key] is value
        controller.swap(swapped, old)

        # Swapping the cached procedure itself drops exactly its entries.
        cached_old = warm_houdini.provider.model_for_procedure(protected)
        controller.swap(protected, _fresh_replacement(cached_old))
        assert not any(key[0] == protected for key in cache._entries)
        controller.swap(protected, cached_old)
