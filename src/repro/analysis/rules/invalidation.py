"""``cache-poke``: derived caches are touched only through their owners.

Each derived cache in the repo — the plan memo, the cost model's schedule
cache, the Markov model's successor views — has named contract methods
that keep its invalidation story correct (version tokens validated, stale
entries dropped, rebuilds complete).  Reaching into the backing dict from outside the owning class
(``model._successor_views.clear()``, ``cache._entries[key] = ...``)
skips those guarantees, so any attribute access whose name appears in
:data:`~repro.analysis.contracts.PROTECTED_CACHES` is flagged unless the
enclosing class *is* the registered owner.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import contracts
from ..core import Finding, ModuleInfo, ProjectIndex, Rule


class CachePokeRule(Rule):
    id = "cache-poke"
    summary = (
        "derived caches are cleared/rebuilt via their contract methods, "
        "never by poking the private container from outside the owner"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            registered = contracts.PROTECTED_CACHES.get(node.attr)
            if registered is None:
                continue
            owner, instead = registered
            enclosing = module.enclosing_class(node)
            if enclosing is not None and enclosing.name == owner:
                continue
            # ``self._entries`` in some other class is that class's *own*
            # private attribute (name collision, not a poke); the contract
            # violation is reaching into a different object's cache.
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                continue
            yield self.finding(
                module, node,
                f"direct access to {owner}.{node.attr} from outside the "
                f"owner; use {instead}",
            )
