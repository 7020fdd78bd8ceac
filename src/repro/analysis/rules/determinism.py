"""``determinism``: no hidden clocks or entropy, no unordered iteration
feeding ordered output.

The byte-equivalence suites pin every simulated decision to the run seed;
one stray ``time.time()`` or module-level ``random.random()`` breaks the
twin-run property silently.  All randomness must route through
:class:`~repro.workload.rng.WorkloadRandom` or an explicitly seeded
generator instance — constructing one (``random.Random(seed)``,
``numpy.random.default_rng(seed)``) is allowed, calling the module-level
singletons is not.

The second half targets the classic iteration-order bug: materializing or
iterating a ``set``/``frozenset`` expression straight into ordered output
(``list(set(...))``, ``for x in {…}``) — hash order varies per process
(``PYTHONHASHSEED``), so such sites must sort first.  Only syntactically
certain set expressions are flagged; no type inference, no false alarms on
attributes that happen to hold sets.

The rule is the one detector of such a leak in code no byte-equality test
runs.  In the planted-bug verdict (CHANGES.md, row D2), an
``ArtifactBundle.metadata`` that wrote ``list(set(self.models))`` — a saved
bundle whose bytes follow the hash seed — was caught by this rule alone:
tier-1 and the hash-seed CI job both passed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import contracts
from ..core import Finding, ModuleInfo, Rule

#: Call receivers that consume an iterable in order.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


class DeterminismRule(Rule):
    id = "determinism"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = module.import_map()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, imports)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield self.finding(
                        module, node.iter,
                        "iterating a set in a 'for' loop: hash order varies "
                        "per process; iterate sorted(...) instead",
                    )
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                # A set comprehension's own result is unordered, so its
                # source order is moot; list/dict/generator results are
                # ordered (dicts preserve insertion order, so a dict built
                # from a set varies per process too).
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield self.finding(
                            module, comp.iter,
                            "comprehension over a set produces ordered output "
                            "from unordered input; wrap the source in sorted(...)",
                        )

    # ------------------------------------------------------------------
    def _check_call(
        self, module: ModuleInfo, node: ast.Call, imports: dict[str, str]
    ) -> Iterator[Finding]:
        dotted = _resolve_call(node.func, imports)
        if dotted is not None:
            reason = contracts.BANNED_CALLS.get(dotted)
            if reason is not None:
                yield self.finding(
                    module, node, f"call to {dotted}(): {reason}"
                )
                return
            for banned_module, allowed in contracts.BANNED_MODULE_RANDOM.items():
                prefix = banned_module + "."
                if dotted.startswith(prefix):
                    tail = dotted[len(prefix):]
                    if tail.split(".")[0] not in allowed:
                        yield self.finding(
                            module, node,
                            f"call to {dotted}(): module-level random state; "
                            "draw from WorkloadRandom or a seeded generator "
                            "instance instead",
                        )
                        return
        # Ordered consumption of a syntactic set expression.
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDERED_CONSUMERS:
            if node.args and _is_set_expr(node.args[0]):
                yield self.finding(
                    module, node,
                    f"{func.id}(set-expression) fixes an arbitrary hash order; "
                    "use sorted(...) (or an order-preserving dedup)",
                )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and _is_set_expr(node.args[0])
        ):
            yield self.finding(
                module, node,
                "str.join over a set-expression fixes an arbitrary hash "
                "order; sort first",
            )


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically-certain unordered expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # set algebra on certain set expressions stays a set
        return _is_set_expr(node.left) and _is_set_expr(node.right)
    return False


def _resolve_call(func: ast.AST, imports: dict[str, str]) -> str | None:
    """Dotted target of a call through the module's import aliases."""
    parts: list[str] = []
    current = func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = imports.get(current.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))
