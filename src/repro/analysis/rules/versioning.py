"""``version-bump``: structural mutation must advance the version token.

The plan memo (:mod:`repro.houdini.cache`) validates memoized walks and
decisions against ``model.version`` — the whole default-on
caching mode is sound *only if* every prediction-relevant mutation of a
:class:`~repro.markov.model.MarkovModel` advances that counter.  This rule
makes the contract mechanical for every class registered in
:data:`~repro.analysis.contracts.VERSIONED_CLASSES`:

* a method that mutates a tracked structure attribute — by subscript
  assignment/deletion, by calling a mutating container method on it, or
  through a local alias of it — must, in its own body or in another method
  of the class it (transitively) calls, assign or augment the version
  attribute;
* ``__init__`` is exempt (it *defines* the structures).

The rule is the one detector of an unbumped mutation in a method no test
checks the version of.  In the planted-bug verdict (CHANGES.md, row V2), a
``MarkovModel.merge_counts`` that created vertices and edges inline without
``self.version += 1`` was caught by this rule alone: tier-1 and the
hash-seed CI job both passed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import contracts
from ..core import Finding, ModuleInfo, Rule

#: Container methods that mutate their receiver.
_MUTATORS = frozenset({
    "setdefault", "pop", "popitem", "clear", "update",
    "add", "discard", "remove", "append", "extend", "insert",
})

_EXEMPT_METHODS = frozenset({"__init__"})


class VersionBumpRule(Rule):
    id = "version-bump"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in contracts.VERSIONED_CLASSES:
                yield from self._check_versioned_class(module, node)

    # ------------------------------------------------------------------
    # Versioned-class analysis
    # ------------------------------------------------------------------
    def _check_versioned_class(
        self, module: ModuleInfo, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        contract = contracts.VERSIONED_CLASSES[class_node.name]
        tracked: frozenset[str] = contract["tracked"]
        version_attr: str = contract["version"]
        methods = {
            item.name: item
            for item in class_node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        bumps: set[str] = set()
        mutates: dict[str, ast.AST] = {}
        calls: dict[str, set[str]] = {}
        for name, method in methods.items():
            self_name = _self_name(method)
            info = _MethodScan(self_name, tracked, version_attr)
            info.scan(method)
            if info.bumps:
                bumps.add(name)
            if info.mutation_site is not None:
                mutates[name] = info.mutation_site
            calls[name] = info.self_calls
        # Propagate "bumps" through the intra-class call graph.
        changed = True
        while changed:
            changed = False
            for name, callees in calls.items():
                if name not in bumps and callees & bumps:
                    bumps.add(name)
                    changed = True
        for name, site in mutates.items():
            if name in _EXEMPT_METHODS or name in bumps:
                continue
            yield self.finding(
                module, site,
                f"{class_node.name}.{name} mutates a versioned structure "
                f"({', '.join(sorted(tracked))}) without advancing "
                f"'{version_attr}'; {contract['hint']}",
            )


def _self_name(method: ast.FunctionDef) -> str | None:
    args = method.args.posonlyargs + method.args.args
    return args[0].arg if args else None


class _MethodScan:
    """One pass over a method body collecting the contract facts."""

    def __init__(
        self, self_name: str | None, tracked: frozenset[str], version_attr: str
    ) -> None:
        self.self_name = self_name
        self.tracked = tracked
        self.version_attr = version_attr
        self.bumps = False
        self.mutation_site: ast.AST | None = None
        self.self_calls: set[str] = set()
        #: Local names aliasing a tracked attribute (``edges = self._edges``).
        self.aliases: set[str] = set()

    # -- classification helpers ----------------------------------------
    def _is_tracked(self, node: ast.AST) -> bool:
        if (
            isinstance(node, ast.Attribute)
            and node.attr in self.tracked
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        ):
            return True
        return isinstance(node, ast.Name) and node.id in self.aliases

    def _note_mutation(self, node: ast.AST) -> None:
        if self.mutation_site is None:
            self.mutation_site = node

    # -- the scan -------------------------------------------------------
    def scan(self, method: ast.FunctionDef) -> None:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                self._scan_assign(node)
            elif isinstance(node, ast.AugAssign):
                self._scan_target(node.target, node)
                if (
                    isinstance(node.target, ast.Attribute)
                    and node.target.attr == self.version_attr
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == self.self_name
                ):
                    self.bumps = True
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._scan_target(target, node)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr in _MUTATORS and self._is_tracked(func.value):
                        self._note_mutation(node)
                    elif (
                        isinstance(func.value, ast.Name)
                        and func.value.id == self.self_name
                    ):
                        self.self_calls.add(func.attr)

    def _scan_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._scan_target(target, node)
            # Version assignment (rare but valid bump form).
            if (
                isinstance(target, ast.Attribute)
                and target.attr == self.version_attr
                and isinstance(target.value, ast.Name)
                and target.value.id == self.self_name
            ):
                self.bumps = True
            # Alias creation: ``edges = self._edges``.
            if isinstance(target, ast.Name) and self._is_tracked(node.value):
                self.aliases.add(target.id)

    def _scan_target(self, target: ast.AST, site: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(element, site)
            return
        if isinstance(target, ast.Subscript) and self._is_tracked(target.value):
            self._note_mutation(site)
