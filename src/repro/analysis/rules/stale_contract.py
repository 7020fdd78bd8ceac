"""``stale-contract``: every registry entry names something that exists.

The registries in :mod:`repro.analysis.contracts` outlive the code they
describe unless something checks them: a protected cache whose owner class
was deleted silently protects nothing, and a stale "use these contract
methods" hint sends the next reader to methods that are gone.  When the
scanned tree contains the registry module itself (``analysis/contracts.py``
— i.e. the scan is of the package the registries describe, not of a loose
file), each :data:`~repro.analysis.contracts.PROTECTED_CACHES` and
:data:`~repro.analysis.contracts.VERSIONED_CLASSES` entry must name a class
defined in the tree and attributes that class actually assigns.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import contracts
from ..core import ClassInfo, Finding, ProjectIndex, Rule

#: Path suffix (posix, relative) of the module the registries live in.
REGISTRY_SUFFIX = "analysis/contracts.py"


def _assigned_attributes(info: ClassInfo) -> set[str]:
    """Every ``self.x`` / ``cls.x`` the class body mentions."""
    return {
        node.attr
        for node in ast.walk(info.node)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    }


class StaleContractRule(Rule):
    id = "stale-contract"
    summary = (
        "every PROTECTED_CACHES / VERSIONED_CLASSES entry names a class and "
        "attributes that exist in the scanned tree"
    )

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        registry = next(
            (m for m in project.modules if m.display_path.endswith(REGISTRY_SUFFIX)),
            None,
        )
        if registry is None:
            return
        wanted: list[tuple[str, str, str]] = [
            ("PROTECTED_CACHES", owner, attribute)
            for attribute, (owner, _) in contracts.PROTECTED_CACHES.items()
        ]
        for owner, entry in contracts.VERSIONED_CLASSES.items():
            for attribute in sorted(entry["tracked"]) + [entry["version"]]:
                wanted.append(("VERSIONED_CLASSES", owner, attribute))
        for table, owner, attribute in wanted:
            info = project.classes.get(owner)
            if info is None:
                problem = f"class {owner} is not defined in the scanned tree"
            elif attribute not in _assigned_attributes(info):
                problem = f"class {owner} never assigns {attribute!r}"
            else:
                continue
            # Anchor on the registry line that spells the attribute.
            anchor = next(
                (node for node in ast.walk(registry.tree)
                 if isinstance(node, ast.Constant) and node.value == attribute),
                registry.tree,
            )
            yield self.finding(
                registry, anchor,
                f"stale {table} entry {owner}.{attribute}: {problem}; "
                f"delete or update the entry",
            )
