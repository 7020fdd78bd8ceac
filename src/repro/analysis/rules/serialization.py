"""``serialization``: ``to_dict`` output round-trips through ``from_dict``.

Session manifests, trace records and simulation results all persist
through ``to_dict``/``from_dict`` pairs.  A field added to one side but
not the other fails *silently* — the dict round-trips, the object loses
state — so the rule checks two things for every class defining
``to_dict``:

* a ``from_dict`` exists on the class or an ancestor (resolved through
  the project-wide class index, including cross-module bases — subclasses
  inheriting a dispatching base ``from_dict`` are fine);
* when both sides are *literal* (no ``**kwargs`` construction, no
  ``.items()`` sweep, no ``from_kwargs`` delegation), the string keys the
  ``to_dict`` emits are all mentioned somewhere in the ``from_dict`` body,
  and any ``data["k"]``/``data.get("k")`` the ``from_dict`` reads is a key
  the ``to_dict`` emits.  Keys in
  :data:`~repro.analysis.contracts.RECOMPUTED_KEYS` are derived on load by
  convention and exempt.

A ``to_dict`` derived from the class's field table — a class-body
``to_dict = schema.to_dict``, or a method that builds on
``schema.to_dict(self)`` — still needs a reachable ``from_dict``; its key
parity is structural (both directions read the same dataclass fields), so
the literal-key comparison is skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .. import contracts
from ..core import Finding, ModuleInfo, ProjectIndex, Rule

#: Call/attribute markers that make a method "dynamic": its key set is not
#: a syntactic property, so key-parity checking is skipped for the pair.
_DYNAMIC_CALL_NAMES = frozenset({"from_kwargs"})


class SerializationRule(Rule):
    id = "serialization"
    summary = (
        "every to_dict has a from_dict (self or ancestor) restoring the "
        "same field set"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            to_dict = _method(node, "to_dict")
            derived = _assigns_schema_to_dict(node)
            if to_dict is None and not derived:
                continue
            from_dict = _method(node, "from_dict")
            if from_dict is None:
                if project.class_defines(node.name, "from_dict"):
                    continue  # inherited (possibly a dispatching base)
                yield self.finding(
                    module, node,
                    f"{node.name} defines to_dict but no from_dict is "
                    "reachable on the class or its ancestors; serialized "
                    "state cannot be restored",
                )
                continue
            if not derived and not _calls_schema_to_dict(to_dict):
                yield from self._check_parity(module, node, to_dict, from_dict)

    # ------------------------------------------------------------------
    def _check_parity(
        self,
        module: ModuleInfo,
        class_node: ast.ClassDef,
        to_dict: ast.FunctionDef,
        from_dict: ast.FunctionDef,
    ) -> Iterator[Finding]:
        if _is_abstract(to_dict) or _is_abstract(from_dict):
            return
        emitted = _literal_to_dict_keys(to_dict)
        if emitted is None or _is_dynamic(from_dict):
            return
        restored = _string_literals(from_dict)
        missing = emitted - restored - contracts.RECOMPUTED_KEYS
        for key in sorted(missing):
            yield self.finding(
                module, from_dict,
                f"{class_node.name}.to_dict serializes {key!r} but "
                "from_dict never restores it",
            )
        for key, site in sorted(_explicit_reads(from_dict).items()):
            if key not in emitted:
                yield self.finding(
                    module, site,
                    f"{class_node.name}.from_dict reads {key!r} which "
                    "to_dict never serializes",
                )


def _method(class_node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for item in class_node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name:
            return item
    return None


def _is_schema_to_dict(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "to_dict"
        and isinstance(node.value, ast.Name) and node.value.id == "schema"
    )


def _assigns_schema_to_dict(class_node: ast.ClassDef) -> bool:
    """A class-body ``to_dict = schema.to_dict``."""
    return any(
        isinstance(item, ast.Assign) and _is_schema_to_dict(item.value)
        and any(isinstance(t, ast.Name) and t.id == "to_dict" for t in item.targets)
        for item in class_node.body
    )


def _calls_schema_to_dict(method: ast.FunctionDef) -> bool:
    """A ``to_dict`` built on ``schema.to_dict(self)`` (plus literal keys)."""
    return any(
        isinstance(node, ast.Call) and _is_schema_to_dict(node.func)
        for node in ast.walk(method)
    )


def _is_abstract(method: ast.FunctionDef) -> bool:
    for decorator in method.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            decorator.id if isinstance(decorator, ast.Name) else ""
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _is_dynamic(method: ast.FunctionDef) -> bool:
    """True when the method's key set is not syntactically knowable."""
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            if any(arg for arg in node.args if isinstance(arg, ast.Starred)):
                return True
            if any(kw.arg is None for kw in node.keywords):
                return True  # **kwargs construction
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr == "items" or func.attr in _DYNAMIC_CALL_NAMES:
                    return True
            elif isinstance(func, ast.Name) and func.id in _DYNAMIC_CALL_NAMES:
                return True
        elif isinstance(node, (ast.DictComp,)):
            return True
    return False


def _literal_to_dict_keys(to_dict: ast.FunctionDef) -> frozenset[str] | None:
    """Keys of the dict(s) ``to_dict`` builds, or None if dynamic.

    Collects string keys from every dict literal and every
    ``d["key"] = ...`` subscript assignment in the body.  Any dynamic
    construct (``**spread``, ``.items()``, computed keys) disqualifies the
    method from parity checking.
    """
    if _is_dynamic(to_dict):
        return None
    keys: set[str] = set()
    for node in ast.walk(to_dict):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is None:
                    return None  # **spread inside a literal
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return frozenset(keys)


def _string_literals(method: ast.FunctionDef) -> frozenset[str]:
    """Every string literal in the body — the loosest notion of "mentions".

    ``from_dict`` implementations vary (subscripts, ``.get``, literal
    tuples fed to a ``setattr`` loop), so a key counted as restored if it
    appears as *any* string literal keeps the rule free of false alarms
    while still catching wholly-forgotten fields.
    """
    found: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return frozenset(found)


def _explicit_reads(method: ast.FunctionDef) -> dict[str, ast.AST]:
    """Keys read via ``data["k"]`` or ``data.get("k")`` on the first arg."""
    args = method.args.posonlyargs + method.args.args
    # classmethod: (cls, data); staticmethod/function: (data, ...)
    data_names = {a.arg for a in args} - {"cls", "self"}
    reads: dict[str, ast.AST] = {}
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in data_names
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.setdefault(node.slice.value, node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in data_names
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.setdefault(node.args[0].value, node)
    return reads
