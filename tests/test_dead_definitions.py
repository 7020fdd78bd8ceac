"""Every definition in ``src/repro`` earns an entry point.

A function, class or method defined in ``src/repro`` must be named by code
(not a comment or a docstring) somewhere under ``src/``, ``benchmarks/``
or ``examples/``.  Its own definition does not count (a name used only
inside its own body reaches nothing), and neither does an import or an
``__all__`` entry (a re-export reaches nothing).  A definition only
``tests/`` names is dead to the program: it is deleted, moved into
``tests/`` as an oracle or helper, or listed in :data:`KEPT` with the
reason it stays.  The check matches names, not bindings: a dead definition
that shares its name with a live one passes.

Three kinds of definition are reached without their name being written:

* dunders (the interpreter calls them);
* overrides of a base-class method (the base's callers reach them; the
  base is looked up through the class's MRO, so stdlib bases count);
* the generators' ``_make_<Procedure>`` methods, reached through
  ``getattr(self, f"_make_{procedure}")`` in a module under
  ``repro/benchmarks/``.  Those are checked against the ``name`` of every
  stored procedure their benchmark package declares.

The check is static: it reads the source and imports the modules, and runs
no workload.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SEARCHED = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Test-driven APIs kept on purpose, each with why it stays.
KEPT = {
    "apply_schedule": "ClusterSession.apply_schedule replays ClusterSpec.diff "
                      "schedules as a loop of reconfigure calls at simulated "
                      "times; the scenario fuzzer of ROADMAP item 5 will "
                      "drive it",
    "single_partitioned": "AttemptResult.single_partitioned: the benchmark "
                          "tests assert which procedures stay on one partition",
    "vertex_accuracy": "ModelMaintenance.vertex_accuracy: the per-vertex §4.5 "
                       "accuracy the transition-log property compares against "
                       "its oracle",
    "maintenances": "MaintenanceRegistry.maintenances: the swap and cache-safety "
                    "tests enumerate what maintenance tracks",
    "commit": "MarkovModel.commit: the terminal key beside begin and abort, "
              "which the model tests write transitions to",
    "definitions": "FeatureExtractor.definitions: the feature catalogue the "
                   "model-partitioning tests select from",
    "table_names": "PartitionStore.table_names: the execution digests and the "
                   "engine oracle enumerate a store's tables through it",
    "QueryTraceRecord": "the named form of a traced query, for traces built by "
                        "hand (TransactionTraceRecord stores plain tuples)",
    "select": "RowHeap.select: the ad-hoc SELECT over the planner the executor "
              "compiles; benchmarks/e2e/spans.py wraps it by name and raises "
              "AttributeError when it is missing",
    "pk_rows": "RowHeap.pk_rows: the ad-hoc primary-key read; "
               "benchmarks/e2e/spans.py wraps it by name and raises "
               "AttributeError when it is missing",
}


def read_sources() -> dict[Path, str]:
    """The text of every searched ``.py`` file."""
    return {
        path: path.read_text(encoding="utf-8")
        for root in SEARCHED for path in sorted(root.rglob("*.py"))
    }


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def references(sources: dict[Path, str]) -> dict[str, list[tuple[Path, int]]]:
    """Where code names each identifier (file, line): every ``Name`` and
    attribute in the syntax tree, f-string expressions included.  A
    ``def``/``class`` header, an import and an ``__all__`` string are not
    names."""
    found: dict[str, list[tuple[Path, int]]] = {}
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                found.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                found.setdefault(node.attr, []).append((path, node.lineno))
    return found


def _named_outside(sites, path: Path, node: ast.AST) -> bool:
    """Whether a use of the name lies outside ``node``'s own lines."""
    return any(
        site_path != path or not node.lineno <= line <= node.end_lineno
        for site_path, line in sites
    )


def _definitions(tree: ast.Module):
    """``(qualified name, class or None, node)`` for every module-level
    function and class and every method (nested classes included)."""
    def walk(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (f"{owner.name}.{node.name}" if owner else node.name), owner, node
            elif isinstance(node, ast.ClassDef):
                yield (f"{owner.name}.{node.name}" if owner else node.name), owner, node
                yield from walk(node.body, node)

    yield from walk(tree.body, None)


def _overrides(module: str, owner: ast.ClassDef, name: str) -> bool:
    """Whether a base of ``owner`` (its runtime MRO) defines ``name``."""
    cls = getattr(importlib.import_module(module), owner.name, None)
    return cls is not None and any(name in vars(base) for base in cls.__mro__[1:])


def _procedure_names(package: Path, sources: dict[Path, str]) -> set[str]:
    """The ``name = "..."`` of every class in a benchmark package."""
    names: set[str] = set()
    for path, text in sources.items():
        if path.parent != package:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.Assign)
                            and [getattr(t, "id", None) for t in item.targets] == ["name"]
                            and isinstance(item.value, ast.Constant)):
                        names.add(item.value.value)
    return names


def unreached_in(
    path: Path, sources: dict[Path, str], found, kept=KEPT
) -> tuple[list[str], list[str]]:
    """``(definitions no searched code names, _make_ methods naming no
    procedure)`` of one module, each as ``module:qualified name``; names in
    ``kept`` pass.  ``found`` is :func:`references` of ``sources``."""
    module = _module_name(path)
    dead, makers = [], []
    for qualified, owner, node in _definitions(ast.parse(sources[path])):
        name = node.name
        where = f"{module}:{qualified}"
        if name.startswith("__") and name.endswith("__"):
            continue
        if (name.startswith("_make_") and owner is not None
                and PACKAGE / "benchmarks" in path.parents):
            if name[len("_make_"):] not in _procedure_names(path.parent, sources):
                makers.append(where)
            continue
        if name in kept or _named_outside(found.get(name, ()), path, node):
            continue
        if owner is not None and _overrides(module, owner, name):
            continue
        dead.append(where)
    return dead, makers


def unreached(sources: dict[Path, str], kept=KEPT) -> tuple[list[str], list[str]]:
    """:func:`unreached_in` over every module of ``src/repro``."""
    found = references(sources)
    dead, makers = [], []
    for path in sources:
        if PACKAGE in path.parents:
            module_dead, module_makers = unreached_in(path, sources, found, kept)
            dead += module_dead
            makers += module_makers
    return dead, makers


#: One case per module, so a failure names the module it is in.
MODULES = sorted(PACKAGE.rglob("*.py"))
GENERATORS = sorted(PACKAGE.glob("benchmarks/*/generator.py"))


def _case_id(path: Path) -> str:
    return _module_name(path) + (".__init__" if path.name == "__init__.py" else "")


@pytest.fixture(scope="module")
def sources() -> dict[Path, str]:
    return read_sources()


@pytest.fixture(scope="module")
def found(sources):
    return references(sources)


@pytest.mark.parametrize("path", MODULES, ids=_case_id)
def test_every_definition_is_named_outside_tests(path, sources, found):
    dead, _ = unreached_in(path, sources, found)
    assert dead == [], (
        "defined in src/repro but named only by tests: delete it, move it "
        "into tests/, or list it in KEPT with its reason"
    )


@pytest.mark.parametrize("path", GENERATORS, ids=_case_id)
def test_every_make_method_names_a_procedure(path, sources, found):
    _, makers = unreached_in(path, sources, found)
    assert makers == []


@pytest.fixture(scope="module")
def dead_without_kept(sources):
    dead, _ = unreached(sources, kept=())
    return {where.split(":")[1].split(".")[-1] for where in dead}


@pytest.mark.parametrize("name", sorted(KEPT))
def test_every_kept_entry_is_still_needed(name, dead_without_kept):
    """A KEPT name that code now reaches, or that no longer exists, is a
    stale entry."""
    assert name in dead_without_kept


class TestMutationsAreCaught:
    """The check is worth its place only if it names a planted dead
    definition."""

    def test_an_unreferenced_helper(self, sources):
        path = PACKAGE / "workload" / "rng.py"
        planted = dict(sources)
        planted[path] += "\n\ndef _planted_helper():\n    return 1\n"
        dead, _ = unreached(planted)
        assert dead == ["repro.workload.rng:_planted_helper"]

    def test_a_make_method_for_a_procedure_that_does_not_exist(self, sources):
        path = PACKAGE / "benchmarks" / "tatp" / "generator.py"
        planted = dict(sources)
        planted[path] += (
            "\n    def _make_NoSuchProcedure(self):\n"
            "        return None\n"
        )
        _, makers = unreached(planted)
        assert makers == ["repro.benchmarks.tatp.generator:TatpGenerator._make_NoSuchProcedure"]
