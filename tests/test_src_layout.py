"""No module under ``src/repro`` whose only importers are tests, and one
statement of each copy-control strategy and recovery policy.

ROADMAP axis 2, made executable: every module must be imported by the
program itself — another ``src/repro`` module or the benchmark under
``bench/``.  ``tests/`` and ``examples/`` check and demonstrate the
program; an import from there keeps nothing alive.

A package ``__init__`` that re-exports a name is not an importer either:
``from repro.workload import UniformWorkload`` counts for
``repro.workload.uniform`` and for nothing else ``repro.workload``
happens to re-export.  Re-exports are resolved by name through the
``__init__``'s ``from ... import`` statements, function-local ones
included, and through the lazy ``__getattr__`` idiom of
``repro.recovery`` (``if name in (...): from pkg import module``).

Static (``ast``), so nothing is imported and nothing is timed.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

# Started by a user, not imported by the program.
ENTRY_POINTS = {"repro.__main__", "repro.cli", "repro.console"}

# Modules excused from the rule (none today); each entry must excuse one.
ALLOWED: set[str] = set()


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.AST):
    """``(module, name or None)`` for every import in ``tree``, nested
    scopes included: ``import a.b`` is ``("a.b", None)`` and
    ``from a import b as c`` is ``("a", "b")``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import: teach this test to resolve it"
            for alias in node.names:
                yield node.module, alias.name


def _lazy_exports(tree: ast.Module):
    """``(name, module, imported)`` for a module-level ``__getattr__`` of
    the form ``if name in ("A", "B"): from module import imported``."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__":
            for branch in ast.walk(fn):
                if isinstance(branch, ast.If):
                    names = [
                        c.value
                        for c in ast.walk(branch.test)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    ]
                    for stmt in branch.body:
                        for module, imported in _imports(stmt):
                            for name in names:
                                yield name, module, imported


def _unimported_modules() -> list[str]:
    trees = {
        _module_name(path): (path, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("repro/**/*.py"))
    }
    packages = {name for name, (path, _) in trees.items() if path.name == "__init__.py"}

    # package -> exported name -> (module, name imported from it)
    exports: dict[str, dict[str, tuple[str, str | None]]] = {}
    for package in packages:
        tree = trees[package][1]
        table = exports[package] = {}
        for module, imported in _imports(tree):
            if imported is not None:
                table.setdefault(imported, (module, imported))
        for name, module, imported in _lazy_exports(tree):
            table.setdefault(name, (module, imported))

    def resolve(module: str, name: str | None) -> str | None:
        """The ``src/repro`` module an import lands in, if any."""
        for _ in range(8):  # a re-export chain is two or three deep
            if name is not None and f"{module}.{name}" in trees:
                module, name = f"{module}.{name}", None  # ``from pkg import submodule``
            if module not in packages or name is None:
                return module if module in trees and module not in packages else None
            if name not in exports[module]:
                return None  # defined in the ``__init__`` itself
            module, name = exports[module][name]
        raise AssertionError(f"re-export cycle through {module}.{name}")

    imported: set[str] = set()
    program = [(name, tree) for name, (path, tree) in trees.items() if name not in packages]
    program += [
        (None, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((REPO / "bench").glob("*.py"))
    ]
    for importer, tree in program:
        for module, name in _imports(tree):
            target = resolve(module, name)
            if target is not None and target != importer:
                imported.add(target)

    return sorted(
        name
        for name in trees
        if name not in packages
        and name not in imported
        and name not in ENTRY_POINTS
    )


def test_every_module_is_imported_by_the_program():
    unimported = _unimported_modules()
    excused = {
        ok: [name for name in unimported if f"{name}.".startswith(f"{ok}.")]
        for ok in ALLOWED
    }
    assert sorted(set(unimported) - set().union(*excused.values())) == []
    assert all(excused.values()), f"an ALLOWED entry excuses nothing: {excused}"


# -- one statement of each strategy and policy -------------------------------

ENUMS = {"CopyControlStrategy", "RecoveryPolicy"}
COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _members(node: ast.AST):
    """``CopyControlStrategy.X`` / ``RecoveryPolicy.X`` in a comparison
    operand, including inside a tuple, list or set literal."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            owner = ast.unparse(sub.value)
            if owner.rsplit(".", 1)[-1] in ENUMS:
                yield f"{owner}.{sub.attr}"


def _member_comparisons(root: Path) -> list[str]:
    found = []
    for path in sorted(root.glob("repro/**/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, COMPARISONS) for op in node.ops
            ):
                for operand in (node.left, *node.comparators):
                    for member in _members(operand):
                        found.append(
                            f"{path.relative_to(root)}:{node.lineno}: {member}"
                        )
    return found


def test_no_module_branches_on_a_strategy_or_policy_member():
    """Each strategy and each recovery policy is one object, chosen by table
    lookup when a site is built (``repro.core.strategy.COPY_CONTROL``,
    ``repro.site.site.RECOVERY_POLICIES``); code asks the object and never
    compares the configured enum member again."""
    assert _member_comparisons(SRC) == []
