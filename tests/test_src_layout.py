"""No module or public ``def`` under ``src/repro`` that only tests reach,
and one statement of each copy-control strategy and recovery policy.

ROADMAP axis 2, made executable: every module must be imported by the
program itself — another ``src/repro`` module or the benchmark under
``bench/``.  ``tests/`` and ``examples/`` check and demonstrate the
program; an import from there keeps nothing alive.  One level down,
every public function, method and property must be named by the
program — ``src/``, ``bench/`` or ``examples/`` — outside its own body.

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
import functools
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


@functools.cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _program(root: Path, examples: bool = True) -> list[Path]:
    """The files that keep a module or a name alive: ``src/repro``,
    ``bench/*.py`` and, for names, ``examples/*.py``."""
    paths = sorted((root / "src").glob("repro/**/*.py"))
    paths += sorted((root / "bench").glob("*.py"))
    return paths + (sorted((root / "examples").glob("*.py")) if examples else [])


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
    paths = _program(REPO, examples=False)
    trees = {
        _module_name(path): (path, _parse(path))
        for path in paths
        if path.is_relative_to(SRC)
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
    program += [(None, _parse(path)) for path in paths if not path.is_relative_to(SRC)]
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


# -- every public def is named by the program ---------------------------------

# ``module:Class.name`` (a trailing ``*`` matches a prefix) excused from
# the rule below; each entry must excuse at least one definition.
ALLOWED_DEFS = {
    # ``cmd.Cmd`` dispatches a console line to ``do_<verb>`` by string.
    "repro.console:MiniRaidConsole.do_*",
    # The type-3 control transaction (paper §3.2): a backup copy under
    # partial replication, reached by tests and the A7 ablation only
    # until ROADMAP 4(e) measures it.
    "repro.site.site:DatabaseSite.initiate_backup",
    "repro.site.site:DatabaseSite.drop_backup_copy",
}


def _defs(tree: ast.Module):
    """``(owner, node)`` for every module-level function and every method
    of a (nested) class; ``owner`` is the class name or ``None``."""
    stack = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield owner, child
            elif isinstance(child, ast.ClassDef):
                stack.append((child.name, child))


def _references(tree: ast.Module, package_init: bool):
    """``(name, line)`` for every name ``tree`` uses: a variable, an
    attribute, an imported name, or a string constant that is exactly
    ``name`` or ``Class.name`` (so the bench's entry-point and call-count
    tables and a site's dispatch table count, and a docstring does not).
    A package ``__init__``'s imports and ``__all__`` are re-exports, not
    uses."""
    skip = set()
    if package_init:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            ):
                skip.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            owner, _, name = node.value.rpartition(".")
            if name.isidentifier() and (not owner or owner.isidentifier()):
                yield name, node.lineno


def unreferenced_defs(root: Path) -> list[str]:
    """``module:Class.name`` of every public ``def`` under ``root/src/repro``
    that no program file under ``root`` names outside the ``def`` itself."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in _program(root):
        for name, line in _references(_parse(path), path.name == "__init__.py"):
            uses.setdefault(name, []).append((path, line))
    found = []
    for path in sorted((root / "src").glob("repro/**/*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for owner, fn in _defs(_parse(path)):
            if fn.name.startswith("_") or any(
                not (where == path and fn.lineno <= line <= fn.end_lineno)
                for where, line in uses.get(fn.name, ())
            ):
                continue
            found.append(f"{module}:{owner + '.' if owner else ''}{fn.name}")
    return found


def test_every_public_def_is_named_by_the_program():
    unreferenced = unreferenced_defs(REPO)

    def allowed(name: str, entry: str) -> bool:
        return name == entry or entry.endswith("*") and name.startswith(entry[:-1])

    excused = {ok: [n for n in unreferenced if allowed(n, ok)] for ok in ALLOWED_DEFS}
    assert sorted(set(unreferenced) - set().union(*excused.values())) == []
    assert all(excused.values()), f"an ALLOWED_DEFS entry excuses nothing: {excused}"


def _plant(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(textwrap.dedent(text), encoding="utf-8")
    return root


TABLE = """
    class Table:
        def used(self):
            return self.helper()

        def helper(self):
            return 1

        def unused(self):
            return self.unused  # its own body does not count
"""


def test_the_def_rule_reports_a_method_only_tests_call(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/table.py": TABLE,
        "bench/run.py": "from repro.table import Table\nTable().used()\n",
        "tests/test_table.py": "from repro.table import Table\nTable().unused()\n",
    })
    assert unreferenced_defs(root) == ["repro.table:Table.unused"]


def test_the_def_rule_counts_a_bench_class_dot_name_string(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/table.py": TABLE,
        "bench/tracing.py": """
            CALL_COUNTS = {"table.uses": ("Table.used",), "table.spare": ("Table.unused",)}
        """,
    })
    assert unreferenced_defs(root) == []


def test_the_def_rule_ignores_a_docstring_mention(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/table.py": TABLE,
        "examples/demo.py": '''
            """Build a Table, then call ``Table.unused`` or Table.unused()."""
            from repro.table import Table

            Table().used()  # Table.unused is for tests
        ''',
    })
    assert unreferenced_defs(root) == ["repro.table:Table.unused"]


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
