"""No module, public ``def`` or class, option or state under ``src/repro``
that only tests reach, and one statement of each copy-control strategy and
recovery policy.

ROADMAP axis 2, made executable: every module must be imported by the
program itself — another ``src/repro`` module or the benchmark under
``bench/``.  ``tests/`` and ``examples/`` check and demonstrate the
program; an import from there keeps nothing alive.  One level down,
every public class, function, method and property must be named by the
program — ``src/``, ``bench/`` or ``examples/`` — outside its own body.
And every defaulted parameter and dataclass field must be set by the
program to something: an option only tests set is a constant.  Every
attribute a class keeps must be read by the program: state only tests
read is not kept.

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

import pytest

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


# -- the worker pool imports none of the modules it serves ----------------------


def pool_imports(root: Path) -> list[str]:
    """``file: module`` for every import under ``root/src/repro/perf`` of
    a ``repro`` module outside ``repro.perf``, function-local ones
    included.  The pool runs whatever function its caller hands it, so it
    has no reason to import a caller; one that did would import back a
    module that imports it."""
    found = []
    for path in sorted((root / "src").glob("repro/perf/**/*.py")):
        for module, name in _imports(_parse(path)):
            target = f"{module}.{name}" if module == "repro" and name else module
            if target.split(".")[0] == "repro" and target.split(".")[1:2] != ["perf"]:
                found.append(f"{path.relative_to(root / 'src').as_posix()}: {target}")
    return found


def test_the_worker_pool_imports_none_of_the_modules_it_serves():
    assert pool_imports(REPO) == []


def test_the_pool_rule_reports_an_import_inside_a_function(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/perf/pool.py": """
            import os
            from repro.perf import helpers

            def run(seed):
                from repro.chaos.runner import run_chaos_seed
                import repro.check
                return run_chaos_seed(seed)
        """,
        "src/repro/perf/helpers.py": "from repro import errors, perf\n",
    })
    assert pool_imports(root) == [
        "repro/perf/helpers.py: repro.errors",
        "repro/perf/pool.py: repro.chaos.runner",
        "repro/perf/pool.py: repro.check",
    ]


# -- every public def and class is named by the program -------------------------

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


def _defs(tree: ast.Module, classes: bool = False):
    """``(owner, node)`` for every module-level function and every method
    of a (nested) class, and with ``classes`` every class; ``owner`` is
    the enclosing class name or ``None``."""
    stack = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield owner, child
            elif isinstance(child, ast.ClassDef):
                if classes:
                    yield owner, child
                stack.append((child.name, child))


def _references(tree: ast.Module, package_init: bool):
    """``(name, line)`` for every name ``tree`` uses: a variable, an
    attribute, an imported name, or a string constant that is exactly
    ``name`` or ``Class.name`` (so the bench's entry-point and call-count
    tables and a site's dispatch table count, and a docstring does not).
    A package ``__init__``'s imports and any module's ``__all__`` are
    re-exports, not uses: a name a module lists for export is not thereby
    used by the program."""
    skip = set()
    for node in tree.body:
        if (package_init and isinstance(node, (ast.Import, ast.ImportFrom))) or (
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
    """``module:Class.name`` of every public ``def`` and class under
    ``root/src/repro`` that no program file under ``root`` names outside
    its own body."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in _program(root):
        for name, line in _references(_parse(path), path.name == "__init__.py"):
            uses.setdefault(name, []).append((path, line))
    found = []
    for path in sorted((root / "src").glob("repro/**/*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for owner, fn in _defs(_parse(path), classes=True):
            if fn.name.startswith("_") or any(
                not (where == path and fn.lineno <= line <= fn.end_lineno)
                for where, line in uses.get(fn.name, ())
            ):
                continue
            found.append(f"{module}:{owner + '.' if owner else ''}{fn.name}")
    return found


def _only_allowed(found: list[str], allowlist: set[str]) -> None:
    """Fail on anything in ``found`` no allowlist entry excuses, and on an
    entry that excuses nothing (a trailing ``*`` matches a prefix)."""

    def allowed(name: str, entry: str) -> bool:
        return name == entry or entry.endswith("*") and name.startswith(entry[:-1])

    excused = {ok: [n for n in found if allowed(n, ok)] for ok in allowlist}
    assert sorted(set(found) - set().union(*excused.values())) == []
    assert all(excused.values()), f"an allowlist entry excuses nothing: {excused}"


def test_every_public_def_is_named_by_the_program():
    _only_allowed(unreferenced_defs(REPO), ALLOWED_DEFS)


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
            from repro.table import Table
            CALL_COUNTS = {"table.uses": ("Table.used",), "table.spare": ("Table.unused",)}
        """,
    })
    assert unreferenced_defs(root) == []


def test_the_def_rule_reports_a_class_only_tests_build(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/table.py": TABLE + """
    class Outcome:
        def describe(self):
            return Outcome.__name__  # its own body does not count
""",
        "bench/run.py": "from repro.table import Table\nTable().used()\n",
        "tests/test_table.py": "from repro.table import Outcome\nOutcome().describe()\n",
    })
    assert unreferenced_defs(root) == [
        "repro.table:Outcome", "repro.table:Outcome.describe", "repro.table:Table.unused"
    ]


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


# -- every option is set by the program ---------------------------------------

# ``module:name(param)`` for a parameter (``name`` is ``Class.method``, or
# the class for its ``__init__``) and ``module:Class.field`` for a dataclass
# field, a trailing ``*`` matching a prefix, excused from the rule below;
# each entry must excuse at least one option.
ALLOWED_OPTIONS = {
    # Partial replication (paper §3.2): only the type-3 tests build a
    # cluster on their own catalog, until ROADMAP 4(e) measures it.
    "repro.system.cluster:Cluster(catalog)",
    # The unaudited run is the reference that
    # ``test_auditing_does_not_perturb_the_run`` compares the audited one to.
    "repro.chaos.runner:run_chaos_seed(audit)",
}


def _params(fn: ast.FunctionDef, method: bool):
    """``(position, name)`` of each defaulted parameter of ``fn``, the
    position counted from the first argument a call passes (``None`` for
    a keyword-only parameter)."""
    positional = fn.args.posonlyargs + fn.args.args
    bound = method and not any(
        getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
    )
    first_default = len(positional) - len(fn.args.defaults)
    for index, arg in enumerate(positional[first_default:], first_default):
        if index >= bound:
            yield index - bound, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _fields(cls: ast.ClassDef):
    """``(position, name)`` of each field of ``cls``, if it is a dataclass,
    whose default makes it an option: a plain value or ``field(default=)``,
    not ``field(default_factory=)`` or ``field(init=False)``.  Positions
    count within the class (no dataclass here extends another)."""
    if not any(
        "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
        for d in (getattr(deco, "func", deco) for deco in cls.decorator_list)
    ):
        return
    fields = [
        stmt for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]
    for position, stmt in enumerate(fields):
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            given = {k.arg: ast.unparse(k.value) for k in value.keywords}
            if "default" not in given or given.get("init") == "False":
                continue
        elif value is None:
            continue
        yield position, stmt.target.id


def _partial(call: ast.Call) -> bool:
    """Whether ``call`` is ``partial(f, ...)`` or ``functools.partial(f, ...)``."""
    return ast.unparse(call.func) in ("partial", "functools.partial") and bool(call.args)


def _calls(node: ast.AST, cls: ast.ClassDef | None = None):
    """``(callee, call)`` for every call under ``node``: ``f(...)`` and
    ``x.f(...)`` call ``f``, ``cls(...)`` inside ``class C`` calls ``C``,
    ``super().__init__(...)`` inside ``class C(B)`` calls ``B``, and
    ``partial(f, *a, **k)`` calls ``f`` with ``a`` and ``k``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            call = child
            if _partial(child):
                call = ast.Call(child.args[0], child.args[1:], child.keywords)
            func = call.func
            if isinstance(func, ast.Name):
                yield (cls.name if func.id == "cls" and cls else func.id), call
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and getattr(getattr(func.value, "func", None), "id", None) == "super"
            ):
                for base in cls.bases if cls else ():
                    yield ast.unparse(base).rpartition(".")[2], call
            elif isinstance(func, ast.Attribute):
                yield func.attr, call
        yield from _calls(child, child if isinstance(child, ast.ClassDef) else cls)


def _values(tree: ast.Module):
    """Names ``tree`` uses as a value: read as a variable or attribute
    other than to call it (``partial(f, ...)`` calls ``f``), to reach one
    of its attributes, to annotate, to test a type, to list in ``__all__``
    or as the base of a class with its own ``__init__``; or a string
    constant that is exactly ``name`` or ``Class.name`` anywhere but as a
    plain argument (``add_parser("shrink")`` names a verb,
    ``getattr(x, "shrink")`` a def)."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
            if _partial(node):
                skip.add(id(node.args[0]))
            name = getattr(node.func, "id", None)
            if name in ("isinstance", "issubclass"):
                skip.update(map(id, node.args[1:]))
            elif name not in ("getattr", "hasattr", "setattr"):
                skip.update(id(a) for a in node.args if isinstance(a, ast.Constant))
        elif isinstance(node, ast.Attribute):
            skip.add(id(node.value))
        elif isinstance(node, ast.ClassDef) and any(
            getattr(stmt, "name", None) == "__init__" for stmt in node.body
        ):
            skip.update(map(id, node.bases))  # its own ``__init__`` calls theirs
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            skip.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            skip.update(map(id, ast.walk(node.returns)))
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            skip.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            owner, _, name = node.value.rpartition(".")
            if name.isidentifier() and (not owner or owner.isidentifier()):
                yield name


def unset_options(root: Path) -> list[str]:
    """Every option under ``root/src/repro`` that no program file under
    ``root`` sets: a defaulted parameter of a public ``def`` no call passes
    (by keyword, by position, or through ``*`` / ``**``), and a defaulted
    dataclass field that no construction passes, no ``replace(...)`` names,
    no assignment targets as an attribute and no call names as a string
    argument.  Calls resolve by name; a ``def`` the program uses as a
    value (a callback, a table entry, a string name) may be called with
    anything and is skipped, as is ``main`` of an entry-point module,
    which takes what its user passes."""
    passed: dict[str, set] = {}  # callee -> positions and keywords passed
    named: set[str] = set()  # assigned, given to replace(), or a string argument
    values: set[str] = set()
    for path in _program(root):
        tree = _parse(path)
        for callee, call in _calls(tree):
            given = passed.setdefault(callee, set())
            given.update(range(len(call.args)), (k.arg or "*" for k in call.keywords))
            if any(isinstance(a, ast.Starred) for a in call.args):
                given.add("*")
            named.update(
                a.value for a in call.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            )
            if callee == "replace":
                named.update(k.arg or "*" for k in call.keywords)
        named.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        )
        values.update(_values(tree))

    found = []
    for path in sorted((root / "src").glob("repro/**/*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = _parse(path)
        for owner, fn in _defs(tree):
            init = fn.name == "__init__"
            name = owner if init else fn.name
            if (
                name.startswith("_")
                or name in values
                or (fn.name == "main" and owner is None and module in ENTRY_POINTS)
            ):
                continue
            label = f"{module}:{owner}" if init else (
                f"{module}:{owner + '.' if owner else ''}{fn.name}"
            )
            given = passed.get(name, set())
            for position, param in _params(fn, method=owner is not None):
                if not given & {"*", param, position}:
                    found.append(f"{label}({param})")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                given = passed.get(cls.name, set())
                for position, field in _fields(cls):
                    if not (given | named) & {"*", field} and position not in given:
                        found.append(f"{module}:{cls.name}.{field}")
    return found


def test_every_option_is_set_by_the_program():
    """Each defaulted parameter and dataclass field is one more
    configuration the tests must cover; one the program never changes is
    a configuration nothing runs."""
    _only_allowed(unset_options(REPO), ALLOWED_OPTIONS)


LAUNCHER = """
    class Launcher:
        def __init__(self, cluster, backoff_ms=50.0):
            self.cluster = cluster

        @classmethod
        def build(cls):
            return cls(None)

        def launch(self, count, chooser=None, verbose=False):
            return count

    class Retrying(Launcher):
        def __init__(self, cluster):
            super().__init__(cluster)
"""


def test_the_option_rule_reports_a_parameter_only_tests_set(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/launch.py": LAUNCHER,
        "bench/run.py": """
            from repro.launch import Launcher, Retrying
            Launcher.build().launch(3)
            Retrying(None).launch(3)
        """,
        "tests/test_launch.py": """
            from repro.launch import Launcher
            Launcher(None, backoff_ms=5.0).launch(3, chooser=min, verbose=True)
        """,
    })
    assert unset_options(root) == [
        "repro.launch:Launcher(backoff_ms)",
        "repro.launch:Launcher.launch(chooser)",
        "repro.launch:Launcher.launch(verbose)",
    ]


def test_the_option_rule_counts_every_way_a_call_sets_a_parameter(tmp_path):
    """By keyword, by position, through ``**``, from ``cls(...)`` and
    ``super().__init__(...)`` for the class they build, and through
    ``partial(f, ...)``, which calls ``f`` with what it binds."""
    planted = LAUNCHER.replace("return cls(None)", "return cls(None, 10.0)")
    root = _plant(tmp_path / "cls", {
        "src/repro/launch.py": planted,
        "bench/run.py": """
            from repro.launch import Launcher
            Launcher.build().launch(3, max, verbose=True)
        """,
    })
    assert unset_options(root) == []

    planted = LAUNCHER.replace("super().__init__(cluster)", "super().__init__(cluster, 1.0)")
    root = _plant(tmp_path / "super", {
        "src/repro/launch.py": planted,
        "bench/run.py": """
            from repro.launch import Retrying
            Retrying(None).launch(3, **options)
        """,
    })
    assert unset_options(root) == []

    planted = LAUNCHER + """
    def report(result, width=72, *, limit=10):
        return result
"""
    root = _plant(tmp_path / "partial", {
        "src/repro/launch.py": planted,
        "bench/run.py": """
            import functools
            from functools import partial
            from repro.launch import Launcher, report
            Launcher.build().launch(3, max, verbose=True)
            run_chunked(partial(report, limit=3), [1, 2])
            run_chunked(functools.partial(Launcher, None, 1.0), [None])
        """,
    })
    assert unset_options(root) == ["repro.launch:report(width)"]


def test_the_option_rule_skips_a_def_the_program_uses_as_a_value(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/launch.py": LAUNCHER + """
    def report(result, width=72):
        return result

    def summary(result, limit=10):
        return result
""",
        "bench/run.py": """
            from repro.launch import Launcher, report
            HANDLERS = {"summary": "summary"}  # dispatched by name
            Launcher.build().launch(3, None, False)
            run(Launcher, on_done=report)  # a callback; the class as a value
        """,
    })
    assert unset_options(root) == []


def test_the_option_rule_counts_what_sets_a_field(tmp_path):
    """Construction, attribute assignment, ``replace(...)`` and a string
    argument set a field; a ``default_factory`` field is state, not an
    option, and a ``ClassVar`` is not a field."""
    root = _plant(tmp_path, {
        "src/repro/plan.py": """
            from dataclasses import dataclass, field
            from typing import ClassVar

            @dataclass
            class Plan:
                sites: int
                rate: float = 0.1
                gap_ms: float = 5.0
                heal: float = 0.3
                hold: int = 8
                window: float = field(default=50.0)
                spare: bool = False
                seen: list = field(default_factory=list)
                count: int = field(default=0, init=False)
                PRESETS: ClassVar[tuple] = ()
        """,
        "bench/run.py": """
            from dataclasses import replace
            from repro.plan import Plan
            plan = Plan(4, 0.2)
            plan.heal = 0.5
            plan = replace(plan, hold=2)
            print(getattr(plan, "window"))
        """,
        "tests/test_plan.py": "from repro.plan import Plan\nPlan(4, spare=True)\n",
    })
    assert unset_options(root) == ["repro.plan:Plan.gap_ms", "repro.plan:Plan.spare"]


def test_an_allowlist_entry_that_excuses_nothing_fails():
    _only_allowed(["repro.launch:Launcher(backoff_ms)"], {"repro.launch:Launcher(*"})
    with pytest.raises(AssertionError, match="excuses nothing"):
        _only_allowed(
            ["repro.launch:Launcher(backoff_ms)"],
            {"repro.launch:Launcher(backoff_ms)", "repro.cli:main(argv)"},
        )
    with pytest.raises(AssertionError):
        _only_allowed(["repro.launch:Launcher(backoff_ms)"], set())


# -- every piece of state is read by the program --------------------------------

# ``module:Class.name`` (a trailing ``*`` matches a prefix) excused from
# the rule below; each entry must excuse at least one attribute or field.
ALLOWED_STATE = {
    # ``bench/workloads.py`` reads the stats whole, through ``asdict``, into
    # the pinned ``chaos-sweep`` digest.
    "repro.net.reliable:ReliableStats.*",
    # What a redo record holds; the log's future is ROADMAP 8's to decide.
    "repro.storage.log:LogRecord.*",
    # The pinned open-loop row digests of the write-path and commit-phase
    # tests read every record (their pins live in ``tests/pins.json``).
    "repro.system.openloop:OpenLoopResult.records",
    # The candidates a choice point hashes into its fingerprint, kept on
    # the decision: the check-runner tests check what each hook offers.
    "repro.check.choices:Decision.labels",
    # The model's CPU and delivery accounts: the CPU, network and
    # cost-model tests check the model against them.
    "repro.sim.cpu:CpuResource.busy_ms",
    "repro.net.network:Network.messages_delivered",
    # The fail-locks left after the final drain, which no sample records;
    # the Figure 2/3 tests check them.
    "repro.experiments.exp3:ScenarioResult.final_locks",
}

# A load of ``x.<name>`` that only receives one of these calls changes the
# state it names without reading it.
MUTATORS = {
    "append", "extend", "add", "update", "clear", "discard", "insert", "remove",
    "appendleft",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
        for d in (getattr(deco, "func", deco) for deco in cls.decorator_list)
    )


def _state(cls: ast.ClassDef):
    """``(name, line)`` of each attribute ``cls`` keeps: every ``self.<name>``
    its own methods assign (plain, annotated or augmented), and each field
    if it is a dataclass (a ``ClassVar`` is not a field)."""
    if _is_dataclass(cls):
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)
            ):
                yield stmt.target.id, stmt.lineno
    stack = [stmt for stmt in cls.body if not isinstance(stmt, ast.ClassDef)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue  # a nested class keeps its own state
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and getattr(sub.value, "id", None) == "self"
                    ):
                        yield sub.attr, node.lineno
        stack.extend(ast.iter_child_nodes(node))


def _reads(tree: ast.Module):
    """Names ``tree`` reads as state: a load of ``x.<name>`` anywhere but
    in a ``__repr__`` body or as the receiver of a mutating call
    (``x.<name>.append(...)``), and a string constant that is exactly
    ``<name>`` (a ``getattr`` table, a payload key)."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.name == "__repr__"
        ):
            skip.update(map(id, ast.walk(node)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            skip.add(id(node.func.value))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value


def unread_state(root: Path) -> list[str]:
    """``module:Class.name`` of every attribute a class under
    ``root/src/repro`` assigns through ``self.<name>``, and of every
    dataclass field, that no program file under ``root`` reads.

    Like the def rule it works by name, so it has blind spots.  State whose
    name some other object's attribute shares is read as far as it can
    tell (a collector's log of copier exchanges named ``copiers`` hides
    behind the ``copiers`` counter), and so is a dict only ever
    subscripted on the left of an assignment.  A field read whole,
    through ``asdict`` or ``vars``, is not read by name at all: it is
    reported, and only an allowlist entry can say the whole is read."""
    reads: set[str] = set()
    for path in _program(root):
        reads.update(_reads(_parse(path)))
    found = set()
    for path in sorted((root / "src").glob("repro/**/*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef):
                for name, _ in _state(cls):
                    if name not in reads:
                        found.add(f"{module}:{cls.name}.{name}")
    return sorted(found)


def test_every_piece_of_state_is_read_by_the_program():
    """An attribute the program writes and never reads costs its writes on
    every run and reads nothing back; what a test wants to observe it must
    observe through what the program reads."""
    _only_allowed(unread_state(REPO), ALLOWED_STATE)


LEDGER = """
    from dataclasses import dataclass, field
    from typing import ClassVar

    class Ledger:
        def __init__(self):
            self.total = 0
            self.entries = []
            self.misses: int = 0
            self.kind = "ledger"

        def post(self, amount):
            self.total += amount
            self.misses += 1
            self.entries.append(amount)  # a write, not a read

        def __repr__(self):
            return f"Ledger({self.misses}, {self.entries})"  # not a read either

    @dataclass
    class Entry:
        amount: int
        note: str = ""
        tags: list = field(default_factory=list)
        LIMIT: ClassVar[int] = 10
"""


def test_the_state_rule_reports_what_only_tests_read(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/ledger.py": LEDGER,
        "bench/run.py": """
            from repro.ledger import Entry, Ledger
            ledger = Ledger()
            ledger.post(Entry(3).amount)
            print(ledger.total, ledger.kind)
        """,
        "tests/test_ledger.py": """
            from repro.ledger import Entry, Ledger
            assert Ledger().misses == 0 and Ledger().entries == []
            assert Entry(1, "x").note == "x" and Entry(1).tags == []
        """,
    })
    assert unread_state(root) == [
        "repro.ledger:Entry.note",
        "repro.ledger:Entry.tags",
        "repro.ledger:Ledger.entries",
        "repro.ledger:Ledger.misses",
    ]


def test_the_state_rule_counts_a_load_and_a_string_constant(tmp_path):
    """A load of the name anywhere in the program reads it (by name, not by
    owner), and so does a string constant that is exactly the name: a
    ``getattr`` table or a payload key."""
    root = _plant(tmp_path, {
        "src/repro/ledger.py": LEDGER,
        "bench/run.py": """
            from repro.ledger import Entry, Ledger
            ledger = Ledger()
            ledger.post(Entry(3).amount)
            print(ledger.total, ledger.kind, len(ledger.entries))
            FIELDS = ("misses", "note")
            print([getattr(Entry(1), name, None) for name in FIELDS])
            print({"tags": 1}, "the misses and the note")
        """,
    })
    assert unread_state(root) == []


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
