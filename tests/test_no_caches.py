"""No cache that outlives its caller in ``src/ietkit``, except the allowed
ones: no ``functools`` cache, and no package function that writes into a
module-level container.  The process-wide state is the compiled Rauzy
diagram, ``perm._DIAGRAM``, which fills itself through its own methods, and
the tables in ``ALLOWED``.

A cache keyed on its arguments outlives the loop that fills it, so its
size has to be guessed for every caller; a table that the loop builds and
keeps for itself, as ``build_nested_family`` keeps its section tables, is
sized by the loop.  The checks read the source with ``ast`` and never
import it.  The first fails on ``lru_cache`` or ``cache`` taken from
``functools``, under any alias.  The second fails where a function or a
method stores into a subscript of a module-level name, deletes one, calls
one of its mutating methods (``.setdefault``, ``.update``, ``.append``,
``.add``, ``.pop`` and their kin) or declares it ``global``; a name the
function binds itself, or an enclosing function does, is its own.
"""
from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "ietkit"
CACHES = {"lru_cache", "cache"}
MUTATORS = {
    "setdefault", "update", "append", "add", "pop", "popitem", "clear",
    "extend", "insert", "remove", "discard", "appendleft", "extendleft",
    "popleft", "sort", "reverse", "__setitem__", "__delitem__",
    "difference_update", "intersection_update", "symmetric_difference_update",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

# (file, name) -> why the table may live as long as the process
ALLOWED = {
    ("symplectic.py", "_SKEWS"): (
        "Omega_pi of each irreducible pair a process meets, at most one entry "
        "per vertex of the classes it walks; rebuilding it costs about 10.7 us "
        "a call, about 6.4 ms of a `verify symplectic --d 6 --paths 300` job"
    ),
}


def cache_uses(tree: ast.Module) -> list[int]:
    """Line numbers that import or read a ``functools`` cache."""
    modules, names, lines = {"functools"}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for a in node.names:
                if a.name in CACHES:
                    names.add(a.asname or a.name)
                    lines.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CACHES:
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names:
            lines.append(node.lineno)
    return sorted(set(lines))


def _scope(node: ast.AST, stop: tuple = FUNCTIONS):
    """The nodes of ``node``'s own scope: not those inside a ``stop`` node."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, stop):
            yield from _scope(child, stop)


def _bound(node: ast.AST) -> set[str]:
    """The names a node binds in its scope."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return {node.id}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.arg):
        return {node.arg}
    return set()


def _written(node: ast.AST) -> ast.AST | None:
    """The container a node writes into, if it writes into one."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.value if node.func.attr in MUTATORS else None
    return None


def module_state_writes(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each write, in a function, into a module-level name."""
    module = set().union(*map(_bound, _scope(tree, FUNCTIONS + (ast.ClassDef,))))
    hits = []

    def visit(node: ast.AST, shadowed: set[str] | None) -> None:
        for child in _scope(node):
            if isinstance(child, FUNCTIONS):  # its parameters and assignments shadow
                own = list(_scope(child))
                declared = {n for g in own if isinstance(g, ast.Global) for n in g.names}
                bound = set().union(*map(_bound, own)) - declared
                visit(child, ((shadowed or set()) - declared) | bound)
            elif shadowed is not None:
                if isinstance(child, ast.Global):
                    hits.extend((child.lineno, n) for n in child.names if n in module)
                target = _written(child)
                if (isinstance(target, ast.Name) and target.id in module
                        and target.id not in shadowed):
                    hits.append((child.lineno, target.id))

    visit(tree, None)  # None: at module level, where import-time tables are built
    return sorted(set(hits))


def test_no_functools_cache_in_the_package():
    found = {
        path.name: lines
        for path in sorted(PKG.glob("*.py"))
        if (lines := cache_uses(ast.parse(path.read_text(), str(path))))
    }
    assert not found, f"functools caches at these lines: {found}"


def test_the_check_finds_each_spelling():
    sources = [
        "import functools\n@functools.lru_cache(maxsize=8)\ndef f(x): pass",
        "import functools as ft\ng = ft.cache(len)",
        "from functools import lru_cache\nh = lru_cache(maxsize=16)(int)",
        "from functools import cache as memo\n@memo\ndef f(x): pass",
    ]
    for source in sources:
        assert cache_uses(ast.parse(source)), source
    assert not cache_uses(ast.parse("from functools import partial\nimport functools"))


def test_no_function_writes_into_module_state_but_the_allowed():
    found = {
        (path.name, name): line
        for path in sorted(PKG.glob("*.py"))
        for line, name in module_state_writes(ast.parse(path.read_text(), str(path)))
    }
    unexpected = {key: line for key, line in found.items() if key not in ALLOWED}
    assert not unexpected, f"module-level state written at: {unexpected}"
    assert set(ALLOWED) <= set(found), "an allowed table is no longer written"


def test_the_state_check_finds_each_spelling():
    writes = [
        "T = {}\ndef f(k): T[k] = 1",
        "T = {}\ndef f(k): T[k] += 1",
        "T = {}\ndef f(k): del T[k]",
        "T = {}\ndef f(k): return T.setdefault(k, [])",
        "T: dict = {}\nclass C:\n    def m(self, k): T.update({k: 1})",
        "T = []\ndef f(x):\n    def g(): T.append(x)\n    return g",
        "T = set()\nf = lambda x: T.add(x)",
        "T = {}\ndef f(k): return T.pop(k)",
        "from .perm import T\ndef f(k): T[k] = 1",
        "T = None\ndef f():\n    global T\n    T = {}",
        "T = {}\ndef f(T):\n    def g():\n        global T\n        T[0] = 1",
    ]
    for source in writes:
        assert module_state_writes(ast.parse(source)) != [], source
    reads = [
        "T = {}\nT['a'] = 1\nT.update(b=2)",  # built at import time
        "T = {}\ndef f(k): return T.get(k)",
        "T = {}\ndef f(T): T[0] = 1",
        "T = {}\ndef f():\n    T = {}\n    T[0] = 1",
        "T = {}\ndef f():\n    T = []\n    def g(): T.append(1)",
        "T = {}\ndef f():\n    for T in ([],): T.append(1)",
        "def f(self, k): self.t[k] = 1",
        "def f(k):\n    t = {}\n    t[k] = 1",
    ]
    for source in reads:
        assert module_state_writes(ast.parse(source)) == [], source
