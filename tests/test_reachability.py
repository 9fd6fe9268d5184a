"""Every top-level name in ``src/ietkit`` is reached by something the
project ships: a CLI subcommand, a demo, ``ietkit.__all__``, or another
name that is reached.

The check reads the source with ``ast`` and never imports it.  Its roots
are the names ``ietkit.__all__`` exports, the names each demo imports or
reads as a module attribute, every module-level statement that is not a
definition (``if __name__ == "__main__": main()`` among them), and the
allow-list below.  From a reached definition it follows each name its body
reads: a top-level name of the same module, a name imported from another
module, or an attribute of an imported module.  A name reached by nothing
but unit tests fails, as does an allow-list entry that is reached anyway
or no longer exists.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "ietkit"
DEMOS = ROOT / "demos"

# module.name -> why it stays with no caller in the package or the demos
ALLOWED = {
    "analysis.birkhoff_separation": "acceptance criterion 10 (two-measure evidence)",
    "analysis.limit_tower_points": "acceptance criterion 10 (two-measure evidence)",
    "construction.hyperplane_avoiding_paths": "acceptance criterion 13 (avoiding paths)",
    "analysis.keane_check": "tier-1 checks it on the reference construction "
                            "until ROADMAP item 9's verify stage-share suite "
                            "makes it a report line or deletes it",
    "construction.check_size_recursions": "tier-1 checks it on the reference "
                                          "construction until ROADMAP item 9's "
                                          "verify stage-share suite makes it a "
                                          "report line or deletes it",
    "analysis.sample_simplex_exact": "the exact test-input sampler; it shares "
                                     "_sample_gaps with verify balance",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _source(node: ast.ImportFrom) -> str | None:
    """The ietkit module a ``from ... import`` takes names from: x for
    ``from .x`` and ``from ietkit.x``; None for any other package."""
    if node.level:
        return node.module
    if node.module and node.module.startswith("ietkit."):
        return node.module.split(".", 1)[1]
    return None


class _Module:
    """Top-level definitions of one module and how its names resolve."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs: dict[str, list[ast.AST]] = {}
        self.roots: list[ast.AST] = []  # statements that run at import
        self.aliases: dict[str, tuple[str, str]] = {}  # local -> (module, name)
        self.modules: dict[str, str] = {}  # local -> module, `from . import x`
        for node in ast.walk(tree):  # imports in function bodies count too
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    local = a.asname or a.name
                    if node.level and node.module is None:
                        self.modules[local] = a.name
                    elif _source(node):
                        self.aliases[local] = (_source(node), a.name)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            self.defs.setdefault(n.id, []).append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.roots.append(stmt)

    def refs(self, nodes) -> set[tuple[str, str]]:
        """(module, name) pairs the given nodes read."""
        out = set()
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    if node.id in self.defs:
                        out.add((self.name, node.id))
                    elif node.id in self.aliases:
                        out.add(self.aliases[node.id])
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in self.modules):
                    out.add((self.modules[node.value.id], node.attr))
        return out


def _exported(init: ast.Module) -> list[str]:
    for stmt in init.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            return [ast.literal_eval(e) for e in stmt.value.elts]
    raise AssertionError("ietkit/__init__.py defines no __all__")


def _reach(allowed: bool) -> tuple[set[str], set[str]]:
    """(every top-level name, the names the roots reach), as module.name;
    ``allowed`` adds the allow-list to the roots."""
    mods = {p.stem: _Module(p.stem, _parse(p)) for p in sorted(PKG.glob("*.py"))}
    init = mods["__init__"]
    todo = [init.aliases.get(n, ("__init__", n)) for n in _exported(_parse(PKG / "__init__.py"))]
    for m in mods.values():
        todo.extend(m.refs(m.roots))
    for path in sorted(DEMOS.glob("*.py")):
        tree = _parse(path)
        todo.extend(_Module("demo", tree).refs([tree]))
    if allowed:
        todo.extend(tuple(k.split(".", 1)) for k in ALLOWED)
    seen: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        mod, name = key
        if key in seen or mod not in mods:
            continue
        seen.add(key)
        m = mods[mod]
        if name in m.defs:
            todo.extend(m.refs(m.defs[name]))
        elif name in m.aliases:  # a re-export, e.g. through ietkit/__init__
            todo.append(m.aliases[name])
    every = {f"{m.name}.{n}" for m in mods.values() for n in m.defs
             if not (n.startswith("__") and n.endswith("__"))}
    return every, {f"{mod}.{name}" for mod, name in seen}


def test_every_top_level_name_is_reached():
    every, reached = _reach(allowed=True)
    missing = sorted(every - reached)
    assert not missing, f"reached only from tests, if at all: {missing}"


def test_the_allow_list_holds_only_live_unreached_names():
    every, reached = _reach(allowed=False)
    assert ALLOWED.keys() <= every, sorted(ALLOWED.keys() - every)
    assert not ALLOWED.keys() & reached, sorted(ALLOWED.keys() & reached)


def test_the_lint_follows_names_from_roots_and_bodies():
    m = _Module("x", ast.parse(
        "import math\n"
        "def used():\n    return math.pi\n"
        "def unused():\n    return used()\n"
        "if __name__ == '__main__':\n    used()\n"))
    assert m.refs(m.roots) == {("x", "used")}
    assert m.refs(m.defs["unused"]) == {("x", "used")}
