"""No ``functools`` cache in ``src/ietkit``: the only process-wide state is
the compiled Rauzy diagram, ``perm._DIAGRAM``.

A cache keyed on its arguments outlives the loop that fills it, so its
size has to be guessed for every caller; a table that the loop builds and
keeps for itself, as ``build_nested_family`` keeps its section tables, is
sized by the loop.  The check reads the source with ``ast`` and never
imports it.  It fails on ``lru_cache`` or ``cache`` taken from
``functools``, under any alias.
"""
from __future__ import annotations

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "ietkit"
CACHES = {"lru_cache", "cache"}


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
