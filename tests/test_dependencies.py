"""Every declared runtime dependency is imported somewhere in the package,
and the package imports nothing else but the standard library."""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_are_imported():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    names = [
        re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["project"]["dependencies"]
    ]
    source = "\n".join(
        p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py")
    )
    unused = [
        name
        for name in names
        if not re.search(rf"^\s*(import|from)\s+{re.escape(name)}\b", source, re.M)
    ]
    assert not unused, f"declared but never imported: {unused}"


def imported_packages(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports, in function
    bodies too; a relative import counts as ``ietkit``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("ietkit" if node.level else node.module.split(".")[0])
    return out


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_every_imported_package_is_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower().replace("-", "_")
                for spec in project["project"]["dependencies"]}
    allowed = set(sys.stdlib_module_names) | {"ietkit"} | declared
    undeclared = {
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "ietkit").glob("*.py"))
        for name in imported_packages(path) - allowed
    }
    assert not undeclared, f"imported but not declared: {sorted(undeclared)}"


def test_imported_packages_reads_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os.path, json as j\nfrom . import x\nfrom .y import z\n"
                    "def f():\n    from scipy.spatial import ConvexHull\n")
    assert imported_packages(path) == {"os", "json", "ietkit", "scipy"}
