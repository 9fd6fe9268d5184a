"""Every declared runtime dependency is imported somewhere in the package."""
from __future__ import annotations

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
