"""Every script in ``demos/`` runs to the end.

Each runs in a fresh interpreter from an empty directory, with the package
on ``PYTHONPATH``, as a reader would run it.  Together they take about two
seconds; 02 and 03 reach ``det``, ``solve``, ``nullspace`` and ``inverse``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ietkit

SRC = Path(ietkit.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
