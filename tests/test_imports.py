"""numpy stays off the start-up path, and every layer is still imported there.

The exact subcommands never compute a float, so neither importing the CLI
nor running them loads numpy; the float layers import numpy inside the
functions that use it, `verify balance` fits its decay line without it, and
`estimate-dim` on a construct manifest computes numpy's floats without it
(``ietkit._floats``, which importing the CLI does not load either).
No job loads scipy, which is not a dependency.  Start-up loads neither
``dataclasses`` nor ``logging`` either, and `verify balance` forks its scans
without ``multiprocessing`` or ``concurrent.futures``.  The
benchmark's tracer patches only the modules loaded by ``import ietkit.cli``,
so that import must still load every module its ``TARGETS`` name.  Each check runs in a fresh interpreter, since this
test process has long since imported numpy.

The last checks read the source with ``ast`` instead: every function of
``src/ietkit`` that imports numpy is listed in ``NUMPY_SITES``, and the
check fails on an import of numpy anywhere else, a module-level one
included, and on a listed site that no longer imports it.  The two
estimators, which take numpy only for a level of many polygons, name the
ROADMAP item that takes numpy out of them; the float verification suites
keep numpy.
"""
from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ietkit

SRC = Path(ietkit.__file__).resolve().parents[1]
PKG = SRC / "ietkit"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# a tiny run of each subcommand that computes no float
EXACT_RUNS = [
    ["classes", "--d", "4"],
    ["induct", "--perm", "s3", "--lengths", "5/11,4/11,2/11", "--steps", "2"],
    ["induct", "--perm", "s4", "--lengths", "13/40,11/40,9/40,7/40",
     "--until", "norm:5"],
    ["construct", "--d", "4", "--stages", "2"],
    ["verify", "symplectic", "--paths", "5"],
    ["verify", "volume", "--paths", "5"],
]

# a tiny run of each float job
FLOAT_RUNS = [
    ["construct", "--d", "4", "--stages", "2", "--out", "c"],
    ["estimate-dim", "--manifest", "c/construct_manifest.json", "--planes", "2",
     "--out", "e"],
    ["verify", "balance", "--samples", "20", "--out", "v"],
    ["verify", "jacobian", "--samples", "20", "--out", "v"],
    ["verify", "probdecay", "--samples", "20", "--out", "v"],
    ["verify", "concavity", "--samples", "20", "--out", "v"],
]


def fresh(code: str, cwd: Path):
    """Run ``code`` in a new interpreter; return the JSON its last line prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after_cli_import(cwd: Path) -> set[str]:
    return set(fresh(
        "import json, sys\nimport ietkit.cli\nprint(json.dumps(sorted(sys.modules)))",
        cwd,
    ))


def test_importing_the_cli_loads_no_numpy(tmp_path):
    loaded = modules_after_cli_import(tmp_path)
    assert "numpy" not in loaded
    assert "scipy" not in loaded
    assert "ietkit._floats" not in loaded


def test_estimate_dim_on_a_construct_manifest_loads_no_numpy(tmp_path):
    got = fresh(
        "import json, sys\nfrom ietkit.cli import main\n"
        f"codes = [main(argv) for argv in {FLOAT_RUNS[:2]!r}]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))",
        tmp_path,
    )
    assert got == {"codes": [0, 0], "numpy": False}


def test_importing_the_cli_loads_no_dataclasses_or_logging(tmp_path):
    # the records are plain slotted classes, and construct imports logging
    # at the first warning it reports
    loaded = modules_after_cli_import(tmp_path)
    assert not {"dataclasses", "inspect", "logging"} & loaded


def test_verify_balance_loads_no_numpy(tmp_path):
    got = fresh(
        "import json, sys\nfrom ietkit.cli import main\n"
        "code = main(['verify', 'balance', '--d', '4', '--samples', '50',"
        " '--out', 'v'])\n"
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))",
        tmp_path,
    )
    assert got == {"code": 0, "numpy": False}


def test_forked_balance_scans_load_no_pool_or_numpy(tmp_path):
    # the scans fork with os.fork alone, and their helper is loaded by the
    # first scan, not at start-up; 600 samples make two chunks
    pools = ["concurrent.futures", "multiprocessing", "numpy"]
    got = fresh(
        "import json, os, sys\nimport ietkit.cli\n"
        f"pools = {pools!r}\n"
        "imported = [m for m in pools + ['ietkit._fork'] if m in sys.modules]\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "code = ietkit.cli.main(['verify', 'balance', '--samples', '600',"
        " '--out', 'v'])\n"
        "print(json.dumps({'code': code, 'forks': len(forks), 'imported': imported,"
        " 'ran': [m for m in pools if m in sys.modules]}))",
        tmp_path,
    )
    forks = min(len(os.sched_getaffinity(0)), 2) - 1
    assert got == {"code": 0, "forks": forks, "imported": [], "ran": []}


def test_exact_subcommands_load_no_numpy(tmp_path):
    got = fresh(
        "import json, sys\nfrom ietkit.cli import main\n"
        f"codes = [main(argv + ['--out', 'out']) for argv in {EXACT_RUNS!r}]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules,"
        " 'scipy': 'scipy' in sys.modules}))",
        tmp_path,
    )
    assert got == {"codes": [0] * len(EXACT_RUNS), "numpy": False, "scipy": False}


def test_float_jobs_load_no_scipy(tmp_path):
    got = fresh(
        "import json, sys\nfrom ietkit.cli import main\n"
        f"codes = [main(argv) for argv in {FLOAT_RUNS!r}]\n"
        "print(json.dumps({'codes': codes, 'scipy': 'scipy' in sys.modules}))",
        tmp_path,
    )
    assert got == {"codes": [0] * len(FLOAT_RUNS), "scipy": False}


def test_cli_import_loads_every_tracer_module(tmp_path):
    if not TRACER.exists():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = {module for module, _, _ in tracer.TARGETS.values()}
    assert wanted <= modules_after_cli_import(tmp_path)


# (file, function) -> the ROADMAP item that takes numpy out of it, or None
# for a float verification suite, which keeps it
NUMPY_SITES = {
    # the estimators, on a level of many polygons (synthetic Cantor)
    ("analysis.py", "frostman_measure"): 17,  # scale-free families and estimators
    ("analysis.py", "box_dimension"): 17,
    # the float verification suites
    ("analysis.py", "SubSimplex.vertex_matrix"): None,
    ("analysis.py", "mc_jacobian_pushforward"): None,
    ("analysis.py", "prob_decay_sim"): None,
    ("simplex_geometry.py", "_clip_planes"): None,
    ("simplex_geometry.py", "_polytope_halfspaces"): None,
    ("simplex_geometry.py", "plane_section_concavity_test"): None,
    ("symplectic.py", "reciprocal_pairing"): None,
    ("cli.py", "_verify_concavity"): None,
}


def numpy_imports(tree: ast.Module) -> list[str]:
    """The dotted name of the class or function around each import of
    numpy in ``tree``, "<module>" at the top level; one entry per import."""
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            else:
                names = []
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return sites


def test_numpy_is_imported_only_at_the_listed_sites():
    found = sorted((path.name, site) for path in PKG.glob("*.py")
                   for site in numpy_imports(ast.parse(path.read_text(encoding="utf-8"))))
    unlisted = [site for site in found if site not in NUMPY_SITES]
    gone = sorted(set(NUMPY_SITES) - set(found))
    assert not unlisted, f"numpy imported at unlisted sites: {unlisted}"
    assert not gone, f"listed sites that no longer import numpy: {gone}"
    assert len(found) == len(NUMPY_SITES), f"a site imports numpy twice: {found}"


def test_the_numpy_site_scan_sees_every_kind_of_import():
    tree = ast.parse(
        "import numpy\n"
        "def f():\n    import numpy.linalg as la\n"
        "class C:\n    def m(self):\n        from numpy import dot\n"
        "    def n(self):\n        def inner():\n            from numpy.random import default_rng\n"
        "def g():\n    import numpyx, json\n    from . import numpy\n"
    )
    assert numpy_imports(tree) == ["<module>", "f", "C.m", "C.n.inner"]
