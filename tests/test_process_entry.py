"""The CLI as a process: ``cli.console_main`` ends a job by ``os._exit``.

Each case runs its jobs twice in fresh interpreters, with stdout and stderr
sent to files: once as ``python -m ietkit.cli`` and once through a call of
``main`` that leaves by the normal exit, ``sys.exit(main(argv))``.  The
output files, stdout, stderr and exit code must be equal.  The reference
runs in its own interpreter rather than in this one because pytest's log
capture would take the construction's warnings off stderr here.
``PYTHONUNBUFFERED`` is removed, so stdout is block-buffered and a lost
flush loses the lines.  ``OPENBLAS_NUM_THREADS`` is removed too, so the
entry runs BLAS on the one thread it defaults to and the reference on
OpenBLAS's pool, and each case compares the two.  A closed stdout pipe and
a profiled or traced process take the normal exit, which the last tests pin.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ietkit
from ietkit.cli import (
    EXIT_BUDGET,
    EXIT_INDUCTION,
    EXIT_OK,
    EXIT_STAGE,
    EXIT_USAGE,
    EXIT_VIOLATED,
)

SRC = Path(ietkit.__file__).resolve().parents[1]
ROOT = SRC.parent
ENTRY = [sys.executable, "-m", "ietkit.cli"]
NORMAL_EXIT = [sys.executable, "-c",
               "import sys\nfrom ietkit.cli import main\nsys.exit(main(sys.argv[1:]))"]
# no CLI input fails a stage within a test's time (a phase may take 10^6
# moves), so the exit-4 case lowers the budget before the CLI starts, as
# tests/test_cli.py does with monkeypatch
SMALL_BUDGET = "import ietkit.construction\nietkit.construction.PHASE_BUDGET = 40\n"
# no concavity case of a CLI run reads violated, so the exit-5 case puts the
# concavity bound below every fraction before the CLI starts
LOW_BOUND = "import ietkit.simplex_geometry\nietkit.simplex_geometry.CONCAVITY_CONSTANT = -1.0\n"

# (jobs run in order in one directory, the last job's exit code, site code)
CASES = {
    "classes": ([["classes", "--d", "4"]], EXIT_OK, None),
    "help": ([["construct", "--help"]], EXIT_OK, None),
    "estimate-dim-30-planes": (
        [["construct", "--d", "5", "--stages", "3", "--seed", "2", "--out", "c"],
         ["estimate-dim", "--manifest", "c/construct_manifest.json",
          "--planes", "30", "--out", "e"]],
        EXIT_OK, None),
    "usage-error": ([["verify", "astrology"]], EXIT_USAGE, None),
    "schedule-error": ([["construct", "--scale", "linear:0,0,0,0"]], EXIT_USAGE, None),
    "budget": ([["classes", "--d", "5", "--budget", "3"]], EXIT_BUDGET, None),
    "induction-undefined": (
        [["induct", "--lengths", "3/7,2/7,1/7,1/7", "--perm", "s4", "--steps", "10"]],
        EXIT_INDUCTION, None),
    "stage-failure": (
        [["construct", "--d", "5", "--stages", "3", "--seed", "0"]],
        EXIT_STAGE, SMALL_BUDGET),
    "violated": (
        [["verify", "concavity", "--samples", "1000"]], EXIT_VIOLATED, LOW_BOUND),
    # a sample count at which LAPACK's solve could run on the pool
    "jacobian": ([["verify", "jacobian", "--samples", "200000"]], EXIT_OK, None),
    "concavity": ([["verify", "concavity", "--samples", "1000"]], EXIT_OK, None),
}


def environment(site: Path | None = None) -> dict[str, str]:
    """This process's environment with ``src`` (and ``site``) on the path,
    stdout left block-buffered and OpenBLAS's thread count unset."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    parts = [str(site) if site else None, str(SRC), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, parts))
    return env


def run_jobs(prefix: list[str], jobs: list[list[str]], cwd: Path,
             env: dict[str, str]) -> tuple[list[int], bytes, bytes]:
    """Run each job as ``prefix + job`` in ``cwd`` with stdout and stderr
    sent to files; return the exit codes and all stdout and stderr bytes."""
    cwd.mkdir()
    codes = []
    for i, job in enumerate(jobs):
        argv = job if "--out" in job else [*job, "--out", f"out{i}"]
        with open(cwd / f".stdout{i}", "wb") as out, open(cwd / f".stderr{i}", "wb") as err:
            codes.append(subprocess.run(
                [*prefix, *argv], cwd=cwd, env=env, stdout=out, stderr=err,
                timeout=120,
            ).returncode)
    stdout = b"".join((cwd / f".stdout{i}").read_bytes() for i in range(len(jobs)))
    stderr = b"".join((cwd / f".stderr{i}").read_bytes() for i in range(len(jobs)))
    return codes, stdout, stderr


def files(root: Path) -> dict[str, bytes]:
    """Every output file under ``root`` by relative path, the captured
    streams left out."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.startswith(".std")
    }


@pytest.mark.parametrize("name", CASES)
def test_the_entry_matches_the_normal_exit(tmp_path, name):
    jobs, code, site_code = CASES[name]
    site = None
    if site_code:
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(site_code)
    env = environment(site)
    got = run_jobs(ENTRY, jobs, tmp_path / "entry", env)
    want = run_jobs(NORMAL_EXIT, jobs, tmp_path / "normal", env)
    assert got[0][-1] == code, got[2]
    assert got == want
    assert files(tmp_path / "entry") == files(tmp_path / "normal")
    if code == EXIT_OK:
        assert got[1]
    if name == "estimate-dim-30-planes":
        lines = got[1].decode().splitlines()
        assert sum(line.startswith("plane ") for line in lines) == 30


# wraps ``box_dimension``, which ``estimate-dim`` calls after ``frostman_measure``
# has imported numpy for the synthetic Cantor family's many polygons
THREAD_PROBE = """\
import json, os, sys
import ietkit.analysis
from ietkit import _fork

measure = ietkit.analysis.box_dimension

def box_dimension(*args, **kwargs):
    with open("probe.json", "w") as fh:
        json.dump({"numpy": "numpy" in sys.modules,
                   "threads": len(os.listdir("/proc/self/task")),
                   "usable_cpus": _fork._usable_cpus(),
                   "cpus": len(os.sched_getaffinity(0)),
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}, fh)
    return measure(*args, **kwargs)

ietkit.analysis.box_dimension = box_dimension
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
@pytest.mark.parametrize("preset", [None, "2"])
def test_a_job_runs_blas_on_one_thread_unless_told_otherwise(tmp_path, preset):
    """With numpy loaded, an ``estimate-dim`` job is one thread and may
    fork on every CPU; a thread count the caller set is kept."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(THREAD_PROBE)
    env = environment(site)
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    (tmp_path / "m.json").write_text(
        json.dumps({"command": "synthetic-cantor", "config": {"levels": 3}}))
    proc = subprocess.run(
        [*ENTRY, "estimate-dim", "--manifest", "m.json", "--out", "e"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert probe["numpy"]
    if preset is None:
        assert probe["blas_threads"] == "1"
        assert probe["threads"] == 1
        assert probe["usable_cpus"] == probe["cpus"]
    else:
        assert probe["blas_threads"] == preset
        if probe["cpus"] >= 2:  # OpenBLAS starts no more threads than CPUs
            assert probe["threads"] == 2
            assert probe["usable_cpus"] == 1


def test_a_closed_stdout_pipe_keeps_the_normal_exit(tmp_path):
    """Writing stdout fails; the job exits 120 with Python's one "Exception
    ignored" report on stderr, and no traceback."""
    results = []
    for prefix, cwd in [(ENTRY, tmp_path / "entry"), (NORMAL_EXIT, tmp_path / "normal")]:
        cwd.mkdir()
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [*prefix, "classes", "--d", "4", "--out", "out"], cwd=cwd,
                env=environment(), stdout=write, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write)
        results.append((proc.returncode, proc.stderr))
    assert results[0] == results[1]
    code, stderr = results[0]
    assert code == 120
    assert b"BrokenPipeError" in stderr and b"Traceback" not in stderr
    assert files(tmp_path / "entry") == files(tmp_path / "normal")


@pytest.mark.parametrize("observer, report", [
    (["-m", "cProfile", "-m"], "ncalls  tottime  percall  cumtime  percall"),
    (["-m", "trace", "--listfuncs", "--module"], "functions called:"),
])
def test_a_profiled_or_traced_job_writes_its_report(tmp_path, observer, report):
    proc = subprocess.run(
        [sys.executable, *observer, "ietkit.cli", "classes", "--d", "4", "--out", "out"],
        cwd=tmp_path, env=environment(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("class of hyperelliptic:4: 7 vertices, 14 edges\n")
    assert report in proc.stdout


def main_guard_call(tree: ast.Module) -> str:
    """The name of the function the ``if __name__ == "__main__"`` block calls."""
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "__name__"):
            (stmt,) = node.body
            return stmt.value.func.id
    raise AssertionError("no __main__ guard")


def test_the_script_enters_where_python_m_does():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    cli = SRC / "ietkit" / "cli.py"
    entry = main_guard_call(ast.parse(cli.read_text(), str(cli)))
    assert scripts == {"ietkit": f"ietkit.cli:{entry}"}
    assert entry != "main"
