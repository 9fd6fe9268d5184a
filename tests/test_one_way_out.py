"""One way out of the CLI: only ``cli.main`` prints a failure and picks its
exit code.

A subcommand returns ``EXIT_OK`` or ``EXIT_VIOLATED``, or raises, and
``main`` turns what it raises into one stderr line and an exit code, so a
second place that reports a failure would drift from the README's table.
The check reads ``src/ietkit/cli.py`` with ``ast`` and never imports it.
It fails where ``sys.stderr`` (under any alias of ``sys``) appears outside
``main``, and where a ``cmd_*`` function names a failure's exit code or
returns anything but the two success codes.  Only the CLI writes output at
all: a second check reads every other module of the package and fails where
one imports ``logging`` or calls ``print``.
"""
from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "ietkit" / "cli.py"
FAILURE_CODES = {"EXIT_USAGE", "EXIT_BUDGET", "EXIT_INDUCTION", "EXIT_STAGE"}
SUCCESS_CODES = {"EXIT_OK", "EXIT_VIOLATED"}


def _success_code(node: ast.expr | None) -> bool:
    """``node`` is a success code, or a conditional between two of them."""
    if isinstance(node, ast.IfExp):
        return _success_code(node.body) and _success_code(node.orelse)
    return isinstance(node, ast.Name) and node.id in SUCCESS_CODES


def other_ways_out(tree: ast.Module) -> list[int]:
    """Line numbers where code outside ``main`` reaches stderr, or where a
    ``cmd_*`` function names a failure's exit code or returns another value
    than a success code."""
    modules = {"sys"} | {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "sys"
    }
    lines = []
    for top in tree.body:
        name = getattr(top, "name", "")
        for node in ast.walk(top):
            if name != "main" and (
                isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id in modules
                or isinstance(node, ast.ImportFrom) and node.module == "sys"
                and any(a.name == "stderr" for a in node.names)
            ):
                lines.append(node.lineno)
            if name.startswith("cmd_") and (
                isinstance(node, ast.Name) and node.id in FAILURE_CODES
                or isinstance(node, ast.Return) and not _success_code(node.value)
            ):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_only_main_reports_a_failure():
    lines = other_ways_out(ast.parse(CLI.read_text(), str(CLI)))
    assert not lines, f"cli.py leaves by another way than main at lines {lines}"


def test_the_check_finds_each_other_way_out():
    sources = [
        "import sys\ndef cmd_x(args):\n    print('no', file=sys.stderr)\n    return EXIT_OK",
        "import sys as s\ndef _helper():\n    s.stderr.write('no')",
        "from sys import stderr",
        "import sys\nOUT = sys.stderr",
        "def cmd_x(args):\n    return EXIT_USAGE",
        "def cmd_x(args):\n    code = EXIT_BUDGET\n    raise SystemExit(code)",
        "def cmd_x(args):\n    if args.bad:\n        return EXIT_INDUCTION\n    return EXIT_OK",
        "def cmd_x(args):\n    return EXIT_OK if args.ok else EXIT_STAGE",
        "def cmd_x(args):\n    return 1",
        "def cmd_x(args):\n    return",
    ]
    for source in sources:
        assert other_ways_out(ast.parse(source)), source
    clean = (
        "import sys\n"
        "def main(argv=None):\n"
        "    print('usage error: x', file=sys.stderr)\n"
        "    return EXIT_USAGE\n"
        "def cmd_x(args):\n"
        "    rep = run(args)\n"
        "    print(rep.stderr)\n"
        "    return EXIT_VIOLATED if rep.violated else EXIT_OK\n"
    )
    assert not other_ways_out(ast.parse(clean))


def output_calls(tree: ast.Module) -> list[int]:
    """Line numbers where a module imports ``logging`` or calls ``print``."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "logging" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "logging"
            or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "print"
        ):
            lines.append(node.lineno)
    return lines


def test_only_the_cli_writes_output():
    found = {}
    for path in sorted(CLI.parent.glob("*.py")):
        if path != CLI:
            lines = output_calls(ast.parse(path.read_text(), str(path)))
            if lines:
                found[path.name] = lines
    assert not found, f"logging or print outside cli.py: {found}"


def test_the_check_finds_each_output_call():
    sources = [
        "import logging",
        "def f():\n    import logging.handlers",
        "import os, logging as log",
        "from logging import getLogger",
        "def f(x):\n    print(x)",
    ]
    for source in sources:
        assert output_calls(ast.parse(source)), source
    assert not output_calls(ast.parse("def f(log):\n    log.print(1)\n    return 'logging'"))
