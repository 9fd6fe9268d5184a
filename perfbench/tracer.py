"""Run one `ietkit` CLI job with spans around the calls into each layer.

Usage: python3 tracer.py SPANS_JSON CLI_ARG...

The public functions below are wrapped wherever a module of the package
holds them, so a call made through `from .perm import rauzy_move` in
`induction` is recorded as well as one made inside `perm` itself.  Each call
becomes a span [name, start_ns, end_ns, parent, attrs]; spans stay in memory
and are written to SPANS_JSON when the job ends, with the counters.  The
program itself is not changed: this file patches it after import.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import sys
import time
from typing import Any, Callable

Extract = Callable[[inspect.BoundArguments, Any], dict]


class Recorder:
    """Spans of one process, kept in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, extract: Extract | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(signature.bind(*args, **kwargs), result)
            return result

        return traced


class _OvershootCounter(logging.Filter):
    """Counts the construction's "overshot window" warnings; drops none."""

    def __init__(self, counters: dict[str, int]) -> None:
        super().__init__()
        self.counters = counters

    def filter(self, record: logging.LogRecord) -> bool:
        if "overshot window" in str(record.msg):
            key = "construction.window_overshoots"
            self.counters[key] = self.counters.get(key, 0) + 1
        return True


def _arg(name: str) -> Extract:
    return lambda bound, result: {name: bound.arguments[name]}


def _trace_attrs(bound, trace) -> dict:
    return {"steps": trace.steps, "norm_bits": trace.matrix.norm.bit_length()}


# span name -> (defining module, attribute, what to record about the call)
TARGETS: dict[str, tuple[str, str, Extract | None]] = {
    "cli.main": ("ietkit.cli", "main", None),
    "perm.rauzy_move": ("ietkit.perm", "rauzy_move", None),
    "perm.rauzy_class": (
        "ietkit.perm", "rauzy_class",
        lambda bound, graph: {"vertices": len(graph.vertices)},
    ),
    "perm.out_edges": ("ietkit.perm", "RauzyClassGraph.out_edges", None),
    "perm.in_edges": ("ietkit.perm", "RauzyClassGraph.in_edges", None),
    "perm.contains": ("ietkit.perm", "RauzyClassGraph.__contains__", None),
    "induction.induct": ("ietkit.induction", "induct", _trace_attrs),
    "induction.induct_until": ("ietkit.induction", "induct_until", _trace_attrs),
    "induction.drive_path": ("ietkit.induction", "drive_path", None),
    "symplectic.omega": ("ietkit.symplectic", "omega", None),
    "symplectic.verify_invariance": ("ietkit.symplectic", "verify_invariance", None),
    "simplex_geometry.section": (
        "ietkit.simplex_geometry", "section",
        lambda bound, polygon: {"hit": int(polygon is not None)},
    ),
    "simplex_geometry.plane_family": ("ietkit.simplex_geometry", "plane_family", None),
    "construction.run": (
        "ietkit.construction", "run_construction",
        lambda bound, run: {"stages": len(run.stages)},
    ),
    "construction.check_star": ("ietkit.construction", "check_conditions_star", None),
    "construction.check_double_star": (
        "ietkit.construction", "check_condition_double_star", None,
    ),
    "construction.check_angles": ("ietkit.construction", "check_nue_angles", None),
    "analysis.mc_balance": ("ietkit.analysis", "mc_balance", _arg("samples")),
    "analysis.nested_family": (
        "ietkit.analysis", "build_nested_family",
        lambda bound, families: {
            "planes": bound.arguments["planes"], "families": len(families),
        },
    ),
    "analysis.frostman": ("ietkit.analysis", "frostman_measure", None),
    "analysis.box_dimension": ("ietkit.analysis", "box_dimension", None),
}


def install(recorder: Recorder) -> Callable:
    """Wrap every target where the package holds it; return the traced main."""
    importlib.import_module("ietkit.cli")  # imports every layer
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ietkit"]
    for name, (module, attr, extract) in TARGETS.items():
        owner = importlib.import_module(module)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, fn_name, recorder.wrap(name, getattr(cls, fn_name), extract))
            continue
        original = getattr(owner, fn_name)
        wrapped = recorder.wrap(name, original, extract)
        for mod in modules:
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapped)
    logging.getLogger("ietkit.construction").addFilter(
        _OvershootCounter(recorder.counters)
    )
    return sys.modules["ietkit.cli"].main


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    cli_main = install(recorder)
    try:
        return cli_main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counters": recorder.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
