"""The benchmark's tracer wraps package functions by name; keep them there.

``perfbench/tracer.py`` patches each ``TARGETS`` entry after import, so a
rename in the package would silently drop a per-layer metric.  It also sums
the self time and steps of ``induct`` and ``induct_until``; if one called the
other, the steps would be counted twice.  Its section count means sections
per nesting level tried, so ``build_nested_family`` must call ``section``
once per level, and build each level's section table, with its inverse,
once per call.
"""
from __future__ import annotations

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from ietkit import _rational, analysis, induction
from ietkit.construction import ExponentScale, make_schedule, run_construction
from ietkit.perm import hyperelliptic_permutation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    for name, (module, attr, _) in load_tracer().TARGETS.items():
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {module}.{attr} is gone"


def test_induct_does_not_call_induct_until(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("induct went through induct_until")

    monkeypatch.setattr(induction, "induct_until", forbidden)
    T = induction.Iet.make(
        (Fraction(509, 1009), Fraction(251, 1009), Fraction(151, 1009),
         Fraction(98, 1009)),
        hyperelliptic_permutation(4),
    )
    assert induction.induct(T, 10).steps == 10


def test_nested_family_sections_once_per_level(monkeypatch):
    run = run_construction(
        4, make_schedule(1, ExponentScale.linear(), stages=3), seed=11
    )
    stages = [st.cumulative for st in run.stages]
    calls, built, inverted = [], {}, []
    building = [False]  # inside the real section_table
    real_section, real_table = analysis.section, analysis.section_table
    real_inverse = _rational.scaled_inverse

    def counting_section(table, base_point):
        polygon = real_section(table, base_point)
        calls.append((built[id(table)], tuple(base_point), polygon))
        return polygon

    def counting_table(M, family):
        building[0] = True
        try:
            table = real_table(M, family)
        finally:
            building[0] = False
        built[id(table)] = M
        return table

    def counting_inverse(m):  # other exact inverses on the path do not count
        if building[0]:
            inverted.append(m)
        return real_inverse(m)

    monkeypatch.setattr(analysis, "section", counting_section)
    monkeypatch.setattr(analysis, "section_table", counting_table)
    monkeypatch.setattr(_rational, "scaled_inverse", counting_inverse)
    families = analysis.build_nested_family(run, planes=4, seed=3)
    assert len(families) == 4
    # one attempt per base point: the stages in order from the first, until
    # an empty section or the last stage
    attempts: dict[tuple, list] = {}
    for M, base, polygon in calls:
        attempts.setdefault(base, []).append((M, polygon))
    for tried in attempts.values():
        assert [M for M, _ in tried] == stages[: len(tried)]
        hits = [p is not None and p.area > 0 for _, p in tried]
        assert all(hits[:-1]) and (not hits[-1] or len(tried) == len(stages))
    # each family holds the sections of one attempt, level by level
    for nf in families:
        assert any(
            len(tried) >= nf.depth
            and all(tried[lv][1] is nf.levels[lv][0] for lv in range(nf.depth))
            for tried in attempts.values()
        )
    # one table and one exact inverse per level reached, however many planes
    reached = max(len(tried) for tried in attempts.values())
    assert list(built.values()) == stages[:reached]
    assert inverted == [M.rows for M in stages[:reached]]
