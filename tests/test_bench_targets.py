"""The benchmark's tracer wraps package functions by name; keep them there.

``perfbench/tracer.py`` patches each ``TARGETS`` entry after import, so a
rename in the package would silently drop a per-layer metric.  It also sums
the self time and steps of ``induct`` and ``induct_until``; if one called the
other, the steps would be counted twice.
"""
from __future__ import annotations

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from ietkit import induction
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
