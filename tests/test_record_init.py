"""The one record initialiser, and a lint that keeps copy-only ``__init__``s out.

Every record that only stores its arguments derives from ``_record.Record``,
whose ``__init__`` binds positional arguments, then keywords, then the
class's ``_defaults`` over ``__slots__`` in order, and refuses what a written
``__init__`` refuses.  A slotted class may keep a written ``__init__`` that
only copies its arguments only when it is built often enough for the generic
binding to cost time; those classes are allow-listed below with the reason.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ietkit
import ietkit.cli  # noqa: F401  (defines every record)
from ietkit._record import Record

# class -> why its copy-only __init__ stays written out: the generic binding
# costs 2-3 us per build against 0.5 us for a written __init__
COPYING_INIT_ALLOWED = {
    "RauzyEdge": "built once per move of a compiled Rauzy diagram, "
                 "about 2800 times for a 1386-vertex class",
    "_RunCycle": "built once per vertex and side of the compiled diagram "
                 "that a run reaches, as RauzyEdge is per move",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(
    {c for c in _subclasses(Record) if c.__init__ is Record.__init__ and c.__slots__},
    key=lambda c: c.__qualname__,
)


def test_the_cold_records_bind_through_record():
    names = {c.__name__ for c in RECORDS}
    assert {"BalanceReport", "Window", "Schedule", "PhasePath", "StarReport",
            "InductionTrace", "PlaneFamily", "SymplecticForm"} <= names
    assert not names & set(COPYING_INIT_ALLOWED)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_binding_agree(cls):
    names = cls.__slots__
    values = [object() for _ in names]
    by_keyword = dict(zip(names, values))
    mixed = dict(zip(names[1:], values[1:]))
    for rec in (cls(*values), cls(**by_keyword), cls(values[0], **mixed)):
        assert [getattr(rec, n) for n in names] == values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_defaults_fill_absent_fields(cls):
    assert set(cls._defaults) <= set(cls.__slots__)
    given = {n: object() for n in cls.__slots__ if n not in cls._defaults}
    rec = cls(**given)
    for name in cls.__slots__:
        expected = given[name] if name in given else cls._defaults[name]
        assert getattr(rec, name) is expected


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    names = cls.__slots__
    values = [object() for _ in names]
    required = [n for n in names if n not in cls._defaults]
    with pytest.raises(TypeError, match="takes"):
        cls(*values, object())
    with pytest.raises(TypeError, match="missing"):
        cls(**{n: v for n, v in zip(names, values) if n != required[-1]})
    with pytest.raises(TypeError, match="unexpected"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{names[0]: 1})


def _copies_its_arguments(init: ast.FunctionDef) -> bool:
    """True when the body is ``self.a = a`` once per argument and nothing else."""
    params = [a.arg for a in init.args.args[1:]]
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # a docstring
    copied = []
    for st in body:
        if not (isinstance(st, ast.Assign) and len(st.targets) == 1):
            return False
        target, value = st.targets[0], st.value
        if not (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self" and isinstance(value, ast.Name)
                and value.id == target.attr):
            return False
        copied.append(value.id)
    return bool(params) and sorted(copied) == sorted(params)


def _slotted_copying_classes() -> set[str]:
    found = set()
    for path in sorted(Path(ietkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            slotted = any(
                isinstance(st, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in st.targets)
                for st in node.body
            )
            if slotted and any(
                isinstance(st, ast.FunctionDef) and st.name == "__init__"
                and _copies_its_arguments(st)
                for st in node.body
            ):
                found.add(node.name)
    return found


def test_no_slotted_class_writes_out_a_copying_init():
    # a new record that only stores its arguments derives from Record; the
    # allow-list names only classes that are still written out that way
    assert _slotted_copying_classes() == set(COPYING_INIT_ALLOWED)
