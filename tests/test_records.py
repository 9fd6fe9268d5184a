"""Value semantics of the package's record types.

The public records compare, hash, order and print by value; the records
with defaults take them positionally and by keyword; ``Window`` prints the
text the construction's overshoot warnings carry.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from ietkit import (
    Iet,
    InductionTrace,
    LabeledPermutation,
    RauzyClassGraph,
    RauzyEdge,
    VisitationMatrix,
    hyperelliptic_class,
    hyperelliptic_permutation,
    induct,
    rauzy_move,
    restriction_subgraph,
)
from ietkit.construction import (
    ExponentScale,
    PhasePath,
    Schedule,
    Window,
    make_schedule,
)
from ietkit.simplex_geometry import PlaneFamily


def s3() -> LabeledPermutation:
    return LabeledPermutation((1, 2, 3), (3, 2, 1))


def s3_iet() -> Iet:
    return Iet.make([Fraction(5, 11), Fraction(4, 11), Fraction(2, 11)], s3())


def test_labeled_permutation_value_semantics():
    a, b = s3(), hyperelliptic_permutation(3)
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(a) == hash(((1, 2, 3), (3, 2, 1)))
    assert a != LabeledPermutation((1, 2, 3), (3, 1, 2))
    assert a != ((1, 2, 3), (3, 2, 1))  # no tuple semantics
    assert len({a, b}) == 1
    assert repr(a) == "(1,2,3 / 3,2,1)"
    assert LabeledPermutation(top=(2, 1), bottom=(1, 2)) == LabeledPermutation(
        (2, 1), (1, 2)
    )


def test_labeled_permutation_ordering():
    lo = LabeledPermutation((1, 2, 3), (3, 1, 2))
    hi = LabeledPermutation((1, 2, 3), (3, 2, 1))
    top = LabeledPermutation((1, 3, 2), (2, 1, 3))
    assert lo < hi and lo <= hi and hi > lo and hi >= lo
    assert hi < top and hi <= hi and hi >= hi
    assert not hi < hi and not hi > hi
    assert sorted([top, hi, lo]) == [lo, hi, top]
    with pytest.raises(TypeError):
        lo < ((1, 2, 3), (3, 1, 2))


def test_rauzy_edge_value_semantics():
    e = rauzy_move(s3(), "top-wins")
    same = RauzyEdge(s3(), LabeledPermutation((1, 2, 3), (3, 1, 2)), 3, 1, "top-wins")
    assert e == same and hash(e) == hash(same)
    assert e != rauzy_move(s3(), "bottom-wins")
    assert repr(e) == (
        "RauzyEdge(source=(1,2,3 / 3,2,1), target=(1,2,3 / 3,1,2), "
        "winner=3, loser=1, side='top-wins')"
    )
    assert RauzyEdge(
        source=e.source, target=e.target, winner=3, loser=1, side="top-wins"
    ) == e


def test_iet_value_semantics():
    T = s3_iet()
    assert T == Iet((Fraction(5, 11), Fraction(4, 11), Fraction(2, 11)), s3())
    assert hash(T) == hash(s3_iet())
    assert T.normalized() == T  # the lengths already sum to 1
    assert T != Iet.make([1, 2, 3], s3())
    assert repr(T) == (
        "Iet(lengths=(Fraction(5, 11), Fraction(4, 11), Fraction(2, 11)), "
        "perm=(1,2,3 / 3,2,1))"
    )
    assert Iet(lengths=T.lengths, perm=T.perm) == T


def test_induction_trace_value_semantics():
    trace = induct(s3_iet(), 1)
    again = induct(s3_iet(), 1)
    assert trace == again and hash(trace) == hash(again)
    assert trace != induct(s3_iet(), 2)
    rebuilt = InductionTrace(
        start=trace.start, edges=trace.edges, matrix=trace.matrix,
        induced=trace.induced,
    )
    assert rebuilt == trace
    assert repr(trace) == (
        "InductionTrace(start=Iet(lengths=(Fraction(5, 11), Fraction(4, 11), "
        "Fraction(2, 11)), perm=(1,2,3 / 3,2,1)), edges=(RauzyEdge(source="
        "(1,2,3 / 3,2,1), target=(1,3,2 / 3,2,1), winner=1, loser=3, "
        "side='bottom-wins'),), matrix=VisitationMatrix([[1, 0, 1], [0, 1, 0], "
        "[0, 0, 1]]), induced=Iet(lengths=(Fraction(3, 11), Fraction(4, 11), "
        "Fraction(2, 11)), perm=(1,3,2 / 3,2,1)))"
    )


def test_rauzy_class_graph_equality():
    a, b = hyperelliptic_class(4), hyperelliptic_class(4)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != hyperelliptic_class(5)
    assert restriction_subgraph(5) == restriction_subgraph(5)
    rebuilt = RauzyClassGraph(vertices=a.vertices, edges=a.edges, seed=a.seed)
    assert rebuilt == a
    a.out_edges(a.seed)  # a built adjacency takes no part in equality
    assert a == rebuilt and hash(a) == hash(rebuilt)


def test_plane_family_equality():
    u = (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
    v = (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))
    fam = PlaneFamily(4, u, v)
    assert fam == PlaneFamily(d=4, u=u, v=v)
    assert hash(fam) == hash(PlaneFamily(4, u, v))
    assert fam != PlaneFamily(4, v, u)


def test_window_text():
    assert str(Window(1.5, 2.25)) == "[10^1.5, 10^2.25]"
    assert str(Window(3.0, 3.0, True)) == "[10^3, 2x10^3]"
    assert f"{Window(0.7, 1.05)}" == "[10^0.7, 10^1.05]"
    assert "%s" % Window(2, 4) == "[10^2, 10^4]"


def test_window_default():
    assert Window(1, 2).double is False
    assert Window(1, 2, True).double is True
    w = Window(lo_exp=1, hi_exp=1, double=True)
    assert (w.lo_exp, w.hi_exp, w.double, w.lo, w.hi) == (1, 1, True, 10, 20)


def test_phase_path_warnings_default_and_warn():
    pi = hyperelliptic_permutation(4)
    M = VisitationMatrix.identity(4)
    path = PhasePath("transition", pi, pi, (), M)
    assert path.warnings == ()
    kw = PhasePath(phase="transition", start=pi, end=pi, runs=(), matrix=M,
                   warnings=("x",))
    assert kw.warnings == ("x",)
    warned = path.warn("first").warn("second")
    assert warned.warnings == ("first", "second")
    assert path.warnings == ()  # warn makes a new path
    assert (warned.phase, warned.start, warned.end, warned.runs, warned.matrix) == (
        path.phase, path.start, path.end, path.runs, path.matrix
    )


def test_exponent_scale_and_schedule_defaults():
    scale = ExponentScale(abs, abs, abs, abs)
    assert scale.name == "custom"
    assert ExponentScale(p6=abs, p4=abs, p2=abs, p23=abs, name="n").name == "n"
    linear = ExponentScale.linear()
    assert linear.name == "linear(0.7,0.35,0.2,0.1)"
    sched = make_schedule(1, linear, 2)
    assert sched.zeta == 32.0
    again = Schedule(sched.k0, sched.stages, sched.scale, sched.windows)
    assert again.zeta == 32.0
    assert Schedule(k0=1, stages=2, scale=linear, windows=sched.windows,
                    zeta=8.0).zeta == 8.0
