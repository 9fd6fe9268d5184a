"""Volume formulas, plane sections, polytope facets and the half-plane clipper."""
from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ietkit import _rational, simplex_geometry
from ietkit.analysis import CONSISTENT, INCONCLUSIVE, VIOLATED, stage_one_planes
from ietkit.construction import ExponentScale, make_schedule, run_construction
from ietkit.errors import DegeneracyError
from ietkit.induction import BOTTOM_WINS, TOP_WINS, VisitationMatrix, drive_path
from ietkit.perm import hyperelliptic_permutation
from ietkit.simplex_geometry import (
    PlaneFamily,
    Polygon2D,
    plane_section_concavity_test,
    section,
    section_table,
    simplex_volume_ratio,
)
from ietkit.simplex_geometry import _clip_planes, _polytope_halfspaces

BOX = [[1, 0, 16], [-1, 0, 16], [0, 1, 16], [0, -1, 16]]  # |s|, |t| <= 16


def clip(rows):
    """The vertices ``_clip_planes`` keeps for the one plane cut by the
    half-planes a*s + b*t + c >= 0 given as rows (a, b, c); None if empty."""
    rows = np.asarray(rows, dtype=float)
    pts, keep, _ = _clip_planes(rows[:, :2], rows[None, :, 2])
    return pts[keep] if keep.any() else None


def random_matrix(d: int, length: int, seed: int) -> VisitationMatrix:
    rng = Random(seed)
    sides = [rng.choice([TOP_WINS, BOTTOM_WINS]) for _ in range(length)]
    M, _, _ = drive_path(hyperelliptic_permutation(d), sides)
    return M


def det_volume_ratio(M: VisitationMatrix) -> Fraction:
    """Oracle: |det| of the sum-normalized vertex matrix."""
    cols = [tuple(Fraction(x) for x in M.column(j)) for j in range(1, M.d + 1)]
    normed = [tuple(x / sum(c) for x in c) for c in cols]
    return abs(_rational.det(_rational.mat(list(zip(*normed)))))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_volume_formula_matches_determinant(d):
    for seed in range(10):
        M = random_matrix(d, 15, seed)
        formula = simplex_volume_ratio(M, VisitationMatrix.identity(d))
        assert formula == det_volume_ratio(M)


def test_volume_ratio_composes():
    M1 = random_matrix(4, 10, 1)
    M2 = random_matrix(4, 10, 2)
    r = simplex_volume_ratio(M1, M2)
    assert r == det_volume_ratio(M1) / det_volume_ratio(M2)


def test_singular_matrix_rejected():
    with pytest.raises(DegeneracyError):
        simplex_volume_ratio(
            ((1, 1), (1, 1)), VisitationMatrix.identity(2)
        )


def test_clip_halfplanes_square():
    verts = clip(BOX + [[1, 0, 0], [-1, 0, 1], [0, 1, 0], [0, -1, 1]])
    assert verts is not None
    x, y = verts[:, 0], verts[:, 1]
    area = abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2
    assert area == pytest.approx(1.0)


def test_clip_halfplanes_empty():
    assert clip(BOX + [[1, 0, -2], [-1, 0, -2]]) is None


def test_section_through_barycenter_is_a_square():
    family = PlaneFamily(4, (1, -1, 0, 0), (0, 0, 1, -1))
    base = [Fraction(1, 4)] * 4
    poly = section(section_table(VisitationMatrix.identity(4), family), base)
    assert isinstance(poly, Polygon2D)
    assert len(poly.vertices) == 4
    assert poly.area == pytest.approx(0.5)
    assert poly.diameter == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1.0, 1e-158, 1e-170])
def test_diameter_scales_below_the_squares_underflow(scale):
    # a 3-4-5 triangle: squared differences of 1e-170 would read 0
    poly = Polygon2D(scale * np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    assert math.isclose(poly.diameter, 5.0 * scale, rel_tol=1e-15)


def numpy_contains(outer: Polygon2D, inner: np.ndarray) -> bool:
    """The containment test as one numpy cross product of every vertex with
    every edge: the reference for the per-vertex loop in floats."""
    v = outer.vertices
    a = (v - v[0]) / outer.diameter
    edge = np.concatenate((a[1:], a[:1])) - a
    p = ((inner - v[0]) / outer.diameter)[:, None, :]
    cross = edge[:, 0] * (p[..., 1] - a[:, 1]) - edge[:, 1] * (p[..., 0] - a[:, 0])
    return bool(((cross >= -1e-9).all(1) | (cross <= 1e-9).all(1)).all())


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-160, 3), st.lists(st.floats(0, 2 * math.pi), min_size=3, max_size=6),
    st.booleans(), st.floats(-12, 0), st.sampled_from([0.5, 1.0, 1.0 + 1e-10, 1.5]),
    st.lists(st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 1)), min_size=1,
             max_size=5),
)
def test_containment_matches_the_numpy_reference(exp, angles, flip, thin, reach, points):
    # ellipses of any scale and aspect, either orientation, and points inside,
    # on and beyond them
    scale, width = 10.0**exp, 10.0**thin
    angles = sorted(angles, reverse=flip)
    outer = Polygon2D(scale * np.array([[math.cos(t), width * math.sin(t)] for t in angles]))
    assume(outer.diameter > 0)
    inner = np.concatenate([
        scale * reach * np.array([[r * math.cos(t), width * r * math.sin(t)]
                                  for t, r in points]),
        outer.vertices[:2],
    ])
    assert outer.contains_polygon(Polygon2D(inner)) == numpy_contains(outer, inner)


@pytest.mark.parametrize(("excess", "empty"), [
    (Fraction(1, 10**10), False),
    (Fraction(1, 10**9), False),
    (Fraction(11, 10**10), True),
    (-Fraction(11, 10**10), True),
])
def test_section_takes_base_points_that_sum_to_1_within_1e_9(excess, empty):
    # the sum is compared with 1 exactly, not in floats
    family = PlaneFamily(4, (1, -1, 0, 0), (0, 0, 1, -1))
    base = [Fraction(1, 4)] * 3 + [Fraction(1, 4) + excess]
    poly = section(section_table(VisitationMatrix.identity(4), family), base)
    assert (poly is None) == empty


def test_section_off_the_simplex_plane_is_empty():
    family = PlaneFamily(4, (1, -1, 0, 0), (0, 0, 1, -1))
    base = [Fraction(1, 2)] * 4
    assert section(section_table(VisitationMatrix.identity(4), family), base) is None


def test_section_missing_the_simplex_on_a_flat_row_is_empty():
    # the plane's directions keep x_1 fixed, so row 1 of the identity is flat,
    # and the base point has x_1 = -1/2: the plane misses the simplex, though
    # the half-planes of the other rows meet
    family = PlaneFamily(5, (0, 1, -1, 0, 0), (0, 0, 0, 1, -1))
    base = [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert section(section_table(VisitationMatrix.identity(5), family), base) is None


def reference_section(M, base_point, family):
    """The Fraction algorithm: three exact solves against M, then a pairwise
    vertex search over the half-planes; the vertex array, or None."""
    rows = M.rows if isinstance(M, VisitationMatrix) else M
    if abs(np.array([float(x) for x in base_point]).sum() - 1.0) > 1e-9:
        return None
    chart = family.chart()
    m = _rational.mat(rows)
    sols = []
    for rhs in (base_point, chart[0], chart[1]):
        x = _rational.solve(m, [Fraction(v) for v in rhs])
        if x is None:
            return None
        sols.append(x)
    c_ex, a_ex, b_ex = sols
    if any(c < 0 for a, b, c in zip(a_ex, b_ex, c_ex) if a == 0 and b == 0):
        return None
    rows_abc = [
        (a, b, c) for a, b, c in zip(a_ex, b_ex, c_ex) if a != 0 or b != 0
    ]
    verts = []
    for i, (a1, b1, c1) in enumerate(rows_abc):
        for a2, b2, c2 in rows_abc[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            s = (-c1 * b2 + c2 * b1) / det
            t = (-a1 * c2 + a2 * c1) / det
            if all(a * s + b * t + c >= 0 for a, b, c in rows_abc):
                if (s, t) not in verts:
                    verts.append((s, t))
    if len(verts) < 3:
        return None
    cs = sum(s for s, _ in verts) / len(verts)
    ct = sum(t for _, t in verts) / len(verts)
    order = sorted(
        verts, key=lambda v: math.atan2(float(v[1] - ct), float(v[0] - cs))
    )
    return np.array([[float(s), float(t)] for s, t in order])


@st.composite
def section_inputs(draw):
    """M, a rational base point M w / |M w| and a plane family.

    M is a product of 1-40 elementary Rauzy-Veech matrices, or raw integer
    rows with any non-zero determinant.  With every weight w_j positive the
    base point lies inside M Delta; a negative one may put it outside, so
    both empty and non-empty sections are compared.  The weights are
    integers, floats read exactly, or rationals with their own denominators,
    so the base point's coordinates need not share a denominator.
    """
    d = draw(st.integers(4, 6))
    if draw(st.booleans()):
        M = VisitationMatrix.identity(d)
        for _ in range(draw(st.integers(1, 40))):
            winner, loser = draw(st.permutations(range(1, d + 1)))[:2]
            M = M @ VisitationMatrix.elementary(d, winner, loser)
        rows = M.rows
    else:
        rows = draw(st.lists(
            st.lists(st.integers(0, 9), min_size=d, max_size=d),
            min_size=d, max_size=d,
        ))
        assume(_rational.det(_rational.mat(rows)) != 0)
        M = rows
    weights = draw(st.sampled_from(["integer", "float", "rational"]))
    if weights == "integer":
        w = draw(st.lists(st.integers(-30, 60), min_size=d, max_size=d))
        x = [sum(r * wj for r, wj in zip(row, w)) for row in rows]
        assume(sum(x) > 0)
        base = [Fraction(xi, sum(x)) for xi in x]
    else:
        coords = (
            st.floats(-0.5, 1.0).map(Fraction) if weights == "float"
            else st.fractions(-1, 2, max_denominator=10**6)
        )
        w = draw(st.lists(coords, min_size=d, max_size=d))
        x = [sum(r * wj for r, wj in zip(row, w)) for row in rows]
        assume(sum(x) > 0)
        base = [xi / sum(x) for xi in x]

    def direction():
        raw = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
        return tuple(d * r - sum(raw) for r in raw)  # in the sum-zero plane

    u, v = direction(), direction()
    assume(any(u) and any(v))
    family = PlaneFamily(d, u, v)
    try:
        family.chart()
    except DegeneracyError:
        assume(False)
    return M, base, family


def needle_inputs() -> list[tuple]:
    """Needle sections: the level-5 and level-6 tables of two runs of the
    construct-section benchmark's size (construct --d 6 --stages 6 --seed
    244788 and --d 5 --seed 115850), cut by their stage-one planes through
    M w / |M w| for the deepest stage's M.  The sections are some 1e-107 and
    1e-153 long and far thinner; the two vertices at each end tie in
    atan2 about the centroid in some of them, so their order is the order
    the vertices were found in."""
    out = []
    for d, seed in ((6, 244788), (5, 115850)):
        run = run_construction(d, make_schedule(1, ExponentScale.linear(), 6), seed)
        family = stage_one_planes(run)
        for w in [(1,) * d, tuple(range(1, d + 1))]:
            x = run.cumulative.mat_vec(w)
            base = [Fraction(xi, sum(x)) for xi in x]
            out += [(run.stages[lv].cumulative, base, family) for lv in (4, 5)]
    return out


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=150, deadline=None)
@given(section_inputs())
@with_examples(needle_inputs())
def test_section_matches_fraction_reference(inputs):
    M, base, family = inputs
    want = reference_section(M, base, family)
    for matrix in (M, [list(r) for r in getattr(M, "rows", M)]):
        got = section(section_table(matrix, family), base)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.vertices, want)


def test_a_section_table_serves_every_plane_of_its_family(monkeypatch):
    # one table per family, built once; with the inverse and the chart then
    # refused, each serves the planes through several base points
    M = random_matrix(5, 30, seed=2)
    families = [
        PlaneFamily(5, (1, -1, 0, 0, 0), (0, 0, 1, 0, -1)),
        PlaneFamily(5, (0, 1, 0, -1, 0), (1, 0, -1, 0, 0)),
    ]
    bases = []
    for w in [(1, 1, 1, 1, 1), (3, 1, 4, 1, 5), (9, 2, 6, 5, 3)]:
        x = M.mat_vec(w)  # M w / |M w|, inside M Delta
        bases.append([Fraction(xi, sum(x)) for xi in x])
    tables = [section_table(M, family) for family in families]
    want = [[reference_section(M, base, f) for base in bases] for f in families]

    def refuse(*args):
        raise AssertionError("a section built its table")

    monkeypatch.setattr(_rational, "scaled_inverse", refuse)
    monkeypatch.setattr(PlaneFamily, "chart", refuse)
    for table, expected in zip(tables, want):
        for base, vertices in zip(bases, expected):
            assert np.array_equal(section(table, base).vertices, vertices)


@pytest.mark.parametrize(
    "u",
    [
        (0, 0, 0, 0),
        (Fraction(1, 10**400), Fraction(-1, 10**400), 0, 0),  # 0.0 in floats
    ],
)
def test_chart_of_a_zero_u_is_degenerate(u):
    family = PlaneFamily(4, u, (0, 0, 1, -1))
    with pytest.raises(DegeneracyError):
        family.chart()


def test_section_of_a_singular_matrix_is_none():
    rows = ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    family = PlaneFamily(4, (1, -1, 0, 0), (0, 0, 1, -1))
    base = [Fraction(1, 4)] * 4  # in the image of the cone: M (1, 1, 2, 2) / 8
    assert section_table(rows, family) is None
    assert section(section_table(rows, family), base) is None


def test_polytope_section_area_cube():
    cube = [
        (x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)
    ]
    chart = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    A, b = _polytope_halfspaces(np.array(cube))
    point = np.array([0.5, 0.5, 0.5])
    area = _clip_planes(-(A @ chart.T), (b - A @ point)[None])[2][0]
    assert area == pytest.approx(1.0, abs=1e-9)


def same_rows(A, b, rows) -> bool:
    """Each row (a, b) of A x <= b is within 1e-9 of one of ``rows``, and
    each of ``rows`` within 1e-9 of one of them."""
    gap = np.abs(np.column_stack([A, b])[:, None] - np.asarray(rows)[None]).max(-1)
    return gap.min(0).max() <= 1e-9 and gap.min(1).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(5, 16), st.integers(0, 2**32 - 1))
def test_polytope_halfspaces_support_the_body(n, npoints, seed):
    body = np.random.default_rng(seed).standard_normal((npoints, n))
    A, b = _polytope_halfspaces(body)
    res = body @ A.T - b  # (vertices, rows)
    assert (res <= 1e-9 * np.abs(body).max()).all()
    assert np.allclose(np.linalg.norm(A, axis=1), 1.0)
    assert (np.isclose(res, 0.0, atol=1e-9).sum(0) >= n).all()


def test_polytope_halfspaces_of_the_4_simplex():
    A, b = _polytope_halfspaces(np.vstack([np.zeros(4), np.eye(4)]))
    assert len(A) == 5  # x_i >= 0, and x_1 + ... + x_4 <= 1 as a unit row
    assert same_rows(A, b, [[*-np.eye(4)[i], 0.0] for i in range(4)] + [[0.5] * 5])


def test_polytope_halfspaces_of_the_cube_are_its_facets():
    cube = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    A, b = _polytope_halfspaces(np.array(cube))
    assert len(A) == 24  # each facet once per three of its four vertices
    assert same_rows(A, b, [[*e, 1.0] for e in np.eye(3)] + [[*-e, 0.0] for e in np.eye(3)])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(5, 16), st.integers(0, 2**32 - 1))
def test_polytope_halfspaces_are_the_qhull_facets(n, npoints, seed):
    spatial = pytest.importorskip("scipy.spatial")  # no longer a dependency
    body = np.random.default_rng(seed).standard_normal((npoints, n))
    eq = spatial.ConvexHull(body).equations  # rows: a . x + c <= 0
    assert same_rows(*_polytope_halfspaces(body), np.column_stack([eq[:, :-1], -eq[:, -1]]))


def test_concavity_ball_closed_form():
    rep = plane_section_concavity_test(
        {"ball": 1.0, "dim": 4}, np.eye(4)[:2], 1e-2, 20000, seed=0
    )
    frac, bound = rep.estimate, rep.claim_bound
    ok = frac <= bound
    assert ok
    assert frac <= bound
    # analytic: sections of a 4-ball have area pi (1 - r^2); the fraction of
    # offsets in the square [-1,1]^2 giving area < eps * pi concentrates
    # near the corners of the disc boundary
    assert frac < 0.2


def test_concavity_polytope_bound():
    rng = np.random.default_rng(1)
    verts = rng.standard_normal((12, 4))
    for eps in (1e-2, 1e-4):
        rep = plane_section_concavity_test(
            verts, np.eye(4)[:2], eps, 2000, seed=2
        )
        frac, bound = rep.estimate, rep.claim_bound
        ok = frac <= bound
        assert ok, f"fraction {frac} exceeded bound {bound} at eps {eps}"


def test_concavity_below_a_planted_bound_is_violated(monkeypatch):
    # the ball's fraction is about eps = 0.01, far above a bound of 0.001
    monkeypatch.setattr(simplex_geometry, "CONCAVITY_CONSTANT", 0.01)
    rep = plane_section_concavity_test(
        {"ball": 1.0, "dim": 4}, np.eye(4)[:2], 1e-2, 20000, seed=0
    )
    assert rep.claim_bound == pytest.approx(0.001)
    assert rep.verdict == VIOLATED


def test_concavity_with_no_plane_in_the_body_is_inconclusive():
    # seed 8's one offset lies outside the unit disc: its plane misses the ball
    rep = plane_section_concavity_test(
        {"ball": 1.0, "dim": 4}, np.eye(4)[:2], 1e-2, 1, seed=8
    )
    assert rep.samples == 0
    assert math.isnan(rep.estimate)
    assert rep.verdict == INCONCLUSIVE


def test_concavity_allows_for_its_sampling_error():
    """3 small sections of 74 is 0.0405 against a bound of 0.04, within
    three standard errors: ``verify concavity --samples 1000 --seed 428225``
    read this case as violated while it compared the fraction alone."""
    rng = np.random.default_rng(428225)
    verts = [rng.standard_normal((12, 4)) for _ in range(7)][-1]
    rep = plane_section_concavity_test(verts, np.eye(4)[:2], 1e-4, 100, seed=428226)
    assert (round(rep.estimate * rep.samples), rep.samples) == (3, 74)
    assert rep.estimate > rep.claim_bound == pytest.approx(0.04)
    assert rep.verdict == CONSISTENT


def test_clip_halfplanes_merges_repeated_vertices():
    square = [[1, 0, 0], [-1, 0, 1], [0, 1, 0], [0, -1, 1]]
    # s + t >= 0 meets the square's corner (0, 0) only: three boundaries
    # through one vertex, which is listed once
    verts = clip(BOX + square + [[1, 1, 0]])
    assert len(verts) == 4
    # s + t <= 0 leaves only that corner, a point, which is empty
    assert clip(BOX + square + [[-1, -1, 0]]) is None


def sutherland_hodgman(constraints, box: float = 16.0, num=float):
    """The scalar clipper the batched one replaced, kept as the reference:
    half-planes a*s + b*t + c >= 0 cut one at a time from a large box.
    ``num=Fraction`` runs it in exact arithmetic, merging equal points only.
    """
    poly = [(num(x), num(y)) for x, y in
            ((-box, -box), (box, -box), (box, box), (-box, box))]
    if num is Fraction:
        apart = tuple.__ne__
    else:
        def apart(p, q):
            return math.dist(p, q) > 1e-13
    for a, b, c in constraints:
        if not poly:
            return None
        a, b, c = num(a), num(b), num(c)
        if math.hypot(a, b) < 1e-300:
            if c < 0:
                return None
            continue
        new_poly = []
        vals = [a * x + b * y + c for x, y in poly]
        n = len(poly)
        for i in range(n):
            (px, py), (qx, qy) = poly[i], poly[(i + 1) % n]
            vp, vq = vals[i], vals[(i + 1) % n]
            if vp >= 0:
                new_poly.append((px, py))
            if (vp > 0) != (vq > 0) and vp != vq:
                t = vp / (vp - vq)
                if 0 < t < 1:
                    new_poly.append((px + t * (qx - px), py + t * (qy - py)))
        poly = []
        for p in new_poly:  # drop duplicate points
            if not poly or apart(p, poly[-1]):
                poly.append(p)
        if len(poly) > 1 and not apart(poly[0], poly[-1]):
            poly.pop()
    return np.array(poly, dtype=float) if len(poly) >= 3 else None


def shoelace(verts) -> float:
    if verts is None:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(8, 16), st.integers(0, 2**32 - 1))
def test_batched_sections_match_the_scalar_clipper(n, npoints, seed):
    rng = np.random.default_rng(seed)
    body = rng.standard_normal((npoints, n))
    A, b = _polytope_halfspaces(body)
    chart = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
    # plane origins over the body's bounding box widened by half on each
    # side, so that some planes miss it; the first passes through its middle
    lo, hi = body.min(0), body.max(0)
    points = rng.uniform(lo - (hi - lo) / 2, hi + (hi - lo) / 2, size=(60, n))
    points[0] = body.mean(0)
    ref = np.array([
        shoelace(sutherland_hodgman(
            np.column_stack([-(A @ chart[0]), -(A @ chart[1]), b - A @ p]), box=1e3
        ))
        for p in points
    ])
    _, _, got = _clip_planes(-(A @ chart.T), b - points @ A.T)
    assert ((got > 0) == (ref > 0)).all()
    assert np.abs(got - ref).max() <= 1e-10 * ref.max()


@settings(max_examples=150, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-40, 40))
def test_clip_halfplanes_unbounded_matches_the_scalar_clipper(a, b, c):
    # exact: in floats the reference loses a vertex when the line passes
    # within rounding of a box corner (s + t >= 1e-20 gives None)
    ref = sutherland_hodgman([(a, b, c)], num=Fraction)
    got = clip(BOX + [[a, b, c]])
    assert (got is None) == (ref is None)
    if ref is not None:  # the same vertices, up to merging, cut by the same box
        gaps = np.abs(got[:, None] - ref[None]).max(-1)
        assert gaps.min(0).max() <= 1e-9 and gaps.min(1).max() <= 1e-9
        assert shoelace(got) == pytest.approx(shoelace(ref), rel=1e-12, abs=1e-9)
