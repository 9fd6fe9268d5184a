"""Projective action on the simplex: volumes, slices, sections.

A non-negative matrix M acts on the standard simplex by x -> Mx/|Mx|; the
image is the sub-simplex spanned by the normalized columns.  Identities
(volume ratios, orthogonality of the plane directions) are exact
rationals.  ``section`` is exact up to its vertices and works in
integers: ``section_table`` builds, per matrix and plane family, a
fraction-free inverse and what else does not depend on the base point, the
caller keeps it while it slices that matrix, and a call runs an integer
vertex test; each float of the returned polygon is one correctly rounded
division of its exact value.  The float sections of the concavity test come
from one numpy half-plane intersector that clips all sampled planes of a
body at once, a block of planes at a time, by the facets numpy finds from
the body's vertices.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from . import _rational
from ._record import Value
from .errors import DegeneracyError, UsageError
from .induction import VisitationMatrix
from .symplectic import SymplecticForm


def _columns(M) -> list[tuple[Fraction, ...]]:
    rows = M.rows if isinstance(M, VisitationMatrix) else M
    return [_rational.vec(col) for col in zip(*rows)]


def column_l1(col: Sequence[Fraction]) -> Fraction:
    return sum(Fraction(x) for x in col)


def simplex_volume_ratio(M1, M2) -> Fraction:
    """lambda(M1 Delta) / lambda(M2 Delta), exact.

    Column-norm product formula; the determinant factor covers non-unimodular
    inputs.
    """
    d1, d2 = (
        _rational.det(M.rows if isinstance(M, VisitationMatrix) else M) for M in (M1, M2)
    )
    if d1 == 0 or d2 == 0:
        raise DegeneracyError("singular matrix spans a degenerate simplex")
    p1, p2 = (math.prod(map(column_l1, _columns(M))) for M in (M1, M2))
    return abs(d1) / abs(d2) * p2 / p1


def normalized_det(cols: Sequence[Sequence]) -> Fraction:
    """|det| of the matrix whose columns are ``cols``, each scaled to unit
    sum: the volume of the simplex they span, as a share of the standard
    simplex's.  The columns are scaled before the determinant is taken, so
    this does not repeat ``simplex_volume_ratio``'s column-norm formula."""
    sums = [column_l1(c) for c in cols]
    # a matrix and its transpose have one determinant: the columns go in as rows
    return abs(_rational.det([[x / s for x in c] for c, s in zip(cols, sums)]))


class PlaneFamily(Value):
    """Parallel 2-planes spanned by the construction's two special directions.

    u and v live in the direction space of the slice (coordinates sum to
    zero, last two coordinates sum to zero) and are each orthogonal to the
    restricted-inverse image of the other defining column.  Equal when d,
    u and v are.
    """

    __slots__ = ("d", "u", "v")

    def chart(self) -> tuple[list[float], list[float]]:
        """Orthonormal 2 x d chart basis for the plane directions, as two
        rows of floats: u over its norm, then v less its component along
        that, over its norm, each norm and dot product rounded as numpy's
        ``np.linalg.norm`` and ``np.dot`` round them (``_floats.dot``)."""
        from ._floats import dot

        b1 = [float(x) for x in self.u]
        n1 = math.sqrt(dot(b1, b1))
        if not 0 < n1 < math.inf:
            raise DegeneracyError("plane direction u has no float unit vector")
        b1 = [x / n1 for x in b1]
        b2 = [float(x) for x in self.v]
        along = dot(b2, b1)
        b2 = [x - along * y for x, y in zip(b2, b1)]
        n = math.sqrt(dot(b2, b2))
        if n < 1e-14:
            raise DegeneracyError("plane directions are numerically dependent")
        return b1, [x / n for x in b2]


def _project_slice_directions(z: Sequence[Fraction], d: int) -> tuple[Fraction, ...]:
    """Orthogonal projection onto {sum x = 0, x_{d-1}+x_d = 0}."""
    last_two = (0,) * (d - 2) + (1, 1)
    return _rational.project_out(z, [(1,) * d, last_two])


def plane_family(A1prime, B1, form: SymplecticForm) -> PlaneFamily:
    """Build the plane directions from the first-stage product A'_1 B_1."""
    N = A1prime @ B1
    d = N.d
    u0 = _project_slice_directions(form.image_preimage(N.column(1)), d)
    v0 = _project_slice_directions(form.image_preimage(N.column(d)), d)
    if all(x == 0 for x in v0) or all(x == 0 for x in u0):
        raise DegeneracyError("plane direction collapsed to zero")
    u = _rational.project_out(u0, [v0])
    v = _rational.project_out(v0, [u0])
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        raise DegeneracyError("plane directions are dependent")
    return PlaneFamily(d, u, v)


class Polygon2D:
    """A convex polygon in plane-chart coordinates, its vertices (x, y)
    float pairs, with its area and diameter, each computed once, when it is
    made.  Each rounds as numpy rounds it on the (n, 2) array of the
    vertices: the shoelace sums as ``np.dot`` of a column with the other
    column rolled by one (``_floats.dot_strided``), the diameter as the
    largest ``np.hypot`` of two vertices' differences (``_floats.hypot``;
    squaring the differences underflows below about 1e-154), and the
    centroid as ``mean(axis=0)``, a left-to-right sum over n."""

    __slots__ = ("vertices", "area", "diameter")

    def __init__(self, vertices: Iterable[Sequence[float]]):  # convex, either orientation
        from ._floats import dot_strided, hypot

        self.vertices = v = tuple((float(x), float(y)) for x, y in vertices)
        x, y = [p[0] for p in v], [p[1] for p in v]
        self.area = 0.5 * abs(dot_strided(x, y[1:] + y[:1]) - dot_strided(y, x[1:] + x[:1]))
        self.diameter = max(
            (hypot(ax - bx, ay - by) for i, (ax, ay) in enumerate(v) for bx, by in v[i + 1 :]),
            default=0.0,
        )

    @property
    def centroid(self) -> tuple[float, float]:
        n, (sx, sy) = len(self.vertices), self.vertices[0]
        for x, y in self.vertices[1:]:
            sx += x
            sy += y
        return sx / n, sy / n

    def contains_polygon(self, other: "Polygon2D") -> bool:
        """Every vertex of ``other`` lies in this polygon, up to 1e-9
        relative to this polygon's diameter.

        Both are moved to this polygon's first vertex and divided by its
        diameter first, so cross products are O(1) at every scale; sections
        1e-150 across would otherwise give products that underflow.  A
        vertex is in when its cross products with the edges are all >= -1e-9
        or all <= 1e-9, so either orientation is accepted.
        """
        (x0, y0), scale = self.vertices[0], self.diameter
        a = [((x - x0) / scale, (y - y0) / scale) for x, y in self.vertices]
        edges = [(bx - ax, by - ay, ax, ay) for (ax, ay), (bx, by) in zip(a, a[1:] + a[:1])]
        for x, y in other.vertices:
            px, py = (x - x0) / scale, (y - y0) / scale
            cross = [ex * (py - ay) - ey * (px - ax) for ex, ey, ax, ay in edges]
            if not (all(c >= -1e-9 for c in cross) or all(c <= 1e-9 for c in cross)):
                return False
        return True


_REL_TOL = 1e-12  # a residual or gap below this share of its terms is rounding
_BLOCK = 1 << 17  # residuals (1 MB) per block of planes, so memory stays flat
CONCAVITY_CONSTANT = 4.0  # the concavity bound is this times sqrt(eps)


def _clip_planes(normals: np.ndarray, offsets: np.ndarray):
    """Convex polygons {(s, t) : a*s + b*t + c >= 0 for every row} for P
    planes that share the rows' (a, b), ``normals`` (m, 2); ``offsets``
    (P, m) holds each plane's c.  Returns (pts, keep, area): pts (N, 2)
    lists, plane by plane and counterclockwise, the Cramer intersections of
    two boundaries that meet every row up to _REL_TOL; keep drops repeats of
    the vertex before and all of a plane with fewer than three distinct
    vertices, which is empty.
    """
    import numpy as np

    P = len(offsets)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        unit = np.hypot(normals[:, 0], normals[:, 1])
        flat = unit < 1e-300  # no direction: holds everywhere (c >= 0) or nowhere
        ab = np.where(flat[:, None], 0.0, normals / unit[:, None])
        c = np.where(flat, np.where(offsets < 0, -np.inf, 0.0), offsets / unit)
        i, j = np.triu_indices(len(ab), 1)  # parallel pairs give no finite vertex
        det = ab[i, 0] * ab[j, 1] - ab[j, 0] * ab[i, 1]
        s = t = 0.0  # Cramer, then again on its residuals: each vertex is on its
        for _ in range(2):  # two lines to rounding, however near parallel they are
            ri, rj = (c[:, k] + ab[k, 0] * s + ab[k, 1] * t for k in (i, j))  # (P, pairs)
            s = s + (rj * ab[i, 1] - ri * ab[j, 1]) / det
            t = t + (ri * ab[j, 0] - rj * ab[i, 0]) / det
        size = np.abs(s) + np.abs(t)
        res = np.stack([s, t], -1) @ ab.T  # (P, pairs, m)
        res += (c + _REL_TOL * np.abs(c))[:, None]
        ok = (res >= -_REL_TOL * size[..., None]).all(-1) & np.isfinite(size)
    span = np.where(ok, size, 0.0).max(1, initial=0.0)
    plane, k = np.nonzero(ok)
    pts, n = np.stack([s[plane, k], t[plane, k]], -1), np.bincount(plane, minlength=P)
    centre = np.stack([np.bincount(plane, x, P) for x in pts.T], -1) / np.maximum(n, 1)[:, None]
    rel = pts - centre[plane]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), plane))
    pts, rel, at = pts[order], rel[order], np.arange(len(plane))
    # the vertex before each, cyclically within its plane
    prev = np.where(at == (np.cumsum(n) - n)[plane], at + n[plane] - 1, at - 1)
    keep = np.abs(rel - rel[prev]).max(-1) > _REL_TOL * span[plane]
    full = np.bincount(plane, keep, P) >= 3
    cross = rel[prev, 0] * rel[:, 1] - rel[prev, 1] * rel[:, 0]  # shoelace
    return pts, keep & full[plane], np.where(full, abs(np.bincount(plane, cross, P)) / 2, 0.0)


def section_table(M, family: PlaneFamily):
    """What ``section`` needs of M and the family but not of the base point:
    (D * M^-1, q, flat, pairs), or None when M is singular.

    D * M^-1 is the integer matrix of ``_rational.scaled_inverse``, for some
    integer D > 0; a visitation matrix is a product of elementary Rauzy-Veech
    matrices, so its determinant is 1 and D is 1.  Row i of D * M^-1 takes
    the chart rows (floats, read exactly) to integers (a_i, b_i) over their
    common denominator q; ``flat`` lists the rows with a_i = b_i = 0, and
    ``pairs`` each pair of the other rows with a non-zero determinant
    det = a_i b_j - a_j b_i, in row order, as (i, a_i, b_i, j, a_j, b_j,
    det, rest, signed): the two rows in the order that makes det > 0.
    ``rest`` holds the other rows k as (k, alpha, beta), with alpha =
    a_k b_i - a_i b_k and beta = a_j b_k - a_k b_j, so that the pair's
    vertex meets row k when alpha * c_j + beta * c_i + det * c_k >= 0.  Rows
    with alpha < 0 and beta < 0 come first, then those with one sign
    negative; ``signed`` is that prefix, the rows with alpha, beta >= 0
    left out.  The caller keeps the table for as long as it slices M with
    planes of this family.
    """
    rows = M.rows if isinstance(M, VisitationMatrix) else M
    try:
        inv = _rational.scaled_inverse(rows)[1]
    except ZeroDivisionError:
        return None
    chart = family.chart()
    nums, q = _rational._numerators([*chart[0], *chart[1]])
    d = len(inv)
    u, v = nums[:d], nums[d:]
    ab = [(sum(map(mul, row, u)), sum(map(mul, row, v))) for row in inv]
    flat = [i for i, (a, b) in enumerate(ab) if a == 0 and b == 0]
    live = [(i, a, b) for i, (a, b) in enumerate(ab) if a != 0 or b != 0]
    pairs = []
    for n, first in enumerate(live):
        for second in live[n + 1 :]:
            det = first[1] * second[2] - second[1] * first[2]
            if det == 0:
                continue
            (i, a1, b1), (j, a2, b2) = (first, second) if det > 0 else (second, first)
            det = abs(det)
            rest = [(k, a * b1 - a1 * b, a2 * b - a * b2)
                    for k, a, b in live if k != i and k != j]
            rest.sort(key=lambda r: (r[1] >= 0) + (r[2] >= 0))  # stable
            signed = [r for r in rest if r[1] < 0 or r[2] < 0]
            pairs.append((i, a1, b1, j, a2, b2, det, rest, signed))
    return inv, q, flat, pairs


def section(table, base_point: Sequence) -> Polygon2D | None:
    """M Delta sliced by the plane through base_point; None when empty.

    ``table`` is ``section_table(M, family)``, and None for a singular M,
    which no construction produces.  The preimage condition M^-1 x >= 0
    turns into d half-planes a*s + b*t + c >= 0 in the plane's own chart,
    so no d-dimensional vertex enumeration happens, and everything up to
    the returned floats is integer.  The table holds D * M^-1, each row's
    chart coefficients (a, b) over the chart's common denominator q, and
    the non-zero pair determinants.  A call only forms c = D * M^-1 R, with
    R the base point's numerators over their common denominator S, so the
    half-planes are a*s + b*t + (q/S)*c >= 0 up to the positive factor D.
    The base point is off the simplex's affine hull when its coordinates
    sum to more than 1e-9 away from 1, exactly.  The vertex of two
    boundaries i, j is (q/S) * (s_n, t_n) / det with integer Cramer
    numerators; it meets row k when a_k*s_n + b_k*t_n + c_k*det >= 0, which
    is the orientation test alpha*c_j + beta*c_i + det*c_k >= 0 on the
    table's coefficients, so s_n and t_n are formed only for the vertices
    that meet every row.  When every c is positive, as for a base point
    inside M Delta, the rows with alpha, beta >= 0 hold by sign and are
    not tested.  Repeats are found by cross-multiplication, the centroid is
    taken over the product of the surviving dets, the vertices are sorted
    by the angle about it (stable, so vertices that tie in angle keep the
    pairs' order), and each float (a coordinate, or the angle's offset from
    the centroid) is one correctly rounded integer division of its exact
    value.
    """
    if table is None:
        return None  # M is singular
    # M^-1 has entries of size ~ norm(M)^(d-1), so forming it in floats and
    # multiplying cancels catastrophically once the section is much smaller
    # than the simplex; apply it exactly instead
    inv, q, flat, pairs = table
    base_n, S = _rational._numerators(base_point)
    if abs(sum(base_n) - S) * 10**9 > S:
        return None  # the plane misses the affine hull
    c = [sum(map(mul, row, base_n)) for row in inv]
    inside = min(c) > 0
    if not inside and any(c[i] < 0 for i in flat):
        return None
    # vertex enumeration stays exact: the section can sit 20+ orders of
    # magnitude below the chart scale, where any float clipping collapses
    verts: list[tuple[int, int, int]] = []
    for i, a1, b1, j, a2, b2, det, rest, signed in pairs:
        ci, cj = c[i], c[j]
        for k, alpha, beta in signed if inside else rest:
            if alpha * cj + beta * ci + det * c[k] < 0:
                break
        else:
            s_n = cj * b1 - ci * b2
            t_n = a2 * ci - a1 * cj
            for s, t, e in verts:
                if s_n * e == s * det and t_n * e == t * det:
                    break
            else:
                verts.append((s_n, t_n, det))
    n = len(verts)
    if n < 3:
        return None
    P = math.prod([e for _, _, e in verts])
    SP = S * P
    qx, qy = [], []  # vertex k is (qx[k], qy[k]) / SP
    for s, t, e in verts:
        w = q * (P // e)
        qx.append(s * w)
        qy.append(t * w)
    cx, cy = sum(qx), sum(qy)  # n * SP times the centroid
    den = n * SP  # a vertex less the centroid is (n * qx - cx, n * qy - cy) / den
    keys = [math.atan2((n * y - cy) / den, (n * x - cx) / den) for x, y in zip(qx, qy)]
    order = sorted(range(n), key=keys.__getitem__)
    return Polygon2D([(qx[k] / SP, qy[k] / SP) for k in order])


def _polytope_halfspaces(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) with the hull of the (k, n) ``vertices`` = {x : A x <= b}.

    Any n of the vertices lie on a hyperplane whose unit normal is a null
    vector of their differences; a row is emitted for each such hyperplane
    that has every vertex on one side, up to 1e-9 of the largest coordinate.
    Every facet is one of them and every other one still supports the hull,
    so no general position is assumed: a facet of more than n vertices
    comes once per n of them.
    """
    import numpy as np

    n = vertices.shape[1]
    pts = vertices[list(combinations(range(len(vertices)), n))]  # (subsets, n, n)
    a = np.linalg.svd(pts[:, 1:] - pts[:, :1])[2][:, -1]
    b = (a * pts[:, 0]).sum(1)
    res = vertices @ a.T - b  # (k, subsets)
    tol = 1e-9 * np.abs(vertices).max()
    below, above = (res <= tol).all(0), (res >= -tol).all(0)
    return np.concatenate([a[below], -a[above]]), np.concatenate([b[below], -b[above]])


def plane_section_concavity_test(
    body,
    directions: np.ndarray,
    eps: float,
    samples: int,
    seed: int = 0,
) -> McReport:
    """Fraction of parallel-plane sections with area below eps * max area.

    ``body`` is a ball, {"ball": R, "dim": n}, or the (k, n) vertices of a
    polytope.  ``directions`` is a 2 x n array spanning the plane;
    translates are sampled uniformly over the bounding box of the body's
    projection onto the orthocomplement.  The report is
    ``analysis._binomial_report`` over the planes that meet the body, with
    claim_bound = CONCAVITY_CONSTANT * sqrt(eps): its estimate is the
    fraction, its samples the planes that met the body, and its verdict the
    3-sigma rule of every Monte Carlo check.  When no sampled plane meets
    the body the estimate is NaN and the verdict inconclusive.
    """
    import numpy as np

    from ._floats import seed_entropy
    from .analysis import _binomial_report  # analysis imports this module

    if not 0 < eps <= 1:
        raise UsageError("eps must be in (0, 1]")
    rng = np.random.default_rng(seed_entropy(seed))
    if isinstance(body, dict) and "ball" in body:
        # exact ball sections: area pi (R^2 - r^2) at offset radius r
        radius = float(body["ball"])
        n = int(body["dim"])
        offsets = rng.uniform(-radius, radius, size=(samples, n - 2))
        r2 = (offsets**2).sum(axis=1)
        areas = np.pi * np.clip(radius**2 - r2, 0.0, None)
    else:
        vertices = np.asarray(body, dtype=float)
        A, b = _polytope_halfspaces(vertices)
        n = A.shape[1]
        chart_q, _ = np.linalg.qr(np.asarray(directions, dtype=float).T)
        chart = chart_q.T[:2]
        # orthocomplement basis
        full, _ = np.linalg.qr(np.hstack([chart.T, np.eye(n)]))
        comp = full[:, 2:n].T
        # bounding box of the body's projection, from its vertices
        proj = vertices @ comp.T
        lo, hi = proj.min(axis=0), proj.max(axis=0)
        points = rng.uniform(lo, hi, size=(samples, n - 2)) @ comp
        step = max(1, 2 * _BLOCK // len(A) ** 3)  # pairs * rows < m^3 / 2
        areas = np.concatenate([np.zeros(0)] + [
            _clip_planes(-(A @ chart.T), b - points[k : k + step] @ A.T)[2]
            for k in range(0, samples, step)
        ])
    hit = areas[areas > 0]
    small = int(np.count_nonzero(hit < eps * hit.max(initial=0.0)))
    bound = CONCAVITY_CONSTANT * float(np.sqrt(eps))
    return _binomial_report(small, len(hit), seed, bound)
