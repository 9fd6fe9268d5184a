"""The exact linear-algebra kit: the one fraction-free elimination against
Gaussian elimination over Fractions."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ietkit import _rational
from ietkit.induction import VisitationMatrix


def reference_inverse(m):
    """Gauss-Jordan over Fractions on [m | I]: m^-1, or None when m is
    singular."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def times(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def reference_det(m):
    """Gaussian elimination over Fractions."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return sign * result


def reference_row_reduce(rows):
    """RREF over Fractions: (reduced rows, pivot column indices)."""
    rows = [list(row) for row in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_nullspace(m):
    ncols = len(m[0])
    rows, pivots = reference_row_reduce(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, p in enumerate(pivots):
            x[p] = -rows[r][f]
        basis.append(tuple(x))
    return basis


def reference_solve(m, b):
    ncols = len(m[0])
    rows, pivots = reference_row_reduce([[*row, b_i] for row, b_i in zip(m, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return tuple(x)


# mostly-zero matrices need row swaps deep into the elimination and are
# often singular; the others rarely are either
sparse = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
integers = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))
rationals = st.one_of(
    integers, st.fractions(min_value=-20, max_value=20, max_denominator=50)
)


@st.composite
def matrices(draw, rows, cols):
    """rows x cols over one entry kind, at times with a zero column or with
    its last row a combination of the others (rank-deficient)."""
    entries = draw(st.sampled_from([sparse, integers, rationals]))
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    m = [[Fraction(x) for x in row] for row in m]
    if draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in m:
            row[zero] = Fraction(0)
    if rows > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(integers, min_size=rows - 1, max_size=rows - 1))
        m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(cols)]
    return _rational.mat(m)


def square_matrices():
    return st.integers(1, 7).flatmap(lambda d: matrices(d, d))


def any_matrices():
    return st.tuples(st.integers(1, 6), st.integers(1, 7)).flatmap(
        lambda shape: matrices(*shape)
    )


def check_against_reference(m):
    want = reference_inverse(m)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            _rational.inverse(m)
        return
    got = _rational.inverse(m)
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)


@given(square_matrices())
def test_inverse_matches_fraction_gauss_jordan(m):
    check_against_reference(m)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],  # zero leading pivot: a row swap, and det = -1
        [[0, 0, 2], [0, 3, 1], [5, 1, 1]],  # two swaps in a row
        [[Fraction(1, 2), 3], [Fraction(7, 3), -1]],  # rational, det < 0
        [[2, 1, 0], [1, 2, 1], [0, 1, -5]],  # det = -16: no unit pivot
        [[-7]],
    ],
)
def test_inverse_with_swaps_and_negative_determinants(rows):
    m = _rational.mat(rows)
    assert _rational.det(m) < 0 or m[0][0] == 0
    check_against_reference(m)
    n = len(m)
    product = [[_rational.dot(row, col) for col in zip(*_rational.inverse(m))] for row in m]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        [[1, 2], [2, 4]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # no pivot in the first column
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # dependent rows, no zero column
        [[Fraction(1, 3), 1], [Fraction(1, 2), Fraction(3, 2)]],
    ],
)
def test_singular_inverse_raises_zero_division(rows):
    with pytest.raises(ZeroDivisionError):
        _rational.inverse(_rational.mat(rows))


def test_inverse_of_a_visitation_matrix_is_integer():
    M = VisitationMatrix.identity(6)
    for winner, loser in [(1, 6), (6, 2), (3, 1), (2, 5), (6, 3), (4, 2)] * 3:
        M = M @ VisitationMatrix.elementary(6, winner, loser)
    inv = _rational.inverse(_rational.mat(M.rows))
    assert inv == reference_inverse(_rational.mat(M.rows))
    assert all(x.denominator == 1 for row in inv for x in row)


@given(square_matrices())
def test_det_matches_fraction_elimination(m):
    assert _rational.det(m) == reference_det(m)
    assert type(_rational.det(m)) is Fraction


@given(any_matrices())
def test_nullspace_and_column_space_match_fraction_rref(m):
    assert _rational.nullspace(m) == reference_nullspace(m)
    _, pivots = reference_row_reduce(m)
    assert _rational.column_space_basis(m) == [tuple(row[c] for row in m) for c in pivots]
    for x in _rational.nullspace(m):
        assert times(m, x) == (0,) * len(m)


@given(any_matrices(), st.data())
def test_solve_matches_fraction_rref(m, data):
    # b in the column space (consistent), or any b (mostly inconsistent when
    # m is rank-deficient)
    if data.draw(st.booleans()):
        x = data.draw(st.lists(integers, min_size=len(m[0]), max_size=len(m[0])))
        b = times(m, x)
    else:
        b = data.draw(st.lists(rationals, min_size=len(m), max_size=len(m)))
    want = reference_solve(m, b)
    got = _rational.solve(m, b)
    assert got == want
    if got is not None:
        assert times(m, got) == tuple(b)


@pytest.mark.parametrize(
    "rows, b",
    [
        ([[1, 2], [2, 4]], [1, 3]),  # parallel rows, b off their line
        ([[0, 0], [0, 0]], [0, 1]),  # zero matrix
        ([[1, 0, 0], [0, 0, 0]], [5, 2]),  # zero row, non-zero right side
    ],
)
def test_inconsistent_systems_have_no_solution(rows, b):
    assert reference_solve(_rational.mat(rows), b) is None
    assert _rational.solve(rows, b) is None


def test_raw_integer_rows_need_no_wrapping():
    rows = [[2, 10**30, 0], [1, 0, 3], [0, 7, 1]]
    m = _rational.mat(rows)
    assert _rational.det(rows) == reference_det(m)
    assert _rational.solve(rows, [1, 2, 3]) == reference_solve(m, [1, 2, 3])
    assert _rational.nullspace(rows) == reference_nullspace(m) == []
    assert _rational.inverse(rows) == reference_inverse(m)


def test_visitation_matrix_det_is_an_int():
    M = VisitationMatrix.identity(5)
    for winner, loser in [(1, 5), (5, 2), (3, 1), (2, 4)] * 4:
        M = M @ VisitationMatrix.elementary(5, winner, loser)
    assert type(M.det()) is int and M.det() == 1
    swap = VisitationMatrix([[0, 1], [1, 0]])
    assert type(swap.det()) is int and swap.det() == -1


@st.composite
def projection_inputs(draw):
    """A vector x and up to three vectors to project out, of one length."""
    n = draw(st.integers(1, 6))
    entries = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(entries), draw(st.lists(entries, max_size=3))


@given(projection_inputs(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_project_out_is_the_orthogonal_projection(inputs, coeffs):
    x, vectors = inputs
    y = _rational.project_out(x, vectors)
    assert all(type(e) is Fraction for e in y)
    for v in vectors:
        assert _rational.dot(y, v) == 0
    # what was taken off lies in the span, and projecting again changes nothing
    assert not any(_rational.project_out([a - b for a, b in zip(x, y)], vectors))
    assert _rational.project_out(y, vectors) == y
    # a vector already in the span changes nothing
    dependent = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(len(x))]
    assert _rational.project_out(x, [*vectors, dependent]) == y


def test_project_out_of_no_vectors_is_the_identity():
    x = [1, Fraction(2, 3), 0.5]
    assert _rational.project_out(x, []) == (1, Fraction(2, 3), Fraction(1, 2))


def test_project_out_needs_no_orthogonal_basis():
    # the plane {x_1 = x_2} through two non-orthogonal spanning vectors
    assert _rational.project_out([1, 0, 0], [[1, 1, 0], [1, 1, 1]]) == (
        Fraction(1, 2), Fraction(-1, 2), 0)
