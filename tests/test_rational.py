"""The exact linear-algebra kit: the fraction-free inverse against Fractions."""
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


# mostly-zero matrices need row swaps deep into the elimination and are
# often singular; the others rarely are either
sparse = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
integers = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))
rationals = st.one_of(
    integers, st.fractions(min_value=-20, max_value=20, max_denominator=50)
)


@st.composite
def square_matrices(draw):
    d = draw(st.integers(1, 7))
    entries = draw(st.sampled_from([sparse, integers, rationals]))
    return _rational.mat(
        draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
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
