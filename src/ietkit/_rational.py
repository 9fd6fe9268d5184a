"""Small exact linear-algebra kit over the rationals.

Matrices are sequences of rows; entries may be ints, ``Fraction``s or
floats (read exactly).  ``det``, ``inverse``, ``scaled_inverse``, ``solve``,
``nullspace`` and ``column_space_basis`` all read their result off one
elimination; ``project_out`` is one ``solve`` of normal equations.  The
elimination is ``_eliminate``: fraction-free Gauss-Jordan (Bareiss) on the
entries as integers over one common denominator, so no gcd is taken until a
result is built.  It is O(n^3) integer work, which is fine: the dimensions
in this package never exceed a few dozen.  Floats are deliberately absent
from results; callers convert at the boundary.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def dot(u: Sequence, v: Sequence) -> Fraction | int:
    """u . v of ints and ``Fraction``s, which multiply exactly as they are;
    floats go through ``vec`` first."""
    return sum(map(operator.mul, u, v))


def _numerators(values: Sequence) -> tuple[list[int], int]:
    """The rationals ``values`` (floats read exactly) as integer numerators
    over their least common denominator, and that denominator.  Ints and
    ``Fraction``s are read as they are, with no conversion."""
    fs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    q = math.lcm(*(f.denominator for f in fs))
    return [f.numerator * (q // f.denominator) for f in fs], q


def _eliminate(rows: Sequence[Sequence], width: int | None = None):
    """Fraction-free Gauss-Jordan on q * rows: (rows, pivots, p, sign, q).

    q is the least common denominator of the entries.  Columns are taken in
    order, up to ``width`` (all by default); one with no non-zero entry
    below the pivot rows found so far is skipped.  Each step makes every
    other row ``(p * row - f * top) // prev``, with p the new pivot and prev
    the one before; every division is exact (Bareiss, Math. Comp. 22, 1968),
    since each entry stays a minor of q * rows.  So the pivot rows end as
    p * RREF, with ``pivots`` their columns, and the other rows as zeros up
    to ``width``.  For a square matrix of full rank, ``sign`` * p is the
    determinant of q * rows, ``sign`` the parity of the row swaps; p is 1
    before the first pivot.
    """
    ncols = len(rows[0]) if rows else 0
    nums, q = _numerators([x for row in rows for x in row])
    a = [nums[i * ncols : (i + 1) * ncols] for i in range(len(rows))]
    pivots: list[int] = []
    prev = sign = 1
    for c in range(ncols if width is None else width):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a, pivots, prev, sign, q


def det(m: Sequence[Sequence]) -> Fraction:
    """Determinant of the square matrix m, exact."""
    _, pivots, p, sign, q = _eliminate(m)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * p, q ** len(m))


def nullspace(m: Sequence[Sequence]) -> list[Vec]:
    """Basis of {x : m x = 0}; none when m has no rows."""
    ncols = len(m[0]) if m else 0
    rows, pivots, p, _, _ = _eliminate(m)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            x[c] = Fraction(-row[f], p)
        basis.append(tuple(x))
    return basis


def column_space_basis(m: Sequence[Sequence]) -> list[Vec]:
    """Basis of the column space, as columns of the original matrix."""
    return [vec(row[c] for row in m) for c in _eliminate(m)[1]]


def solve(m: Sequence[Sequence], b: Sequence) -> Vec | None:
    """One solution of m x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    ncols = len(m[0])
    rows, pivots, p, _, _ = _eliminate([[*row, b_i] for row, b_i in zip(m, b)])
    # pivot in the augmented column means inconsistency
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[ncols], p)
    return tuple(x)


def project_out(x: Sequence, vectors: Sequence[Sequence]) -> Vec:
    """x less its orthogonal projection onto the span of ``vectors``.

    That is x - N c, N the matrix with ``vectors`` as columns and c a
    solution of N^T N c = N^T x.  The normal equations are consistent and N c
    is the same for every solution, so the vectors need be neither
    orthogonal nor independent.  No vectors span {0}: x comes back as it is.
    """
    x, n = vec(x), mat(vectors)
    if not n:
        return x
    c = solve([[dot(a, b) for b in n] for a in n], [dot(a, x) for a in n])
    return tuple(xi - dot(c, col) for xi, col in zip(x, zip(*n)))


def scaled_inverse(m: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D * m^-1) with D > 0 the last pivot's size and D * m^-1 an
    integer matrix; ZeroDivisionError when m is singular.

    The elimination runs on [m | I] over the common denominator of m, so
    the right block ends as +-D * m^-1.  D is |det(q * m)|: 1 for a
    unimodular integer matrix.
    """
    n = len(m)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    rows, pivots, p, _, _ = _eliminate(aug, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    s = -1 if p < 0 else 1
    return s * p, tuple(tuple(s * x for x in row[n:]) for row in rows)


def inverse(m: Sequence[Sequence]) -> Mat:
    """m^-1, exact; ZeroDivisionError when m is singular."""
    D, scaled = scaled_inverse(m)
    return tuple(tuple(Fraction(x, D) for x in row) for row in scaled)
