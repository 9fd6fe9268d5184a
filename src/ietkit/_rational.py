"""Small exact linear-algebra kit over ``fractions.Fraction``.

Matrices are tuples of row tuples.  Everything here is O(n^3) dense Gaussian
elimination, which is fine: the dimensions in this package never exceed a few
dozen.  Floats are deliberately absent; callers convert at the boundary.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_vec(m: Mat, v: Sequence) -> Vec:
    return tuple(sum(x * Fraction(y) for x, y in zip(row, v)) for row in m)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0))


def det(m: Mat) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
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


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place RREF; returns (reduced rows, pivot column indices)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
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


def nullspace(m: Mat) -> list[Vec]:
    """Basis of {x : m x = 0}."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _row_reduce([list(row) for row in m])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, p in enumerate(pivots):
            x[p] = -rows[r][f]
        basis.append(tuple(x))
    return basis


def column_space_basis(m: Mat) -> list[Vec]:
    """Basis of the column space, as columns of the original matrix."""
    cols = transpose(m)
    _, pivots = _row_reduce([list(row) for row in m])
    return [cols[p] for p in pivots]


def solve(m: Mat, b: Sequence) -> Vec | None:
    """One solution of m x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    ncols = len(m[0])
    aug = [list(row) + [Fraction(b_i)] for row, b_i in zip(m, b)]
    rows, pivots = _row_reduce(aug)
    # pivot in the augmented column means inconsistency
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return tuple(x)


def inverse(m: Mat) -> Mat:
    """m^-1, exact; ZeroDivisionError when m is singular.

    Fraction-free Gauss-Jordan (Bareiss) on L * [m | I] over the integers,
    with L the least common denominator of m.  Every division is exact, so
    no gcd is taken until the last step: the left block ends as p * I and
    the right one as p * m^-1, with p = +-det(L * m).
    """
    n = len(m)
    L = math.lcm(*(x.denominator for row in m for x in row))
    a = [
        [x.numerator * (L // x.denominator) for x in row]
        + [L if j == i else 0 for j in range(n)]
        for i, row in enumerate(m)
    ]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        p = top[k]
        for i, row in enumerate(a):
            if i != k:  # the columns before k are done: zero off the diagonal
                f = row[k]
                row[k:] = [(p * x - f * y) // prev for x, y in zip(row[k:], top[k:])]
        prev = p
    return tuple(tuple(Fraction(x, prev) for x in row[n:]) for row in a)


def lp_feasible(
    eq_lhs: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
    nonneg: Sequence[bool],
) -> list[Fraction] | None:
    """Exact feasibility for {A x = b, x_i >= 0 for flagged i}.

    Phase-one simplex with Bland's rule over Fractions.  Free variables are
    split into positive and negative parts.  Returns a feasible x or None.
    """
    nvars = len(nonneg)
    # map to all-nonnegative variables
    col_of: list[tuple[int, int | None]] = []  # (plus column, minus column)
    ncols = 0
    for flag in nonneg:
        if flag:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    rows = []
    rhs = []
    for lhs_row, b in zip(eq_lhs, eq_rhs):
        row = [Fraction(0)] * ncols
        for x_i, coeff in enumerate(lhs_row):
            plus, minus = col_of[x_i]
            row[plus] += Fraction(coeff)
            if minus is not None:
                row[minus] -= Fraction(coeff)
        b = Fraction(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    m = len(rows)
    # tableau with artificial variables; minimize their sum
    total = ncols + m
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [ncols + i for i in range(m)]
    # reduced cost row for min(sum of artificials): start from the raw costs
    # (1 on artificial columns) and subtract each constraint row once so the
    # basic artificials get reduced cost 0
    cost = [Fraction(0)] * ncols + [Fraction(1)] * m + [Fraction(0)]
    for row in tab:
        for j in range(total + 1):
            cost[j] -= row[j]
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        # ratio test, Bland tie-break on basis index
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None  # unbounded phase 1: cannot happen, treat as infeasible
        p = tab[leave][enter]
        tab[leave] = [x / p for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if -cost[total] != 0:
        return None
    sol = [Fraction(0)] * ncols
    for i, b_i in enumerate(basis):
        if b_i < ncols:
            sol[b_i] = tab[i][total]
    out = []
    for plus, minus in col_of:
        val = sol[plus] - (sol[minus] if minus is not None else Fraction(0))
        out.append(val)
    return out
