"""The (possibly degenerate) skew form attached to a permutation pair.

Convention: Omega[a][b] = +1 when symbol a precedes b on the top row and
follows b on the bottom row, -1 in the mirrored case, 0 otherwise.  The
cocycle transports the form exactly: M^T Omega_pi M = Omega_pi'.  On the
image of the form the transported matrix is symplectic, which forces its
singular values into reciprocal pairs; we verify that numerically after an
exact change to Darboux coordinates.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

from . import _rational
from ._record import Record
from .errors import DegeneracyError, IetkitError, UsageError
from .induction import VisitationMatrix
from .perm import LabeledPermutation, ReducibilityError


class SymplecticForm(Record):
    __slots__ = (
        "perm",
        "matrix",  # skew integer matrix
        "image_basis",  # rational, spans Im
        "kernel_basis",
    )

    @property
    def d(self) -> int:
        return len(self.matrix)

    @property
    def rank(self) -> int:
        return self.d - len(self.kernel_basis)

    def apply(self, u, v) -> Fraction:
        """The bilinear form u^T Omega v."""
        return sum(
            Fraction(u[i]) * self.matrix[i][j] * Fraction(v[j])
            for i in range(self.d)
            for j in range(self.d)
        )

    def image_preimage(self, w) -> tuple[Fraction, ...]:
        """The y in Im(Omega) with Omega y = proj_Im(w): the restricted
        inverse.

        Image and kernel are orthogonal complements for a skew form, and
        Omega is non-degenerate on its image, so with B the ``image_basis``
        the Gram matrix B^T Omega B is invertible.  y = B c for the c with
        (B^T Omega B) c = B^T w; then Omega y - w is orthogonal to Im, so it
        lies in the kernel.  B holds columns of Omega, so the Gram matrix is
        integer; with w and c as numerators over q and p, so is everything up
        to the one division of each entry of y.
        """
        B = [tuple(map(int, b)) for b in self.image_basis]
        omega_b = [[_rational.dot(row, b) for row in self.matrix] for b in B]
        gram = [[_rational.dot(bi, ob) for ob in omega_b] for bi in B]
        w, q = _rational._numerators(w)
        c, p = _rational._numerators(_rational.solve(gram, [_rational.dot(b, w) for b in B]))
        return tuple(Fraction(_rational.dot(c, col), p * q) for col in zip(*B))


_SKEWS: dict[LabeledPermutation, tuple[tuple[int, ...], ...]] = {}


def _skew_matrix(pi: LabeledPermutation) -> tuple[tuple[int, ...], ...]:
    """The integer matrix of the form, by the convention above; built once
    per irreducible pair, and refused on every call for a reducible one."""
    m = _SKEWS.get(pi)
    if m is None:
        if not pi.is_irreducible():
            raise ReducibilityError(f"reducible permutation {pi}")
        top = {s: k for k, s in enumerate(pi.top)}
        bottom = {s: k for k, s in enumerate(pi.bottom)}
        symbols = range(1, pi.d + 1)
        m = _SKEWS[pi] = tuple(
            tuple((top[a] < top[b]) - (bottom[a] < bottom[b]) for b in symbols)
            for a in symbols
        )
    return m


def omega(pi: LabeledPermutation) -> SymplecticForm:
    """Build the skew form for a permutation pair."""
    m = _skew_matrix(pi)
    kernel = _rational.nullspace(m)
    image = _rational.column_space_basis(m)
    return SymplecticForm(pi, m, tuple(image), tuple(kernel))


def verify_invariance(
    M: VisitationMatrix, pi: LabeledPermutation, pi_prime: LabeledPermutation
) -> bool:
    """Exact integer check of M^T Omega_pi M == Omega_pi'.

    Both sides are skew with a zero diagonal, so the strict upper triangle
    decides.  Omega M adds and subtracts rows of M (Omega's entries are 0 and
    +-1); entry (i, j) is column i of M dotted with column j of Omega M."""
    om = _skew_matrix(pi)
    om_prime = _skew_matrix(pi_prime)
    rows = M.rows
    d = len(rows)
    zero = (0,) * d
    product = []  # the rows of Omega M
    for signs in om:
        acc = zero
        for s, row in zip(signs, rows):
            if s > 0:
                acc = tuple(map(add, acc, row))
            elif s < 0:
                acc = tuple(map(sub, acc, row))
        product.append(acc)
    cols, product_cols = tuple(zip(*rows)), tuple(zip(*product))
    for i in range(d - 1):
        col, target = cols[i], om_prime[i]
        for j in range(i + 1, d):
            if sum(map(mul, col, product_cols[j])) != target[j]:
                return False
    return True


def darboux_basis(form: SymplecticForm) -> list[tuple[Fraction, ...]]:
    """Exact basis (u_1, v_1, u_2, v_2, ...) of Im with form(u_i, v_i) = 1.

    Standard symplectic Gram-Schmidt over the rationals.
    """
    pool = [tuple(v) for v in form.image_basis]
    out: list[tuple[Fraction, ...]] = []
    while pool:
        u = pool.pop(0)
        partner = next((i for i, w in enumerate(pool) if form.apply(u, w) != 0), None)
        if partner is None:
            raise DegeneracyError("form degenerate on its own image")
        v = pool.pop(partner)
        scale = form.apply(u, v)
        v = tuple(x / scale for x in v)
        out.extend([u, v])
        reduced = []
        for w in pool:
            c_u = form.apply(u, w)
            w = tuple(wi - c_u * vi for wi, vi in zip(w, v))
            c_v = form.apply(v, w)
            w = tuple(wi + c_v * ui for wi, ui in zip(w, u))
            reduced.append(w)
        pool = reduced
    return out


class PairingReport(Record):
    __slots__ = (
        "values",
        "pairs",
        "defect",
        "restricted_det",
    )


def _restricted_matrix(
    M: VisitationMatrix, form: SymplecticForm, form_prime: SymplecticForm
) -> list[list[Fraction]]:
    """Coordinates of the induced map in Darboux bases of both images.

    With D, D' Darboux for Omega_pi, Omega_pi', the columns of M D' decompose
    as D S + (kernel of Omega_pi part); S is exactly symplectic w.r.t. the
    standard form, so its singular values pair reciprocally up to float error.
    The form reads the coordinates off: in D = (u_1, v_1, ...), the
    u_i-coordinate of x is Omega(x, v_i), its v_i-coordinate is
    -Omega(x, u_i), and the kernel part pairs to 0.
    """
    D = darboux_basis(form)
    duals = [D[i + 1] if i % 2 == 0 else tuple(-x for x in D[i - 1]) for i in range(len(D))]
    targets = [M.mat_vec(w) for w in darboux_basis(form_prime)]
    return [[form.apply(x, dual) for x in targets] for dual in duals]


def reciprocal_pairing(
    M: VisitationMatrix, pi: LabeledPermutation, pi_prime: LabeledPermutation
) -> PairingReport:
    """Singular values of the cocycle restricted to the form's image.

    The restricted matrix has even size, since ``darboux_basis`` returns
    (u, v) pairs.  Greedy pairing: repeatedly match the largest unpaired
    value with the value closest to its reciprocal, and report
    max |a * a_paired - 1|.
    Small singular values are recovered as reciprocals of the large singular
    values of the exact inverse, which keeps their relative accuracy.
    """
    import numpy as np

    if not verify_invariance(M, pi, pi_prime):
        raise UsageError("invariance M^T Omega M = Omega' fails for this path")
    form, form_prime = omega(pi), omega(pi_prime)
    if form.rank != form_prime.rank:
        raise IetkitError("rank mismatch between the two forms")
    S = _restricted_matrix(M, form, form_prime)
    S_float = np.array([[float(x) for x in row] for row in S])
    n = len(S)
    svals = np.linalg.svd(S_float, compute_uv=False)
    S_inv = _rational.inverse(S)
    inv_vals = np.linalg.svd(
        np.array([[float(x) for x in row] for row in S_inv]), compute_uv=False
    )
    # top half from S, bottom half from 1/svd(S^{-1}), both relatively accurate
    merged = sorted(
        list(svals[: n // 2]) + [1.0 / v for v in inv_vals[: n // 2]],
        reverse=True,
    )
    values = tuple(merged)
    unpaired = list(range(n))
    pairs = []
    defect = 0.0
    while unpaired:
        i = unpaired.pop(0)
        j = min(unpaired, key=lambda k: abs(values[k] - 1.0 / values[i]))
        unpaired.remove(j)
        pairs.append((i, j))
        defect = max(defect, abs(values[i] * values[j] - 1.0))
    restricted_det = abs(float(np.linalg.det(S_float)))
    return PairingReport(values, tuple(pairs), defect, restricted_det)
