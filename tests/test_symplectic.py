"""The permutation skew form, its transport, and reciprocal pairing."""
from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ietkit import symplectic
from ietkit.induction import BOTTOM_WINS, TOP_WINS, VisitationMatrix, drive_path
from ietkit.perm import (
    _DIAGRAM,
    LabeledPermutation,
    ReducibilityError,
    hyperelliptic_class,
    hyperelliptic_permutation,
    rauzy_class,
)
from ietkit.symplectic import (
    darboux_basis,
    omega,
    reciprocal_pairing,
    verify_invariance,
)


def random_path(d: int, length: int, seed: int):
    rng = Random(seed)
    pi = hyperelliptic_permutation(d)
    sides = [rng.choice([TOP_WINS, BOTTOM_WINS]) for _ in range(length)]
    M, pi_end, _ = drive_path(pi, sides)
    return M, pi, pi_end


def test_form_is_skew():
    form = omega(hyperelliptic_permutation(5))
    m = form.matrix
    for i in range(5):
        assert m[i][i] == 0
        for j in range(5):
            assert m[i][j] == -m[j][i]


@pytest.mark.parametrize("d,rank", [(2, 2), (3, 2), (4, 4), (5, 4)])
def test_form_rank(d, rank):
    assert omega(hyperelliptic_permutation(d)).rank == rank


def test_reducible_rejected():
    with pytest.raises(ReducibilityError):
        omega(LabeledPermutation((1, 2, 3), (2, 1, 3)))


def test_invariance_exact_on_random_paths():
    for seed in range(20):
        M, pi, pi_end = random_path(4, 25, seed)
        assert verify_invariance(M, pi, pi_end)


def test_invariance_fails_for_wrong_target():
    M, pi, pi_end = random_path(4, 10, 3)
    graph = hyperelliptic_class(4)
    wrong = next(v for v in graph.vertices if v != pi_end)
    # the transported form matches exactly one permutation's form here
    assert not verify_invariance(M, pi, wrong) or omega(wrong).matrix == omega(pi_end).matrix


def test_darboux_pairs_to_one():
    form = omega(hyperelliptic_permutation(4))
    basis = darboux_basis(form)
    assert len(basis) == form.rank
    for k in range(0, len(basis), 2):
        assert form.apply(basis[k], basis[k + 1]) == 1
    # off-pair values vanish
    for i in range(len(basis)):
        for j in range(len(basis)):
            expected = 0
            if i % 2 == 0 and j == i + 1:
                expected = 1
            elif i % 2 == 1 and j == i - 1:
                expected = -1
            assert form.apply(basis[i], basis[j]) == expected


def test_image_preimage_solves_on_image():
    form = omega(hyperelliptic_permutation(4))
    w = (Fraction(1), Fraction(2), Fraction(0), Fraction(-1))
    y = form.image_preimage(w)
    # Omega y equals the image-projection of w: applying the form to the
    # kernel directions of both sides gives zero
    image = tuple(
        sum(Fraction(form.matrix[i][j]) * y[j] for j in range(4)) for i in range(4)
    )
    for k in form.kernel_basis:
        assert sum(a * b for a, b in zip(image, k)) == 0


def test_reciprocal_pairing_defect_small():
    M, pi, pi_end = random_path(4, 30, 7)
    rep = reciprocal_pairing(M, pi, pi_end)
    assert rep.defect < 1e-8
    assert rep.restricted_det == pytest.approx(1.0, abs=1e-9)
    for i, j in rep.pairs:
        assert rep.values[i] * rep.values[j] == pytest.approx(1.0, abs=1e-8)


def test_pairing_on_longer_d5_path():
    M, pi, pi_end = random_path(5, 30, 11)
    rep = reciprocal_pairing(M, pi, pi_end)
    assert rep.defect < 1e-8


def test_invariance_check_builds_no_bases(monkeypatch):
    from ietkit import _rational

    def forbidden(*args):
        raise AssertionError("verify_invariance reduced a matrix it never reads")

    monkeypatch.setattr(_rational, "nullspace", forbidden)
    monkeypatch.setattr(_rational, "column_space_basis", forbidden)
    M, pi, pi_end = random_path(6, 20, 1)
    assert verify_invariance(M, pi, pi_end)
    with pytest.raises(ReducibilityError):
        verify_invariance(M, LabeledPermutation((1, 2, 3), (2, 1, 3)), pi_end)


def reference_invariance(M, pi, pi_prime) -> bool:
    """The full triple product M^T Omega_pi M against Omega_pi', all d^2
    entries, with each form built from the convention on its own."""

    def form(p):
        if not p.is_irreducible():
            raise ReducibilityError(f"reducible permutation {p}")
        return [[(p.top.index(a) < p.top.index(b))
                 - (p.bottom.index(a) < p.bottom.index(b))
                 for b in range(1, p.d + 1)] for a in range(1, p.d + 1)]

    om, om_prime = form(pi), form(pi_prime)
    d, rows = M.d, M.rows
    tmp = [[sum(om[a][b] * rows[b][j] for b in range(d)) for j in range(d)]
           for a in range(d)]
    lhs = [[sum(rows[a][i] * tmp[a][j] for a in range(d)) for j in range(d)]
           for i in range(d)]
    return lhs == om_prime


@st.composite
def irreducible_pairs(draw):
    """A drawn irreducible pair, d = 2..7."""
    d = draw(st.integers(2, 7))
    top = draw(st.permutations(range(1, d + 1)))
    bottom = draw(st.permutations(range(1, d + 1)).filter(
        lambda b: LabeledPermutation(tuple(top), tuple(b)).is_irreducible()))
    return LabeledPermutation(tuple(top), tuple(bottom))


@st.composite
def diagram_paths(draw):
    """A path of drawn sides from a drawn irreducible pair, d = 2..7."""
    pi = draw(irreducible_pairs())
    sides = draw(st.lists(st.sampled_from([TOP_WINS, BOTTOM_WINS]), max_size=40))
    M, pi_end, _ = drive_path(pi, sides)
    return M, pi, pi_end


@settings(max_examples=200, deadline=None)
@given(path=diagram_paths(), data=st.data())
def test_invariance_matches_full_triple_product(path, data):
    M, pi, pi_end = path
    assert verify_invariance(M, pi, pi_end) is reference_invariance(M, pi, pi_end) is True
    # a perturbed matrix
    d = M.d
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    delta = data.draw(st.sampled_from([-2, -1, 1, 3]))
    rows = [list(r) for r in M.rows]
    rows[i][j] += delta
    bent = VisitationMatrix(rows)
    assert verify_invariance(bent, pi, pi_end) == reference_invariance(bent, pi, pi_end)
    # another vertex of the class as the target
    wrong = data.draw(st.sampled_from(rauzy_class(pi).vertices))
    assert verify_invariance(M, pi, wrong) == reference_invariance(M, pi, wrong)


def test_invariance_false_cases_occur():
    M, pi, pi_end = random_path(5, 12, 4)
    rows = [list(r) for r in M.rows]
    rows[0][1] += 1
    assert not verify_invariance(VisitationMatrix(rows), pi, pi_end)
    wrong = next(v for v in hyperelliptic_class(5).vertices
                 if omega(v).matrix != omega(pi_end).matrix)
    assert not verify_invariance(M, pi, wrong)
    assert not reference_invariance(M, pi, wrong)


def test_reducible_pair_raises_on_every_call():
    reducible = LabeledPermutation((1, 2, 3), (2, 1, 3))
    pi = hyperelliptic_permutation(3)
    M = VisitationMatrix.identity(3)
    for _ in range(3):
        for args in ((M, reducible, pi), (M, pi, reducible)):
            with pytest.raises(ReducibilityError):
                verify_invariance(*args)
        with pytest.raises(ReducibilityError):
            omega(reducible)
    assert reducible not in _DIAGRAM.ids


def test_invariance_reads_only_the_upper_triangle():
    """Both sides are skew, so the target form's diagonal and lower
    triangle must not be read."""
    M, pi, pi_end = random_path(6, 20, 9)
    assert verify_invariance(M, pi, pi_end)
    form = symplectic._SKEWS[pi_end]
    garbled = tuple(tuple(x if i < j else 7 for j, x in enumerate(row))
                    for i, row in enumerate(form))
    symplectic._SKEWS[pi_end] = garbled
    try:
        assert verify_invariance(M, pi, pi_end)
    finally:
        symplectic._SKEWS[pi_end] = form


def omega_times(form, y):
    return [sum(a * b for a, b in zip(row, y)) for row in form.matrix]


@settings(max_examples=100, deadline=None)
@given(pi=irreducible_pairs(), data=st.data())
def test_image_preimage_is_the_restricted_inverse(pi, data):
    """y lies in Im (it is orthogonal to the kernel) and Omega y - w lies in
    the kernel (it is orthogonal to Im): the two properties that fix y."""
    form = omega(pi)
    w = data.draw(st.lists(st.integers(-20, 20), min_size=pi.d, max_size=pi.d))
    y = form.image_preimage(w)
    for k in form.kernel_basis:
        assert sum(a * b for a, b in zip(y, k)) == 0
    residual = [a - b for a, b in zip(omega_times(form, y), w)]
    for b in form.image_basis:
        assert sum(a * c for a, c in zip(residual, b)) == 0


def test_image_preimage_with_a_three_dimensional_kernel():
    # the kernel basis the elimination returns is not orthogonal here
    form = omega(LabeledPermutation((1, 2, 3, 4, 5), (2, 3, 4, 5, 1)))
    assert form.rank == 2
    quarter = Fraction(1, 4)
    assert form.image_preimage((1, 0, 0, 0, 0)) == (0, quarter, quarter, quarter, quarter)
    assert form.image_preimage((1, 2, 3, 4, 5)) == (
        Fraction(-7, 2), quarter, quarter, quarter, quarter)


@pytest.mark.parametrize("pi", [
    hyperelliptic_permutation(4),
    hyperelliptic_permutation(5),
    LabeledPermutation((1, 2, 3, 4, 5), (2, 3, 4, 5, 1)),
])
@pytest.mark.parametrize("seed", range(4))
def test_restricted_matrix_decomposes_the_image(pi, seed):
    """Each column M d'_j less sum_i S_ij d_i is in the kernel of Omega_pi."""
    rng = Random(seed)
    M, pi_end, _ = drive_path(pi, [rng.choice([TOP_WINS, BOTTOM_WINS]) for _ in range(25)])
    form, form_prime = omega(pi), omega(pi_end)
    S = symplectic._restricted_matrix(M, form, form_prime)
    D = darboux_basis(form)
    for j, w in enumerate(darboux_basis(form_prime)):
        rest = [x - sum(S[i][j] * b[r] for i, b in enumerate(D))
                for r, x in enumerate(M.mat_vec(w))]
        assert not any(omega_times(form, rest))
