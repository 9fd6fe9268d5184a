"""Exact induction steps, the visitation cocycle, and orbits."""
from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ietkit.errors import BudgetExceededError, InductionUndefinedError
from ietkit.induction import (
    BOTTOM_WINS,
    TOP_WINS,
    Iet,
    VisitationMatrix,
    balanced,
    drive_path,
    induct,
    induct_until,
    norm_at_least,
    orbit,
    step,
)
from ietkit.perm import LabeledPermutation, hyperelliptic_permutation


def fib_like() -> Iet:
    """A 2-IET whose induction runs the Euclidean algorithm on 987/610."""
    return Iet.make(
        (Fraction(987, 1597), Fraction(610, 1597)), hyperelliptic_permutation(2)
    )


def generic_four() -> Iet:
    return Iet.make(
        (
            Fraction(509, 1009),
            Fraction(251, 1009),
            Fraction(151, 1009),
            Fraction(98, 1009),
        ),
        hyperelliptic_permutation(4),
    )


def test_single_step_winner():
    trace = induct(fib_like(), 1)
    assert trace.edges[0].winner == 1
    assert trace.edges[0].loser == 2
    assert trace.matrix.rows == ((1, 1), (0, 1))


def test_zero_steps_identity():
    trace = induct(fib_like(), 0)
    assert trace.matrix == VisitationMatrix.identity(2)
    assert trace.induced == trace.start


def test_length_identity_exact():
    T = generic_four()
    trace = induct(T, 25)
    assert trace.check_identity()
    assert trace.matrix.det() == 1


def test_equality_case_reports_step():
    T = Iet.make(
        (Fraction(3, 7), Fraction(2, 7), Fraction(1, 7), Fraction(1, 7)),
        hyperelliptic_permutation(4),
    )
    with pytest.raises(InductionUndefinedError) as exc:
        induct(T, 10)
    assert exc.value.steps_completed == 3
    assert exc.value.partial is not None
    assert exc.value.partial.steps == 3


def test_rational_rotation_collides():
    T = Iet.make((Fraction(1, 2), Fraction(1, 2)), hyperelliptic_permutation(2))
    with pytest.raises(InductionUndefinedError):
        step(T)


def test_column_sums_are_return_times():
    """Each column sum counts the steps in which that symbol lost or won."""
    T = fib_like()
    trace = induct(T, 6)
    # the column norms grow like continued-fraction denominators
    assert trace.matrix.column_norms() == (21, 13)


def test_until_balanced():
    trace = induct_until(generic_four(), balanced(10), step_budget=1000)
    assert trace.matrix.balance_ratio() <= 10


def test_until_norm_budget():
    with pytest.raises(BudgetExceededError):
        induct_until(fib_like(), norm_at_least(10**9), step_budget=5)


def test_drive_path_matches_induction():
    T = fib_like()
    trace = induct(T, 8)
    sides = [e.side for e in trace.edges]
    M, pi_end, _ = drive_path(T.perm, sides)
    assert M == trace.matrix
    assert pi_end == trace.induced.perm


def test_matrix_product_decomposition():
    T = fib_like()
    trace = induct(T, 5)
    M = VisitationMatrix.identity(2)
    for e in trace.edges:
        M = M.apply_step(e.winner, e.loser)
    assert M == trace.matrix


def test_orbit_rational_rotation_period():
    T = Iet.make((Fraction(2, 3), Fraction(1, 3)), hyperelliptic_permutation(2))
    pts = orbit(T, Fraction(0), 3)
    assert pts == [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(0)]


def test_orbit_stays_in_domain():
    T = generic_four()
    for p in orbit(T, Fraction(1, 17), 200):
        assert 0 <= p < 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cocycle_identity_property(seed):
    rng = Random(seed)
    d = rng.choice([2, 3, 4])
    nums = [rng.randint(1, 50) for _ in range(d)]
    total = sum(nums)
    T = Iet.make(
        tuple(Fraction(n, total) for n in nums), hyperelliptic_permutation(d)
    )
    try:
        trace = induct(T, rng.randint(1, 40))
    except InductionUndefinedError:
        return  # rationals may hit the equality case; that is not a failure
    assert trace.check_identity()
    assert trace.matrix.det() == 1
    assert all(x >= 0 for row in trace.matrix.rows for x in row)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_matches_fraction_reference(data):
    """The integer orbit agrees with iterating the Fraction map, including
    from the interval endpoints where a strict and a non-strict search differ."""
    d = data.draw(st.integers(min_value=2, max_value=5))
    lengths = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 60), max_value=1, max_denominator=60),
            min_size=d,
            max_size=d,
        )
    )
    bottom = data.draw(st.permutations(range(1, d + 1)))
    T = Iet.make(lengths, LabeledPermutation(tuple(range(1, d + 1)), tuple(bottom)))
    k = data.draw(st.integers(min_value=0, max_value=d))
    if k < d:
        point = sum(T.lengths[:k], Fraction(0))  # left endpoint of interval k+1
    else:
        u = data.draw(
            st.fractions(min_value=0, max_value=1, max_denominator=97).filter(
                lambda x: x < 1
            )
        )
        point = u * T.total
    n = data.draw(st.integers(min_value=0, max_value=30))
    expected = [point]
    for _ in range(n):
        expected.append(T(expected[-1]))
    assert orbit(T, point, n) == expected
