"""Exact induction steps, the visitation cocycle, and orbits."""
from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ietkit.analysis import GRID, _balance_scan, _Balanced, sample_simplex_exact
from ietkit.errors import BudgetExceededError, InductionUndefinedError, UsageError
from ietkit.induction import (
    BOTTOM_WINS,
    TOP_WINS,
    Iet,
    InductionTrace,
    VisitationMatrix,
    _DRAIN,
    _step_lengths,
    _Walk,
    balanced,
    drive_path,
    induct,
    induct_until,
    norm_at_least,
    orbit,
    permutation_is,
    positive_matrix,
    step,
)
from ietkit.perm import (
    _DIAGRAM, LabeledPermutation, ReducibilityError, hyperelliptic_permutation,
    rauzy_class, rauzy_move,
)


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
    # the first positive balanced matrix, not the identity at step 0
    assert (trace.steps, trace.matrix.norm, trace.matrix.is_positive()) == (12, 18, True)
    T = Iet.make(sample_simplex_exact(5, Random(2)), hyperelliptic_permutation(5))
    trace = induct_until(T, balanced(3))
    assert trace.steps == 358
    assert trace.matrix.is_positive() and trace.matrix.balance_ratio() <= 3


def test_until_norm_budget():
    with pytest.raises(BudgetExceededError):
        induct_until(fib_like(), norm_at_least(10**9), step_budget=5)


def test_the_budget_comes_before_equality():
    """The loop reads its budget before the equality case, which (1/2, 1/3)
    meets after 2 steps; a budget reached with no rule is success."""
    T = Iet.make([Fraction(1, 2), Fraction(1, 3)], hyperelliptic_permutation(2))
    with pytest.raises(BudgetExceededError, match="^step budget 2 exhausted$"):
        induct_until(T, norm_at_least(100), step_budget=2)
    with pytest.raises(InductionUndefinedError, match="^equality at step 2: ") as exc:
        induct_until(T, norm_at_least(100), step_budget=3)
    assert exc.value.partial.steps == 2
    trace = induct(T, 2)
    assert (trace.steps, trace.matrix.norm) == (2, 3)


def test_the_start_comes_before_equality():
    """A trace of 0 steps, or a rule that holds at the start, is returned
    before the equality case is read; the first step meets it."""
    T = Iet.make([Fraction(1, 4)] * 4, hyperelliptic_permutation(4))
    assert induct(T, 0).steps == 0
    assert induct_until(T, norm_at_least(1)).steps == 0
    with pytest.raises(InductionUndefinedError, match="^equality at step 0: "):
        induct(T, 1)


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


# -- the integer kernel against the Fraction reference ----------------------


def irreducible_perms(d: int):
    """Irreducible pairs with top 1..d and a drawn bottom row."""
    return st.permutations(range(1, d + 1)).map(
        lambda bottom: LabeledPermutation(tuple(range(1, d + 1)), tuple(bottom))
    ).filter(LabeledPermutation.is_irreducible)


def reference_induct(T: Iet, n: int):
    """Up to n calls of ``step`` with the product of the elementary matrices;
    the last item is the equality error when it cut the walk short."""
    M = VisitationMatrix.identity(T.d)
    edges = []
    for _ in range(n):
        try:
            T, edge, E = step(T)
        except InductionUndefinedError as exc:
            return edges, M, T, exc
        edges.append(edge)
        M = M @ E
    return edges, M, T, None


@st.composite
def iets_with_distinct_denominators(draw):
    d = draw(st.integers(min_value=2, max_value=6))
    pi = draw(irreducible_perms(d))
    dens = draw(st.lists(st.integers(2, 10**12), min_size=d, max_size=d, unique=True))
    lengths = [Fraction(draw(st.integers(1, 10**12)), q) for q in dens]
    return Iet.make(lengths, pi)


@settings(max_examples=80, deadline=None)
@given(iets_with_distinct_denominators(), st.integers(min_value=0, max_value=60))
def test_induct_matches_step_reference(T, n):
    edges, M, induced, error = reference_induct(T, n)
    if error is not None:
        with pytest.raises(InductionUndefinedError) as exc:
            induct(T, n)
        trace = exc.value.partial
        assert trace.steps == len(edges)
    else:
        trace = induct(T, n)
    assert trace.start == T
    assert trace.edges == tuple(edges)
    assert trace.matrix == M
    assert trace.induced.lengths == induced.lengths
    assert trace.induced.perm == induced.perm


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equality_case_matches_step_reference(data):
    """Small numerators over one denominator collide often; the kernel stops
    at the same step, with the same message and partial trace."""
    d = data.draw(st.integers(min_value=2, max_value=5))
    pi = data.draw(irreducible_perms(d))
    nums = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    T = Iet.make([Fraction(x, 7) for x in nums], pi)
    edges, M, induced, error = reference_induct(T, 50)
    assume(error is not None)
    with pytest.raises(InductionUndefinedError) as exc:
        induct(T, 50)
    k = len(edges)
    assert exc.value.partial.steps == k
    assert str(exc.value) == f"equality at step {k}: {error}"
    partial = exc.value.partial
    assert (partial.start, partial.edges, partial.matrix, partial.induced) == (
        T, tuple(edges), M, induced
    )


@st.composite
def long_run_iets(draw):
    """One interval 10^3 to 10^6 times the others, so that the runs it wins
    are thousands of steps long."""
    d = draw(st.integers(min_value=2, max_value=5))
    pi = draw(irreducible_perms(d))
    nums = draw(st.lists(st.integers(1, 30), min_size=d, max_size=d))
    nums[draw(st.integers(0, d - 1))] *= draw(st.integers(10**3, 10**6))
    den = draw(st.integers(1, 10**6))
    return Iet.make([Fraction(x, den) for x in nums], pi)


def run_cycle_losers(pi: LabeledPermutation, side: str) -> list[int]:
    """The losers of the moves on ``side`` from pi until it comes back."""
    losers, end = [], pi
    while not losers or end != pi:
        edge = rauzy_move(end, side)
        losers.append(edge.loser)
        end = edge.target
    return losers


@st.composite
def iets_with_equality_at_run_end(draw):
    """The winner of pi's first run is as long as the losers of its first n
    steps and one more loser: a run of n steps, then the equality case."""
    d = draw(st.integers(min_value=2, max_value=5))
    pi = draw(irreducible_perms(d))
    side = draw(st.sampled_from([TOP_WINS, BOTTOM_WINS]))
    winner = pi.top[-1] if side == TOP_WINS else pi.bottom[-1]
    losers = run_cycle_losers(pi, side)
    nums = draw(st.lists(st.integers(1, 30), min_size=d, max_size=d))
    n = draw(st.integers(min_value=1, max_value=1500))
    nums[winner - 1] = sum(nums[losers[t % len(losers)] - 1] for t in range(n + 1))
    return Iet.make([Fraction(x, 31) for x in nums], pi), n


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_long_runs_match_step_reference(data):
    """Whole runs at a time: cut by the step count, ended by the equality
    case, and with an induct_until budget inside a run."""
    equal_at = None
    if data.draw(st.booleans()):
        T, equal_at = data.draw(iets_with_equality_at_run_end())
        cut = equal_at + 1
    else:
        T, cut = data.draw(long_run_iets()), data.draw(st.integers(0, 2000))
    edges, M, induced, error = reference_induct(T, cut)
    if error is not None:
        with pytest.raises(InductionUndefinedError) as exc:
            induct(T, cut)
        trace = exc.value.partial
        assert trace.steps == len(edges)
    else:
        trace = induct(T, cut)
    assert equal_at is None or (error is not None and len(edges) == equal_at)
    assert (trace.edges, trace.matrix) == (tuple(edges), M)
    assert (trace.induced.lengths, trace.induced.perm) == (induced.lengths, induced.perm)
    if not edges:
        return
    # the shortest trace to the norm after a drawn prefix, and a budget one short
    norms, P = [1], VisitationMatrix.identity(T.d)
    for e in edges:
        P = P.apply_step(e.winner, e.loser)
        norms.append(P.norm)
    N = norms[data.draw(st.integers(1, len(edges)))]
    shortest = next(t for t, x in enumerate(norms) if x >= N)
    until = induct_until(T, norm_at_least(N), step_budget=shortest)
    assert until.edges == tuple(edges[:shortest])
    assert until.matrix == drive_path(T.perm, [e.side for e in until.edges])[0]
    with pytest.raises(BudgetExceededError):
        induct_until(T, norm_at_least(N), step_budget=shortest - 1)


@settings(max_examples=40, deadline=None)
@given(iets_with_distinct_denominators(), st.integers(min_value=1, max_value=10**4))
def test_induct_until_norm_is_shortest(T, N):
    M = VisitationMatrix.identity(T.d)
    current, edges = T, []
    while M.norm < N:
        assume(len(edges) < 1000)
        try:
            current, edge, E = step(current)
        except InductionUndefinedError:
            assume(False)
        edges.append(edge)
        M = M @ E
    trace = induct_until(T, norm_at_least(N), step_budget=len(edges))
    assert trace.edges == tuple(edges)
    assert trace.matrix == M
    assert trace.induced == current
    if edges:
        with pytest.raises(BudgetExceededError):
            induct_until(T, norm_at_least(N), step_budget=len(edges) - 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_drive_path_matches_rauzy_move_fold(data):
    d = data.draw(st.integers(min_value=2, max_value=6))
    pi = data.draw(irreducible_perms(d))
    sides = data.draw(st.lists(st.sampled_from([TOP_WINS, BOTTOM_WINS]), max_size=40))
    M, end, edges = VisitationMatrix.identity(d), pi, []
    for side in sides:
        edge = rauzy_move(end, side)
        edges.append(edge)
        M = M.apply_step(edge.winner, edge.loser)
        end = edge.target
    assert drive_path(pi, sides) == (M, end, tuple(edges))


def test_drive_path_rejects_unknown_side():
    with pytest.raises(UsageError):
        drive_path(hyperelliptic_permutation(4), [TOP_WINS, "sideways"])


def reference_balance_path(pi, nums, zeta, cap) -> list[tuple[int, bool]]:
    """The balance scan on exact Fraction lengths through ``step``, without
    its limit: per step, the norm and whether the matrix is positive and
    zeta-balanced, up to that step, the equality case, or a norm past cap."""
    T = Iet(tuple(Fraction(n, GRID) for n in nums), pi)
    M = VisitationMatrix.identity(pi.d)
    path = []
    while not path or not path[-1][1] and path[-1][0] <= cap:
        try:
            T, edge, _ = step(T)
        except InductionUndefinedError:
            break
        M = M.apply_step(edge.winner, edge.loser)
        path.append((M.norm, M.balance_ratio() <= zeta and M.is_positive()))
    return path


def reference_balance_stop(pi, nums, zeta, limit, path=None) -> tuple[int, int]:
    """The reference scan's norm, or 0 if it dies or passes ``limit``, and
    the number of steps after which it stops."""
    if path is None:
        path = reference_balance_path(pi, nums, zeta, limit)
    for steps, (norm, good) in enumerate(path, 1):
        if norm > limit:
            return 0, steps
        if good:
            return norm, steps
    return 0, len(path)


def reference_balance_scan(pi, nums, zeta, limit) -> int:
    return reference_balance_stop(pi, nums, zeta, limit)[0]


class RecordedBalanced(_Balanced):
    """The balance rule, recording per run the bound of its limit shortcut:
    the largest norm plus ceil(n / k) times the winner's norm.  The loop
    asks ``first`` once per run."""

    def __init__(self, zeta, limit):
        super().__init__(zeta, limit)
        self.bounds = []

    def first(self, walk, run, n):
        k, W = len(run.losers), walk.norms[run.winner]
        self.bounds.append(max(walk.norms) + -(-n // k) * W)
        return super().first(walk, run, n)


def balance_stop(pi, nums, zeta, limit) -> tuple[int, int]:
    """``_balance_scan`` and the number of steps after which it stops."""
    rule = _Balanced(zeta, limit)  # holds no state, so it serves both walks
    runs, _ = _step_lengths(_Walk(pi), list(nums), rule, math.inf)
    return _balance_scan(pi, nums, rule), sum(t for _, t in runs)


def assert_induct_until_balanced_reaches(pi, nums, zeta, norm) -> None:
    """A balance scan that stops at ``norm`` stops where ``induct_until``
    with ``balanced(zeta)`` does on the same lengths: one rule behind both."""
    if norm:
        T = Iet(tuple(Fraction(n, GRID) for n in nums), pi)
        assert induct_until(T, balanced(zeta)).matrix.norm == norm


@pytest.mark.parametrize("d", [4, 5])
def test_balance_scan_matches_step_reference(d):
    rng = Random(d)
    pi = hyperelliptic_permutation(d)
    for k in range(200):
        zeta = (Fraction(20), Fraction(7, 2))[k % 2]
        nums = [x.numerator for x in sample_simplex_exact(d, rng)]
        expected = reference_balance_scan(pi, nums, zeta, 4**8)
        assert _balance_scan(pi, nums, _Balanced(zeta, 4**8)) == expected
        assert_induct_until_balanced_reaches(pi, nums, zeta, expected)
    # long runs: one interval 10^2 to 10^3.5 times the others.  From the
    # identity, the first run is balanced (not positive) until its losers'
    # norms pass zeta times the winner's, so with zeta = 2 the window opens
    # and closes within a run of hundreds of steps
    long_runs = []
    for k in range(12):
        zeta = (Fraction(20), Fraction(7, 2), Fraction(2))[k % 3]
        nums = [x.numerator * (GRID // x.denominator) for x in sample_simplex_exact(d, rng)]
        nums[rng.randrange(d)] *= rng.randrange(10**2, 10**3 * 3)
        long_runs.append((zeta, nums))
        expected = reference_balance_scan(pi, nums, zeta, 4**7)
        assert _balance_scan(pi, nums, _Balanced(zeta, 4**7)) == expected
        assert_induct_until_balanced_reaches(pi, nums, zeta, expected)
    # the limit shortcut's boundary: a limit equal to a run's bound, which
    # no loser can pass within the run, and one below it, where the first
    # step past the limit has to be found.  The scan reaches that run under
    # either limit, since every earlier norm is at most the run's first max
    for zeta, nums in long_runs[:6] + [
        ((Fraction(20), Fraction(7, 2))[k % 2],
         [x.numerator for x in sample_simplex_exact(d, rng)])
        for k in range(10)
    ]:
        rule = RecordedBalanced(zeta, 4**8)
        _step_lengths(_Walk(pi), list(nums), rule, math.inf)
        path = reference_balance_path(pi, nums, zeta, max(rule.bounds))
        for bound in rule.bounds:
            for limit in (bound, bound - 1):
                assert balance_stop(pi, nums, zeta, limit) == reference_balance_stop(
                    pi, nums, zeta, limit, path
                )


# -- the deferred columns of a walk ----------------------------------------


def zero_pattern(column) -> int:
    return sum(1 << i for i, x in enumerate(column) if x == 0)


def move_blocks():
    """Blocks of (side, count, repeats, read): up to twice the drain length
    of single moves, or a few closed-form runs; then maybe a read."""
    sides = st.sampled_from([TOP_WINS, BOTTOM_WINS])
    reads = st.sampled_from([None, "cols", "matrix"])
    return st.one_of(
        st.tuples(sides, st.just(1), st.integers(1, 2 * _DRAIN), reads),
        st.tuples(sides, st.integers(2, 40), st.integers(1, 4), reads),
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deferred_walk_matches_eager_fold(data):
    """Norms and zero patterns after every move, and the columns whenever
    they are read, equal the fold of the elementary matrices along the edges
    taken; the queue of pending column updates stays below its drain length."""
    d = data.draw(st.integers(min_value=2, max_value=7))
    pi = data.draw(irreducible_perms(d))
    blocks = data.draw(st.lists(move_blocks(), min_size=1, max_size=8))
    walk, M, end = _Walk(pi), VisitationMatrix.identity(d), pi
    for side, count, repeats, read in blocks:
        for _ in range(repeats):
            last = walk.move(side, count)
            for _ in range(count):
                edge = rauzy_move(end, side)
                M = M @ VisitationMatrix.elementary(d, edge.winner, edge.loser)
                end = edge.target
            assert (last, walk.perm) == (edge, end)
            assert walk.norms == list(M.column_norms())
            assert walk.zeros == [zero_pattern(M.column(j)) for j in range(1, d + 1)]
            assert len(walk._queue) < _DRAIN
        if read == "cols":
            assert walk.cols == [list(M.column(j)) for j in range(1, d + 1)]
        elif read == "matrix":
            assert walk.matrix() == M
    assert walk.matrix() == M


def test_walk_builds_its_columns_when_first_needed():
    walk = _Walk(hyperelliptic_permutation(5))
    walk.move(TOP_WINS, 7)
    assert walk._cols is None  # a balance scan never gets further
    assert walk.cols == [list(c) for c in zip(*drive_path(
        hyperelliptic_permutation(5), [TOP_WINS] * 7)[0].rows)]
    drained = _Walk(hyperelliptic_permutation(5))
    for _ in range(_DRAIN):
        drained.move(BOTTOM_WINS)
    assert drained._cols is not None and drained._queue == []


def test_walk_checks_its_start_until_the_vertex_has_a_move(monkeypatch):
    # a reducible pair raises on every walk, also once it is in the diagram
    for reducible in (LabeledPermutation((1, 2, 3, 4), (2, 1, 4, 3)),
                      LabeledPermutation((1, 2, 3, 4), (1, 4, 3, 2))):
        for _ in range(3):
            with pytest.raises(ReducibilityError):
                _Walk(reducible)
        assert reducible not in _DIAGRAM.ids
        _DIAGRAM.vertex(reducible)  # as a path search may add its start
        with pytest.raises(ReducibilityError):
            _Walk(reducible)
    pi = LabeledPermutation((2, 4, 1, 3, 5), (5, 3, 1, 4, 2))
    checked = []
    check = LabeledPermutation.is_irreducible
    monkeypatch.setattr(LabeledPermutation, "is_irreducible",
                        lambda p: checked.append(p) or check(p))
    _Walk(pi).move(TOP_WINS)
    _Walk(pi)
    _Walk(pi)
    assert checked.count(pi) <= 2  # the walk's and the move's own check


# -- norm_at_least as a stop rule on the norms -------------------------------


def until_outcome(T, predicate, budget):
    """The trace, or what cut it short."""
    try:
        return induct_until(T, predicate, step_budget=budget)
    except InductionUndefinedError as exc:
        return "undefined", exc.partial
    except BudgetExceededError:
        return "budget"


def draw_stop_rule(data, T):
    """A stop rule of ``induct_until``, the generic predicate of
    (matrix, permutation) it stands for, and the drawn N of a norm rule
    (None for the other kinds)."""
    kind = data.draw(st.sampled_from(["norm", "balanced", "positive", "perm"]))
    if kind == "norm":
        N = data.draw(st.integers(min_value=1, max_value=10**7))
        return norm_at_least(N), lambda M, pi: M.norm >= N, N
    if kind == "balanced":
        zeta = data.draw(st.sampled_from([2, Fraction(7, 2), 10, 20]))
        return (balanced(zeta),
                lambda M, pi: M.is_positive() and M.balance_ratio() <= zeta, None)
    if kind == "positive":
        return positive_matrix, lambda M, pi: M.is_positive(), None
    # a vertex of the start's class: the start itself, one the walk soon
    # reaches, or any; the start begins a run, whose last move returns to it
    visited = [e.target for e in reference_induct(T, 200)[0]] or [T.perm]
    v = data.draw(st.one_of(
        st.just(T.perm), st.sampled_from(visited), st.sampled_from(rauzy_class(T.perm).vertices)
    ))
    return permutation_is(v), lambda M, pi: pi == v, None


@settings(max_examples=120, deadline=None)
@given(st.one_of(iets_with_distinct_denominators(), long_run_iets()), st.data())
def test_norm_rule_matches_generic_predicate(T, data):
    """Each stop rule jumps inside a run; its generic predicate reads the
    matrix after every step.  The same trace, on the shortest budget and
    on one step less.  And from the start, for either side's run and a
    drawn cut n, ``first`` leaves the walk where it is and gives the first
    t in 1..n at which the rule holds after t single moves."""
    rule, generic, N = draw_stop_rule(data, T)
    expected = until_outcome(T, generic, 5000)
    assert until_outcome(T, rule, 5000) == expected
    if isinstance(expected, InductionTrace):
        shortest = expected.steps
        assert until_outcome(T, rule, shortest) == expected
        if shortest:
            assert until_outcome(T, rule, shortest - 1) == "budget"
            assert until_outcome(T, generic, shortest - 1) == "budget"
    if N is not None:
        assert rule.holds(_Walk(T.perm)) == (N <= 1)
        if N <= 1:  # ``first`` is asked only while the norms are below N
            return
    for side in (TOP_WINS, BOTTOM_WINS):
        walk, stepped = _Walk(T.perm), _Walk(T.perm)
        start, run = walk.v, _DIAGRAM.cycle(walk.v, side)
        n = data.draw(st.integers(min_value=1, max_value=3 * len(run.losers) + 3))
        reference = None
        for t in range(1, n + 1):
            stepped.move(side)
            if rule.holds(stepped):
                reference = t
                break
        assert rule.first(walk, run, n) == reference
        assert (walk.v, walk.norms, walk._queue) == (start, [1] * T.d, [])


@pytest.mark.parametrize("rule", ["norm", "balanced", "positive", "perm"])
def test_norm_rule_builds_one_matrix(monkeypatch, rule):
    """``induct_until`` on a stop rule builds the matrix once, for the
    trace, not after every step."""
    T = Iet.make(sample_simplex_exact(5, Random(1)), hyperelliptic_permutation(5))
    rule, generic = {
        "norm": (norm_at_least(10**4), lambda M, pi: M.norm >= 10**4),
        "balanced": (balanced(10), lambda M, pi: M.is_positive() and M.balance_ratio() <= 10),
        "positive": (positive_matrix, lambda M, pi: M.is_positive()),
        "perm": (permutation_is(target := induct(T, 60).induced.perm),
                 lambda M, pi: pi == target),
    }[rule]
    built = []
    matrix = _Walk.matrix

    def counted(walk):
        built.append(walk)
        return matrix(walk)

    monkeypatch.setattr(_Walk, "matrix", counted)
    trace = induct_until(T, rule, step_budget=10**6)
    assert generic(trace.matrix, trace.induced.perm)
    assert trace.steps > 20
    assert len(built) == 1
