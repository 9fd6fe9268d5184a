"""Exact Rauzy-Veech induction and the visitation-matrix cocycle.

Lengths are exact: a step subtracts the shorter of the two last intervals
from the longer one, so floating point would destroy the cocycle identity
x = M(n) x' that everything downstream relies on.  The API speaks
``Fraction``s; the induction loop keeps integer numerators over one common
denominator and walks the compiled Rauzy diagram of ``perm``.  The matrices
are plain python integers and may grow without bound.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from . import _rational
from ._record import Value
from .errors import BudgetExceededError, InductionUndefinedError, UsageError
from .perm import (
    _DIAGRAM, BOTTOM_WINS, TOP_WINS, LabeledPermutation, RauzyEdge,
    ReducibilityError, _RunCycle, rauzy_move,
)


class Iet(Value):
    """Length vector plus permutation pair; the full datum of an exchange."""

    __slots__ = ("lengths", "perm")

    def __init__(self, lengths: tuple[Fraction, ...], perm: LabeledPermutation):
        self.lengths = lengths
        self.perm = perm
        if len(self.lengths) != self.perm.d:
            raise UsageError("length vector size does not match permutation")
        if any(x <= 0 for x in self.lengths):
            raise UsageError("lengths must be strictly positive")

    @staticmethod
    def make(lengths: Sequence, perm: LabeledPermutation) -> "Iet":
        return Iet(tuple(Fraction(x) for x in lengths), perm)

    @property
    def d(self) -> int:
        return self.perm.d

    @property
    def total(self) -> Fraction:
        return sum(self.lengths)

    def normalized(self) -> "Iet":
        t = self.total
        return Iet(tuple(x / t for x in self.lengths), self.perm)

    def translation(self, symbol: int) -> Fraction:
        """Displacement applied to points of the interval labeled ``symbol``."""
        top_before = sum(
            self.lengths[s - 1] for s in self.perm.top[: self.perm.top_position(symbol)]
        )
        bottom_before = sum(
            self.lengths[s - 1]
            for s in self.perm.bottom[: self.perm.bottom_position(symbol)]
        )
        return bottom_before - top_before

    def interval_of(self, point: Fraction) -> int:
        """Symbol of the continuity interval containing ``point``."""
        acc = Fraction(0)
        for s in self.perm.top:
            acc += self.lengths[s - 1]
            if point < acc:
                return s
        raise UsageError(f"point {point} outside [0, {self.total})")

    def __call__(self, point: Fraction) -> Fraction:
        return point + self.translation(self.interval_of(point))


class VisitationMatrix:
    """Non-negative integer cocycle matrix (product of elementary factors).

    Entry (i, j) counts visits of interval j's points to original interval i
    before first return; column sums are therefore return times and the
    matrix norm used everywhere is the max column sum.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)

    @staticmethod
    def identity(d: int) -> "VisitationMatrix":
        return VisitationMatrix(
            [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        )

    @staticmethod
    def elementary(d: int, winner: int, loser: int) -> "VisitationMatrix":
        """E with E(e_k)=e_k for k != loser, E(e_loser)=e_winner+e_loser."""
        rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        rows[winner - 1][loser - 1] = 1
        return VisitationMatrix(rows)

    @property
    def d(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        """Column j, 1-based to match symbol numbering."""
        return tuple(row[j - 1] for row in self.rows)

    def column_norm(self, j: int) -> int:
        return sum(row[j - 1] for row in self.rows)

    def column_norms(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.rows)))

    @property
    def norm(self) -> int:
        return max(self.column_norms())

    def balance_ratio(self, columns: Sequence[int] | None = None) -> Fraction:
        norms = [self.column_norm(j) for j in (columns or range(1, self.d + 1))]
        return Fraction(max(norms), min(norms))

    def is_positive(self) -> bool:
        return all(x >= 1 for row in self.rows for x in row)

    def det(self) -> int:
        return int(_rational.det(self.rows))

    def __matmul__(self, other: "VisitationMatrix") -> "VisitationMatrix":
        ot = list(zip(*other.rows))
        M = VisitationMatrix.__new__(VisitationMatrix)  # the entries are ints
        M.rows = tuple(
            [tuple([sum(map(mul, row, col)) for col in ot]) for row in self.rows]
        )
        return M

    def apply_step(self, winner: int, loser: int) -> "VisitationMatrix":
        """Right-multiply by the elementary factor: adds column winner to loser."""
        rows = [list(r) for r in self.rows]
        for r in rows:
            r[loser - 1] += r[winner - 1]
        return VisitationMatrix(rows)

    def mat_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def solve(self, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
        x = _rational.solve(self.rows, b)
        if x is None:
            raise UsageError("inconsistent system")
        return x

    def __eq__(self, other) -> bool:
        return isinstance(other, VisitationMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"VisitationMatrix({[list(r) for r in self.rows]})"


class InductionTrace(Value):
    __slots__ = (
        "start",
        "edges",
        "matrix",
        "induced",  # unnormalized
    )

    @property
    def steps(self) -> int:
        return len(self.edges)

    def check_identity(self) -> bool:
        """x = M(n) x' as an exact identity of rationals."""
        return self.matrix.mat_vec(self.induced.lengths) == self.start.lengths

    def to_json(self) -> str:
        doc = {
            "start": {
                "lengths": [str(x) for x in self.start.lengths],
                "top": list(self.start.perm.top),
                "bottom": list(self.start.perm.bottom),
            },
            "steps": self.steps,
            "edges": [[e.winner, e.loser, e.side] for e in self.edges],
            "matrix": [[str(x) for x in row] for row in self.matrix.rows],
            "induced_lengths": [str(x) for x in self.induced.lengths],
            "induced_top": list(self.induced.perm.top),
            "induced_bottom": list(self.induced.perm.bottom),
        }
        return json.dumps(doc, sort_keys=True)


def step(T: Iet) -> tuple[Iet, RauzyEdge, VisitationMatrix]:
    """One induction step; the longer of the two last intervals wins.

    The Fraction reference for the integer loop behind ``induct``.
    """
    i, j = T.perm.top[-1], T.perm.bottom[-1]
    xi, xj = T.lengths[i - 1], T.lengths[j - 1]
    if xi == xj:
        raise InductionUndefinedError(
            f"equal last lengths x_{i} = x_{j} = {xi}: induction undefined"
        )
    edge = rauzy_move(T.perm, TOP_WINS if xi > xj else BOTTOM_WINS)
    new_lengths = list(T.lengths)
    new_lengths[edge.winner - 1] -= T.lengths[edge.loser - 1]
    E = VisitationMatrix.elementary(T.d, edge.winner, edge.loser)
    return Iet(tuple(new_lengths), edge.target), edge, E


_DRAIN = 128  # queued moves at which a walk brings its columns up to date


class _Walk:
    """A path through the compiled diagram with its cocycle product.

    A move updates at once only what the induction loop and its stop rules
    read: the vertex ``v``, the column sums ``norms`` and, per column, a
    zero pattern ``zeros`` (bit i set when entry i is 0).  A move adds the
    winner's column to the loser's, and the entries are non-negative, so the
    loser's pattern becomes the meet of the two.  The integer columns
    themselves, the identity's at first, are built when ``cols`` or
    ``matrix()`` is first read, or once the queue of the moves' (loser,
    winner, count) operations holds ``_DRAIN`` of them, and then brought up
    to date from that queue, in order; so a walk whose columns are never
    read keeps O(d^2) integers however long it runs.

    The start permutation is checked for irreducibility until its vertex
    has a compiled move, which only an irreducible pair has."""

    __slots__ = ("v", "norms", "zeros", "_cols", "_queue")

    def __init__(self, pi: LabeledPermutation):
        v = _DIAGRAM.ids.get(pi)
        if v is None or not _DIAGRAM.moves[v]:
            if not pi.is_irreducible():
                raise ReducibilityError(f"reducible permutation {pi}")
            v = _DIAGRAM.vertex(pi)
        d = pi.d
        self.v = v
        self.norms = [1] * d
        self.zeros = [((1 << d) - 1) ^ (1 << j) for j in range(d)]
        self._cols: list[list[int]] | None = None
        self._queue: list[tuple[int, int, int]] = []

    @property
    def cols(self) -> list[list[int]]:
        """The integer columns, 0-based, up to date."""
        if self._queue or self._cols is None:
            self._drain()
        return self._cols

    def _drain(self) -> None:
        cols = self._cols
        if cols is None:
            d = len(self.norms)
            cols = self._cols = [[int(i == j) for i in range(d)] for j in range(d)]
        for l, w, c in self._queue:
            cols[l] = [x + c * y for x, y in zip(cols[l], cols[w])]
        self._queue.clear()

    @property
    def perm(self) -> LabeledPermutation:
        return _DIAGRAM.perms[self.v]

    def edge(self, side: str) -> RauzyEdge:
        """The move from here on ``side``, not taken."""
        return _DIAGRAM.move(self.v, side)[3]

    def move(self, side: str, count: int = 1) -> RauzyEdge:
        """Take the move on ``side`` ``count`` times in a row and return the
        last edge taken: one move from the compiled diagram, more as a run
        through ``take``.  The induction loop, which has the run cycle at
        hand, calls ``take`` itself."""
        if count == 1:
            norms, zeros = self.norms, self.zeros
            self.v, w, l, edge = _DIAGRAM.move(self.v, side)
            norms[l] += norms[w]
            zeros[l] &= zeros[w]
            self._queue.append((l, w, 1))
            if len(self._queue) >= _DRAIN:
                self._drain()
            return edge
        run = _DIAGRAM.cycle(self.v, side)
        self.take(run, count)
        return run.edges[(count - 1) % len(run.edges)]

    def take(self, run: _RunCycle, count: int) -> None:
        """Take ``count`` moves of ``run``, which starts at the walk's
        vertex, in closed form: the loser at position i of the run cycle gets
        count // k + (i < count % k) copies of the winner's column, which no
        move of the run changes."""
        norms, zeros, queue = self.norms, self.zeros, self._queue
        w, losers = run.winner, run.losers
        q, r = divmod(count, len(losers))
        W, zw = norms[w], zeros[w]
        if q:
            for i, l in enumerate(losers):
                c = q + (i < r)
                norms[l] += c * W
                zeros[l] &= zw
                queue.append((l, w, c))
        else:
            for l in losers[:r]:
                norms[l] += W
                zeros[l] &= zw
                queue.append((l, w, 1))
        self.v = run.vertices[r]
        if len(queue) >= _DRAIN:
            self._drain()

    def copy(self) -> "_Walk":
        """The walk as it stands, to move on alone.  It shares the columns,
        brought up to date: a drain replaces a column, never changes it."""
        walk = _Walk.__new__(_Walk)
        walk.v, walk.norms, walk.zeros = self.v, self.norms[:], self.zeros[:]
        walk._cols, walk._queue = self.cols[:], []
        return walk

    def matrix(self) -> VisitationMatrix:
        M = VisitationMatrix.__new__(VisitationMatrix)  # the entries are ints
        M.rows = tuple(zip(*self.cols))
        return M


class _StopRule:
    """When the induction loop stops, judged on the walk alone; the loop
    counts the steps and keeps the budget.  ``holds`` judges the walk as it
    stands; ``first`` finds where in a run the rule first holds, on the
    walk's vertex, norms and zero patterns, without moving the walk, and
    the loop then takes the run up to there itself."""

    def holds(self, walk: _Walk) -> bool:
        raise NotImplementedError

    def first(self, walk: _Walk, run: _RunCycle, n: int) -> int | None:
        """The first t in 1..n at which the rule holds after t moves of ``run``, or None."""
        raise NotImplementedError


def _first_reaching(norms: list[int], run: _RunCycle, N: int) -> int:
    """The first step of ``run`` at which a norm, all below N, reaches N:
    loser i with norm x reaches it at its m-th loss, m = ceil((N - x) / W)
    for the winner's fixed norm W, on step (m - 1) k + i + 1."""
    W, k = norms[run.winner], len(run.losers)
    return min(((N - norms[l] - 1) // W) * k + i + 1 for i, l in enumerate(run.losers))


class _Balanced(_StopRule):
    """Stop at the first positive zeta-balanced matrix, zeta = p/q, or once
    the norm passes ``limit``; no ``zeta`` is no ratio bound (p/q = 1/0),
    and a zeta of 0 never balances, so the rule stops on the limit alone.
    It reads only the walk's norms and zero patterns: the matrix is
    positive when no column has a zero entry."""

    def __init__(self, zeta: Fraction | None = None, limit: int | None = None):
        self.p, self.q = (1, 0) if zeta is None else Fraction(zeta).as_integer_ratio()
        self.limit = math.inf if limit is None else limit

    def holds(self, walk: _Walk) -> bool:
        hi, lo = max(walk.norms), min(walk.norms)
        return hi > self.limit or hi * self.q <= self.p * lo and not any(walk.zeros)

    def first(self, walk: _Walk, run: _RunCycle, n: int) -> int | None:
        """The winner's norm W stays fixed and bounds the least norm, so
        balance is out of reach for the rest of the run once max * q > p * W.
        No loser loses more than ceil(n / k) times in the run, so the limit
        is out of reach when max + ceil(n / k) W <= limit."""
        p, q, limit = self.p, self.q, self.limit
        norms, losers = walk.norms, run.losers
        k, W, hi = len(losers), norms[run.winner], max(norms)
        if hi * q <= p * W and (positive := _positive_from(walk, run)) is not None:
            t, rising = 0, [norms[l] for l in losers]
            # the least norm the run leaves alone; W is one of them
            fixed = min([norms[j] for j in run.fixed])
            while hi * q <= p * W:
                if t == n:
                    return None
                i = t % k
                rising[i] += W
                t += 1
                if rising[i] > hi:
                    hi = rising[i]
                    if hi > limit:
                        return t
                if t >= positive and hi * q <= p * min(fixed, *rising):
                    return t
        if hi + -(-n // k) * W <= limit:
            return None
        past = _first_reaching(norms, run, limit + 1)
        return past if past <= n else None


def _positive_from(walk: _Walk, run: _RunCycle) -> int | None:
    """The first t from which the walk's matrix is positive after t moves of
    ``run``, or None if it is not positive within the run.  A move adds the
    winner's column, which the run never changes, to the loser's; so a
    column with a 0 turns positive at its first loss if the winner's column
    has no 0, and never otherwise.  The winner is no loser, so its position
    0 would say as much; it is read first because, early in a scan, it
    decides most runs."""
    zeros = walk.zeros
    if zeros[run.winner]:
        return None
    t = 0
    for z, i in zip(zeros, run.positions):
        if z:
            if not i:
                return None
            if i > t:
                t = i
    return t


class _PermutationIs(_StopRule):
    """Stop at ``target``.  After t moves of a run the walk is at vertex
    ``run.vertices[t % k]``: the first hit is the target's index there, or k."""

    def __init__(self, target: LabeledPermutation):
        self.target = target

    def holds(self, walk: _Walk) -> bool:
        return walk.perm == self.target

    def first(self, walk: _Walk, run: _RunCycle, n: int) -> int | None:
        v, cycle = _DIAGRAM.ids.get(self.target), run.vertices
        t = (cycle.index(v) or len(cycle)) if v in cycle else None
        return t if t and t <= n else None


class _MatrixPredicate(_StopRule):
    """Stop when a caller's predicate of (matrix, permutation) holds.  It is
    given the matrix after every move, so ``first`` replays runs on a copy."""

    def __init__(self, predicate: Callable[[VisitationMatrix, LabeledPermutation], bool]):
        self.predicate = predicate

    def holds(self, walk: _Walk) -> bool:
        return self.predicate(walk.matrix(), walk.perm)

    def first(self, walk: _Walk, run: _RunCycle, n: int) -> int | None:
        replay = walk.copy()
        for t in range(1, n + 1):
            replay.move(run.side)
            if self.holds(replay):
                return t
        return None


def _step_lengths(
    walk: _Walk, lens: list[int], stop: _StopRule | None, budget: float
) -> tuple[list[tuple[_RunCycle, int]], bool]:
    """The induction loop: step by the integer lengths ``lens`` (updated in
    place; the winner is strictly longer, so they stay positive) until
    ``stop`` holds or, with no rule, for ``budget`` steps, which the loop
    counts itself.  Returns the runs taken, as (run cycle, moves) pairs,
    and False if the equality case came first.  The budget is read before
    the equality case; a rule that has not held by then raises
    BudgetExceededError.  ``_induct`` expands the runs into edges.

    It goes one run at a time: the moves in a row on which one side wins.
    With winner length L, the run has the largest n whose first n losers
    (cycling through ``_RunCycle.losers``) sum below L; whole cycles of
    that sum are counted by one division.  ``stop.first`` finds the step
    inside the run where the loop ends, if there is one, and the loop takes
    the run up to there with ``_Walk.take``."""
    runs: list[tuple[_RunCycle, int]] = []
    if stop is not None and stop.holds(walk):
        return runs, True
    last, cycle, take_run = _DIAGRAM.last, _DIAGRAM.cycle, walk.take
    steps = 0
    while True:
        if steps >= budget:
            if stop is None:
                return runs, True
            raise BudgetExceededError(f"step budget {budget} exhausted")
        i, j = last[walk.v]
        if lens[i] == lens[j]:
            return runs, False
        run = cycle(walk.v, TOP_WINS if lens[i] > lens[j] else BOTTOM_WINS)
        losers, L = run.losers, lens[run.winner]
        k = len(losers)
        s, sums = 0, [0]  # sums[t]: the sum of the first t losers' lengths
        for l in losers:
            s += lens[l]
            if s >= L:
                n = len(sums) - 1
                break
            sums.append(s)
        else:  # the run goes round the cycle: c whole cycles, then r moves
            c = (L - 1) // s
            n = c * k + bisect_left(sums, L - c * s) - 1
        n = min(n, budget - steps)
        t = None if stop is None else stop.first(walk, run, n)
        take = t or n
        take_run(run, take)
        c, r = divmod(take, k)
        lens[run.winner] = L - c * sums[-1] - sums[r] if c else L - sums[r]
        runs.append((run, take))
        steps += take
        if t is not None:
            return runs, True


def _induct(T: Iet, stop: _StopRule | None, budget: int) -> InductionTrace:
    """The loop on T's lengths as integers over their least common
    denominator; Fractions and edges are built once, for the trace."""
    lens, denom = _rational._numerators(T.lengths)
    walk = _Walk(T.perm)
    runs, generic = _step_lengths(walk, lens, stop, budget)
    edges: list[RauzyEdge] = []
    for run, take in runs:
        c, r = divmod(take, len(run.edges))
        edges += run.edges * c + run.edges[:r]
    induced = Iet(tuple(Fraction(x, denom) for x in lens), walk.perm)
    trace = InductionTrace(T, tuple(edges), walk.matrix(), induced)
    if not generic:
        k, i, j = len(edges), walk.perm.top[-1], walk.perm.bottom[-1]
        raise InductionUndefinedError(
            f"equality at step {k}: equal last lengths x_{i} = x_{j} = "
            f"{induced.lengths[i - 1]}: induction undefined",
            partial=trace,
        )
    return trace


def induct(T: Iet, n: int) -> InductionTrace:
    """n induction steps with the running cocycle product.

    Raises InductionUndefinedError carrying the partial trace if the equality
    case interrupts before n steps.
    """
    return _induct(T, None, n)


STEP_BUDGET = 10**6  # steps ``induct_until`` may take before the rule holds


def norm_at_least(N: int) -> _Balanced:
    """Stop once the norm, the largest column sum, reaches ``N``: the
    balance rule with a zeta that never balances and the limit N - 1."""
    return _Balanced(0, N - 1)


permutation_is = _PermutationIs
balanced = _Balanced
positive_matrix = _Balanced()


def induct_until(
    T: Iet,
    predicate: _StopRule | Callable[[VisitationMatrix, LabeledPermutation], bool],
    step_budget: int = STEP_BUDGET,
) -> InductionTrace:
    """Shortest trace whose final (matrix, permutation) satisfies the
    predicate; BudgetExceededError if it takes more than ``step_budget``
    steps.  The stop rules ``norm_at_least``, ``balanced``,
    ``positive_matrix`` and ``permutation_is`` read the walk, jump within a
    run and build one matrix, for the trace; any other callable gets the
    matrix after every step, replayed on a copy of the walk."""
    stop = predicate if isinstance(predicate, _StopRule) else _MatrixPredicate(predicate)
    return _induct(T, stop, step_budget)


def drive_path(
    pi: LabeledPermutation, sides: Sequence[str]
) -> tuple[VisitationMatrix, LabeledPermutation, tuple[RauzyEdge, ...]]:
    """Cocycle product along a path given by winning sides (no lengths needed)."""
    walk = _Walk(pi)
    edges = tuple(walk.move(side) for side in sides)
    return walk.matrix(), walk.perm, edges


class IntegerIet:
    """The exchange on the integer grid of a common denominator ``denom``.

    ``rights`` are the cumulative right endpoints of the top intervals and
    ``shifts`` their displacements, so a step is a binary search and one
    integer addition: an order of magnitude faster than Fraction arithmetic
    when the denominators are large but shared.  ``points`` are further
    rationals that must lie on the grid.
    """

    __slots__ = ("denom", "rights", "shifts")

    def __init__(self, T: Iet, *points: Fraction):
        lengths, self.denom = _rational._numerators([*T.lengths, *points])
        self.rights: list[int] = []
        self.shifts: list[int] = []
        acc = 0
        for s in T.perm.top:
            bottom_before = sum(
                lengths[t - 1] for t in T.perm.bottom[: T.perm.bottom_position(s)]
            )
            self.shifts.append(bottom_before - acc)
            acc += lengths[s - 1]
            self.rights.append(acc)

    def scale(self, x: Fraction) -> int:
        """The grid integer of a rational on the grid."""
        return int(x * self.denom)

    def step(self, p: int) -> int:
        return p + self.shifts[bisect_right(self.rights, p)]


def orbit(T: Iet, point, n: int) -> list[Fraction]:
    """Forward orbit point, T(point), ..., T^n(point), exact."""
    point = Fraction(point)
    if not 0 <= point < T.total:
        raise UsageError(f"point {point} outside [0, {T.total})")
    grid = IntegerIet(T, point)
    p = grid.scale(point)
    out = [Fraction(p, grid.denom)]
    for _ in range(n):
        p = grid.step(p)
        out.append(Fraction(p, grid.denom))
    return out
