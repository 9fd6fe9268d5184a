"""Staged Rauzy-path construction under a scaled norm schedule.

The paths alternate five phases per stage (freedom/restriction on each side
plus a transition) whose matrix norms are steered into per-stage windows.
The unscaled exponent windows are astronomically large, so a schedule carries
a configurable exponent map; the default linear map preserves the structure
the condition checks measure (phase ordering by magnitude, the ratio gaps
between the two sides) at desk scale.

Each phase has one ``PhaseRule``: the moves it admits, the vertices it may
start at and the vertex it ends at; ``phase_rules(d)`` builds all of them.
A stage is one loop over a table of (name, phase, window, generator) rows
in draw order, and every generator has one shape: ``gen(b, window, rng)``
continues the ``PathBuilder`` b, which starts under the phase's rule, and
finishes it.  ``validate_phase`` replays a finished path against its rule.
The norm windows are not part of the rule: they come per stage from the
schedule, and a generator widens past one with a warning recorded on its
path.  A run hands each path to an optional ``report`` as it finishes, and
``construct`` logs the recorded warnings from there; nothing here logs or
prints.  ``_steer`` takes shortest ways by ``perm``'s walker; a search past
its vertex budget fails the stage.

A phase path stores its moves as runs (side, count): count moves in a row
on one side, the unit ``_Walk.move`` applies in closed form.  The diagram
fixes each move's winner and loser from the vertex and the side, so a run
records neither, and ``PathBuilder`` merges consecutive moves on one side:
the millions of repeats of a restriction phase, or one symbol beating
several others in turn, take one run.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, starmap
from random import Random
from typing import Callable, Sequence

from ._record import Record
from .errors import (
    BudgetExceededError,
    CalibrationError,
    ScheduleError,
    ScheduleOverflowError,
    StageError,
    UsageError,
)
from .induction import Iet, VisitationMatrix, _Walk
from .perm import (
    _DIAGRAM,
    BOTTOM_WINS,
    TOP_WINS,
    LabeledPermutation,
    RauzyEdge,
    _breadth_first,
    hyperelliptic_permutation,
    restricted_lhs_move,
    special_permutations,
)

MAX_EXPONENT = 18  # largest base-10 exponent we will instantiate as an int
PHASE_BUDGET = 10**6  # moves (or freedom-RHS loops) a phase may take to its window
CSTAR = 0.5  # the constant in the angle condition thresholds
ZETA = 32.0  # the default balance bound that condition (*) compares against

FREEDOM_LHS = "freedom-LHS"
FREEDOM_LHS_BRIDGE = "freedom-LHS-bridge"
RESTRICTION_LHS = "restriction-LHS"
TRANSITION = "transition"
FREEDOM_RHS = "freedom-RHS"
RESTRICTION_RHS = "restriction-RHS"
AVOIDING = "avoiding"


def _pow10(exp: float) -> int:
    if not exp <= MAX_EXPONENT:  # NaN included
        raise ScheduleOverflowError(
            f"10^{exp:g} is beyond the representable budget (max 10^{MAX_EXPONENT}); "
            "this schedule exists for symbolic inspection only"
        )
    return max(1, round(10.0**exp))


def _float_pow10(exp: float) -> float:
    """10^exp as a float; a schedule overflow beyond the float range."""
    try:
        return 10.0**exp
    except OverflowError:
        raise ScheduleOverflowError(f"10^{exp:g} is beyond the float range") from None


class Window(Record):
    """Norm window [10^lo_exp, 10^hi_exp] (or [L, 2L] when doubled)."""

    __slots__ = ("lo_exp", "hi_exp", "double")
    _defaults = {"double": False}

    @property
    def lo(self) -> int:
        return _pow10(self.lo_exp)

    @property
    def hi(self) -> int:
        return 2 * self.lo if self.double else _pow10(self.hi_exp)

    def __str__(self):
        return f"[10^{self.lo_exp:g}, {'2x' if self.double else ''}10^{self.hi_exp:g}]"


class ExponentScale(Record):
    """The four exponent maps standing in for the unscaled powers 6, 4, 2, 2.3."""

    __slots__ = ("p6", "p4", "p2", "p23", "name")
    _defaults = {"name": "custom"}

    @staticmethod
    def linear(c6=0.7, c4=0.35, c2=0.2, c23=0.1) -> "ExponentScale":
        return ExponentScale(
            lambda n: c6 * n,
            lambda n: c4 * n,
            lambda n: c2 * n,
            lambda n: c23 * n,
            name=f"linear({c6},{c4},{c2},{c23})",
        )

    @staticmethod
    def tower() -> "ExponentScale":
        """The unscaled powers; numeric windows refuse to instantiate."""
        return ExponentScale(
            lambda n: float(n) ** 6,
            lambda n: float(n) ** 4,
            lambda n: float(n) ** 2,
            lambda n: float(n) ** 2.3,
            name="tower",
        )


class StageWindows(Record):
    """One norm window per phase of stage k; B' is [s_k, 2 s_k], and the
    transition's window [1, cap] only caps its norm."""

    __slots__ = ("k", "A", "Aprime", "T", "B", "Bprime")  # A is absent at stage 1


class Schedule(Record):
    __slots__ = ("k0", "stages", "scale", "windows", "zeta")
    _defaults = {"zeta": ZETA}

    def stage(self, k: int) -> StageWindows:
        if k > len(self.windows):  # past the stage whose windows overflow
            raise ScheduleOverflowError(
                f"stage {k} is past stage {len(self.windows)}, whose windows "
                f"pass 10^{MAX_EXPONENT}"
            )
        return self.windows[k - 1]

    def star2_threshold(self, k: int) -> float:
        """Scaled analog of the first-column balance bound for A'_k T_k."""
        return _float_pow10(2 * self.scale.p2(k + self.k0))

    def angle_threshold_lhs(self, k: int) -> float:
        return _float_pow10(-CSTAR * self.scale.p6(2 * k + self.k0))

    def angle_threshold_rhs(self, k: int) -> float:
        return _float_pow10(-CSTAR * self.scale.p6(2 * k + 1 + self.k0))


def make_schedule(
    k0: int, scale: ExponentScale, stages: int, zeta: float = ZETA
) -> Schedule:
    """Concrete per-stage windows; raises ScheduleError when they collapse.
    Windows stop after the first stage with an exponent above
    ``MAX_EXPONENT``: a run raises ``ScheduleOverflowError`` in that stage,
    so it reaches none past it."""
    if stages < 1:
        raise UsageError("need at least one stage")
    if not 1 < zeta < math.inf:  # condition (*) compares against it; NaN fails
        raise UsageError(f"zeta must be finite and > 1, got {zeta}")
    p6, p4, p2, p23 = scale.p6, scale.p4, scale.p2, scale.p23
    out = []
    try:
        for k in range(1, stages + 1):
            if k == 1:
                a = None
                ap = Window(p6(3 + k0), p6(3 + k0), double=True)
            else:
                lo = p6(2 * k + k0) - p4(k + k0)
                a = Window(lo, lo + p23(k + k0))
                lo = p6(2 * k + 1 + k0) + p4(k + k0)
                ap = Window(lo, lo + p2(k + k0))
            b_lo = p6(2 * k + 1 + k0) - p4(k + k0)
            b = Window(b_lo, b_lo + p2(k + k0))
            bp_lo = p6(2 * k + 2 + k0) + p4(k + k0)
            bp = Window(bp_lo, bp_lo, double=True)
            t = Window(0, p2(k + k0))
            out.append(StageWindows(k, a, ap, t, b, bp))
            if any(not e <= MAX_EXPONENT for win in (a, ap, t, b, bp) if win
                   for e in (win.lo_exp, win.hi_exp)):
                break  # a run raises in this stage, by _pow10
    except OverflowError:  # k0 (or the scale) beyond the float range
        raise ScheduleOverflowError(
            f"the {scale.name} exponents of k0 = {k0} are beyond the float range"
        ) from None
    sched = Schedule(k0, stages, scale, tuple(out), zeta=zeta)
    _validate_schedule(sched)
    return sched


def _validate_schedule(s: Schedule) -> None:
    prev: StageWindows | None = None
    for w in s.windows:
        for win in (w.A, w.Aprime, w.B, w.Bprime):
            if win is not None and win.lo_exp > win.hi_exp:
                raise ScheduleError(f"stage {w.k}: collapsed window {win}")
        if w.A is not None and w.Aprime.lo_exp <= w.A.hi_exp:
            raise ScheduleError(
                f"stage {w.k}: restriction window does not dominate freedom window"
            )
        if w.Bprime.lo_exp <= w.B.hi_exp:
            raise ScheduleError(f"stage {w.k}: B' window does not dominate B window")
        if prev is not None:
            pairs = [(prev.Aprime, w.Aprime), (prev.B, w.B), (prev.Bprime, w.Bprime)]
            if prev.A is not None and w.A is not None:
                pairs.append((prev.A, w.A))
            for old, new in pairs:
                if new.lo_exp <= old.lo_exp:
                    raise ScheduleError(
                        f"stage {w.k}: windows are not increasing across stages"
                    )
        prev = w


# ---------------------------------------------------------------------------
# phase rules and phase paths


class PhaseRule(Record):
    """What a phase path may do: take only moves ``admissible`` passes,
    begin at one of ``starts`` and finish at ``end``."""

    __slots__ = ("phase", "admissible", "starts", "end")


def phase_rules(d: int) -> dict[str, PhaseRule]:
    """The rule of each phase for d symbols; the one definition the
    generators walk by and ``validate_phase`` checks against."""
    pi_l, pi_r, _ = special_permutations(d)
    pi_s = hyperelliptic_permutation(d)
    freedom_lhs = lambda e: e.winner <= d - 2
    rules = {
        # freedom-LHS also makes 1 win first; from pi_s that win and the
        # next lead back through pi_L, as the bridge's two do
        FREEDOM_LHS: (freedom_lhs, (pi_l, pi_s), pi_s),
        FREEDOM_LHS_BRIDGE: (freedom_lhs, (pi_s,), pi_l),
        RESTRICTION_LHS: (lambda e: restricted_lhs_move(e, d), (pi_l,), pi_l),
        TRANSITION: (lambda e: e.target != pi_l, (pi_l,), pi_s),
        FREEDOM_RHS: (lambda e: e.winner >= d - 1, (pi_s,), pi_r),
        RESTRICTION_RHS: (lambda e: e.winner >= d - 1 and e.loser >= d - 1, (pi_r,), pi_s),
        AVOIDING: (freedom_lhs, (pi_s, pi_l), pi_s),
    }
    return {phase: PhaseRule(phase, *rule) for phase, rule in rules.items()}


class PhasePath(Record):
    __slots__ = (
        "phase",
        "start",
        "end",
        "runs",  # (side, count), count >= 1, no two neighbours on one side
        "matrix",
        "warnings",
    )
    _defaults = {"warnings": ()}

    def warn(self, message: str) -> "PhasePath":
        return PhasePath(self.phase, self.start, self.end, self.runs, self.matrix,
                         self.warnings + (message,))


class PathBuilder:
    """Accumulates runs and the phase matrix while walking the diagram
    from one of ``rule``'s starts."""

    def __init__(self, rule: PhaseRule, start: LabeledPermutation):
        if start not in rule.starts:
            raise UsageError(
                f"{rule.phase} starts at {' or '.join(map(str, rule.starts))}, not {start}"
            )
        self.rule = rule
        self.start = start
        self.walk = _Walk(start)
        self.runs: list[list] = []  # mutable [side, count]

    @property
    def pi(self) -> LabeledPermutation:
        return self.walk.perm

    @property
    def norm(self) -> int:
        """Norm of the phase matrix so far."""
        return max(self.walk.norms)

    def apply_side(self, side: str, count: int = 1) -> RauzyEdge:
        edge = self.walk.move(side, count)
        if self.runs and self.runs[-1][0] == side:
            self.runs[-1][1] += count
        else:
            self.runs.append([side, count])
        return edge

    def apply_winner(self, winner: int) -> RauzyEdge:
        i, j = self.pi.top[-1], self.pi.bottom[-1]
        if winner == i:
            return self.apply_side(TOP_WINS)
        if winner == j:
            return self.apply_side(BOTTOM_WINS)
        raise StageError(
            f"symbol {winner} cannot win at {self.pi} (last symbols {i}, {j})"
        )

    def finish(self) -> PhasePath:
        """The path walked so far; a StageError unless it is at the rule's end."""
        if self.pi != self.rule.end:
            raise StageError(f"{self.rule.phase} ended at {self.pi}, not {self.rule.end}")
        return PhasePath(
            self.rule.phase,
            self.start,
            self.pi,
            tuple(tuple(r) for r in self.runs),
            self.walk.matrix(),
        )


def _steer(
    b: PathBuilder, goal: Callable[[RauzyEdge], bool], rng: Random | None = None
) -> None:
    """Take the shortest moves ``b``'s rule admits from ``b``'s vertex
    through the first move that passes ``goal``, found by the diagram's
    breadth-first walker.  Each vertex taken from its queue tries top-wins
    then bottom-wins, or the order ``rng`` shuffles for it."""

    def sides() -> list[str]:
        order = [TOP_WINS, BOTTOM_WINS]
        if rng is not None:
            rng.shuffle(order)
        return order

    root = b.walk.v
    parents: dict[int, tuple[int, str]] = {}
    for v, t, e, new in _breadth_first(root, b.rule.admissible, sides):
        if goal(e):
            path = [e.side]
            while v != root:
                v, side = parents[v]
                path.append(side)
            for side in reversed(path):
                b.apply_side(side)
            return
        if new:
            parents[t] = (v, e.side)
    raise StageError(f"{b.rule.phase}: no admissible path from {b.pi} to its goal")


def _check_window(path: PhasePath, window: Window) -> PhasePath:
    """``path``, with a warning recorded on it when its norm overshoots
    ``window``; ``construct`` reports the recorded warnings."""
    norm = path.matrix.norm
    if norm <= window.hi:
        return path
    return path.warn(f"{path.phase}: norm {norm} overshot window {window}; widened")


def _walk_to_window(
    b: PathBuilder, window: Window, rng: Random, budget: int
) -> PhasePath:
    """Random admissible moves until the norm reaches the window, then the
    shortest admissible way to the rule's end; an overshoot is kept as a
    warning."""
    rule, walk, lo = b.rule, b.walk, window.lo
    sides: dict[int, list[str]] = {}  # the admissible sides of each vertex reached
    steps = 0
    while max(walk.norms) < lo:
        if steps >= budget:
            raise BudgetExceededError(f"{rule.phase} window unreachable within budget")
        options = sides.get(walk.v)
        if options is None:
            options = sides[walk.v] = [
                s for s in (TOP_WINS, BOTTOM_WINS) if rule.admissible(walk.edge(s))
            ]
        if not options:
            raise StageError(f"{rule.phase} walk stuck at {b.pi}")
        b.apply_side(rng.choice(options))  # draws even from one option
        steps += 1
    if b.pi != rule.end:
        _steer(b, lambda e: e.target == rule.end, rng)
    return _check_window(b.finish(), window)


def gen_freedom_lhs(b: PathBuilder, window: Window, rng: Random) -> PhasePath:
    """Freedom on the left: only 1..d-2 win, 1 wins first, ends at pi_s.

    ``b`` may start at pi_L (the canonical start) or pi_s (the state the
    previous stage ends in; the two forced symbol-1 wins that route back
    through pi_L are part of the phase).
    """
    b.apply_winner(1)  # 1 wins first; forced at pi_s, chosen at pi_L
    # the first win counts against the budget
    return _walk_to_window(b, window, rng, PHASE_BUDGET - 1)


def gen_bridge(b: PathBuilder, window: None, rng: Random) -> PhasePath:
    """Freedom ends at pi_s and restriction needs pi_L: route back with the
    same two 1-wins freedom itself would use.  No window, no draw."""
    b.apply_winner(1)
    b.apply_winner(1)
    return b.finish()


def gen_restriction_lhs(b: PathBuilder, window: Window, rng: Random) -> PhasePath:
    """Restriction on the left: 1 never wins, d-1 and d are never compared.

    For d=4 the restricted diagram is the single self-loop where 2 beats 1,
    so the norm target is hit in closed form; for d >= 5 the walk lives in
    the embedded smaller class and returns to pi_L.
    """
    if b.start.d == 4:
        count = rng.randint(window.lo - 1, window.hi - 1)  # the norm is count + 1
        if count:  # a window of [1, 2] may take no move
            b.apply_side(TOP_WINS, count)  # 2 beats 1, repeatedly
        return b.finish()
    return _walk_to_window(b, window, rng, PHASE_BUDGET)


def gen_transition(b: PathBuilder, window: Window, rng: Random) -> PhasePath:
    """pi_L to pi_s, visiting pi_s only at the end, never revisiting pi_L.
    The window's floor 10^0 holds at the start, so no random step is drawn
    before the shortest way to pi_s; a higher floor would draw them first."""
    return _walk_to_window(b, window, rng, PHASE_BUDGET)


def gen_freedom_rhs(b: PathBuilder, window: Window, rng: Random) -> PhasePath:
    """Freedom on the right: d sweeps 1..d-2, then loops at pi_R until the
    norm enters the window.

    Each loop is 1 to 3 (drawn) moves of d-1 beating d, one move of d beating
    d-1, then d beating 1,..,d-2 again; the loop returns to pi_R.
    """
    d = b.start.d
    for _ in range(1, d - 1):
        b.apply_winner(d)  # d beats 1, ..., d-2
    loops, lo = 0, window.lo
    while b.norm < lo:
        if loops >= PHASE_BUDGET:
            raise BudgetExceededError("freedom-RHS window unreachable")
        b.apply_side(BOTTOM_WINS, rng.randint(1, 3))  # d-1 beats d at pi_R
        for _ in range(d - 1):
            b.apply_winner(d)  # d beats d-1, then 1, ..., d-2
        loops += 1
    return _check_window(b.finish(), window)


def gen_restriction_rhs(b: PathBuilder, window: Window, rng: Random) -> PhasePath:
    """d-1 beats d ell times at pi_R, then d beats d-1; ends at pi_s.  ell is
    drawn from the stage's B' window [s_k, 2 s_k]."""
    b.apply_side(BOTTOM_WINS, rng.randint(window.lo, window.hi))  # a self-loop at pi_R
    b.apply_winner(b.start.d)
    return b.finish()


# ---------------------------------------------------------------------------
# grammar validation


def validate_phase(path: PhasePath) -> list[str]:
    """Replay ``path``'s runs from its start against its phase's rule;
    returns each kind of violation once (empty when clean).

    Every run must name a side of the diagram and at least one move, or
    nothing is replayed.  Every move replayed must be one the rule admits,
    and a freedom-LHS path's first move a win of 1; the replay must end at
    the rule's end, at ``path.end`` and with ``path.matrix``.  In
    restriction-LHS this pins the first row and the last two columns of the
    matrix: a move adds the winner's column to the loser's, 1 (the one
    column with a non-zero first entry) never wins and d-1, d never lose."""
    try:
        rule = phase_rules(path.start.d)[path.phase]
    except UsageError as exc:  # d < 4
        return [str(exc)]
    except KeyError:
        return [f"unknown phase {path.phase}"]
    malformed = any(side not in (TOP_WINS, BOTTOM_WINS) or count < 1
                    for side, count in path.runs)
    replayed: list[RauzyEdge] = []  # each run's moves, up to one period
    walk = _Walk(path.start)
    for side, count in () if malformed else path.runs:
        replayed += _DIAGRAM.cycle(walk.v, side).edges[:count]
        walk.move(side, count)
    starts = " or ".join(map(str, rule.starts))
    checks = [
        (path.start not in rule.starts, f"does not start at {starts}"),
        (malformed, "a run has no side of the diagram or fewer than one move"),
        (not all(map(rule.admissible, replayed)), "takes a move the rule forbids"),
        (rule.phase == FREEDOM_LHS and not malformed
         and (not replayed or replayed[0].winner != 1), "1 did not win first"),
        (not malformed and walk.perm != rule.end, f"does not end at {rule.end}"),
        (not malformed and path.end != walk.perm, "its end is not where its runs lead"),
        (not malformed and path.matrix != walk.matrix(),
         "its matrix is not the product of its runs"),
    ]
    return [message for failed, message in checks if failed]


# ---------------------------------------------------------------------------
# stage traces and the full run


def _scaled_floats(col: Sequence[int]) -> list[float]:
    """The integer column as floats, all divided by one power of two 2^k,
    k = max(0, largest bit length - 500): their squares and products stay in
    float range, and the factor cancels in every angle.  k is 0 for entries
    below 2^500, which convert as ``float`` does.  The angles square by
    ``x * x``, which is correctly rounded, so the factor cancels exactly;
    ``x ** 2`` goes through the C ``pow``, which rounds some ties away from
    even (``108139285.0 ** 2``)."""
    k = max(0, max(abs(x).bit_length() for x in col) - 500)
    return [x / (1 << k) for x in col]


def _span_angle(col: Sequence[int], first_block: bool, d: int) -> float:
    """Angle from an integer column to span(e_1..e_{d-2}) or span(e_{d-1}, e_d)."""
    col = _scaled_floats(col)
    top = math.sqrt(sum(x * x for x in col[: d - 2]))
    bottom = math.sqrt(sum(x * x for x in col[d - 2 :]))
    inside, outside = (top, bottom) if first_block else (bottom, top)
    return math.atan2(outside, inside)


def _column_angle(a: Sequence[float], b: Sequence[float]) -> float:
    """Angle between two float columns; integer ones go through
    ``_scaled_floats`` first."""
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    dot = sum(x * y for x, y in zip(a, b))
    c = max(-1.0, min(1.0, dot / (na * nb)))
    return math.acos(c)


class StageTrace(Record):
    __slots__ = (
        "k",
        "phases",
        "checkpoints",  # cumulative after each phase
        "cumulative",
        "stats",
    )

    @property
    def end(self) -> LabeledPermutation:
        """The vertex the stage's last phase ends at."""
        return next(reversed(self.phases.values())).end


class LimitInfo(Record):
    __slots__ = (
        "vertex_lhs",  # cluster average of first d-2 vertices
        "vertex_rhs",
        "intra_lhs",  # max angle within the first cluster, radians
        "intra_rhs",
        "inter",  # min angle between clusters
        "representative",
    )


class ConstructionRun(Record):
    __slots__ = ("d", "schedule", "seed", "stages", "limit")

    @property
    def cumulative(self) -> VisitationMatrix:
        return self.stages[-1].cumulative


def extend_stage(
    cum: VisitationMatrix,
    current: LabeledPermutation,
    k: int,
    schedule: Schedule,
    rng: Random,
    report: Callable[[PhasePath], None] | None = None,
) -> StageTrace:
    """Stage ``k`` from the cumulative matrix ``cum`` at vertex ``current``.

    The phases are freedom A and its bridge back to pi_L (from stage 2 on),
    restriction A', the transition T, freedom B and restriction B': one
    table of (name, phase, window, generator) rows.  The stage builds its
    rules once, and each generator continues a ``PathBuilder`` from the
    vertex the last phase ended at.  They draw from ``rng`` in that order,
    so a run is a fold of this function over one ``Random``, and a stage
    depends only on its parent's ``(cum, current)`` and the state of ``rng``.
    ``report``, if given, gets each path as its generator returns it.
    """
    w = schedule.stage(k)
    table = [  # (name, phase, window, generator), in draw order
        ("A", FREEDOM_LHS, w.A, gen_freedom_lhs),
        ("A-bridge", FREEDOM_LHS_BRIDGE, None, gen_bridge),
        ("Aprime", RESTRICTION_LHS, w.Aprime, gen_restriction_lhs),
        ("T", TRANSITION, w.T, gen_transition),
        ("B", FREEDOM_RHS, w.B, gen_freedom_rhs),
        ("Bprime", RESTRICTION_RHS, w.Bprime, gen_restriction_rhs),
    ]
    if k == 1:  # no freedom A, so no bridge, at stage 1
        del table[:2]
    rules = phase_rules(current.d)
    phases: dict[str, PhasePath] = {}
    checkpoints: dict[str, VisitationMatrix] = {"entry": cum}
    for name, phase, window, gen in table:
        path = gen(PathBuilder(rules[phase], current), window, rng)
        if report is not None:
            report(path)
        phases[name] = path
        cum = cum @ path.matrix
        current = path.end
        checkpoints[name] = cum
    d, after_a = current.d, checkpoints.get("A")
    first, last = range(1, d - 1), (d - 1, d)  # the two blocks of columns
    stats = {  # U/u/V/v analogs, and the end's column angles to the spans
        "U": max(after_a.column_norm(j) for j in first) if after_a else 1,
        "u": min(checkpoints["Aprime"].column_norm(j) for j in first),
        "V": max(checkpoints["B"].column_norm(j) for j in last),
        "v": min(cum.column_norm(j) for j in last),
        "angle_first_to_span": max(_span_angle(cum.column(j), True, d) for j in first),
        "angle_last_to_span": max(_span_angle(cum.column(j), False, d) for j in last),
        "norm": cum.norm,
    }
    return StageTrace(k, phases, checkpoints, cum, stats)


def run_construction(
    d: int, schedule: Schedule, seed: int, report: Callable[[PhasePath], None] | None = None
) -> ConstructionRun:
    """Fold ``extend_stage`` over all stages from the identity at pi_L, with
    one ``Random(seed)`` and one ``report`` (each path, in draw order, those
    of a failed stage too), and report the limiting vertex clusters."""
    if d < 4:
        raise UsageError("the construction needs d >= 4")
    rng = Random(seed)
    cum, current = VisitationMatrix.identity(d), special_permutations(d)[0]
    stages: list[StageTrace] = []
    try:
        for k in range(1, schedule.stages + 1):
            stages.append(extend_stage(cum, current, k, schedule, rng, report))
            cum, current = stages[-1].cumulative, stages[-1].end
    except (BudgetExceededError, StageError) as exc:
        raise StageError(
            f"stage {len(stages) + 1} failed: {exc}", partial=tuple(stages)
        ) from exc
    limit = _extract_limit(cum, d)
    return ConstructionRun(d, schedule, seed, tuple(stages), limit)


def _extract_limit(M: VisitationMatrix, d: int) -> LimitInfo:
    fverts = []  # each column over its sum, one correctly rounded division each
    for col in zip(*M.rows):
        n = sum(col)
        fverts.append(tuple(x / n for x in col))

    def avg(vs):
        s = [sum(c) for c in zip(*vs)]
        t = sum(s)
        return tuple(x / t for x in s)

    lhs = avg(fverts[: d - 2])
    rhs = avg(fverts[d - 2 :])
    intra_lhs = max(starmap(_column_angle, combinations(fverts[: d - 2], 2)))
    intra_rhs = _column_angle(fverts[d - 2], fverts[d - 1])
    inter = min(
        _column_angle(a, b) for a in fverts[: d - 2] for b in fverts[d - 2 :]
    )
    pi_l, _, _ = special_permutations(d)
    # exact interior representative: image of the barycenter, M 1 / |M 1|
    w = [sum(row) for row in M.rows]
    total = sum(w)
    representative = Iet(tuple(Fraction(x, total) for x in w), pi_l)

    return LimitInfo(lhs, rhs, intra_lhs, intra_rhs, inter, representative)


# ---------------------------------------------------------------------------
# condition checks


class StarReport(Record):
    __slots__ = (
        "stage", "c1_ratio", "c1_pass", "c2_ratio", "c2_threshold", "c2_pass",
        "c3_ratio", "c3_pass", "c4_ratio", "c4_pass",
    )


def check_conditions_star(run: ConstructionRun) -> list[StarReport]:
    """The four balance conditions, per stage (the fourth is automatic),
    against the schedule's zeta."""
    zeta = run.schedule.zeta
    d = run.d
    out = []
    for st in run.stages:
        a = st.phases.get("A")
        if a is None:
            c1_ratio, c1_pass = None, None
        else:
            c1_ratio = float(a.matrix.balance_ratio(range(1, d - 1)))
            c1_pass = c1_ratio < zeta
        ap = st.phases["Aprime"].matrix @ st.phases["T"].matrix
        c2_ratio = float(ap.balance_ratio(range(1, d - 1)))
        c2_threshold = run.schedule.star2_threshold(st.k)
        b = st.phases["B"].matrix
        c3_ratio = float(b.balance_ratio((d - 1, d)))
        bp = st.phases["Bprime"].matrix
        c4_ratio = float(bp.balance_ratio((d - 1, d)))
        out.append(
            StarReport(
                st.k,
                c1_ratio,
                c1_pass,
                c2_ratio,
                c2_threshold,
                c2_ratio < c2_threshold,
                c3_ratio,
                c3_ratio <= zeta,
                c4_ratio,
                c4_ratio <= 2.0,
            )
        )
    return out


class DoubleStarReport(Record):
    __slots__ = ("stage", "lhs_angle", "lhs_pass", "rhs_angle", "rhs_pass")


def check_condition_double_star(run: ConstructionRun) -> list[DoubleStarReport]:
    """Column-angle conditions at the two per-stage checkpoints, each angle
    below the schedule's threshold for its side and stage."""
    d = run.d
    out = []
    for st in run.stages:
        if "A" in st.checkpoints:
            m = st.checkpoints["A"]
            cols = [_scaled_floats(m.column(j)) for j in range(1, d - 1)]
            lhs_angle = max(starmap(_column_angle, combinations(cols, 2)))
            lhs_pass = lhs_angle < run.schedule.angle_threshold_lhs(st.k)
        else:
            lhs_angle = lhs_pass = None
        m = st.checkpoints["Bprime"]
        rhs_angle = _column_angle(*(_scaled_floats(m.column(j)) for j in (d - 1, d)))
        rhs_pass = rhs_angle < run.schedule.angle_threshold_rhs(st.k)
        out.append(DoubleStarReport(st.k, lhs_angle, lhs_pass, rhs_angle, rhs_pass))
    return out


class SizeReport(Record):
    __slots__ = (
        "stage",
        "upper_bound",
        "measured_U",
        "upper_pass",
        "lower_estimate",
        "lower_pass",
        "sandwich_ratio",  # V_{k-1} / (U_{k-1} * B-window-low), want >= 1/zeta
    )


def check_size_recursions(run: ConstructionRun) -> list[SizeReport]:
    """The structural growth recursions with measured quantities.

    Upper: U_k <= (U_{k-1} |A'_{k-1}| |T_{k-1}| + V_{k-1}) |A_k|; the lower
    analog replaces the symbolic balance constants by the measured balance
    ratios of the same matrices, so it is a slack report, not a theorem.
    A run of fewer than two stages has no recursion to report.
    """
    d = run.d
    out = []
    for prev, st in zip(run.stages, run.stages[1:]):
        ap_prev = prev.phases["Aprime"].matrix
        t_prev = prev.phases["T"].matrix
        a = st.phases["A"].matrix
        u_prev = float(prev.stats["U"])
        v_prev = float(prev.stats["V"])
        upper = (u_prev * ap_prev.norm * t_prev.norm + v_prev) * a.norm
        measured = float(st.stats["U"])
        apt = ap_prev @ t_prev
        bal_apt = float(apt.balance_ratio(range(1, d - 1)))
        bal_b = float(prev.phases["B"].matrix.balance_ratio((d - 1, d)))
        bal_a = float(a.balance_ratio(range(1, d - 1)))
        lower = (
            u_prev * min(apt.column_norm(j) for j in range(1, d - 1)) / bal_apt
            + v_prev / bal_b
        ) * (a.norm / bal_a)
        sandwich = v_prev / (u_prev * prev.phases["B"].matrix.norm)
        out.append(
            SizeReport(
                st.k,
                upper,
                measured,
                measured <= upper,
                lower,
                measured >= lower,
                sandwich,
            )
        )
    return out


class AngleMonotonicityReport(Record):
    __slots__ = (
        "stage",
        "lhs_angles",  # entry, [after A], after A'
        "lhs_monotone",
        "rhs_angles",  # after T, after B, after B'
        "rhs_monotone",
    )


def check_nue_angles(run: ConstructionRun) -> list[AngleMonotonicityReport]:
    """Per-stage checkpoint angles to the two coordinate spans.

    While a side is active only its own columns are added to each other, so
    the maximal angle of those columns to their coordinate span cannot
    increase; the sequence over that side's checkpoints must be
    non-increasing (up to a float slack of 1e-12).  The opposite side's additions can
    and do push the angle back up between stages, which is why the
    comparison is within-stage.
    """
    d = run.d
    out = []
    for st in run.stages:
        lhs_names = [n for n in ("entry", "A", "Aprime") if n in st.checkpoints]
        lhs = tuple(
            max(
                _span_angle(st.checkpoints[n].column(j), True, d)
                for j in range(1, d - 1)
            )
            for n in lhs_names
        )
        rhs_names = [n for n in ("T", "B", "Bprime") if n in st.checkpoints]
        rhs = tuple(
            max(
                _span_angle(st.checkpoints[n].column(j), False, d)
                for j in (d - 1, d)
            )
            for n in rhs_names
        )
        lhs_ok = all(b <= a + 1e-12 for a, b in zip(lhs, lhs[1:]))
        rhs_ok = all(b <= a + 1e-12 for a, b in zip(rhs, rhs[1:]))
        out.append(AngleMonotonicityReport(st.k, lhs, lhs_ok, rhs, rhs_ok))
    return out


# ---------------------------------------------------------------------------
# hyperplane-avoiding paths (appendix)


def hyperplane_avoiding_paths(d: int, i: int, eps0: float = 0.1) -> PhasePath:
    """Explicit paths whose sub-simplices hug the vertex e_i.

    i=1: symbol 1 wins d-1 consecutive times from pi_s (passing through pi_L
    and pi_prime); every vertex of the resulting simplex has first coordinate
    at least 1/2 exactly.  i in 2..d-2: symbol d-2 ferries mass, then i beats
    d-2..i+1 repeatedly, then d-2 sweeps the leftovers; the first d-2 vertex
    directions land within eps0 of e_i, verified numerically.
    """
    if d < 4:
        raise UsageError("need d >= 4")
    if not 1 <= i <= d - 2:
        raise UsageError("target vertex must be one of 1..d-2")
    rule = phase_rules(d)[AVOIDING]
    pi_l, _, pi_prime = special_permutations(d)
    if i == 1:
        b = PathBuilder(rule, hyperelliptic_permutation(d))
        waypoints = []
        for _ in range(d - 1):
            b.apply_winner(1)
            waypoints.append(b.pi)
        path = b.finish()
        if pi_l not in waypoints or pi_prime not in waypoints:
            raise StageError("i=1 path did not route pi_s -> pi_L -> pi' -> pi_s")
        # exact containment: every vertex has first coordinate >= 1/2
        for j in range(1, d + 1):
            col = path.matrix.column(j)
            if Fraction(col[0], sum(col)) < Fraction(1, 2):
                raise CalibrationError("i=1 containment failed", achieved_radius=None)
        return path
    reps = math.ceil(4.0 / eps0)
    b = PathBuilder(rule, pi_l)
    for _ in range(i - 1):
        b.apply_winner(d - 2)  # ferry 1, ..., i-1 out of the way
    if i < d - 2:
        for _ in range(reps):
            for _ in range(d - 2 - i):
                b.apply_winner(i)  # i beats d-2, ..., i+1 in a loop
    else:
        # i = d-2: the ferry loop itself is the mass pump
        for _ in range(reps):
            for _ in range(d - 3):
                b.apply_winner(d - 2)

    def col_dist(j: int) -> float:
        col = [float(x) for x in b.walk.cols[j - 1]]
        t = sum(col)
        return math.sqrt(
            sum((x / t - (1.0 if idx == i - 1 else 0.0)) ** 2 for idx, x in enumerate(col))
        )

    # cleanup: route each still-light column under a heavy carrier's win
    for _ in range(d):
        light = [
            j for j in range(1, d - 1) if j != i and col_dist(j) > eps0 / 2
        ]
        if not light:
            break
        target = max(light, key=col_dist)
        heavy = {i} | {
            j for j in range(1, d - 1) if col_dist(j) <= eps0 / 2
        }
        _steer(b, lambda e: e.winner in heavy and e.loser == target)
    if b.pi != rule.end:
        _steer(b, lambda e: e.target == rule.end, Random(0))
    path = b.finish()
    worst = max(col_dist(j) for j in range(1, d - 1))
    if worst > eps0:
        raise CalibrationError(
            f"containment radius {worst:.3g} exceeds eps0 {eps0}", achieved_radius=worst
        )
    return path
