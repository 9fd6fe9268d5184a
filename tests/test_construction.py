"""Staged path generation, schedules, and the per-stage conditions."""
from __future__ import annotations

import math
import operator
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import ietkit.construction as construction
from ietkit.construction import (
    ExponentScale,
    FREEDOM_LHS,
    FREEDOM_LHS_BRIDGE,
    FREEDOM_RHS,
    RESTRICTION_LHS,
    TRANSITION,
    PathBuilder,
    PhasePath,
    Window,
    _column_angle,
    _scaled_floats,
    _span_angle,
    check_condition_double_star,
    check_conditions_star,
    check_nue_angles,
    check_size_recursions,
    extend_stage,
    gen_freedom_lhs,
    gen_freedom_rhs,
    gen_restriction_lhs,
    gen_transition,
    hyperplane_avoiding_paths,
    make_schedule,
    phase_rules,
    run_construction,
    validate_phase,
)
from ietkit.errors import ScheduleOverflowError, StageError, UsageError
from ietkit.induction import VisitationMatrix, drive_path
from ietkit.perm import (
    BOTTOM_WINS,
    TOP_WINS,
    hyperelliptic_permutation,
    special_permutations,
)


@pytest.fixture(scope="module")
def reference_run():
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    return run_construction(4, schedule, seed=11)


def _gen(gen, phase, start, window, rng):
    """One phase path: ``gen`` continues a builder at ``start`` under the rule."""
    return gen(PathBuilder(phase_rules(start.d)[phase], start), window, rng)


def _transition(d, rng):
    """A transition from pi_L under stage 1's window, which caps its norm only."""
    window = make_schedule(1, ExponentScale.linear(), stages=1).stage(1).T
    return _gen(gen_transition, TRANSITION, special_permutations(d)[0], window, rng)


def test_schedule_windows_monotone():
    s = make_schedule(1, ExponentScale.linear(), stages=4)
    for attr in ("Aprime", "B", "Bprime"):
        lows = [getattr(s.stage(k), attr).lo_exp for k in range(1, 5)]
        assert lows == sorted(lows)


def test_schedule_needs_a_stage():
    with pytest.raises(UsageError):
        make_schedule(1, ExponentScale.linear(), stages=0)


def test_schedule_checks_an_int_zeta_beyond_the_float_range():
    # a manifest's zeta may be any JSON int; the range check compares it exactly
    assert make_schedule(1, ExponentScale.linear(), stages=1, zeta=10**400).zeta == 10**400
    with pytest.raises(UsageError):
        make_schedule(1, ExponentScale.linear(), stages=1, zeta=-(10**400))


def test_schedule_builds_no_stage_past_its_first_overflow():
    # linear windows first pass 10^MAX_EXPONENT at stage 9, where A' reaches 10^19.5
    def table(schedule):
        return [(w.k, *map(str, (w.A, w.Aprime, w.T, w.B, w.Bprime)))
                for w in schedule.windows]

    many = make_schedule(1, ExponentScale.linear(), 10**6)
    assert many.stages == 10**6
    assert table(many) == table(make_schedule(1, ExponentScale.linear(), 9))
    assert len(many.windows) == 9 and many.stage(9) is many.windows[-1]
    with pytest.raises(ScheduleOverflowError, match="stage 10"):
        many.stage(10)


def test_unscaled_powers_overflow_numeric_windows():
    s = make_schedule(1, ExponentScale.tower(), stages=1)
    with pytest.raises(ScheduleOverflowError):
        _ = s.stage(1).Bprime.lo


def test_run_is_deterministic(reference_run):
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    again = run_construction(4, schedule, seed=11)
    assert again.cumulative == reference_run.cumulative
    other = run_construction(4, schedule, seed=12)
    assert other.cumulative != reference_run.cumulative


def test_all_phases_pass_grammar_scans(reference_run):
    schedule = make_schedule(1, ExponentScale.linear(), stages=4)
    runs = [reference_run] + [run_construction(d, schedule, seed=3) for d in (4, 5, 6)]
    for run in runs:
        for st in run.stages:
            for name, phase in st.phases.items():
                assert validate_phase(phase) == [], f"d={run.d} stage {st.k} phase {name}"
    for d, i in [(4, 1), (4, 2), (5, 2), (5, 3), (6, 4)]:
        assert validate_phase(hyperplane_avoiding_paths(d, i)) == [], f"avoiding {d}, {i}"


def _flagged(path):
    bad = validate_phase(path)
    assert bad, path
    assert len(set(bad)) == len(bad), bad  # each kind of violation once
    return bad


def test_grammar_scan_flags_a_transition_through_pi_l():
    pi_l, _, _ = special_permutations(5)
    s = make_schedule(1, ExponentScale.linear(), stages=1)
    rng = Random(0)
    # pi_L to pi_L
    back = _gen(gen_restriction_lhs, RESTRICTION_LHS, pi_l, s.stage(1).Aprime, rng)
    t = _transition(5, rng)
    bad = _flagged(PhasePath(TRANSITION, pi_l, t.end, back.runs + t.runs,
                             back.matrix @ t.matrix))
    assert bad == ["takes a move the rule forbids"]


def test_grammar_scan_flags_a_matrix_its_runs_do_not_make():
    t = _transition(5, Random(0))
    fake = PhasePath(t.phase, t.start, t.end, t.runs, VisitationMatrix.identity(5))
    assert _flagged(fake) == ["its matrix is not the product of its runs"]


def test_grammar_scan_flags_freedom_rhs_runs_labelled_freedom_lhs():
    s = make_schedule(1, ExponentScale.linear(), stages=1)
    b = _gen(gen_freedom_rhs, FREEDOM_RHS, hyperelliptic_permutation(4), s.stage(1).B,
             Random(0))
    bad = _flagged(PhasePath(FREEDOM_LHS, b.start, b.end, b.runs, b.matrix))
    assert "takes a move the rule forbids" in bad
    assert "1 did not win first" in bad


@pytest.mark.parametrize("side,count", [("sideways", None), (None, 0), (None, -1)])
def test_grammar_scan_flags_a_run_of_no_side_or_no_move(side, count):
    """A malformed run is reported, not raised on or replayed."""
    t = _transition(5, Random(0))
    (s, c), *rest = t.runs
    bad_run = (side or s, c if count is None else count)
    bad = _flagged(PhasePath(t.phase, t.start, t.end, (bad_run, *rest), t.matrix))
    assert bad == ["a run has no side of the diagram or fewer than one move"]


def test_grammar_scan_flags_an_unknown_phase(reference_run):
    t = reference_run.stages[0].phases["T"]
    bad = _flagged(PhasePath("no-such-phase", t.start, t.end, t.runs, t.matrix))
    assert bad == ["unknown phase no-such-phase"]


def test_conditions_star(reference_run):
    for rep in check_conditions_star(reference_run):
        if rep.c1_pass is not None:
            assert rep.c1_pass
        assert rep.c2_pass
        assert rep.c3_pass
        assert rep.c4_pass
        assert rep.c4_ratio <= 2.0


def test_condition_double_star(reference_run):
    for rep in check_condition_double_star(reference_run):
        if rep.lhs_pass is not None:
            assert rep.lhs_pass
        assert rep.rhs_pass


def test_size_recursion_upper_bounds(reference_run):
    reports = check_size_recursions(reference_run)
    assert len(reports) == 2
    for rep in reports:
        assert rep.upper_pass
        assert rep.measured_U <= rep.upper_bound


def test_size_recursions_of_a_one_stage_run_are_empty():
    run = run_construction(4, make_schedule(1, ExponentScale.linear(), stages=1), seed=11)
    assert check_size_recursions(run) == []


def test_within_stage_angle_monotonicity(reference_run):
    for rep in check_nue_angles(reference_run):
        assert rep.lhs_monotone, rep
        assert rep.rhs_monotone, rep


def test_contamination_ratio_decreases(reference_run):
    """The opposite-side contamination V_k/u_{k+1} shrinks stage over stage."""
    stats = [st.stats for st in reference_run.stages]
    ratios = [
        float(stats[i]["V"]) / float(stats[i + 1]["u"])
        for i in range(len(stats) - 1)
    ]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:])) or len(ratios) < 2
    assert all(r < 1 for r in ratios)


def test_limit_cluster_geometry(reference_run):
    lim = reference_run.limit
    assert lim.intra_lhs < 1e-3
    assert lim.intra_rhs < 1e-3
    assert lim.inter > 0.5
    assert sum(lim.representative.lengths) == 1


def test_freedom_lhs_shape():
    pi_l, _, _ = special_permutations(4)
    s = make_schedule(1, ExponentScale.linear(), stages=2)
    phase = _gen(gen_freedom_lhs, FREEDOM_LHS, pi_l, s.stage(2).A, Random(0))
    assert phase.phase == FREEDOM_LHS
    winners = [e.winner for e in _edges_of(phase)]
    assert winners[0] == 1  # symbol 1 wins first
    assert phase.end == hyperelliptic_permutation(4)
    assert all(w <= 2 for w in winners)


def test_restriction_lhs_leaves_last_columns(reference_run):
    d = 4
    for st in reference_run.stages:
        phase = st.phases["Aprime"]
        assert phase.phase == RESTRICTION_LHS
        M = phase.matrix
        # row 1 of the product is (1, 0, ..., 0) and the last two columns
        # are untouched: symbol 1 never wins, d-1 and d are never compared
        assert M.rows[0] == (1, 0, 0, 0)
        for j in (d - 1, d):
            col = M.column(j)
            assert col == tuple(1 if i == j - 1 else 0 for i in range(d))


def test_transition_avoids_restriction_entry():
    pi_l, _, _ = special_permutations(4)
    phase = _transition(4, Random(3))
    assert phase.end == hyperelliptic_permutation(4)
    # intermediate vertices never revisit the restriction entry point
    assert pi_l not in [e.target for e in _edges_of(phase)][:-1]


def _sides_of(phase):
    return [side for side, count in phase.runs for _ in range(count)]


def _edges_of(phase):
    return drive_path(phase.start, _sides_of(phase))[2]


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_phase_runs_are_maximal_and_replay_move_by_move(d):
    """Each run of a phase path is one side, taken at least once, and its
    neighbours are on the other side; one move at a time, the sides give
    the path's matrix and end.  A smaller scale than the default keeps the
    restriction phases' runs to thousands of moves."""
    schedule = make_schedule(1, ExponentScale.linear(0.35, 0.175, 0.1, 0.05), stages=3)
    for seed in range(3):
        for st in run_construction(d, schedule, seed).stages:
            for path in st.phases.values():
                sides = [side for side, _ in path.runs]
                assert all(a != b for a, b in zip(sides, sides[1:])), path.runs
                assert all(count >= 1 for _, count in path.runs), path.runs
                M, end, _ = drive_path(path.start, _sides_of(path))
                assert (M, end) == (path.matrix, path.end)
                assert validate_phase(path) == []


def test_one_run_holds_a_winner_beating_several_losers():
    # d beats 1, ..., d-2 from pi_s: four moves on the top side, four losers
    s = make_schedule(1, ExponentScale.linear(), stages=1)
    path = _gen(gen_freedom_rhs, FREEDOM_RHS, hyperelliptic_permutation(6), s.stage(1).B,
                Random(0))
    assert path.runs[0] == (TOP_WINS, 4)
    assert [(e.winner, e.loser) for e in _edges_of(path)[:4]] == [(6, 1), (6, 2), (6, 3), (6, 4)]
    assert validate_phase(path) == []


def test_restriction_lhs_of_no_move_records_no_run():
    # at d=4 the phase takes norm - 1 moves; a window [1, 2] may take none
    pi_l, _, _ = special_permutations(4)
    window = Window(0, 0, double=True)
    paths = [_gen(gen_restriction_lhs, RESTRICTION_LHS, pi_l, window, Random(seed))
             for seed in range(8)]
    assert {p.runs for p in paths} == {(), ((TOP_WINS, 1),)}
    assert all(validate_phase(p) == [] for p in paths)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_restriction_rhs_loop_count_is_in_its_window(d):
    # B' draws its own loop count ell from [s_k, 2 s_k]: ell self-loops, then d wins
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    for st in run_construction(d, schedule, seed=3).stages:
        window = schedule.stage(st.k).Bprime
        (side, ell), last = st.phases["Bprime"].runs
        assert side == BOTTOM_WINS and window.lo <= ell <= window.hi
        assert last == (TOP_WINS, 1)


def test_a_stage_builds_its_phase_rules_once(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return phase_rules(d)

    monkeypatch.setattr(construction, "phase_rules", counted)
    run_construction(6, make_schedule(1, ExponentScale.linear(), stages=6), seed=0)
    assert calls == [6] * 6


def test_avoiding_path_first_vertex_half():
    phase = hyperplane_avoiding_paths(4, 1)
    M = phase.matrix
    for j in range(1, 5):
        col = M.column(j)
        assert col[0] * 2 >= sum(col)  # first coordinate of the vertex >= 1/2


@pytest.mark.parametrize("d,i", [(4, 2), (5, 2), (5, 3), (6, 4)])
def test_avoiding_path_hugs_target_vertex(d, i):
    eps0 = 0.1
    phase = hyperplane_avoiding_paths(d, i, eps0=eps0)
    M = phase.matrix
    for j in range(1, d - 1):
        col = M.column(j)
        total = sum(col)
        dist = math.sqrt(
            sum(
                (col[r] / total - (1.0 if r == i - 1 else 0.0)) ** 2
                for r in range(d)
            )
        )
        assert dist <= eps0
    assert phase.end == hyperelliptic_permutation(d)


def test_window_overshoot_is_logged():
    # the run records the warning; construct logs it (tests/test_cli.py)
    schedule = make_schedule(1, ExponentScale.linear(), stages=2)
    run = run_construction(5, schedule, seed=0)
    assert run.stages[1].phases["A"].warnings == (
        "freedom-LHS: norm 799 overshot window [10^2.45, 10^2.75]; widened",
    )


def test_every_phase_overshoot_is_logged():
    # freedom-RHS and the transition cap warn as freedom-LHS does
    schedule = make_schedule(1, ExponentScale.linear(), stages=2)
    run = run_construction(4, schedule, seed=3)
    assert run.stages[0].phases["B"].warnings == (
        "freedom-RHS: norm 342 overshot window [10^2.1, 10^2.5]; widened",
    )
    schedule = make_schedule(1, ExponentScale.linear(), stages=1)
    schedule.stage(1).T = Window(0, 0)  # a cap of 1: every transition overshoots
    t = run_construction(4, schedule, seed=3).stages[0].phases["T"]
    norm = t.matrix.norm
    assert t.warnings == (f"transition: norm {norm} overshot window [10^0, 10^0]; widened",)


def test_report_sees_every_phase_path_in_draw_order():
    seen = []
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    run = run_construction(5, schedule, seed=0, report=seen.append)
    drawn = [p for st in run.stages for p in st.phases.values()]
    assert len(seen) == len(drawn) and all(map(operator.is_, seen, drawn))


def test_report_sees_the_phase_paths_of_a_failed_stage(monkeypatch):
    # stage 2's freedom-LHS overshoots, then its restriction runs out of moves
    monkeypatch.setattr(construction, "PHASE_BUDGET", 40)
    seen = []
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    with pytest.raises(StageError, match="stage 2 failed") as exc:
        run_construction(5, schedule, seed=0, report=seen.append)
    (first,) = exc.value.partial
    assert seen[:len(first.phases)] == list(first.phases.values())
    assert [p.phase for p in seen[len(first.phases):]] == [FREEDOM_LHS,
                                                           FREEDOM_LHS_BRIDGE]
    assert seen[-2].warnings == (
        "freedom-LHS: norm 799 overshot window [10^2.45, 10^2.75]; widened",
    )


@pytest.mark.parametrize("d", [4, 5, 6])
def test_stage_depends_only_on_its_parent(d):
    schedule = make_schedule(1, ExponentScale.linear(), stages=4)
    run = run_construction(d, schedule, seed=3)
    rng = Random(3)
    cum, current = VisitationMatrix.identity(d), special_permutations(d)[0]
    states = []  # the rng state before each stage of a hand fold
    for k in range(1, schedule.stages + 1):
        states.append(rng.getstate())
        stage = extend_stage(cum, current, k, schedule, rng)
        cum, current = stage.cumulative, stage.end
    assert cum == run.cumulative
    for k in range(schedule.stages - 1, 0, -1):  # resume from stage k, last first
        parent, want = run.stages[k - 1], run.stages[k]
        rng = Random()
        rng.setstate(states[k])
        got = extend_stage(parent.cumulative, parent.end, k + 1, schedule, rng)
        assert got.k == want.k == k + 1
        assert list(got.phases) == list(want.phases)
        for name, path in want.phases.items():
            again = got.phases[name]
            assert (again.phase, again.start, again.end, again.runs, again.matrix,
                    again.warnings) == (path.phase, path.start, path.end, path.runs,
                                        path.matrix, path.warnings)
        assert got.checkpoints == want.checkpoints
        assert got.cumulative == want.cumulative
        assert got.stats == want.stats


@settings(max_examples=50, deadline=None)
@example(cols=[[0, 0, 0, 1], [0, 0, 1, 108139285]])  # 108139285.0 ** 2 rounds a tie up
@given(cols=st.integers(4, 7).flatmap(lambda d: st.lists(
    st.lists(st.integers(0, 2**60), min_size=d, max_size=d).filter(any),
    min_size=2, max_size=2)))
def test_angles_of_a_column_do_not_depend_on_its_scale(cols):
    """An integer column times 2^s has the angles of the column: the common
    power of two cancels, also where the float squares would overflow."""
    a, b = cols
    d = len(a)

    def angles(a, b):
        return (_span_angle(a, True, d), _span_angle(a, False, d),
                _column_angle(_scaled_floats(a), _scaled_floats(b)))

    want = angles(a, b)
    for s in (0, 50, 700):
        assert angles([x << s for x in a], [x << s for x in b]) == want
