"""Monte Carlo lemma checks, Birkhoff measurements, and dimension tools."""
from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ietkit.analysis as analysis
from ietkit.analysis import (
    CONSISTENT,
    GRID,
    INCONCLUSIVE,
    NestedFamily,
    Polygon2D,
    birkhoff_separation,
    box_dimension,
    build_nested_family,
    cantor_product_family,
    frostman_measure,
    half_simplex,
    keane_check,
    limit_tower_points,
    mc_balance,
    mc_jacobian_pushforward,
    prob_decay_sim,
    sample_simplex_exact,
    stage_one_planes,
    _sample_gaps,
)
from ietkit.construction import ExponentScale, make_schedule, run_construction
from ietkit.errors import DegeneracyError, UsageError
from ietkit.induction import Iet, VisitationMatrix
from ietkit.perm import hyperelliptic_permutation
from ietkit.simplex_geometry import plane_family
from ietkit.symplectic import omega


@pytest.fixture(scope="module")
def reference_run():
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    return run_construction(4, schedule, seed=11)


@pytest.fixture(scope="module")
def reference_planes(reference_run):
    st1 = reference_run.stages[0]
    return plane_family(
        st1.phases["Aprime"].matrix,
        st1.phases["B"].matrix,
        omega(st1.phases["Aprime"].start),
    )


def test_stage_one_planes_matches_fixture(reference_run, reference_planes):
    assert stage_one_planes(reference_run) == reference_planes


# -- sampling ---------------------------------------------------------------


def test_exact_simplex_sample_sums_to_one():
    x = sample_simplex_exact(5, Random(3))
    assert sum(x) == 1
    assert all(v >= 0 for v in x)


def reference_gaps(d, rng):
    """The sampler as randrange spells it: sorted cuts on the grid, drawn
    again while two coincide."""
    while True:
        cuts = sorted(rng.randrange(1, GRID) for _ in range(d - 1))
        pts = [0] + cuts + [GRID]
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        if all(g > 0 for g in gaps):
            return gaps


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=2, max_value=8))
def test_sample_gaps_draw_the_randrange_stream(seed, d):
    rng, reference = Random(seed), Random(seed)
    for _ in range(50):
        assert _sample_gaps(d, rng) == reference_gaps(d, reference)
    assert rng.getstate() == reference.getstate()


class ScriptedWords(Random):
    """A generator whose 53-bit words come from a script: randrange draws
    through ``getrandbits`` too, so both samplers read the same words."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def getrandbits(self, k):
        assert k == 53
        return self.words.pop(0)


def test_sample_gaps_redraw_the_top_word_and_a_repeated_cut():
    # d = 3: the first sample repeats a cut and is drawn again; in the
    # second, the word 2^53 - 1, which would put a cut on GRID, is redrawn
    top = GRID - 1
    script = [4, 4, top, 7, 3, 99]
    sampler, reference = ScriptedWords(script), ScriptedWords(script)
    assert _sample_gaps(3, sampler) == reference_gaps(3, reference) == [4, 4, GRID - 8]
    assert sampler.words == reference.words == [99]


# -- balance decay ----------------------------------------------------------


def test_balance_decay_d2():
    rep = mc_balance(
        hyperelliptic_permutation(2), zeta=10.0, K=2.0, m=8, samples=500, seed=0
    )
    assert rep.sigma_hat < 1
    assert rep.fractions == tuple(sorted(rep.fractions, reverse=True))


def test_balance_scan_gets_the_sample_over_grid(monkeypatch):
    # every sample reaches the scan as integer lengths over the one grid
    # GRID, proportional to the sampled point: a reduced Fraction's
    # numerator would divide each even gap by its power of two
    import ietkit.analysis as analysis

    samples, lengths = [], []
    draw, scan = analysis._sample_gaps, analysis._balance_scan

    def recorded_draw(d, rng):
        gaps = draw(d, rng)
        samples.append(tuple(Fraction(g, analysis.GRID) for g in gaps))
        return gaps

    def recorded_scan(pi, lens, rule):
        lengths.append(list(lens))
        return scan(pi, lens, rule)

    monkeypatch.setattr(analysis, "_sample_gaps", recorded_draw)
    monkeypatch.setattr(analysis, "_balance_scan", recorded_scan)
    mc_balance(hyperelliptic_permutation(4), zeta=20.0, K=4.0, m=3, samples=40,
               seed=1)
    assert len(lengths) == len(samples) == 40
    for x, lens in zip(samples, lengths):
        assert sum(lens) == analysis.GRID
        assert [Fraction(n, analysis.GRID) for n in lens] == list(x)


@pytest.mark.parametrize("d", [4, 5])
def test_balance_scans_never_read_columns(monkeypatch, d):
    # a scan reads only the walk's norms and zero patterns: with the
    # column read and the matrix refused, mc_balance gives the same report
    from ietkit.induction import _Walk

    pi = hyperelliptic_permutation(d)
    expected = mc_balance(pi, zeta=20.0, K=4.0, m=8, samples=300, seed=d)

    def refuse(walk):
        raise AssertionError("a balance scan read the walk's columns")

    monkeypatch.setattr(_Walk, "cols", property(refuse))
    monkeypatch.setattr(_Walk, "matrix", refuse)
    rep = mc_balance(pi, zeta=20.0, K=4.0, m=8, samples=300, seed=d)
    assert (rep.fractions, rep.sigma_hat) == (expected.fractions, expected.sigma_hat)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=1, max_value=5),
            st.lists(st.floats(min_value=-40.0, max_value=0.0), min_size=n, max_size=n),
        )
    )
)
def test_line_fit_matches_polyfit(data):
    # the balance fit's closed-form line against numpy's least squares,
    # on consecutive stage indices as mc_balance fits them
    from ietkit.analysis import _line_fit

    start, ys = data
    xs = list(range(start, start + len(ys)))
    slope, intercept, se = _line_fit(xs, ys)
    fit = np.polyfit(xs, ys, 1)
    resid = np.array(ys) - np.polyval(fit, xs)
    se_np = (
        math.sqrt(float(resid @ resid) / (len(xs) - 2))
        / math.sqrt(float(np.sum((np.array(xs) - np.mean(xs)) ** 2)))
        if len(xs) > 2
        else 0.0
    )
    scale = max(1.0, max(abs(y) for y in ys))  # cancellation is relative to |y|
    assert math.isclose(slope, float(fit[0]), rel_tol=1e-12, abs_tol=1e-12 * scale)
    assert math.isclose(intercept, float(fit[1]), rel_tol=1e-12, abs_tol=1e-12 * scale)
    assert math.isclose(se, se_np, rel_tol=1e-12, abs_tol=1e-12 * scale)


def test_balance_zero_samples_inconclusive():
    rep = mc_balance(
        hyperelliptic_permutation(2), zeta=10.0, K=2.0, m=3, samples=0, seed=0
    )
    assert rep.report.verdict == INCONCLUSIVE


@pytest.mark.parametrize("samples", [1, 2])
def test_balance_without_two_fitted_fractions_is_inconclusive(samples):
    # seed 3 at d = 4: every scan balances between norms 4^2 and 4^3, so the
    # fractions read 1, 1, 0, ..., 0, with none in the fit window
    rep = mc_balance(hyperelliptic_permutation(4), zeta=20.0, K=4.0, m=8,
                     samples=samples, seed=3)
    assert rep.fractions == (1.0, 1.0) + (0.0,) * 6
    assert math.isnan(rep.sigma_hat) and math.isnan(rep.sigma_ci_upper)
    assert rep.report.verdict == INCONCLUSIVE


# -- jacobian pushforward ---------------------------------------------------


def test_jacobian_identity_matches_volume_fraction():
    rep = mc_jacobian_pushforward(
        VisitationMatrix.identity(3), half_simplex(3), samples=20000, seed=1
    )
    assert rep.claim_bound == pytest.approx(0.5)
    assert rep.verdict == CONSISTENT


def test_jacobian_elementary_step():
    M = VisitationMatrix.elementary(3, winner=1, loser=2)
    rep = mc_jacobian_pushforward(M, half_simplex(3), samples=50000, seed=2)
    assert rep.verdict == CONSISTENT


def test_jacobian_degenerate_region():
    flat = half_simplex(3).vertices
    degenerate = (flat[0], flat[0], flat[2])
    from ietkit.analysis import SubSimplex

    with pytest.raises(DegeneracyError):
        mc_jacobian_pushforward(
            VisitationMatrix.identity(3), SubSimplex(degenerate), 100, 0
        )


# -- probability decay ------------------------------------------------------


def test_prob_decay_independent_matches_closed_form():
    rep = prob_decay_sim(0.3, "independent", N=60, samples=20000, seed=4)
    assert rep.report.verdict == CONSISTENT
    for emp, bound in zip(rep.window_probs, rep.window_bounds):
        assert emp <= bound + 3 * math.sqrt(bound * (1 - bound) / 20000) + 1e-9


def test_prob_decay_adversarial_respects_bound():
    rep = prob_decay_sim(0.3, "adversarial-markov", N=60, samples=20000, seed=5)
    assert rep.report.verdict == CONSISTENT
    assert rep.tau_hat < 1


def test_prob_decay_rho_domain():
    with pytest.raises(UsageError):
        prob_decay_sim(0.7, "independent", N=10, samples=10, seed=0)


# -- Birkhoff averages ------------------------------------------------------


def test_birkhoff_constant_observable_is_one():
    T = Iet.make(
        (Fraction(987, 1597), Fraction(610, 1597)), hyperelliptic_permutation(2)
    )
    av = birkhoff_separation(T, [Fraction(1, 7)], observable=Fraction(1), n=100)
    assert av[Fraction(1, 7)] == 1.0


def test_birkhoff_periodic_orbit_frequency():
    T = Iet.make((Fraction(2, 3), Fraction(1, 3)), hyperelliptic_permutation(2))
    av = birkhoff_separation(T, [Fraction(0)], observable=Fraction(2, 3), n=3)
    assert av[Fraction(0)] == pytest.approx(2 / 3)


def test_birkhoff_equidistribution_proxy():
    """A high-denominator golden-ratio approximant equidistributes at O(1/n)."""
    alpha = Fraction(4181, 6765)  # ratio of consecutive Fibonacci numbers
    T = Iet.make((1 - alpha, alpha), hyperelliptic_permutation(2))
    pts = [Fraction(k, 17) for k in range(1, 11)]
    av = birkhoff_separation(T, pts, observable=Fraction(1, 2), n=3000)
    values = list(av.values())
    assert max(values) - min(values) < 0.01
    assert abs(sum(values) / len(values) - 0.5) < 0.01


def test_limit_tower_points_separate(reference_run):
    T = reference_run.limit.representative.normalized()
    left, right = limit_tower_points(reference_run, T, horizon=10**4)
    assert len(left) == 5 and len(right) == 5
    av = birkhoff_separation(T, left + right, observable=Fraction(1, 2), n=10**4)
    left_vals = [av[p] for p in left]
    right_vals = [av[p] for p in right]
    gap = abs(
        sum(left_vals) / len(left_vals) - sum(right_vals) / len(right_vals)
    )
    spread = max(
        max(left_vals) - min(left_vals), max(right_vals) - min(right_vals)
    )
    assert gap > 10 * max(spread, 1e-12)


# -- Keane scans ------------------------------------------------------------


def test_keane_rational_rotation_collides():
    T = Iet.make((Fraction(1, 2), Fraction(1, 2)), hyperelliptic_permutation(2))
    rep = keane_check(T, 10)
    assert not rep.satisfied
    assert rep.collision == (0, 1)


def test_keane_random_rational_collides():
    T = Iet.make(
        (
            Fraction(509, 1009),
            Fraction(251, 1009),
            Fraction(151, 1009),
            Fraction(98, 1009),
        ),
        hyperelliptic_permutation(4),
    )
    rep = keane_check(T, 5000)
    assert not rep.satisfied
    assert rep.collision is not None


def test_keane_construction_candidate_survives(reference_run):
    T = reference_run.limit.representative.normalized()
    rep = keane_check(T, 1000)
    assert rep.satisfied


# -- nested families and dimension -----------------------------------------


def test_nested_family_rejects_escaping_child():
    outer = Polygon2D(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    escape = Polygon2D(np.array([[0.5, 0.5], [2.0, 0.5], [2.0, 2.0]]))
    with pytest.raises(UsageError):
        NestedFamily([[outer], [escape]], [[None], [0]])


@pytest.mark.parametrize("side", [1e-40, 1e-156])
def test_nested_family_containment_is_scale_relative(side):
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    outer = Polygon2D(side * unit)
    inner = Polygon2D(side * (0.5 * unit + 0.25))
    NestedFamily([[outer], [inner]], [[None], [0]])
    # a child sticking out of its parent by 1% of the parent's side
    shifted = Polygon2D(side * (0.5 * unit + [-0.01, 0.25]))
    with pytest.raises(UsageError):
        NestedFamily([[outer], [shifted]], [[None], [0]])


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_nested_family_with_an_empty_level_is_degenerate(empty):
    square = Polygon2D(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    levels = [[square]] * empty + [[]]
    parents = [[None] if lv == 0 else [0] for lv in range(empty)] + [[]]
    with pytest.raises(DegeneracyError, match=f"level {empty} is empty"):
        NestedFamily(levels, parents)


def test_cantor_product_family_shape():
    fam = cantor_product_family(3)
    assert fam.depth == 4
    assert len(fam.levels[-1]) == 4**3
    for a in fam.a[1:]:
        assert a == pytest.approx(4 / 9)
    r_max = [r[0] for r in fam.radii]
    assert r_max == sorted(r_max, reverse=True)


def test_build_nested_family_nests(reference_run):
    families = build_nested_family(reference_run, planes=3, seed=3)
    assert len(families) == 3
    for nf in families:
        assert nf.depth == 3
        areas = [sum(p.area for p in lev) for lev in nf.levels]
        assert areas == sorted(areas, reverse=True)
        assert all(0 < a <= 1 for a in nf.a)
        r_max = [r[0] for r in nf.radii]
        assert r_max == sorted(r_max, reverse=True)


def _square_cell(i: int, j: int, n: int) -> Polygon2D:
    return Polygon2D(
        np.array(
            [
                [i / n, j / n],
                [(i + 1) / n, j / n],
                [(i + 1) / n, (j + 1) / n],
                [i / n, (j + 1) / n],
            ]
        )
    )


def test_frostman_uniform_subdivision_is_area_measure():
    """Full quadtree subdivision carries plain area measure: exponent 2.

    The ball-mass grid only spans the family's own diameter range, so the
    planar scaling needs several levels of range to show up.
    """
    levels = []
    parents = []
    for depth in range(6):
        n = 2**depth
        levels.append([_square_cell(i, j, n) for i in range(n) for j in range(n)])
        if depth == 0:
            parents.append([None])
        else:
            parents.append(
                [
                    (i // 2) * (n // 2) + (j // 2)
                    for i in range(n)
                    for j in range(n)
                ]
            )
    fam = NestedFamily(levels, parents)
    fro = frostman_measure(fam)
    assert all(a == pytest.approx(1.0) for a in fam.a)
    assert fro.exponent == pytest.approx(2.0, abs=0.2)


def test_frostman_cantor_product_exponent():
    fam = cantor_product_family(6)
    fro = frostman_measure(fam)
    assert fro.exponent == pytest.approx(2 * math.log(2) / math.log(3), abs=0.05)


def test_frostman_sibling_weights_sum_to_parent():
    fam = cantor_product_family(3)
    fro = frostman_measure(fam)
    for lv in range(1, fam.depth):
        sums: dict[int, float] = {}
        for w, par in zip(fro.weights[lv], fam.parents[lv]):
            sums[par] = sums.get(par, 0.0) + w
        for par, total in sums.items():
            assert total == pytest.approx(fro.weights[lv - 1][par])


def per_radius_masses(family, fro) -> tuple[float, ...]:
    """``frostman_measure``'s ball masses taken one radius at a time: the
    reference for the loop that takes a block of radii at once."""
    deepest = family.levels[-1]
    centers = np.array([p.centroid for p in deepest])
    stride = max(1, len(centers) // 256)
    probe = np.concatenate([centers[::stride]] + [p.vertices for p in deepest[:16]])
    w_arr = np.array(fro.weights[-1])
    dist = np.sqrt(((probe[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1))
    return tuple(
        float((w_arr[None, :] * (dist <= r)).sum(axis=1).max()) for r in fro.radii
    )


def per_radius_counts(points: np.ndarray, radii) -> tuple[int, ...]:
    """``box_dimension``'s occupied boxes, one radius and one set at a time."""
    return tuple(len({tuple(c) for c in np.floor(points / r)}) for r in sorted(radii))


def assert_fits_match_per_radius(family):
    fro = frostman_measure(family)
    assert fro.masses == per_radius_masses(family, fro)
    pts = np.array([p.centroid for p in family.levels[-1]])
    assert box_dimension(pts, fro.radii).counts == per_radius_counts(pts, fro.radii)


# the default blocks hold 1 to 13107 radii across these families; the large
# bound takes several radii per block on the deepest ones as well
@pytest.mark.parametrize("elements", [None, 1 << 22])
@pytest.mark.parametrize("levels", range(1, 7))
def test_batched_fits_match_a_per_radius_loop_on_cantor(monkeypatch, levels, elements):
    if elements is not None:
        monkeypatch.setattr(analysis, "_RADII_ELEMENTS", elements)
    assert_fits_match_per_radius(cantor_product_family(levels))


def test_batched_fits_match_a_per_radius_loop_on_a_chain(reference_run):
    families = build_nested_family(reference_run, planes=5, seed=7)
    assert families
    for family in families:
        assert_fits_match_per_radius(family)


def test_batched_box_counts_keep_set_semantics():
    # repeated points, a NaN (equal to nothing, so each its own box) and
    # points on both sides of zero
    pts = np.array([[0.25, 0.5], [0.25, 0.5], [-0.0, 0.0], [0.0, -0.0],
                    [np.nan, 1.0], [np.nan, 1.0], [-0.3, 0.9], [np.inf, 2.0]])
    radii = [0.05, 0.2, 1.0, 4.0]
    assert box_dimension(pts, radii).counts == per_radius_counts(pts, radii)


def test_box_dimension_segment_and_square():
    seg = (np.linspace(0, 1, 2048, endpoint=False) + 0.5 / 2048).reshape(-1, 1)
    fit = box_dimension(seg, [2.0**-k for k in range(1, 10)])
    assert fit.estimate == pytest.approx(1.0, abs=0.02)
    g = np.linspace(0, 1, 64, endpoint=False) + 0.5 / 64
    square = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    fit = box_dimension(square, [2.0**-k for k in range(1, 6)])
    assert fit.estimate == pytest.approx(2.0, abs=0.02)


def cantor_midpoints(k: int) -> np.ndarray:
    pts = [0.0]
    for _ in range(k):
        pts = [p / 3 for p in pts] + [2 / 3 + p / 3 for p in pts]
    return np.array([p + 0.5 * 3.0**-k for p in pts])


def test_box_dimension_cantor():
    fit = box_dimension(
        cantor_midpoints(10).reshape(-1, 1), [3.0**-k for k in range(1, 10)]
    )
    assert fit.estimate == pytest.approx(math.log(2) / math.log(3), abs=0.02)


def test_box_dimension_needs_two_scales():
    with pytest.raises(UsageError):
        box_dimension(np.zeros((5, 1)), [10.0])


def test_box_dimension_needs_two_distinct_scales():
    with pytest.raises(UsageError):  # was a LinAlgError from the fit
        box_dimension(cantor_midpoints(3).reshape(-1, 1), [0.5, 0.5])


def test_box_dimension_counts_cells_past_the_int64_range():
    # at r = 1e-30 every midpoint has its own cell, though pts / r > 2^63
    fit = box_dimension(cantor_midpoints(3).reshape(-1, 1), [1e-30, 2.0])
    assert fit.counts == (8, 1)
