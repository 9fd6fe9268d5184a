"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion N: PASS``/``FAIL`` line (visible with
``pytest -s`` or in captured output) and then asserts, so the suite doubles
as a checklist.  Tolerances are pinned in the assertions.
"""
from __future__ import annotations

import math
import time
from collections import deque
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from ietkit import _rational
from ietkit.analysis import (
    CONSISTENT,
    birkhoff_separation,
    box_dimension,
    cantor_product_family,
    frostman_measure,
    half_simplex,
    limit_tower_points,
    mc_balance,
    mc_jacobian_pushforward,
    prob_decay_sim,
)
from ietkit.cli import EXIT_OK, main
from ietkit.construction import (
    ExponentScale,
    check_conditions_star,
    check_nue_angles,
    hyperplane_avoiding_paths,
    make_schedule,
    run_construction,
    validate_phase,
)
from ietkit.errors import InductionUndefinedError
from ietkit.induction import Iet, VisitationMatrix, drive_path, induct
from ietkit.perm import (
    BOTTOM_WINS,
    TOP_WINS,
    hyperelliptic_class,
    hyperelliptic_permutation,
    rauzy_class,
    rauzy_move,
    special_permutations,
)
from ietkit.simplex_geometry import (
    plane_section_concavity_test,
    simplex_volume_ratio,
)
from ietkit.symplectic import reciprocal_pairing, verify_invariance


def report(n: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {n:2d}: {status}{suffix}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def reference_run():
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    return run_construction(4, schedule, seed=11)


def _random_sides(rng: Random, length: int) -> list[str]:
    return [rng.choice([TOP_WINS, BOTTOM_WINS]) for _ in range(length)]


def test_criterion_01_rauzy_class_of_s4():
    t0 = time.time()
    graph = rauzy_class(hyperelliptic_permutation(4))
    # independent oracle: plain BFS over the two Rauzy moves
    seen = {hyperelliptic_permutation(4)}
    queue = deque(seen)
    while queue:
        pi = queue.popleft()
        for side in (TOP_WINS, BOTTOM_WINS):
            nxt = rauzy_move(pi, side).target
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    pi_l, pi_r, _ = special_permutations(4)
    degrees_ok = all(
        len(graph.out_edges(v)) == 2 and len(graph.in_edges(v)) == 2
        for v in graph.vertices
    )
    elapsed = time.time() - t0
    ok = (
        len(graph.vertices) == 7
        and set(graph.vertices) == seen
        and pi_l in graph
        and pi_r in graph
        and degrees_ok
        and elapsed < 1.0
    )
    report(1, ok, f"{len(graph.vertices)} vertices in {elapsed:.2f}s")


def test_criterion_02_cocycle_exactness():
    t0 = time.time()
    rng = Random(0)
    done = 0
    while done < 1000:
        d = rng.choice([4, 5])
        nums = [rng.randint(1, 10**6) for _ in range(d)]
        total = sum(nums)
        T = Iet.make(
            tuple(Fraction(k, total) for k in nums), hyperelliptic_permutation(d)
        )
        try:
            trace = induct(T, rng.randint(1, 100))
        except InductionUndefinedError:
            continue  # rational draws may hit the equality case; redraw
        assert trace.check_identity()  # exact rational identity, no tolerance
        assert trace.matrix.det() == 1
        done += 1
    elapsed = time.time() - t0
    report(2, elapsed < 30, f"1000 exact paths in {elapsed:.1f}s")


def test_criterion_03_symplectic_invariance():
    t0 = time.time()
    rng = Random(1)
    for d in (4, 5):
        graph = hyperelliptic_class(d)
        for _ in range(500):
            pi = graph.vertices[rng.randrange(len(graph.vertices))]
            M, pi_end, _ = drive_path(pi, _random_sides(rng, rng.randint(1, 30)))
            assert verify_invariance(M, pi, pi_end)  # exact integer identity
    elapsed = time.time() - t0
    report(3, elapsed < 30, f"1000 exact transports in {elapsed:.1f}s")


def test_criterion_04_reciprocal_pairing():
    t0 = time.time()
    rng = Random(2)
    worst = 0.0
    for _ in range(100):
        d = rng.choice([4, 5])
        pi = hyperelliptic_permutation(d)
        M, pi_end, _ = drive_path(pi, _random_sides(rng, 30))
        rep = reciprocal_pairing(M, pi, pi_end)
        worst = max(worst, rep.defect)
    elapsed = time.time() - t0
    report(4, worst < 1e-8 and elapsed < 30,
           f"worst defect {worst:.2e} in {elapsed:.1f}s")


def test_criterion_05_volume_formula():
    rng = Random(3)
    for _ in range(1000):
        d = rng.choice([2, 3, 4, 5])
        M, _, _ = drive_path(
            hyperelliptic_permutation(d), _random_sides(rng, rng.randint(1, 15))
        )
        formula = simplex_volume_ratio(M, VisitationMatrix.identity(d))
        cols = [tuple(Fraction(x) for x in M.column(j)) for j in range(1, d + 1)]
        normed = [tuple(x / sum(c) for x in c) for c in cols]
        oracle = abs(_rational.det(_rational.mat(list(zip(*normed)))))
        assert formula == oracle  # exact rational equality
    report(5, True, "1000 exact volume ratios")


def test_criterion_06_jacobian_pushforward():
    t0 = time.time()
    verdicts = []
    for d in (3, 4):
        M, _, _ = drive_path(
            hyperelliptic_permutation(d), _random_sides(Random(d), 10)
        )
        rep = mc_jacobian_pushforward(M, half_simplex(d), samples=10**6, seed=d)
        verdicts.append(rep.verdict)
    elapsed = time.time() - t0
    ok = all(v == CONSISTENT for v in verdicts) and elapsed < 120
    report(6, ok, f"verdicts {verdicts} in {elapsed:.1f}s")


def test_criterion_07_balance_decay():
    rep = mc_balance(
        hyperelliptic_permutation(4), zeta=20.0, K=4.0, m=8,
        samples=10**4, seed=5,
    )
    ok = rep.sigma_ci_upper < 1.0
    report(7, ok, f"sigma_hat {rep.sigma_hat:.3f}, "
                  f"95% upper {rep.sigma_ci_upper:.3f}")


def test_criterion_08_large_deviations():
    ind = prob_decay_sim(0.3, "independent", N=60, samples=10**5, seed=4)
    adv = prob_decay_sim(0.3, "adversarial-markov", N=60, samples=10**5, seed=5)
    ok = (
        ind.report.verdict == CONSISTENT
        and adv.report.verdict == CONSISTENT
        and adv.tau_hat < 1.0
    )
    report(8, ok, f"independent {ind.report.verdict}, "
                  f"adversarial tau_hat {adv.tau_hat:.3f}")


def test_criterion_09_construction_structure(reference_run):
    t0 = time.time()
    run = reference_run
    grammar_ok = all(
        validate_phase(ph) == []
        for st in run.stages
        for ph in st.phases.values()
        if ph is not None
    )
    star_ok = True
    for rep in check_conditions_star(run):
        star_ok = star_ok and rep.c4_pass and rep.c2_pass and rep.c3_pass
        if rep.c1_pass is not None:
            star_ok = star_ok and rep.c1_pass
    d = 4
    columns_ok = True
    for st in run.stages:
        M = st.phases["Aprime"].matrix
        columns_ok = columns_ok and M.rows[0] == (1, 0, 0, 0)
        for j in (d - 1, d):
            columns_ok = columns_ok and M.column(j) == tuple(
                1 if i == j - 1 else 0 for i in range(d)
            )
    angles_ok = all(
        rep.lhs_monotone and rep.rhs_monotone for rep in check_nue_angles(run)
    )
    elapsed = time.time() - t0
    ok = grammar_ok and star_ok and columns_ok and angles_ok and elapsed < 120
    report(9, ok, f"grammar {grammar_ok}, star {star_ok}, "
                  f"columns {columns_ok}, angles {angles_ok}")


def test_criterion_10_two_measure_evidence(reference_run):
    t0 = time.time()
    T = reference_run.limit.representative.normalized()
    left, right = limit_tower_points(reference_run, T, horizon=10**5)
    av = birkhoff_separation(T, left + right, observable=Fraction(1, 2), n=10**5)
    lv = [av[p] for p in left]
    rv = [av[p] for p in right]
    gap = abs(sum(lv) / len(lv) - sum(rv) / len(rv))
    spread = max(max(lv) - min(lv), max(rv) - min(rv))
    separated = gap > 10 * max(spread, 1e-12)
    # uniquely-ergodic control: a rotation by a deep golden-ratio convergent
    alpha = Fraction(46368, 75025)
    C = Iet.make((1 - alpha, alpha), hyperelliptic_permutation(2))
    lpts = [Fraction(100 + k, 1000) for k in range(5)]
    rpts = [Fraction(900 + k, 1000) for k in range(5)]
    avc = birkhoff_separation(C, lpts + rpts, observable=Fraction(1, 2), n=10**5)
    clv = [avc[p] for p in lpts]
    crv = [avc[p] for p in rpts]
    cgap = abs(sum(clv) / 5 - sum(crv) / 5)
    cspread = max(max(clv) - min(clv), max(crv) - min(crv))
    control_ok = cgap < cspread
    elapsed = time.time() - t0
    ok = separated and control_ok and elapsed < 120
    report(10, ok, f"gap {gap:.3f} vs spread {spread:.2e}; "
                   f"control gap {cgap:.2e} < spread {cspread:.2e}")


def test_criterion_11_dimension_calibration():
    seg = (np.linspace(0, 1, 2048, endpoint=False) + 0.5 / 2048).reshape(-1, 1)
    seg_fit = box_dimension(seg, [2.0**-k for k in range(1, 10)])
    g = np.linspace(0, 1, 64, endpoint=False) + 0.5 / 64
    square = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    sq_fit = box_dimension(square, [2.0**-k for k in range(1, 6)])
    pts = [0.0]
    for _ in range(10):
        pts = [p / 3 for p in pts] + [2 / 3 + p / 3 for p in pts]
    cantor = np.array([p + 0.5 * 3.0**-10 for p in pts]).reshape(-1, 1)
    c_fit = box_dimension(cantor, [3.0**-k for k in range(1, 10)])
    fro = frostman_measure(cantor_product_family(6))
    log23 = math.log(2) / math.log(3)
    ok = (
        abs(seg_fit.estimate - 1.0) <= 0.02
        and abs(sq_fit.estimate - 2.0) <= 0.02
        and abs(c_fit.estimate - log23) <= 0.02
        and abs(fro.exponent - 2 * log23) <= 0.05
    )
    report(11, ok, f"segment {seg_fit.estimate:.4f}, square "
                   f"{sq_fit.estimate:.4f}, cantor {c_fit.estimate:.4f}, "
                   f"frostman {fro.exponent:.4f}")


def test_criterion_12_section_concavity():
    frac = plane_section_concavity_test(
        {"ball": 1.0, "dim": 4}, np.eye(4)[:2], 1e-2, 10**5, seed=0
    ).estimate
    # analytic fraction for the ball is exactly eps; binomial 3-sigma band
    n_hit = 10**5 * math.pi / 4
    sigma = math.sqrt(0.01 * 0.99 / n_hit)
    ball_ok = abs(frac - 0.01) <= 3 * sigma
    rng = np.random.default_rng(7)
    ratios = []
    all_pass = True
    for trial in range(50):
        verts = rng.standard_normal((12, 4))
        for eps in (1e-2, 1e-4):
            rep = plane_section_concavity_test(
                verts, np.eye(4)[:2], eps, 400, seed=trial
            )
            f, ok = rep.estimate, rep.estimate <= rep.claim_bound
            ratios.append(f / math.sqrt(eps))
            all_pass = all_pass and ok
    single_constant = max(ratios) <= 4.0
    ok = ball_ok and all_pass and single_constant
    report(12, ok, f"ball frac {frac:.4f} (+-{3*sigma:.4f}); "
                   f"max fraction/sqrt(eps) {max(ratios):.2f}")


def test_criterion_13_avoiding_paths():
    phase1 = hyperplane_avoiding_paths(4, 1)
    M = phase1.matrix
    first_exact = all(
        M.column(j)[0] * 2 >= sum(M.column(j)) for j in range(1, 5)
    )
    eps0 = 0.1
    numeric_ok = True
    for d, i in [(4, 2), (5, 2), (5, 3), (6, 4)]:
        Mi = hyperplane_avoiding_paths(d, i, eps0=eps0).matrix
        for j in range(1, d - 1):
            col = Mi.column(j)
            total = sum(col)
            dist = math.sqrt(
                sum(
                    (col[r] / total - (1.0 if r == i - 1 else 0.0)) ** 2
                    for r in range(d)
                )
            )
            numeric_ok = numeric_ok and dist <= eps0
    ok = first_exact and numeric_ok
    report(13, ok, f"i=1 exact {first_exact}, i>=2 within eps0 {numeric_ok}")


def test_criterion_14_cli_determinism(tmp_path):
    args = ["construct", "--d", "4", "--k0", "1", "--scale", "linear",
            "--stages", "3", "--seed", "11"]
    codes = []
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        codes.append(main(args + ["--out", str(out)]))
        blobs.append(
            (
                (out / "construct_manifest.json").read_bytes(),
                (out / "stages.csv").read_bytes(),
            )
        )
    induct_args = ["induct", "--lengths", "987/1597,610/1597", "--perm", "s2",
                   "--steps", "8"]
    for sub in ("c", "d"):
        out = tmp_path / sub
        codes.append(main(induct_args + ["--out", str(out)]))
        blobs.append(
            (
                (out / "induct_manifest.json").read_bytes(),
                (out / "induct_trace.json").read_bytes(),
            )
        )
    ok = (
        all(c == EXIT_OK for c in codes)
        and blobs[0] == blobs[1]
        and blobs[2] == blobs[3]
    )
    report(14, ok, "byte-identical manifests for repeated construct/induct")
