"""Monte Carlo checks, Birkhoff averages, nested plane sections, dimensions.

Everything here is measurement, not proof: a check reports an estimate, a
standard error and a verdict, CONSISTENT, INCONCLUSIVE or VIOLATED.
``_verdict`` alone compares an estimate with its bound: VIOLATED when the
estimate less 3 standard errors is above it (two-sided: more than 3 from
it), INCONCLUSIVE when the standard error is not finite, as for a fraction
of no trials (``_binomial_report``, NaN estimate), else CONSISTENT.  The
balance check decides by the 95% upper bound of its decay fit instead.
Exact rational arithmetic is used wherever a downstream check needs
identities to hold on the nose (orbits, Keane scans, balance scans);
floats everywhere else.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import mul, sub
from random import Random
from typing import Iterable, Sequence

from ._record import Record
from .construction import ConstructionRun
from .errors import BudgetExceededError, DegeneracyError, UsageError
from .induction import (
    Iet, IntegerIet, VisitationMatrix, _Balanced, _step_lengths, _Walk,
)
from .perm import LabeledPermutation
from .simplex_geometry import (
    PlaneFamily,
    Polygon2D,
    normalized_det,
    plane_family,
    section,
    section_table,
)
from .symplectic import omega
from . import _rational

GRID = 1 << 53  # denominator grid for exact random samples

CONSISTENT = "consistent"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


class McReport(Record):
    __slots__ = ("estimate", "stderr", "samples", "seed", "claim_bound", "verdict")


def _verdict(estimate: float, stderr: float, bound: float, two_sided: bool = False) -> str:
    if stderr != stderr or stderr == float("inf"):
        return INCONCLUSIVE
    if two_sided:
        return CONSISTENT if abs(estimate - bound) <= 3 * stderr else VIOLATED
    return VIOLATED if estimate - 3 * stderr > bound else CONSISTENT


def _binomial_se(p: float, n: int) -> float:
    """Standard error of a fraction p of n trials, floored at one trial."""
    return math.sqrt(max(p * (1 - p), 1.0 / n) / n)


def _binomial_report(hits: int, n: int, seed: int, bound: float, two_sided=False) -> McReport:
    """The report of ``hits`` in ``n`` trials, judged by ``_verdict``; no
    trials give a NaN estimate and an infinite standard error."""
    if n == 0:
        p, se = math.nan, math.inf
    else:
        p = hits / n
        se = _binomial_se(p, n)
    return McReport(p, se, n, seed, bound, _verdict(p, se, bound, two_sided))


# ---------------------------------------------------------------------------
# simplex sampling


_TOP = GRID - 1  # the one 53-bit word that randrange(1, GRID) draws again


def _draw_cuts(d: int, rng: Random) -> list[int]:
    """One sample's d - 1 cuts, each less 1, in increasing order: the draws
    of ``sorted(rng.randrange(1, GRID) for _ in range(d - 1))``, all drawn
    again while two coincide.  randrange draws a cut as 1 plus a
    ``getrandbits(53)`` word and draws again on the one word, ``_TOP``,
    that would put it on GRID; so does this, and it leaves the generator
    where that expression would."""
    bits = rng.getrandbits
    while True:
        words = list(map(bits, repeat(53, d - 1)))
        while _TOP in words:
            words.remove(_TOP)
            words.append(bits(53))
        if len(set(words)) == d - 1:
            words.sort()
            return words


def _sample_gaps(d: int, rng: Random) -> list[int]:
    """One uniform point of the simplex as d positive integers over GRID:
    the spacings of sorted uniforms on the grid, whose cuts ``_draw_cuts``
    takes from ``rng`` exactly as ``randrange(1, GRID)`` would."""
    pts = [-1, *_draw_cuts(d, rng), _TOP]
    return list(map(sub, pts[1:], pts))


def sample_simplex_exact(d: int, rng: Random) -> tuple[Fraction, ...]:
    """One uniform point with exact dyadic coordinates (spacings of sorted
    uniforms on a 2^53 grid), so downstream induction stays rational."""
    return tuple(Fraction(g, GRID) for g in _sample_gaps(d, rng))


# ---------------------------------------------------------------------------
# balance decay


class BalanceReport(Record):
    __slots__ = (
        "report",
        "fractions",  # failure fraction for m = 1..m_max
        "sigma_hat",
        "sigma_ci_upper",  # 95% upper confidence bound on the decay ratio
    )


def _balance_scan(pi: LabeledPermutation, lengths: Sequence[int], rule: _Balanced) -> int:
    """Norm at the first time the matrix is positive and zeta-balanced,
    or 0 when the scan dies (equality) or exceeds the norm limit; zeta and
    the limit are the rule's, which holds no state, so one serves every
    scan."""
    walk = _Walk(pi)
    _, generic = _step_lengths(walk, list(lengths), rule, math.inf)
    hi = max(walk.norms)
    return hi if generic and hi <= rule.limit else 0


def _line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (xs, ys) in closed form: its slope, its
    intercept, and the slope's standard error from the residuals (0.0 with
    two points)."""
    n = len(xs)
    x_bar, y_bar = sum(xs) / n, sum(ys) / n
    sxx = sum((x - x_bar) ** 2 for x in xs)
    slope = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sxx
    intercept = y_bar - slope * x_bar
    if n == 2:
        return slope, intercept, 0.0
    sse = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, math.sqrt(sse / (n - 2)) / math.sqrt(sxx)


def mc_balance(
    pi: LabeledPermutation,
    zeta: float,
    K: float,
    m: int,
    samples: int,
    seed: int,
) -> BalanceReport:
    """Failure fractions of reaching a positive zeta-balanced matrix before
    norm K^j, for j = 1..m, with a geometric-decay fit.  The scans run in
    forked chunks on up to the usable CPUs (``_fork.fork_tallies``), and
    the report is the same at any number of processes."""
    from ._fork import fork_tallies  # off the start-up path, like numpy

    if zeta <= 1 or K <= 1:
        raise UsageError("need zeta > 1 and K > 1")
    if samples == 0:
        rep = _binomial_report(0, 0, seed, 1.0)
        return BalanceReport(rep, (), float("nan"), float("nan"))
    rng = Random(seed)
    zeta_f = Fraction(zeta).limit_denominator(10**6)
    thresholds = [K**j for j in range(1, m + 1)]
    rule = _Balanced(zeta_f, int(math.ceil(thresholds[-1])))
    d = pi.d

    def tally(draws: Iterable[list[int]]) -> list[int]:
        """Samples per bucket: bucket j < m holds the scans that reached
        balance by thresholds[j] but not by the ones before, bucket m the
        rest; a sample fails threshold j when its bucket is above j."""
        buckets = [0] * (m + 1)
        for gaps in draws:
            reached = _balance_scan(pi, gaps, rule)
            buckets[bisect_left(thresholds, reached) if reached else m] += 1
        return buckets

    buckets = fork_tallies(rng, samples, lambda r: _sample_gaps(d, r), tally)
    fracs = tuple(sum(buckets[j + 1:]) / samples for j in range(m))
    # geometric fit on the decaying tail (skip the saturated prefix near 1)
    xs = [j + 1 for j, f in enumerate(fracs) if 0 < f < 0.99]
    ys = [math.log(f) for f in fracs if 0 < f < 0.99]
    if len(xs) >= 2:
        slope, _, se_slope = _line_fit(xs, ys)
        sigma_hat = math.exp(slope)
        sigma_up = math.exp(slope + 1.645 * se_slope)
        verdict = CONSISTENT if sigma_up < 1 else VIOLATED
    else:  # fewer than two fractions in the fit window: no decay to fit
        sigma_hat = sigma_up = float("nan")
        verdict = INCONCLUSIVE
    last = fracs[-1]
    se = _binomial_se(last, samples)
    rep = McReport(last, se, samples, seed, 1.0, verdict)
    return BalanceReport(rep, fracs, sigma_hat, sigma_up)


# ---------------------------------------------------------------------------
# jacobian pushforward


class SubSimplex:
    """Region of the simplex spanned by rational vertices (each summing 1)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[tuple[Fraction, ...], ...]):
        self.vertices = vertices
        for v in self.vertices:
            if sum(v) != 1:
                raise UsageError("sub-simplex vertices must lie on the simplex")

    @property
    def d(self) -> int:
        return len(self.vertices)

    def vertex_matrix(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in v] for v in self.vertices], dtype=float).T


def half_simplex(d: int) -> SubSimplex:
    """The sub-simplex whose first vertex is the midpoint of vertices 1 and
    2: a canonical positive-volume test region."""
    e = lambda i: tuple(Fraction(1) if j == i else Fraction(0) for j in range(d))
    mid = tuple((a + b) / 2 for a, b in zip(e(0), e(1)))
    return SubSimplex((mid,) + tuple(e(i) for i in range(1, d)))


def mc_jacobian_pushforward(
    M: VisitationMatrix, W: SubSimplex, samples: int, seed: int
) -> McReport:
    """Fraction of uniform points of M-Delta whose preimage lies in W,
    against the exact ratio of image volumes (the jacobian integral)."""
    import numpy as np

    d = M.d
    if W.d != d:
        raise UsageError("region dimension mismatch")
    if _rational.det(W.vertices) == 0:
        raise DegeneracyError("degenerate region")
    # predicted probability: lambda(M W) / lambda(M Delta), both via the
    # determinant of sum-normalized image vertices
    img_w = [M.mat_vec(v) for v in W.vertices]
    img_d = [M.column(j) for j in range(1, d + 1)]
    predicted = float(normalized_det(img_w) / normalized_det(img_d))
    rng = np.random.default_rng(seed)
    a = np.array(M.rows, dtype=float)
    verts = a / a.sum(axis=0, keepdims=True)  # columns span M-Delta
    w = rng.standard_exponential((samples, d))
    w /= w.sum(axis=1, keepdims=True)
    y = w @ verts.T  # uniform on M-Delta
    z = np.linalg.solve(a, y.T).T
    z /= z.sum(axis=1, keepdims=True)  # exact preimage direction, normalized
    bary = np.linalg.solve(W.vertex_matrix(), z.T).T
    hits = int(np.count_nonzero((bary > -1e-12).all(axis=1)))
    return _binomial_report(hits, samples, seed, predicted, two_sided=True)


# ---------------------------------------------------------------------------
# probability decay


DECAY_WINDOW = 10  # trials whose all-failure prefix probabilities are reported
DECAY_EPS = 0.5  # the relative shortfall of the count tail tau_hat fits


class ProbDecayReport(Record):
    __slots__ = (
        "report",
        "window_probs",  # empirical P(first j trials all fail)
        "window_bounds",  # (1-rho)^j
        "tau_hat",  # fitted decay of P(count < (1 - DECAY_EPS) rho N)
    )


def prob_decay_sim(
    rho: float,
    dependence: str,
    N: int,
    samples: int,
    seed: int,
) -> ProbDecayReport:
    """0/1 sequences with conditional success probability >= rho.

    The window bounds cover the first DECAY_WINDOW trials (all N when
    fewer), and tau_hat fits the tail P(count < (1 - DECAY_EPS) rho n).

    independent: each trial is Bernoulli(rho).  adversarial-markov: the chain
    pays exactly rho while its past is all-failures and 0.9 afterwards, which
    makes the all-failure window bound (1-rho)^j tight.
    """
    import numpy as np

    if not 0 < rho < 0.5:
        raise UsageError("rho must be in (0, 1/2)")
    if dependence not in ("independent", "adversarial-markov"):
        raise UsageError(f"unknown dependence {dependence!r}")
    window = min(DECAY_WINDOW, N)
    bounds = tuple((1 - rho) ** j for j in range(1, window + 1))
    if samples == 0:
        rep = _binomial_report(0, 0, seed, bounds[-1])
        return ProbDecayReport(rep, (), bounds, float("nan"))
    rng = np.random.default_rng(seed)
    if dependence == "independent":
        seqs = rng.random((samples, N)) < rho
    else:
        u = rng.random((samples, N))
        seqs = np.zeros((samples, N), dtype=bool)
        no_success = np.ones(samples, dtype=bool)
        for t in range(N):
            p = np.where(no_success, rho, 0.9)
            seqs[:, t] = u[:, t] < p
            no_success &= ~seqs[:, t]
    prefix_fail = np.cumprod(~seqs[:, :window], axis=1)
    probs = tuple(float(x) for x in prefix_fail.mean(axis=0))
    # decay of the count tail across sub-horizons
    taus = []
    for n_sub in range(max(2, N // 4), N + 1, max(1, N // 4)):
        t = float(np.mean(seqs[:, :n_sub].sum(axis=1) < (1 - DECAY_EPS) * rho * n_sub))
        taus.append((n_sub, t))
    pos = [(n, t) for n, t in taus if t > 0]
    if len(pos) >= 2:
        slope = _line_fit([n for n, _ in pos], [math.log(t) for _, t in pos])[0]
        tau_hat = math.exp(slope)
    else:
        tau_hat = 0.0
    rep = _binomial_report(int(prefix_fail[:, -1].sum()), samples, seed, bounds[-1],
                           two_sided=dependence == "independent")
    return ProbDecayReport(rep, probs, bounds, tau_hat)


# ---------------------------------------------------------------------------
# Birkhoff averages and the Keane scan


def birkhoff_separation(
    T: Iet, points: Iterable[Fraction], observable: Fraction, n: int = 10**5
) -> dict[Fraction, float]:
    """Birkhoff averages of the indicator of [0, observable) along exact
    orbits.  The orbit runs on integers over the common denominator of all
    data.
    """
    if n < 1:
        raise UsageError("need n >= 1")
    points = [Fraction(p) for p in points]
    lo, hi = Fraction(0), Fraction(observable)
    out: dict[Fraction, float] = {}
    grid = IntegerIet(T, lo, hi, *points)
    lo_i, hi_i = grid.scale(lo), grid.scale(hi)
    advance = grid.step
    for p0 in points:
        p = grid.scale(p0)
        if not 0 <= p < grid.rights[-1]:
            raise UsageError(f"point {p0} outside the domain")
        hits = 0
        for _ in range(n):
            if lo_i <= p < hi_i:
                hits += 1
            p = advance(p)
        out[p0] = hits / n
    return out


def limit_tower_points(
    run: ConstructionRun, T: Iet, horizon: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Starting points whose ``horizon``-step itineraries follow the two
    limit-vertex column families.

    For each cluster the points sit inside the induced intervals of a run
    checkpoint whose relevant columns (first block for the left cluster,
    last two for the right) have return time at least ``horizon``, so each
    average reads a single column word of that family.  The five points of
    a cluster sit at 1/2, 1/4 and 3/4 (in turn) of its symbols' intervals.
    """
    fracs = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
    d = run.d

    def pick(cols: Sequence[int], names: Sequence[str]):
        for st in run.stages:
            for name in names:
                m = st.checkpoints.get(name)  # no "A" at stage 1
                if m is not None and min(m.column_norm(j) for j in cols) >= horizon:
                    return m, st.phases[name].end
        raise UsageError("no checkpoint deep enough for this horizon")

    m_a, pi_a = pick(range(1, d - 1), ["A", "Aprime"])
    m_b, pi_b = pick((d - 1, d), ["B", "Bprime"])

    def cluster(m, perm, syms):
        lam = m.solve(T.lengths)
        if any(x <= 0 for x in lam):
            raise UsageError("lengths are not in the image of this checkpoint")
        pos: dict[int, Fraction] = {}
        acc = Fraction(0)
        for s in perm.top:
            pos[s] = acc
            acc += lam[s - 1]
        pts = []
        for idx in range(5):
            s = syms[idx % len(syms)]
            f = fracs[idx % len(fracs)]
            pts.append(pos[s] + f * lam[s - 1])
        return pts

    return (
        cluster(m_a, pi_a, list(range(1, d - 1))),
        cluster(m_b, pi_b, [d - 1, d]),
    )


class KeaneReport(Record):
    __slots__ = (
        "satisfied",
        "steps",
        "collision",  # (discontinuity index, orbit step)
    )


def keane_check(T: Iet, N: int) -> KeaneReport:
    """Exact i.d.o.c. scan: orbits of 0 and the interior discontinuities
    must avoid the interior discontinuities for n = 1..N."""
    grid = IntegerIet(T)
    discs = grid.rights[:-1]
    targets = set(discs)
    advance = grid.step
    for idx, start in enumerate([0] + discs):
        p = start
        for n in range(1, N + 1):
            p = advance(p)
            if p in targets:
                return KeaneReport(False, N, (idx, n))
    return KeaneReport(True, N, None)


# ---------------------------------------------------------------------------
# nested plane families and dimension estimators


class NestedFamily:
    """Polygons nested level by level: each polygon of level k > 0 lies in
    the polygon of level k - 1 that ``parents[k]`` indexes.  ``a[k]`` is the
    area of level k over that of level k - 1 (1.0 at level 0, and 0.0 under
    a level of no area), and ``radii[k]`` is the largest and the smallest
    polygon diameter of level k.  An empty level raises ``DegeneracyError``
    and a child outside its parent ``UsageError``."""

    __slots__ = ("levels", "parents", "a", "radii")

    def __init__(
        self,
        levels: Sequence[Sequence[Polygon2D]],
        parents: Sequence[Sequence[int | None]],  # index into previous level
    ):
        self.levels = tuple(map(tuple, levels))
        self.parents = tuple(map(tuple, parents))
        a: list[float] = []
        radii: list[tuple[float, float]] = []
        prev = 0.0
        for lv, (polys, pars) in enumerate(zip(self.levels, self.parents)):
            if not polys:
                raise DegeneracyError(f"level {lv} is empty")
            diams = [p.diameter for p in polys]
            radii.append((max(diams), min(diams)))
            area = sum(p.area for p in polys)
            a.append(1.0 if lv == 0 else (area / prev if prev > 0 else 0.0))
            prev = area
            if lv == 0:
                continue
            for poly, par in zip(polys, pars):
                if not self.levels[lv - 1][par].contains_polygon(poly):
                    raise UsageError(f"level {lv}: child escapes its parent")
        self.a = tuple(a)
        self.radii = tuple(radii)

    @property
    def depth(self) -> int:
        return len(self.levels)


# estimate-dim on 8 levels (4^8 squares) takes about 4 s, half of it to build
# the family and most of the rest in frostman_measure, and peaks at about
# 420 MB, for its two (probe, centre) arrays; each level more costs about 4x
MAX_CANTOR_LEVELS = 8


def cantor_product_family(levels: int) -> NestedFamily:
    """Middle-thirds Cantor set squared, as a nested polygon family."""
    if levels > MAX_CANTOR_LEVELS:
        raise BudgetExceededError(
            f"{levels} Cantor levels are beyond the cap of {MAX_CANTOR_LEVELS}"
        )
    out_levels: list[list[Polygon2D]] = []
    out_parents: list[list[int | None]] = []
    squares = [(0.0, 0.0, 1.0)]  # (x, y, side)
    out_levels.append([_square(*squares[0])])
    out_parents.append([None])
    for _ in range(levels):
        nxt = []
        pars = []
        for pi, (x, y, s) in enumerate(squares):
            t = s / 3.0
            for dx in (0.0, 2 * t):
                for dy in (0.0, 2 * t):
                    nxt.append((x + dx, y + dy, t))
                    pars.append(pi)
        squares = nxt
        out_levels.append([_square(*sq) for sq in squares])
        out_parents.append(pars)
    return NestedFamily(out_levels, out_parents)


def _square(x: float, y: float, s: float) -> Polygon2D:
    import numpy as np

    return Polygon2D(
        np.array([[x, y], [x + s, y], [x + s, y + s], [x, y + s]])
    )


def stage_one_planes(run: ConstructionRun) -> PlaneFamily:
    """The plane family cut by the first stage's A' and B phases, under the
    form at the start of A'."""
    first = run.stages[0]
    return plane_family(
        first.phases["Aprime"].matrix,
        first.phases["B"].matrix,
        omega(first.phases["Aprime"].start),
    )


def build_nested_family(
    run: ConstructionRun,
    planes: int,
    seed: int = 0,
) -> list[NestedFamily]:
    """Per-plane chains of stage-simplex sections, on planes of the run's
    ``stage_one_planes`` family.

    Base points are sampled inside the deepest stage's simplex; each stage's
    cumulative simplex is sliced by the same plane, giving a single nested
    polygon per level for as long as the section stays non-empty.  A chain
    of at least two levels becomes a ``NestedFamily``, unless a section
    escapes the one before it.  A level's section table is built the first
    time a plane reaches it, and serves every later plane.
    """
    import numpy as np

    if len(run.stages) < 2:
        raise UsageError("need a run with at least two stages")
    rng = np.random.default_rng(seed)
    family = stage_one_planes(run)
    d = run.d
    # base points inside the deepest simplex, so the plane meets every level;
    # exact rationals, because float rounding already exceeds that simplex's
    # width in its thin directions
    m_last = run.stages[-1].cumulative.rows
    tables: list = []  # per level, reached so far
    out = []
    attempts = 0
    while len(out) < planes and attempts < 50 * planes:
        attempts += 1
        # M w / |M w| with the weights read exactly over their common
        # denominator, a power of two
        w = _rational._numerators(rng.dirichlet(np.ones(d)).tolist())[0]
        raw = [sum(map(mul, row, w)) for row in m_last]
        tot = sum(raw)
        base = [Fraction(x, tot) for x in raw]
        levels: list[list[Polygon2D]] = []
        parents: list[list[int | None]] = []
        for lv, st in enumerate(run.stages):
            if lv == len(tables):
                tables.append(section_table(st.cumulative, family))
            sec = section(tables[lv], base)
            if sec is None or sec.area <= 0:
                break
            levels.append([sec])
            parents.append([None if lv == 0 else 0])
        if len(levels) < 2:  # keep chains that survived at least two levels
            continue
        try:
            out.append(NestedFamily(levels, parents))
        except UsageError:
            continue
    return out


_RADII_ELEMENTS = 1 << 16  # array elements per block of radii (512 KB of floats)


def _radii_block(per_radius: int) -> int:
    """Radii per block when each takes ``per_radius`` array elements: as
    many as fit in ``_RADII_ELEMENTS``, and at least one, so a block is
    never larger than one radius's array or that bound."""
    return max(1, _RADII_ELEMENTS // max(per_radius, 1))


class FrostmanMeasure(Record):
    __slots__ = (
        "weights",  # per level, per polygon
        "exponent",  # fitted s with sup-ball-mass ~ r^s
        "radii",
        "masses",  # sup over probe points of mu(B(x, r))
    )


def frostman_measure(family: NestedFamily) -> FrostmanMeasure:
    """The inductive sibling-area measure plus a ball-mass exponent scan."""
    import numpy as np

    if family.depth < 1:
        raise DegeneracyError("empty family")
    weights: list[list[float]] = []
    areas = [[p.area for p in polys] for polys in family.levels]
    total = sum(areas[0])
    if total <= 0:
        raise DegeneracyError("zero-mass family")
    weights.append([a / total for a in areas[0]])
    for lv in range(1, family.depth):
        w_prev = weights[-1]
        pars = family.parents[lv]
        sums: dict[int, float] = {}
        for area, par in zip(areas[lv], pars):
            sums[par] = sums.get(par, 0.0) + area
        weights.append(
            [w_prev[par] * area / sums[par] for area, par in zip(areas[lv], pars)]
        )
    deepest = family.levels[-1]
    w_last = weights[-1]
    centers = np.array([p.centroid for p in deepest])
    # an even subsample of centroids is enough for the sup: the measure is
    # near-homogeneous, and the full probe set only changes the prefactor
    stride = max(1, len(centers) // 256)
    probe = np.concatenate(
        [centers[::stride]] + [p.vertices for p in deepest[: 16]]
    )
    r_hi = family.radii[0][0]
    r_lo = max(family.radii[-1][1], 1e-12)
    radii = []
    r = r_hi
    while r >= r_lo:
        radii.append(r)
        r /= 2.0
    if len(radii) < 2:
        radii = [r_hi, r_hi / 2.0]
    w_arr = np.array(w_last)
    # probe-to-centre distances, squared and summed in place: the floats of
    # sqrt(((probe - centre) ** 2).sum(-1)), in two (probe, centre) arrays
    dist = probe[:, None, 0] - centers[None, :, 0]
    dy = probe[:, None, 1] - centers[None, :, 1]
    dist *= dist
    dy *= dy
    dist += dy
    del dy
    np.sqrt(dist, out=dist)
    # the ball masses of every probe at a block of radii at once; each sum
    # runs over the centres, in their order, as one radius alone would
    r_arr, step = np.array(radii), _radii_block(dist.size)
    masses = [
        float(m)
        for k in range(0, len(radii), step)
        for m in (w_arr * (dist <= r_arr[k : k + step, None, None])).sum(-1).max(-1)
    ]
    # Radii comparable to the family's diameter saturate the sup ball mass at
    # the total measure; those points carry no scaling information and would
    # flatten the log-log slope, so the fit keeps only the scaling regime.
    total = float(w_arr.sum())
    kept = [
        (math.log(r), math.log(m))
        for r, m in zip(radii, masses)
        if 0 < m < 0.99 * total
    ]
    if len(kept) < 2:
        kept = [
            (math.log(r), math.log(m)) for r, m in zip(radii, masses) if m > 0
        ]
    xs = [x for x, _ in kept]
    ys = [y for _, y in kept]
    exponent = _line_fit(xs, ys)[0] if len(xs) >= 2 else float("nan")
    return FrostmanMeasure(
        tuple(tuple(w) for w in weights), exponent, tuple(radii), tuple(masses)
    )


class BoxDimensionFit(Record):
    __slots__ = (
        "estimate",
        "counts",
        "radii",
        "residual",  # max absolute fit residual in log-log space
    )


def box_dimension(points: np.ndarray, r_grid: Sequence[float]) -> BoxDimensionFit:
    """Least-squares slope of log N(r) against log(1/r) over occupied boxes."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    radii = sorted(float(r) for r in r_grid)
    counts: list[int] = []
    step = _radii_block(pts.size)
    for k in range(0, len(radii), step):
        # float cell indices: an int64 cast wraps once pts / r passes 2^63
        cells = np.floor(pts / np.array(radii[k : k + step])[:, None, None])
        # each radius's cells in order; a cell unequal to the one before it
        # is new, as in a set of tuples (a NaN equals nothing)
        order = np.lexsort(np.moveaxis(cells, -1, 0)[::-1])
        cells = np.take_along_axis(cells, order[..., None], 1)
        new = np.ones(order.shape, dtype=bool)
        new[:, 1:] = (cells[:, 1:] != cells[:, :-1]).any(-1)
        counts += new.sum(1).tolist()
    usable = [(r, n) for r, n in zip(radii, counts) if n > 0]
    if len({r for r, _ in usable}) < 2:
        raise UsageError("need at least two distinct non-empty scales")
    xs = [math.log(1.0 / r) for r, _ in usable]
    ys = [math.log(n) for _, n in usable]
    slope, intercept, _ = _line_fit(xs, ys)
    resid = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return BoxDimensionFit(slope, tuple(counts), tuple(radii), resid)
