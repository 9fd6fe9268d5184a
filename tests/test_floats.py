"""``ietkit._floats`` computes the floats numpy computes on the construct ->
estimate-dim path, bit for bit.

The Dirichlet draws are checked against numpy's Generator, whose stream is
the same on every platform, and the ziggurat tables are read back from it.
Each fused step of the two dot orders is checked against its exact value
with ``Fraction``, and so is ``hypot``'s rounding; the comparisons with
``np.dot`` and ``np.hypot`` themselves run where numpy calls the kernels
replicated (OpenBLAS's SkylakeX ``ddot``, glibc 2.35 or later).
"""
from __future__ import annotations

import math
import platform
import random
from fractions import Fraction

import numpy as np
import pytest

from ietkit import _floats
from ietkit._floats import Generator, dot, dot_strided, fma, hypot
from ietkit.construction import _total
from ietkit.errors import UsageError

# ---------------------------------------------------------------------------
# the base points: SeedSequence -> PCG64 -> ziggurat -> Dirichlet

SEEDS = [0, 1, 7, 2**32, 2**64 + 1, 10**30, 2**128 + 5, 2**200 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_the_generator_is_seeded_as_default_rng(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    g = Generator(seed)
    assert (g.state, g.inc) == (state["state"], state["inc"])


@pytest.mark.parametrize("seed", SEEDS)
def test_dirichlet_draws_equal_numpy(seed):
    for d in range(2, 23):
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert ours.dirichlet(d) == theirs.dirichlet(np.ones(d)).tolist()


def test_exponentials_equal_numpy_over_many_draws():
    # about 1.1% of draws leave the ziggurat's fast path, so each of these
    # runs takes the tail and the wedge test many times
    for seed in range(8):
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        assert [ours.exponential() for _ in range(20000)] == \
            theirs.standard_exponential(20000).tolist()


def test_dirichlet_over_many_seeds_equals_numpy():
    for seed in range(0, 3000, 13):
        d = 4 + seed % 4
        assert Generator(seed).dirichlet(d) == \
            np.random.default_rng(seed).dirichlet(np.ones(d)).tolist()


_MASK128 = (1 << 128) - 1
_INC = 12345 << 1 | 1


def generator_whose_next_word_is(word: int) -> np.random.Generator:
    """numpy's PCG64 set to a state whose next 64-bit output is ``word``: the
    state after the step is (h, l) with rotation h >> 58 and h ^ l the word
    rotated left by that, and the state before it is one LCG step back."""
    high = 0x0123456789ABCDEF
    rot = high >> 58
    low = high ^ ((word << rot | word >> (64 - rot)) & ((1 << 64) - 1))
    after = high << 64 | low
    before = (after - _INC) * pow(_floats._PCG_MULT, -1, 1 << 128) & _MASK128
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": _INC},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def draw_one(ri: int, idx: int) -> tuple[float, bool]:
    """numpy's exponential from a first word of 53-bit part ``ri`` and layer
    ``idx``, and whether it took the fast path (read one word)."""
    g = generator_whose_next_word_is(ri << 11 | idx << 3)
    after_one = g.bit_generator.state["state"]["state"] * _floats._PCG_MULT + _INC
    x = g.standard_exponential()
    return x, g.bit_generator.state["state"]["state"] == after_one & _MASK128


def test_the_ziggurat_tables_are_numpys():
    for idx in range(256):
        # ri = 1 returns we[idx] itself, by the fast path or the wedge test
        assert draw_one(1, idx)[0] == _floats._WE[idx]
        ke = _floats._KE[idx]
        if ke:
            assert draw_one(ke - 1, idx) == ((ke - 1) * _floats._WE[idx], True)
        if ke < 1 << 53:
            assert not draw_one(ke, idx)[1]


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_a_negative_seed_is_a_usage_error(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(UsageError):
        Generator(seed)


# ---------------------------------------------------------------------------
# fused steps, against their exact values


def fused(a: float, b: float, c: float) -> float:
    """a * b + c, exact, then rounded once (``Fraction`` rounds correctly)."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def spread(rng: random.Random, n: int) -> list[float]:
    return [rng.gauss(0, 1) * 2.0 ** rng.randint(-30, 30) for _ in range(n)]


def test_fma_rounds_once():
    rng = random.Random(3)
    for _ in range(5000):
        a, b, c = spread(rng, 3)
        assert fma(a, b, c) == fused(a, b, c)
        assert fma(a, b, -a * b) == fused(a, b, -a * b)  # the product's rounding error


def test_fma_signs_its_zeros_and_keeps_non_finite_operands():
    assert math.copysign(1.0, fma(-0.0, 1.0, -0.0)) == -1.0
    assert math.copysign(1.0, fma(0.0, 1.0, -0.0)) == 1.0
    assert math.copysign(1.0, fma(2.0, 3.0, -6.0)) == 1.0
    assert fma(1e300, 1e300, 0.0) == math.inf
    assert math.isnan(fma(math.inf, 0.0, 1.0))
    assert fma(2.0, 3.0, math.inf) == math.inf


def reference_contiguous(x, y) -> float:
    """The SkylakeX order, each fused step exact then rounded: the entry at
    offset p of a block of 32 goes to lane p % 4 of accumulator p // 8,
    folded from lane p % 8; of the block of 16 after those, to lane p % 4 of
    accumulator p // 4; the rest are chained one by one."""
    n = len(x)
    n16, n32 = n - n % 16, n - n % 32
    wide = {(k, lane): 0.0 for k in range(4) for lane in range(8)}
    for i in range(n32):
        key = ((i % 32) // 8, i % 8)
        wide[key] = fused(x[i], y[i], wide[key])
    acc = {(k, lane): wide[k, lane] + wide[k, lane + 4] for k in range(4) for lane in range(4)}
    for i in range(n32, n16):
        key = ((i % 16) // 4, i % 4)
        acc[key] = fused(x[i], y[i], acc[key])
    if n16:
        s = [acc[0, lane] + acc[1, lane] + acc[2, lane] + acc[3, lane] for lane in range(4)]
        total = (s[0] + s[2]) + (s[1] + s[3])
    else:
        total = 0.0
    for i in range(n16, n):
        total = fused(y[i], x[i], total)
    return 0.0 + total


def reference_strided(x, y) -> float:
    """Each product rounded, entries 0 + 2 and 1 + 3 of each block of four
    added into two partial sums; the tail fused, exactly, into the first."""
    cut = len(x) - len(x) % 4
    p = [a * b for a, b in zip(x, y)]
    t1 = t2 = 0.0
    for i in range(0, cut, 4):
        t1 += p[i] + p[i + 2]
        t2 += p[i + 1] + p[i + 3]
    for i in range(cut, len(x)):
        t1 = fused(y[i], x[i], t1)
    return 0.0 + (t1 + t2)


@pytest.mark.parametrize("n", [*range(1, 20), 31, 32, 33, 47, 48, 63, 64, 65, 96, 100])
def test_the_contiguous_dot_fuses_each_step_once(n):
    rng = random.Random(n)
    for _ in range(40):
        x, y = spread(rng, n), spread(rng, n)
        assert dot(x, y) == reference_contiguous(x, y)


@pytest.mark.parametrize("n", range(1, 30))
def test_the_strided_dot_fuses_only_its_tail(n):
    rng = random.Random(n)
    for _ in range(100):
        x, y = spread(rng, n), spread(rng, n)
        assert dot_strided(x, y) == reference_strided(x, y)


def test_numpy_adds_the_dot_to_zero():
    assert math.copysign(1.0, dot([-0.0], [1.0])) == 1.0
    assert math.copysign(1.0, dot_strided([-0.0], [1.0])) == 1.0


def runs_the_replicated_ddot() -> bool:
    """numpy's BLAS here sums as the replicas do, on probes whose orders
    differ from kernel to kernel."""
    rng = np.random.default_rng(11)
    probes = [(rng.standard_normal(n) * 1e3 ** rng.standard_normal(n), rng.standard_normal(n))
              for n in (3, 17, 40, 64) for _ in range(20)]
    return all(dot(x.tolist(), y.tolist()) == float(np.dot(x, y)) for x, y in probes)


@pytest.mark.skipif(not runs_the_replicated_ddot(),
                    reason="numpy's BLAS runs another ddot kernel here")
def test_the_dots_equal_numpys():
    rng = np.random.default_rng(4)
    for n in range(1, 70):
        for _ in range(20):
            x = rng.standard_normal(n) * np.exp(rng.uniform(-5, 5, n))
            y = rng.standard_normal(n)
            assert dot(x.tolist(), y.tolist()) == float(np.dot(x, y))
            v = np.stack([x, y], -1)  # a column of v is a strided vector
            assert dot_strided(x.tolist(), y.tolist()) == float(np.dot(v[:, 0], y))


# ---------------------------------------------------------------------------
# hypot


def test_hypot_is_within_one_ulp_of_the_exact_value():
    rng = random.Random(5)
    for _ in range(4000):
        x = rng.uniform(-1, 1) * 10.0 ** rng.uniform(-320, 308)
        y = x * rng.uniform(-3, 3) if rng.random() < 0.5 else \
            rng.uniform(-1, 1) * 10.0 ** rng.uniform(-320, 308)
        h = hypot(x, y)
        if h == math.inf:
            assert math.hypot(x, y) > 1.7e308
            continue
        exact = Fraction(x) ** 2 + Fraction(y) ** 2
        if not exact:
            continue
        below, above = math.nextafter(h, 0.0), math.nextafter(h, math.inf)
        assert Fraction(below) ** 2 < exact < Fraction(above) ** 2


def test_hypot_takes_what_glibc_takes_as_it_is():
    assert hypot(3.0, -4.0) == 5.0
    assert hypot(1.0, 1e-17) == 1.0  # under 2^-54 of the larger
    assert hypot(0.0, 0.0) == 0.0
    assert hypot(math.inf, math.nan) == math.inf
    assert math.isnan(hypot(math.nan, 1.0))
    assert hypot(3e-320, 4e-320) == 5e-320


def glibc_at_least(major: int, minor: int) -> bool:
    name, version = platform.libc_ver()
    if name != "glibc" or not version:
        return False
    return tuple(map(int, version.split(".")[:2])) >= (major, minor)


@pytest.mark.skipif(not glibc_at_least(2, 35), reason="np.hypot calls another libm here")
def test_hypot_equals_numpys():
    rng = np.random.default_rng(6)
    a = rng.choice([-1.0, 1.0], (2, 100_000)) * 10.0 ** rng.uniform(-320, 308, (2, 100_000))
    a[1, ::3] = a[0, ::3] * rng.uniform(0.5, 2, a[0, ::3].shape)
    with np.errstate(over="ignore"):
        want = np.hypot(a[0], a[1]).tolist()
    assert [hypot(x, y) for x, y in zip(a[0].tolist(), a[1].tolist())] == want


# ---------------------------------------------------------------------------
# float totals


def test_float_totals_add_left_to_right_from_zero():
    # from Python 3.12 on, sum() compensates and reads 1.0 here
    assert _total([1e16, 1.0, -1e16]) == 0.0
    assert _total([]) == 0.0
    assert math.copysign(1.0, _total([-0.0])) == 1.0
    rng = random.Random(8)
    xs = spread(rng, 500)
    want = 0.0
    for x in xs:
        want += x
    assert _total(iter(xs)) == want
