"""The induction loop keeps the bytes of ``induct``'s trace and manifest.

sha256 of ``induct_trace.json`` and ``induct_manifest.json`` for fixed step
counts on huge rationals, a norm target on long lengths, and the balance,
positivity and permutation stop rules on one small 5-IET.  The pins were
taken before the stop rules stopped reading the step count and the loop
took over the budget of ``induct``.
"""
from __future__ import annotations

import hashlib
from random import Random

import pytest

from ietkit.cli import main


def over_one_denominator(seed: int, d: int, digits: int) -> str:
    """d seeded rationals below 1 over one ``digits``-digit denominator."""
    rng = Random(seed)
    den = rng.randrange(10 ** (digits - 1), 10**digits)
    return ",".join(f"{rng.randrange(1, den)}/{den}" for _ in range(d))


SMALL = "3/17,5/19,7/23,11/29,13/31"

STEPS = ["--perm", "s6", "--steps", "4000"]
NORM = ["--perm", "s5", "--until", "norm:1e300"]
# case -> the arguments of ``induct``, lengths included
CASES = {
    "steps-s6-0": [*STEPS, "--lengths", over_one_denominator(0, 6, 3000)],
    "steps-s6-1": [*STEPS, "--lengths", over_one_denominator(1, 6, 3000)],
    "norm-s5-0": [*NORM, "--lengths", over_one_denominator(0, 5, 1000)],
    "norm-s5-1": [*NORM, "--lengths", over_one_denominator(1, 5, 1000)],
    "balanced": ["--perm", "s5", "--until", "balanced:10", "--lengths", SMALL],
    "positive": ["--perm", "s5", "--until", "positive", "--lengths", SMALL],
    "perm": ["--perm", "s5", "--until", "perm:pi_L:5", "--lengths", SMALL],
}

# case -> sha256 of the trace, then of the manifest
PINNED = {
    "steps-s6-0": (
        "502ab232cb8bf2001b3913bcf99d17221ddfcc9df6e7de942ed60b429c41ddfc",
        "1af370857b3011929a38c8b04dd2c476e208bc462dd3f3ed2790437f11c7d388",
    ),
    "steps-s6-1": (
        "c82b9bc047b8bc4e0e1a95c8746cd5b3570c97bf9cc4c4d6a7c65c14d41b3388",
        "3bc0b683f7971281bcff0db01fc0e967816d2618059dec912ecb675d3ed65861",
    ),
    "norm-s5-0": (
        "c4be9bdd9e06e309e46e0e4723708e8d7f917409276996aa49f98acd79bfbc5e",
        "d1b42debf2f63ebba2cbc7c422253a31f0e0532bd5c3ce7e7873d96e49deb5fb",
    ),
    "norm-s5-1": (
        "72792151677f41082114459e154218f358ac9b1c5f2d913f70592e94f9bb834d",
        "9da82916486830fafac29f6e63444bf8548a079ffa2432379568ad6bcb18ccee",
    ),
    "balanced": (
        "0c6005a944a49c934c1bd2edc70544ec7f811f5ed4603ae9adff057798750f6f",
        "2c58f587f6a299164483d4b6c0c87db84550382420ab0f8216bc466f0f699454",
    ),
    "positive": (
        "0c6005a944a49c934c1bd2edc70544ec7f811f5ed4603ae9adff057798750f6f",
        "87e641641ed78cc757e5ed973e75b60d5b3bee20a4524354011aa078c2f43c83",
    ),
    "perm": (
        "f73624a865130baadc09d87f5d18ad4b37f284aeb0f4bd8f9b1230c32167a2d3",
        "83db44f91456a1ea54a1292a1d68db1e1aa6b511dc42c1b0a3acd5ac8b935de2",
    ),
}


def digests(case: str, out) -> tuple[str, str]:
    assert main(["induct", *CASES[case], "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("induct_trace.json", "induct_manifest.json")
    )


@pytest.mark.parametrize("case", list(PINNED))
def test_induct_files_keep_their_pinned_bytes(tmp_path, case):
    assert digests(case, tmp_path) == PINNED[case]
