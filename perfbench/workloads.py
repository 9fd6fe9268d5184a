"""Seeded workloads: the `ietkit` CLI jobs each benchmark workload runs.

Every input the program sees (rational lengths, the seed permutation of the
class job and every CLI ``--seed``) is derived here from the workload seed,
so the same seed gives the same jobs.  Each job also carries the check that
decides whether its outputs are correct.

Jobs run with the workload's work directory as their current directory and
write into a subdirectory named after the job, so a later job can name an
earlier job's output by a relative path.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# A job check gets the job's output directory and returns why the output is
# wrong, or None when it is right.
Check = Callable[[Path], "str | None"]


@dataclass(frozen=True)
class Job:
    name: str  # also the job's output directory
    argv: tuple[str, ...]  # arguments after `python -m ietkit.cli`
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Callable[[random.Random], list[Job]]
    # Passes cycle through this many input sets drawn from the seed.  A pass
    # whose cost is heavy-tailed in its inputs needs several, so that a run's
    # median pass does not hang on one draw.
    input_sets: int = 1


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output checks


def _check_induct(steps: int | None) -> Check:
    """The trace parsed back satisfies x = M x' exactly (and has `steps` steps)."""

    def check(out: Path) -> str | None:
        doc = _load(out, "induct_trace.json")
        if steps is not None and doc["steps"] != steps:
            return f"trace has {doc['steps']} steps, asked for {steps}"
        if len(doc["edges"]) != doc["steps"]:
            return "edge list length differs from the step count"
        start = [Fraction(x) for x in doc["start"]["lengths"]]
        induced = [Fraction(x) for x in doc["induced_lengths"]]
        matrix = [[int(x) for x in row] for row in doc["matrix"]]
        image = [sum(m * x for m, x in zip(row, induced)) for row in matrix]
        if image != start:
            return "x = M x' does not hold exactly"
        if min(induced) <= 0:
            return "induced lengths are not positive"
        return None

    return check


def _check_classes(vertices: int) -> Check:
    def check(out: Path) -> str | None:
        summary = _load(out, "classes_d7.json")["summary"]
        if not summary["two_in_two_out"]:
            return "two_in_two_out is false"
        if summary["vertices"] != vertices:
            return f"class has {summary['vertices']} vertices, expected {vertices}"
        return None

    return check


def _check_verify(suite: str) -> Check:
    def check(out: Path) -> str | None:
        if _load(out, f"verify_{suite}.json")["report"]["violated"]:
            return f"verify {suite} reports violated"
        return None

    return check


def _check_construct(out: Path) -> str | None:
    doc = _load(out, "construct_manifest.json")
    if doc["failed"]:
        return "construct manifest says failed"
    if doc["stages_completed"] != doc["config"]["stages"]:
        return "construct completed fewer stages than asked"
    return None


def _check_estimate(out: Path) -> str | None:
    if not _load(out, "estimate_dim.json")["families"]:
        return "estimate_dim.json has no families"
    return None


# ---------------------------------------------------------------------------
# input generation


def _lengths(rng: random.Random, d: int, digits: int) -> str:
    """d positive rationals over one seed-drawn denominator of `digits` digits.

    A shared denominator keeps every induced length, and so every integer
    the trace prints, below Python's 4300-digit int-to-str limit; lengths
    over distinct denominators of this size make `induct` fail (see
    README.md, "Known defects").
    """
    den = rng.randrange(10 ** (digits - 1), 10**digits)
    return ",".join(f"{rng.randrange(1, den)}/{den}" for _ in range(d))


def _rauzy_move(top: tuple, bottom: tuple, top_wins: bool) -> tuple[tuple, tuple]:
    """The loser is reinserted right of the winner in the other row."""
    if top_wins:
        row = list(bottom[:-1])
        row.insert(row.index(top[-1]) + 1, bottom[-1])
        return top, tuple(row)
    row = list(top[:-1])
    row.insert(row.index(bottom[-1]) + 1, top[-1])
    return tuple(row), bottom


def _path_lengths(rng: random.Random, perm: str, norm: int, digits: int) -> str:
    """Lengths whose induction follows a seed-drawn path of random sides
    until the cocycle's norm reaches `norm`.

    Uniformly drawn lengths make the step count to a norm target
    heavy-tailed: a long run of one side, like a huge continued-fraction
    digit, can add tens of thousands of steps for one seed.  Lengths
    x = M x' in the cone of a path whose sides are fair coin flips follow
    that path, so the step count stays about the same for every seed.  x'
    has `digits`-digit numerators over one shared denominator.
    """
    top, bottom = (tuple(int(s) for s in row.split(",")) for row in perm.split("/"))
    norms = [1] * len(top)
    path = []
    while max(norms) < norm:
        top_wins = rng.random() < 0.5
        winner, loser = (top[-1], bottom[-1]) if top_wins else (bottom[-1], top[-1])
        path.append((winner, loser))
        norms[loser - 1] += norms[winner - 1]  # column loser += column winner
        top, bottom = _rauzy_move(top, bottom, top_wins)
    den = rng.randrange(10 ** (digits - 1), 10**digits)
    x = [rng.randrange(1, den) for _ in top]
    for winner, loser in reversed(path):
        x[winner - 1] += x[loser - 1]  # undo x'_winner = x_winner - x_loser
    return ",".join(f"{n}/{den}" for n in x)


# One d=7 class of 1386 vertices, the smallest d=7 class with at least 1000
# (the sizes with top row 1..7 are 63 ... 938, 1386, 1470 and 2520).  Every
# seed draws a relabelling of it and a vertex by a random walk, so the class
# job's input changes with the seed while its size, and its quadratic cost in
# `classes`, stays fixed.
CLASS_SEED = ((1, 2, 3, 4, 5, 6, 7), (2, 3, 4, 6, 5, 7, 1))
CLASS_VERTICES = 1386


def _class_member(rng: random.Random) -> str:
    top, bottom = CLASS_SEED
    for _ in range(rng.randrange(50, 150)):
        top, bottom = _rauzy_move(top, bottom, rng.random() < 0.5)
    labels = list(range(1, 8))
    rng.shuffle(labels)
    top = [labels[s - 1] for s in top]
    bottom = [labels[s - 1] for s in bottom]
    return f"{','.join(map(str, top))}/{','.join(map(str, bottom))}"


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10**6))


# ---------------------------------------------------------------------------
# workloads

INDUCT_STEPS = 4000
UNTIL_NORM_DIGITS = 300  # about 3600 steps of the path for d=5


def _induct_bigrat(rng: random.Random) -> list[Job]:
    return [
        Job(
            "induct-steps",
            ("induct", "--perm", "s6", "--steps", str(INDUCT_STEPS),
             "--lengths", _lengths(rng, 6, 3000)),
            _check_induct(INDUCT_STEPS),
        ),
        Job(
            "induct-until",
            ("induct", "--perm", "s5", "--until", f"norm:1e{UNTIL_NORM_DIGITS}",
             "--lengths", _path_lengths(rng, "1,2,3,4,5/5,4,3,2,1",
                                        10 ** (UNTIL_NORM_DIGITS + 10), 1000)),
            _check_induct(None),
        ),
    ]


def _balance_mc(rng: random.Random) -> list[Job]:
    return [
        Job(
            f"balance-d{d}",
            ("verify", "balance", "--d", str(d), "--samples", str(samples),
             "--seed", _cli_seed(rng)),
            _check_verify("balance"),
        )
        for d, samples in ((4, 1500), (5, 750))
    ]


def _construct_section(rng: random.Random) -> list[Job]:
    jobs = []
    for d in (6, 5):
        jobs.append(
            Job(
                f"construct-d{d}",
                ("construct", "--d", str(d), "--stages", "6",
                 "--seed", _cli_seed(rng)),
                _check_construct,
            )
        )
        jobs.append(
            Job(
                f"estimate-d{d}",
                ("estimate-dim", "--manifest",
                 f"construct-d{d}/construct_manifest.json",
                 "--planes", "30", "--seed", _cli_seed(rng)),
                _check_estimate,
            )
        )
    return jobs


def _verify_suites(rng: random.Random) -> list[Job]:
    return [
        Job(
            "classes",
            ("classes", "--seed-perm", _class_member(rng)),
            _check_classes(CLASS_VERTICES),
        ),
        Job(
            "symplectic",
            ("verify", "symplectic", "--d", "6", "--paths", "300",
             "--seed", _cli_seed(rng)),
            _check_verify("symplectic"),
        ),
    ]


# Each optimisation has a workload that exercises it and one where the
# prediction is no change: Fraction-heavy induction (induct-bigrat) against
# small-integer scans (balance-mc), exact sections (construct-section) against
# graph queries and the path cocycle (verify-suites).  `verify concavity` is
# left out: it reports VIOLATED on about one seed in seven (see README.md,
# "Known defects").
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "induct-bigrat",
            "few induction steps on huge rationals, through induct and induct_until",
            _induct_bigrat,
        ),
        Workload(
            "balance-mc",
            "many short small-integer induction scans, no Fraction",
            _balance_mc,
            # one draw of --seed can cost twice the work of another: a
            # balance scan runs until the norm limit on a long run of one side
            input_sets=5,
        ),
        Workload(
            "construct-section",
            "staged construction and exact plane sections of its simplices",
            _construct_section,
        ),
        Workload(
            "verify-suites",
            "class enumeration and queries, path cocycle, exact skew-form checks",
            _verify_suites,
        ),
    )
}


def make_jobs(workload: str, seed: int, input_set: int = 0) -> list[Job]:
    """The workload's job sequence for this seed and input set."""
    return WORKLOADS[workload].jobs(random.Random(f"{workload}:{seed}:{input_set}"))
