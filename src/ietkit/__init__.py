"""Exact-arithmetic toolkit for interval exchange transformations.

Modules
-------
perm
    Labeled permutation pairs, Rauzy moves, class enumeration, and the
    restricted move subgraphs.
induction
    Exact Rauzy-Veech induction, the visitation-matrix cocycle, and orbit
    computation over the rationals.
symplectic
    The permutation's skew form, its exact transport along paths, and the
    reciprocal pairing of restricted singular values.
simplex_geometry
    Projective simplices, volume formulas, plane families, polygon
    sections, and the concavity test.
construction
    Staged freedom/restriction path generation with scaled growth
    schedules, the per-stage balance and angle conditions, and the
    hyperplane-avoiding paths.
analysis
    Monte Carlo verification of the probabilistic lemmas, Birkhoff-average
    measurements, Keane scans, nested plane-section families, and
    dimension estimation.
cli
    Batch command-line frontend with reproducible manifests.

numpy is imported inside the functions that compute in floats, never at
module level, so importing any module and running the exact computations
loads no numpy; the balance-decay fit is a closed-form line,
so ``analysis.mc_balance`` needs no numpy either.  The records are plain
classes with ``__slots__``, immutable by convention; those that only store
their arguments share one initialiser, ``_record.Record``.  ``logging`` is
imported by the first warning ``construct`` reports, so start-up loads
neither ``dataclasses`` nor ``logging``.  At the other end a CLI job skips
the interpreter's teardown: ``cli.console_main`` flushes stdout and leaves by
``os._exit``, since every output file is closed before ``cli.main``
returns and nothing relies on ``atexit``; a profiled or traced job exits
normally, so its report is written.  Before ``main`` runs, ``console_main``
defaults ``OPENBLAS_NUM_THREADS`` to 1, so a CLI job runs numpy's BLAS on
one thread: the pool numpy's OpenBLAS would start costs up to 70 ms a job
and serves calls on a few dozen entries.  A value set in the environment
is kept; importing the package changes nothing.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    CalibrationError,
    DegeneracyError,
    IetkitError,
    InductionUndefinedError,
    ScheduleError,
    ScheduleOverflowError,
    StageError,
    UsageError,
)
from .perm import (
    LabeledPermutation,
    RauzyClassGraph,
    RauzyEdge,
    hyperelliptic_class,
    hyperelliptic_permutation,
    rauzy_class,
    rauzy_move,
    restriction_subgraph,
    special_permutations,
)
from .induction import (
    Iet,
    InductionTrace,
    VisitationMatrix,
    drive_path,
    induct,
    induct_until,
    orbit,
    step,
)

__all__ = [
    "__version__",
    "BudgetExceededError",
    "CalibrationError",
    "DegeneracyError",
    "IetkitError",
    "InductionUndefinedError",
    "ScheduleError",
    "ScheduleOverflowError",
    "StageError",
    "UsageError",
    "LabeledPermutation",
    "RauzyClassGraph",
    "RauzyEdge",
    "hyperelliptic_class",
    "hyperelliptic_permutation",
    "rauzy_class",
    "rauzy_move",
    "restriction_subgraph",
    "special_permutations",
    "Iet",
    "InductionTrace",
    "VisitationMatrix",
    "drive_path",
    "induct",
    "induct_until",
    "orbit",
    "step",
]
