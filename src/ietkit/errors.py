"""Exception hierarchy shared across the package.

The CLI's subcommands raise these, argparse's own errors included as
``UsageError``, and ``cli.main`` alone turns each into one stderr line and
an exit code: "usage error:" 1, "budget exceeded:" 2 (``ScheduleOverflowError``
too), "induction undefined:" 3, "stage failure:" 4, and "error: <Type>:" 1 for
any other.  New error types should subclass one of these families rather
than ``Exception`` directly.
"""
from __future__ import annotations


class IetkitError(Exception):
    """Base class for all package errors."""


class UsageError(IetkitError):
    """Bad arguments or malformed input (CLI exit code 1)."""


class BudgetExceededError(IetkitError):
    """A configured step/vertex budget ran out (CLI exit code 2)."""


class InductionUndefinedError(IetkitError):
    """Rauzy induction hit the equality case x_i = x_j (CLI exit code 3).

    ``partial`` carries the trace accumulated before the equality, when
    the induction loop raises it; its ``steps`` count the steps that did
    succeed.  A single ``step`` raises it without one.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class StageError(IetkitError):
    """A construction stage failed (CLI exit code 4); carries partial trace."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ScheduleError(IetkitError):
    """Schedule windows collapsed or were otherwise invalid."""


class ScheduleOverflowError(ScheduleError):
    """A window bound would need an astronomically large integer.

    Raised by design when a schedule built from the unscaled exponent maps is
    asked for concrete numbers; such schedules exist for symbolic inspection
    only.  It carries no stages: a run reports each phase as it finishes.
    """


class DegeneracyError(IetkitError):
    """Geometric degeneracy: singular matrix, dependent plane directions, ..."""


class CalibrationError(IetkitError):
    """A numerically verified containment missed its target radius."""

    def __init__(self, message: str, achieved_radius: float | None = None):
        super().__init__(message)
        self.achieved_radius = achieved_radius
