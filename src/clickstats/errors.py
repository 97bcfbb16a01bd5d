"""Domain exceptions.

Every error carries a stable machine-readable ``code`` so that callers
(and the CLI, which prints ``error: <code>: <message>``) can match on it
without parsing prose.
"""


class ClickStatsError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class InvalidArgumentError(ClickStatsError, ValueError):
    """An argument is outside its documented domain."""

    code = "invalid-argument"


class CutoffOverflowError(ClickStatsError):
    """A distribution tail cannot be captured below the hard cutoff limit."""

    code = "cutoff-overflow"


class DegenerateConditioningError(ClickStatsError):
    """A conditional distribution cannot be normalized (condition probability ~ 0)."""

    code = "degenerate-conditioning"


class UndefinedWitnessError(ClickStatsError):
    """A witness denominator vanishes (zero mean clicks, or mean clicks equal to N)."""

    code = "undefined-witness"


class IllConditionedInversionError(ClickStatsError):
    """The detector matrix cannot be inverted reliably at the requested cutoff."""

    code = "ill-conditioned-inversion"

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class SolverNotConvergedError(ClickStatsError):
    """An iterative solver stopped at its iteration limit without meeting its optimality conditions."""

    code = "solver-not-converged"
