"""Exception and warning types shared across the package."""

from __future__ import annotations


class PsdeError(Exception):
    """Base class for all package errors."""


class ParameterRejection(PsdeError):
    """A shape-parameter pair lies outside the valid domain.

    ``code`` is one of ``REJECT_ALPHA``, ``REJECT_BETA``, ``REJECT_RHO``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NoConvergenceError(PsdeError):
    """An iteration exhausted its budget above tolerance.

    Carries the residual (or change) history of the failed run.
    """

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


class PathFailure(PsdeError):
    """A simulation failed on one path of a batch at one step.

    ``path`` is the failing path's index in its ensemble, the one
    ``path_seed`` takes (its row for a bare batch, 0 for a single path),
    and ``step`` the grid step, or None where the failure was only seen in
    the terminal values.
    """

    def __init__(self, message: str, step: int | None = None, path: int | None = None):
        super().__init__(message)
        self.step = step
        self.path = path

    def renumber(self, first_path: int) -> None:
        """Count ``path`` from first_path: a chunk's row becomes its ensemble index."""
        self.path += first_path
        self.args = (f"{self.args[0]} (ensemble path {self.path})",)


class CaseInconsistentError(PathFailure):
    """A per-step implicit solve contradicts its own case classification.

    Indicates a NaN/overflow or logic fault, never a modeling outcome.
    """


class SimulationAborted(PathFailure):
    """Non-finite value produced while generating a path."""


class SigmaNotPositiveError(PsdeError):
    """sigma sampled non-positive where a positive diffusion is required."""


class BoundVacuousWarning(UserWarning):
    """The H-norm lower bound is vacuous because C(t, alpha, beta, b) >= 1."""


class EpsTooSmallWarning(UserWarning):
    """Finite-difference increment below the roundoff floor of the target."""
