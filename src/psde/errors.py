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


class _OnPath(PsdeError):
    """An error that may name the path of a batch it happened on."""

    path: int | None

    def renumber(self, first_path: int) -> None:
        """Count ``path`` from first_path: a block's row becomes its ensemble
        index.  An error that names no path is left as it is."""
        if self.path is None:
            return
        self.path += first_path
        self.args = (f"{self.args[0]} (ensemble path {self.path})",)


class NoConvergenceError(_OnPath):
    """An iteration exhausted its budget above tolerance.

    Carries the residual (or change) history of the failed run, and for a
    path iteration (max/min sweeps, Picard passes) the failing ``path``,
    numbered as :class:`SimulationAborted` numbers it; None elsewhere.
    """

    def __init__(self, message: str, history, path: int | None = None):
        super().__init__(message)
        self.history = list(history)
        self.path = path


class SimulationAborted(_OnPath):
    """A simulation left the floats on one path of a batch at one step.

    ``path`` is the failing path's index in its ensemble, the one
    ``path_seed`` takes (its row for a bare batch, 0 for a single path),
    and ``step`` the grid step.
    """

    def __init__(self, message: str, step: int, path: int | None = None):
        super().__init__(message)
        self.step = step
        self.path = path


class SigmaNotPositiveError(PsdeError):
    """sigma sampled non-positive where a positive diffusion is required."""


class BoundVacuousWarning(UserWarning):
    """The H-norm lower bound is vacuous because C(t, alpha, beta, b) >= 1."""


class EpsTooSmallWarning(UserWarning):
    """Finite-difference increment below the roundoff floor of the target."""
