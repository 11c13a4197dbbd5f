"""Exception hierarchy shared by the solvers and the command line front end."""

from __future__ import annotations

__all__ = ["BaselineMissing", "BracketFailure", "DegenerateGrid", "GrushinError", "InvalidProblem",
           "NonConvergence", "UsageError"]


class GrushinError(Exception):
    """Base class for all package specific errors."""


class InvalidProblem(GrushinError):
    """Problem description violates a precondition (bad exponent, grid, radius...)."""


class NonConvergence(GrushinError):
    """An iterative solve exhausted its iteration or refinement budget."""


class BracketFailure(GrushinError):
    """A root bracket for the split objective could not be established."""


class DegenerateGrid(GrushinError):
    """A grid too coarse to trust: a well at a line's node 0 that it does not resolve."""


class BaselineMissing(GrushinError):
    """The regression baseline file does not exist or cannot be read."""


class UsageError(GrushinError):
    """Bad command line usage: unknown key, malformed value, missing flag."""
