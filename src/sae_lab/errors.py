"""Shared exception types.

Every failure mode the solvers can report maps to one of these classes, and
the command-line driver maps them onto exit codes in turn.  Keeping the
hierarchy flat and rooted at LabError lets callers catch everything from this
package with a single except clause.
"""


class LabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(LabError, ValueError):
    """An argument is outside the operation's stated domain."""


class DomainError(InvalidArgumentError):
    """A coordinate lies outside the region a state is defined on."""


class SingularConfigurationError(LabError, ValueError):
    """Parameters hit a pole or a degenerate configuration of the formulas."""


class NotSelfAdjointError(LabError, ValueError):
    """A boundary-condition object fails its self-adjointness checks."""


class SolverFailureError(LabError, RuntimeError):
    """An iterative solver failed to converge or returned unusable output."""


class GridIOError(LabError, OSError):
    """A grid, boundary-field, or interface file could not be read or parsed."""
