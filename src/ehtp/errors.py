"""Exception types and the numerical threshold convention shared across the
package.

The exceptions: EhtpError, the base; NonAbelianError, GroupMismatchError
and DimensionMismatchError for arguments that do not fit together;
NumericalError for a numerical precondition or verification that failed;
NotCompletelyPositiveError and BimoduleError for a map outside the domain
of Kraus extraction or of the positivity probe; ScenarioError for input
that does not match the schema.  No exception reports a failed check: each
check of ``ehtp.suites`` returns a record with ``passed`` and its
measurements.  The CLI maps ScenarioError -> exit 2 (bad input shape),
NumericalError -> exit 3, and a failed record -> exit 1; a MemoryError
also exits 2.

Every numerical threshold is one of two constants.  A pass/fail gate reads
``residual <= TOL * scale``, where ``scale`` is the largest value the checked
quantity can take for its data (``||mu||_1`` for a transform of ``mu``, d for
a Frobenius residual of d x d unitaries, 1 on the unit circle); a gate with a
``tol`` argument, which ``ehtp run --tol`` reaches, defaults to ``TOL``.  A
rank decision keeps an eigenvalue or singular value ``> CUTOFF * largest``.
Solver stops and step sizes are settings, not gates, and stay in their
modules.
"""

from __future__ import annotations

__all__ = [
    "EhtpError",
    "NonAbelianError",
    "GroupMismatchError",
    "DimensionMismatchError",
    "NumericalError",
    "NotCompletelyPositiveError",
    "BimoduleError",
    "ScenarioError",
]

TOL = 1e-9
CUTOFF = 1e-12


class EhtpError(Exception):
    """Base class for all package errors."""


class NonAbelianError(EhtpError):
    """Raised when character/Fourier machinery is asked to work without a
    cyclic-product presentation (non-abelian group, or abelian group given
    only by a Cayley table)."""


class GroupMismatchError(EhtpError):
    """Two objects live over different groups."""


class DimensionMismatchError(EhtpError):
    """Matrix dimensions are inconsistent."""


class NumericalError(EhtpError):
    """A numerical verification failed: unitarity/homomorphism residuals,
    joint diagonalization, phase rounding, reconstruction checks, each
    against ``TOL`` times the data's scale (see the module docstring)."""


class NotCompletelyPositiveError(EhtpError):
    """Kraus extraction was requested for a map that is not completely
    positive."""


class BimoduleError(EhtpError):
    """A map was expected to be a bimodule map over the diagonal algebra
    (a Schur multiplier) and is not."""


class ScenarioError(EhtpError):
    """A scenario/JSON document does not match the expected schema."""
