"""Exception taxonomy shared across the toolkit.

Every numeric-failure exception derives from ToolkitError so the CLI can map
them to a single exit code.
"""


class ToolkitError(Exception):
    """Base class for all toolkit numeric failures."""


class NotHermitianError(ToolkitError):
    """Input matrix is not Hermitian within tolerance."""


class SingularError(ToolkitError):
    """Matrix is numerically singular (or too ill-conditioned to invert)."""


class GapTooSmallError(ToolkitError):
    """Null-space extraction is ill-determined: no spectral gap above the
    null-eigenvalue cluster.  ``index`` is the offending entry of a stack."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class TorusSpectrumError(ToolkitError):
    """Operation requires an empty spectrum on the unit circle."""


class NoRootError(ToolkitError):
    """Root finder found no admissible root; signals a bug for valid input."""


class BracketInvalidError(ToolkitError):
    """A bracket or bound the computation relies on does not hold."""


class NotNilpotentError(ToolkitError):
    """Matrix fails the required nilpotency test."""


class NotUnitaryError(ToolkitError):
    """Matrix is not unitary within tolerance."""


class InteriorSingularError(ToolkitError):
    """Reference kernel is not positive definite at an interior grid point."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z
