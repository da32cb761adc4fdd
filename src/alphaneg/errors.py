"""Exception types shared across the package."""


class AlphanegError(Exception):
    """Base class for all alphaneg errors."""


class NonHermitianError(AlphanegError):
    """Input violated the Hermiticity tolerance."""


class NegativeSpectrumError(AlphanegError):
    """Input required to be positive semi-definite has a negative eigenvalue."""


class NotPositiveDefiniteError(AlphanegError):
    """Input required to be strictly positive definite is singular or indefinite."""


class ZeroOperatorError(AlphanegError):
    """Divergence argument is identically zero."""


class AlphaOutOfRangeError(AlphanegError):
    """Order parameter outside its admissible range."""


class InvalidStateError(AlphanegError):
    """Matrix fails the density-operator invariants (Hermitian, PSD, unit trace)."""


class UnsupportedMapError(AlphanegError):
    """Positive map lacks the properties the generic solver relies on."""


class CommutationFailedError(AlphanegError):
    """For an instrument element N and the declared positive map P,
    P . N . P is not completely positive, so N is not a free operation."""


class OutOfDomainError(AlphanegError):
    """Parameter outside the domain a routine supports: a closed-form family's
    stated range, or an input dimension beyond a search's scale."""


class NotConvergedError(AlphanegError):
    """A Dykstra projection exhausted its cycle budget.

    Carries the last iterate and its residual.  Measure solves never raise
    it: they report an exhausted budget in ``MeasureResult``.
    """

    def __init__(self, message, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
