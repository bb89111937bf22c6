"""Exception types shared across the package."""


class RydphonError(Exception):
    """Base class for all package errors."""


class CoincidentAtomsError(RydphonError):
    """Two atoms closer than the minimum-separation guard (1e-9)."""


class MaxIterExceededError(RydphonError):
    """Iterative solver ran out of iterations.

    Carries the last iterate and its residual so callers can inspect
    how close the solve got.
    """

    def __init__(self, message, residual=None, last_iterate=None):
        super().__init__(message)
        self.residual = residual
        self.last_iterate = last_iterate


class NonConvergedCutoffError(RydphonError):
    """Doubling the neighbor-sum cutoff moved the answer too much."""


class NonFiniteMatrixError(RydphonError):
    """A gradient, an assembled Hessian or a Bloch matrix has a NaN or infinite entry."""


class ImaginaryFrequencyError(RydphonError):
    """A squared frequency came out negative beyond tolerance (unstable lattice)."""


class NonPositiveDiagonalError(RydphonError):
    """A diagonal harmonic-matrix entry is not positive; no local frequency exists."""


class DynamicalInstabilityError(RydphonError):
    """The quadratic boson problem has non-real eigenvalues."""


class ZeroFrequencyError(RydphonError):
    """A phonon frequency of zero (or less) entered a 1/sqrt(omega) factor."""


class ConfigError(RydphonError):
    """Malformed chain configuration file or invalid parameter."""


class SchemaMismatchError(RydphonError):
    """Model file fails schema validation (wrong version or missing sections)."""
