"""Exception types shared across the package."""


class ClusterDilogError(Exception):
    """Base class for all domain errors raised by this package."""


class MixedSignCVector(ClusterDilogError):
    """A c-vector has both positive and negative entries.

    Sign-coherence guarantees this never happens for a genuine seed, so
    seeing it means the input state was not produced by valid mutations
    (or there is an internal bug).
    """


class ZeroCVector(ClusterDilogError):
    """A c-vector is identically zero; no tropical sign can be assigned."""


class NotAPeriod(ClusterDilogError):
    """The mutation schedule is not a nu-period of the given matrix."""


class OutOfRange(ClusterDilogError, ValueError):
    """A y-variable along a trajectory is no longer strictly positive, or
    exp overflowed building y(1): floats under- or overflowed.  Unlike a
    bad initial y this is a numerical failure; it is a ValueError too, so
    callers catching one for a non-positive y still do."""


class IncompatibleContexts(ClusterDilogError):
    """Operands belong to quantum tori with different matrices or
    truncation orders."""


class NonInvertible(ClusterDilogError):
    """Series inversion requested for an element with zero constant-shift
    coefficient, or an exact coefficient that is not
    +-q^j / prod_m (1 - q^(2m))^(e_m), the only divisors the identities
    produce."""


class NonTruncating(ClusterDilogError):
    """The argument fed to the quantum dilogarithm series has a degree-0
    component, so the substituted power series does not truncate."""


class PoleHit(ClusterDilogError):
    """A numerical quantum-dilogarithm product ran into a zero factor."""


class BranchProximity(ClusterDilogError):
    """A logarithm or dilogarithm argument came within the guard distance
    of its branch cut; refusing to guess the branch."""


class QuadratureFailure(ClusterDilogError):
    """Phi_b missed its accuracy budget (`achieved_error`: the gap between two
    Gauss-Legendre rules on the tails, or the rounding of pi s / 24 at b far
    from 1), or z is out of its reach."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error
