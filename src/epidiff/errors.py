"""Exception taxonomy shared by all epidiff modules."""


class EpidiffError(Exception):
    """Base class for all library errors."""


# -- polyhedral kernels -------------------------------------------------------

class EmptyPolyhedron(EpidiffError):
    pass


class Unbounded(EpidiffError):
    pass


class DimensionTooLarge(EpidiffError):
    pass


class PointNotInSet(EpidiffError):
    pass


class JacobiNotConverged(EpidiffError):
    """The Jacobi eigensolver left a matrix above its off-diagonal tolerance
    after its sweep limit; its factors would be unconverged."""


# -- core / catalog -----------------------------------------------------------

class DimensionMismatch(EpidiffError):
    pass


class PointNotInDomain(EpidiffError):
    pass


class NotASubgradient(EpidiffError):
    pass


class SubderivativeNotFinite(EpidiffError):
    pass


class TangentPreconditionFailed(EpidiffError):
    pass


class UnsupportedTag(EpidiffError):
    pass


# -- oracle -------------------------------------------------------------------

class BasePointInfeasible(EpidiffError):
    pass


class NegativeInfinityDetected(EpidiffError):
    """An oracle intermediate dropped below the proximal lower-bound guard."""


class UndefinedValue(EpidiffError):
    """A sampled function is NaN at a point the oracle values."""


class CriticalConePreconditionFailed(EpidiffError):
    pass


# -- composite / optimality ---------------------------------------------------

class EmptyMultiplierSet(EpidiffError):
    pass


class UnsupportedSpectralMultiplicity(EpidiffError):
    """Clustered leading eigenvalue and the affine condition does not pin the
    multiplier uniquely; reported instead of silently approximated."""


class NotStationary(EpidiffError):
    pass


class MSCQFailed(EpidiffError):
    """The empirical metric-subregularity modulus is infinite: no kappa can
    be derived when the problem file gives none."""


# -- cli ----------------------------------------------------------------------

class ParseError(EpidiffError):
    pass


class ValidationError(EpidiffError):
    pass
