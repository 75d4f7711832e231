"""Exception types shared across the package."""


class AltdiffError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(AltdiffError):
    """Operands have incompatible shapes."""


class SingularMatrix(AltdiffError):
    """A pivot fell below the singularity threshold, or a Cholesky factorization failed."""


class NotSymmetric(AltdiffError):
    """A matrix required to be symmetric is not."""


class NotPSD(AltdiffError):
    """A matrix required to be positive semidefinite is not."""


class GradientMismatch(AltdiffError):
    """A user-supplied gradient disagrees with finite differences of the value."""


class NewtonDiverged(AltdiffError):
    """The inner Newton solve exhausted its iterations without progress."""


class NotConverged(AltdiffError):
    """A solve that was required to converge did not."""


class NotOptimal(AltdiffError, ValueError):
    """A point fails the optimality test that differentiating at it needs."""


class SingularKkt(AltdiffError):
    """The linearized optimality system is singular (degenerate active set)."""


class InfeasibleLayer(AltdiffError):
    """A layer's box/simplex data admits no feasible point."""


class DomainError(AltdiffError):
    """An iterate left the domain of the objective."""
