"""Exception types shared across the package, and the range checks that
raise BadArgument."""

import math
import numbers


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


class BadArgument(AltdiffError, ValueError):
    """A caller passed a value outside the range its parameter takes. The
    library object that uses the value raises it; the CLI reports it as a
    usage error."""


def check_integer(name: str, value, low: int) -> None:
    """Raise BadArgument unless value is an integer (a bool is not) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise BadArgument(f"{name} must be an integer of at least {low}, got {value!r}")


def check_finite(name: str, value, allow_zero: bool = False) -> None:
    """Raise BadArgument unless 0 < value < inf (0 <= value with allow_zero);
    NaN fails both tests."""
    if not ((0 <= value) if allow_zero else (0 < value)) or not value < math.inf:
        sign = "nonnegative" if allow_zero else "positive"
        raise BadArgument(f"{name} must be {sign} and finite, got {value!r}")
