"""Dense linear-algebra kernels: factorizations, reusable solves, inverses.

A factorization serves many right-hand sides. When the whole inverse is
wanted (the x-step Hessian's H^-1 when differentiating w.r.t. the linear
cost), inverse() takes it from the factor: LAPACK potri for a Cholesky
factor, a solve against I for an LU one.

Matrices are plain float64 numpy arrays in row-major order. Everything here
is deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, SingularMatrix

# Relative pivot threshold below which factorize declares the matrix singular.
SINGULARITY_RTOL = 1e-12

# Denominator guard for the solver's relative x step, which divides by the
# norm of the previous iterate, the zero vector on the first sweep.
NORM_FLOOR = 1e-12

# Per-thread factorization counter: a solve reads it before and after, so its
# count stays exact while other threads factorize at the same time.
_counts = threading.local()


def factorization_count() -> int:
    """Number of factorize() calls made so far on the calling thread."""
    return getattr(_counts, "factorize", 0)


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, optionally checking its shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {m.shape[1]}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(m)


def as_vector(v, size: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking its length."""
    x = np.asarray(v, dtype=float).reshape(-1)
    if size is not None and x.shape[0] != size:
        raise DimensionMismatch(f"expected length {size}, got {x.shape[0]}")
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return np.ascontiguousarray(x)


@dataclass(frozen=True)
class Factorization:
    """Decomposed square matrix, reusable across many right-hand sides.

    spd is True when the symmetric positive-definite (Cholesky) routine was
    used; otherwise the factors come from a pivoted LU decomposition. norm
    is the matrix's largest absolute row sum, its 1-norm when symmetric.
    """

    n: int
    spd: bool
    factors: tuple
    norm: float = 0.0

    def solve(self, b) -> np.ndarray:
        """Solve M x = b column-wise with this factorization of M."""
        rhs = np.asarray(b, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.n:
            raise DimensionMismatch(
                f"right-hand side shape {rhs.shape} does not match a {self.n}x{self.n} factorization"
            )
        if self.n == 0:
            return np.zeros_like(rhs)
        if self.spd:
            return scipy.linalg.cho_solve(self.factors, rhs, check_finite=False)
        return scipy.linalg.lu_solve(self.factors, rhs, check_finite=False)

    def inverse(self) -> np.ndarray:
        """M^-1 from this factorization of M.

        A Cholesky factor gives it through LAPACK potri, which fills one
        triangle; the other is mirrored from it in one masked copy, so the
        result is exactly symmetric. An LU factor solves against the identity.
        """
        n = self.n
        if n == 0:
            return np.zeros((0, 0))
        if not self.spd:
            return scipy.linalg.lu_solve(self.factors, np.eye(n), check_finite=False)
        c, lower = self.factors
        inv, info = scipy.linalg.lapack.dpotri(c, lower=lower)
        if info:
            raise SingularMatrix(f"potri found a zero pivot (info={info})")
        # Mirror the filled triangle, tri's lower one, into its strict upper one.
        tri = inv if lower else inv.T
        np.copyto(tri, tri.T, where=np.tri(n, k=-1, dtype=bool).T)
        # potri's result is column-major; its transpose is the same matrix, row-major.
        return inv.T

    def inverse_norm(self) -> float:
        """LAPACK pocon's estimate of ||M^-1||_1 from a Cholesky factor: O(n^2)
        work, no M^-1 formed; a lower bound, usually within a factor of 3."""
        c, lower = self.factors
        rcond, _ = scipy.linalg.lapack.dpocon(c, self.norm, uplo="L" if lower else "U")
        return 1.0 / (rcond * self.norm) if rcond > 0 else np.inf


def _pivot_check(pivots: np.ndarray, scale: float) -> None:
    threshold = SINGULARITY_RTOL * scale
    if pivots.size == 0 or np.min(np.abs(pivots)) <= threshold:
        raise SingularMatrix(
            f"pivot magnitude below {threshold:.3e} (relative threshold "
            f"{SINGULARITY_RTOL:g} of max row norm {scale:.3e})"
        )


def factorize(m, spd_hint: bool = False) -> Factorization:
    """Factorize a square matrix for repeated linear solves.

    With spd_hint set, a Cholesky decomposition is attempted first and the
    pivoted LU routine is used as a fallback when the matrix fails it.
    Raises SingularMatrix when a pivot falls below the relative threshold.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    _counts.factorize = factorization_count() + 1
    n = a.shape[0]
    if n == 0:
        return Factorization(n=0, spd=bool(spd_hint), factors=())
    # The largest absolute row sum, taken by LAPACK as the 1-norm of the
    # transpose (an F-ordered view of a, so no copy and no |a| temporary).
    scale = float(scipy.linalg.lapack.dlange("1", a.T))
    if spd_hint:
        try:
            c, lower = scipy.linalg.cho_factor(a, check_finite=False)
            # Cholesky pivots are the squared diagonal of the factor.
            _pivot_check(np.diagonal(c) ** 2, scale)
            return Factorization(n=n, spd=True, factors=(c, lower), norm=scale)
        except scipy.linalg.LinAlgError:
            pass
    with warnings.catch_warnings():
        # Exact-zero pivots are reported through SingularMatrix below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    _pivot_check(np.diagonal(lu), scale)
    return Factorization(n=n, spd=False, factors=(lu, piv), norm=scale)
