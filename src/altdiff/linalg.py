"""The x-step's Cholesky factorization: reusable solves and the inverse.

A factorization of the x-step Hessian serves many right-hand sides; its factor
also gives the inverse (inverse(), LAPACK potri). Its relative pivot test,
check_pivots, also guards the oracle's LU (reference.implicit_diff_solve).

Inputs are float64 arrays of either order; factors are column-major, as
LAPACK writes them. Everything here is deterministic: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, SingularMatrix

# Relative pivot threshold below which check_pivots declares a matrix singular.
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
    """Upper Cholesky factor U (M = U'U) of a symmetric positive-definite
    matrix M, reusable across many right-hand sides. U is column-major; its
    strict lower triangle holds leftovers of M, which nothing reads."""

    n: int
    factor: np.ndarray

    def solve(self, b) -> np.ndarray:
        """Solve M x = b column-wise with this factorization of M."""
        rhs = np.asarray(b, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.n:
            raise DimensionMismatch(
                f"right-hand side shape {rhs.shape} does not match a {self.n}x{self.n} factorization"
            )
        if self.n == 0:
            return np.zeros_like(rhs)
        return scipy.linalg.cho_solve((self.factor, False), rhs, check_finite=False)

    def inverse(self) -> np.ndarray:
        """M^-1 from this Cholesky factor of M, through LAPACK potri, which
        fills the upper triangle; the strict lower one is mirrored from it in
        one masked copy, so the result is exactly symmetric."""
        n = self.n
        if n == 0:
            return np.zeros((0, 0))
        inv, info = scipy.linalg.lapack.dpotri(self.factor)
        if info:
            raise SingularMatrix(f"potri found a zero pivot (info={info})")
        np.copyto(inv.T, inv, where=np.tri(n, k=-1, dtype=bool).T)
        # potri's result is column-major; its transpose is the same matrix, row-major.
        return inv.T


def check_pivots(pivots: np.ndarray, scale: float) -> None:
    """SingularMatrix where a pivot's magnitude is at most SINGULARITY_RTOL
    times scale, the factored matrix's largest absolute row sum."""
    threshold = SINGULARITY_RTOL * scale
    if pivots.size and np.min(np.abs(pivots)) <= threshold:
        raise SingularMatrix(
            f"pivot magnitude below {threshold:.3e} (relative threshold "
            f"{SINGULARITY_RTOL:g} of max row norm {scale:.3e})"
        )


def factorize(m) -> Factorization:
    """Cholesky factor of a symmetric positive-definite matrix, for repeated
    solves; SingularMatrix where potrf fails or a pivot fails check_pivots."""
    # The column-major copy LAPACK factors in place: a memcpy of F-ordered
    # input, of C-ordered input the transposing copy potrf makes.
    a = np.array(m, dtype=float, order="F")
    as_matrix(a.T)  # 2-D and finite; a.T is C-contiguous, so this copies nothing
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    _counts.factorize = factorization_count() + 1
    n = a.shape[0]
    if n == 0:
        return Factorization(n=0, factor=np.zeros((0, 0)))
    scale = float(scipy.linalg.lapack.dlange("I", a))  # the largest absolute row sum
    c, info = scipy.linalg.lapack.dpotrf(a, overwrite_a=True, clean=False)
    if info:
        raise SingularMatrix(f"Cholesky factorization failed: {info}-th leading minor "
                             f"of the array is not positive definite")
    # Cholesky pivots are the squared diagonal of the factor.
    check_pivots(np.diagonal(c) ** 2, scale)
    return Factorization(n=n, factor=c)
