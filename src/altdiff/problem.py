"""Problem model: a convex objective over a polyhedron, plus parameter selectors.

A problem is

    min_x  f(x)    s.t.  A x = b,  G x <= h

with f either an explicit quadratic (1/2) x' P x + q' x or a general convex
function given through value/gradient/hessian callbacks. Any constraint block
may be empty (zero rows).

A ParamSelector names the parameter vector theta that differentiation is
taken with respect to, and theta_partials how theta enters the problem: the
one map the solver, both oracles and perturb read. Vector parameters
(q, b, h) yield full Jacobians; matrix parameters (P, A, G) are supported
only as directional derivatives through Direction, which keeps the Jacobian
storage linear in the problem size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg.lapack

from .errors import DimensionMismatch, GradientMismatch, NotPSD, NotSymmetric
from .linalg import as_matrix, as_vector

# Smallest eigenvalue the symmetric part of P may have: -PSD_TOL.
PSD_TOL = 1e-8

# Number of probe points and tolerance for the gradient/value consistency
# check on callback objectives.
GRADIENT_PROBES = 5
GRADIENT_CHECK_RTOL = 1e-4


@dataclass(frozen=True)
class Polyhedron:
    """Constraint set {x : A x = b, G x <= h}, stored stacked: C = [A; G]
    (k x n), rhs = [b; h] and n_eq, the number of equality rows. A, b, G and
    h are views of their row blocks; an empty block has zero rows."""

    C: np.ndarray
    rhs: np.ndarray
    n_eq: int

    def __post_init__(self):
        # List data reads as float arrays; a float64 array is kept, with no pass over it.
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))

    @staticmethod
    def build(n: int, A=None, b=None, G=None, h=None) -> "Polyhedron":
        A = as_matrix(A if A is not None else np.zeros((0, n)), cols=n)
        b = as_vector(b if b is not None else np.zeros(0), size=A.shape[0])
        G = as_matrix(G if G is not None else np.zeros((0, n)), cols=n)
        h = as_vector(h if h is not None else np.zeros(0), size=G.shape[0])
        return Polyhedron(C=np.vstack([A, G]), rhs=np.concatenate([b, h]), n_eq=A.shape[0])

    @property
    def A(self) -> np.ndarray:
        return self.C[: self.n_eq]

    @property
    def b(self) -> np.ndarray:
        return self.rhs[: self.n_eq]

    @property
    def G(self) -> np.ndarray:
        return self.C[self.n_eq:]

    @property
    def h(self) -> np.ndarray:
        return self.rhs[self.n_eq:]

    @property
    def n_ineq(self) -> int:
        return self.C.shape[0] - self.n_eq

    def residual(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        """C x - [b; h] + [0; s]: [A x - b; G x + s - h] in one product."""
        r = self.C @ x - self.rhs
        r[self.n_eq:] += s
        return r


@dataclass(frozen=True)
class QuadraticObjective:
    """f(x) = (1/2) x' P x + q' x with P symmetric positive semidefinite."""

    P: np.ndarray
    q: np.ndarray

    def __post_init__(self):  # as Polyhedron's
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P @ x + self.q @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.P @ x + self.q

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.P.T


@dataclass(frozen=True)
class GeneralConvexObjective:
    """Convex objective given through callbacks on x.

    The hessian callback is mandatory: the primal Jacobian recursion needs
    the exact curvature, not a quasi-Newton surrogate. lin is an additive
    linear-cost term c' x used by LinearCost perturbations; it defaults to
    zero and leaves the callbacks untouched.
    """

    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    hessian_fn: Callable[[np.ndarray], np.ndarray]
    lin: np.ndarray | None = None

    def value(self, x: np.ndarray) -> float:
        v = float(self.value_fn(x))
        if self.lin is not None:
            v += float(self.lin @ x)
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.gradient_fn(x), dtype=float).reshape(-1)
        if self.lin is not None:
            g = g + self.lin
        return g

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.hessian_fn(x), dtype=float)


Objective = Union[QuadraticObjective, GeneralConvexObjective]


@dataclass(frozen=True)
class ProblemSpec:
    """A problem instance: dimensions, objective, constraints. It is checked
    (validate) when it is built, however it is built."""

    n: int
    objective: Objective
    constraints: Polyhedron

    def __post_init__(self):
        validate(self)

    @staticmethod
    def quadratic(P, q, A=None, b=None, G=None, h=None) -> "ProblemSpec":
        q = as_vector(q)
        n = q.shape[0]
        return ProblemSpec(n=n, objective=QuadraticObjective(P=P, q=q),
                           constraints=Polyhedron.build(n, A, b, G, h))

    @staticmethod
    def general(n, value, gradient, hessian, A=None, b=None, G=None, h=None) -> "ProblemSpec":
        obj = GeneralConvexObjective(value_fn=value, gradient_fn=gradient, hessian_fn=hessian)
        return ProblemSpec(n=n, objective=obj, constraints=Polyhedron.build(n, A, b, G, h))


# --------------------------------------------------------------------------
# Parameter selectors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearCost:
    """theta = the linear cost vector (q for quadratics), dimension n."""


@dataclass(frozen=True)
class EqRhs:
    """theta = b, the equality right-hand side, dimension p."""


@dataclass(frozen=True)
class IneqRhs:
    """theta = h, the inequality right-hand side, dimension m_ineq."""


@dataclass(frozen=True)
class Direction:
    """Scalar theta moving all parameter blocks along a fixed perturbation.

    Absent blocks are treated as zero. dP requires a quadratic objective.
    """

    dP: np.ndarray | None = None
    dq: np.ndarray | None = None
    dA: np.ndarray | None = None
    db: np.ndarray | None = None
    dG: np.ndarray | None = None
    dh: np.ndarray | None = None


ParamSelector = Union[LinearCost, EqRhs, IneqRhs, Direction]


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def _check_quadratic(obj: QuadraticObjective, n: int) -> None:
    P = obj.P
    if P.shape != (n, n):
        raise DimensionMismatch(f"P has shape {P.shape}, expected ({n}, {n})")
    if obj.q.shape != (n,):
        raise DimensionMismatch(f"q has shape {obj.q.shape}, expected ({n},)")
    as_vector(obj.q)  # finite, else ValueError
    scale = np.linalg.norm(P)
    # A finite norm proves every entry finite; an infinite one may be an
    # overflow of finite entries, so only then are the entries tested.
    if not np.isfinite(scale):
        as_matrix(P)
    if np.linalg.norm(P - P.T) > 1e-10 * scale:
        raise NotSymmetric("quadratic cost matrix is not symmetric")
    # sym(P) + PSD_TOL I is positive definite exactly when the smallest
    # eigenvalue of sym(P) exceeds -PSD_TOL, and a Cholesky factorization
    # tests that at a sixth of the cost of the eigenvalues, at every size.
    # Only a failed factorization computes them, to decide the boundary case
    # and name the smallest one. P + P' is symmetric, so its transpose is
    # the Fortran-ordered array LAPACK factorizes in place.
    S = P + P.T
    S.flat[:: n + 1] += 2.0 * PSD_TOL
    _, info = scipy.linalg.lapack.dpotrf(S.T, lower=True, overwrite_a=True, clean=False)
    if info != 0:
        lam_min = float(np.linalg.eigvalsh(0.5 * (P + P.T))[0])
        if lam_min < -PSD_TOL:
            raise NotPSD(f"smallest eigenvalue {lam_min:.3e} is below -1e-8")


def _check_gradient(obj: GeneralConvexObjective, n: int) -> None:
    rng = np.random.default_rng(20240613)
    step = 1e-6
    for _ in range(GRADIENT_PROBES):
        # Probes stay in the positive orthant so objectives with a log/x
        # domain (entropy terms) are evaluated where they are defined.
        x = rng.uniform(0.1, 1.0, size=n)
        g = np.asarray(obj.gradient(x), dtype=float).reshape(-1)
        if g.shape[0] != n:
            raise DimensionMismatch(f"gradient callback returned length {g.shape[0]}, expected {n}")
        fd = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            fd[j] = (obj.value(x + e) - obj.value(x - e)) / (2 * step)
        denom = max(np.linalg.norm(g), 1.0)
        if np.linalg.norm(fd - g) > GRADIENT_CHECK_RTOL * denom:
            raise GradientMismatch(
                f"gradient callback deviates from finite differences by "
                f"{np.linalg.norm(fd - g) / denom:.3e} (relative)"
            )


def validate(p: ProblemSpec) -> None:
    """Check every structural invariant of the problem, finite data
    included, or raise. A ProblemSpec is checked when it is built; a call
    re-checks it on demand."""
    n = p.n
    con = p.constraints
    k = con.rhs.shape[0]
    if con.C.shape != (k, n) or not 0 <= con.n_eq <= k:
        raise DimensionMismatch(f"C = [A; G] has shape {con.C.shape} and {con.n_eq} equality "
                                f"rows; [b; h] has length {k} and x {n}")
    as_matrix(con.C)  # finite, else ValueError
    as_vector(con.rhs)
    if isinstance(p.objective, QuadraticObjective):
        _check_quadratic(p.objective, n)
    else:
        if p.objective.lin is not None:
            as_vector(p.objective.lin)
        _check_gradient(p.objective, n)


@dataclass(frozen=True)
class ThetaPartials:
    """Derivatives of the raw parameter blocks w.r.t. theta (None means zero).

    The constraint side is stacked over the k = p + m rows of C = [A; G], as
    every sweep holds it: d_rhs = d[b; h] (None only at zero width), and the
    dA, dG of a Direction as the rows of dC = d[A; G].
    """

    m_theta: int
    dq: Optional[np.ndarray] = None  # d(linear cost)/dtheta, n x m_theta
    d_rhs: Optional[np.ndarray] = None  # k x m_theta
    dP: Optional[np.ndarray] = None  # direction only
    dC: Optional[np.ndarray] = None  # k x n, direction only
    eye: bool = False  # dq = I: the LinearCost selector

    @property
    def matrix(self) -> bool:
        """A Direction with a matrix block: its mixed partial has terms in x."""
        return self.dP is not None or self.dC is not None


def theta_partials(p: ProblemSpec, sel: ParamSelector) -> ThetaPartials:
    """How the selected theta enters p. A Direction's blocks are checked in
    the order dP, dq, dA, db, dG, dh: vectors of their size in any layout,
    matrices of their exact shape (else DimensionMismatch), finite entries
    (else ValueError), dP only on a quadratic objective. Absent blocks of
    d[b; h] and d[A; G] read as zeros."""
    n, p_eq, m = p.n, p.constraints.n_eq, p.constraints.n_ineq
    if isinstance(sel, LinearCost):
        return ThetaPartials(n, dq=np.eye(n), d_rhs=np.zeros((p_eq + m, n)), eye=True)
    if isinstance(sel, EqRhs):
        return ThetaPartials(p_eq, d_rhs=np.eye(p_eq + m, p_eq))
    if isinstance(sel, IneqRhs):
        return ThetaPartials(m, d_rhs=np.eye(p_eq + m, m, -p_eq))
    if not isinstance(sel, Direction):
        raise TypeError(f"unknown selector {sel!r}")
    if sel.dP is not None and not isinstance(p.objective, QuadraticObjective):
        raise DimensionMismatch("dP direction requires a quadratic objective")
    col = lambda v, size: None if v is None else as_vector(v, size=size).reshape(size, 1)
    mat = lambda v, rows: None if v is None else as_matrix(v, rows=rows, cols=n)
    dP, dq, dA, db, dG, dh = (mat(sel.dP, n), col(sel.dq, n), mat(sel.dA, p_eq),
                              col(sel.db, p_eq), mat(sel.dG, m), col(sel.dh, m))
    zero = lambda v, *shape: np.zeros(shape) if v is None else v
    dC = None if dA is None and dG is None else np.vstack([zero(dA, p_eq, n), zero(dG, m, n)])
    return ThetaPartials(1, dq=dq, d_rhs=np.vstack([zero(db, p_eq, 1), zero(dh, m, 1)]),
                         dP=dP, dC=dC)


def _moved(v: np.ndarray, d: np.ndarray, shift) -> np.ndarray:
    """A copy of v with shift(d[rows]) added on the rows where d is nonzero."""
    out, rows = v.copy(), d.any(axis=1)
    out[rows] += shift(d[rows])
    return out


def perturb(p: ProblemSpec, sel: ParamSelector, delta) -> ProblemSpec:
    """Copy of the problem with theta moved by delta along its partials
    (theta_partials): the linear cost by dq delta (delta itself for theta =
    q), [b; h] by d[b; h] delta, and a Direction's P and C = [A; G] by t dP
    and t dC, t = delta[0]. Rows whose partial is zero keep their values,
    and the copy shares no constraint array with p."""
    pt = theta_partials(p, sel)
    delta = as_vector(delta, size=pt.m_theta)
    obj, con, t = p.objective, p.constraints, delta[:1]
    C = con.C.copy() if pt.dC is None else _moved(con.C, pt.dC, lambda d: t * d)
    rhs = _moved(con.rhs, pt.d_rhs, lambda d: d @ delta)
    if pt.dP is not None:
        obj = replace(obj, P=obj.P + t * pt.dP)
    if pt.dq is not None:
        dq = delta if pt.eye else t * pt.dq[:, 0]  # entry by entry, as a linear term holds it
        # Callbacks take the plain form: a subclass's constructor may take no linear term.
        obj = (replace(obj, q=obj.q + dq) if isinstance(obj, QuadraticObjective) else
               GeneralConvexObjective(obj.value_fn, obj.gradient_fn, obj.hessian_fn,
                                      dq if obj.lin is None else obj.lin + dq))
    return replace(p, objective=obj, constraints=Polyhedron(C=C, rhs=rhs, n_eq=con.n_eq))
