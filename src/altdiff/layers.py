"""Ready-made optimization layers and their iteration-independent curvature.

Three layer kinds are provided:

  * QuadraticLayer     min (1/2) x'Px + q'x   s.t. Ax = b, Gx <= h
  * SparsemaxLayer     min ||x - y||^2        s.t. 1'x = 1, 0 <= x <= u
  * SoftmaxLayer       min -y'x + sum x log x s.t. 1'x = 1, 0 <= x <= u

A layer is its parametrized problem: build() writes out the data and
solve_and_diff() differentiates it like any other problem. For the two
quadratic kinds the x-step Hessian is constant, so the solver factorizes it
once per solve; the entropy layer's Hessian diag(1/x) + 2 rho I + rho 11' is
refactorized per Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .backward import DiffReport, differentiate
from .errors import DomainError, InfeasibleLayer
from .forward import SolverConfig, xstep_factor
from .linalg import Factorization, as_matrix, as_vector
from .problem import (
    GeneralConvexObjective,
    ParamSelector,
    Polyhedron,
    ProblemSpec,
    QuadraticObjective,
)

# Entropy objectives live on the open positive orthant; iterates are clipped
# here before log/reciprocal evaluations.
ENTROPY_CLIP = 1e-12


@dataclass(frozen=True)
class QuadraticLayer:
    P: np.ndarray
    q: np.ndarray
    constraints: Polyhedron


@dataclass(frozen=True)
class SparsemaxLayer:
    y: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class SoftmaxLayer:
    y: np.ndarray
    u: np.ndarray


LayerKind = Union[QuadraticLayer, SparsemaxLayer, SoftmaxLayer]


def _box_simplex(n: int, u: np.ndarray) -> Polyhedron:
    # 1'x = 1 with box 0 <= x <= u written as G = [-I; I], h = [0; u].
    G = np.vstack([-np.eye(n), np.eye(n)])
    h = np.concatenate([np.zeros(n), u])
    return Polyhedron.build(n, A=np.ones((1, n)), b=np.ones(1), G=G, h=h)


def _check_box(y: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = as_vector(y)
    u = as_vector(u, size=y.shape[0])
    if np.any(u <= 0):
        raise InfeasibleLayer("box upper bounds must be strictly positive")
    if float(np.sum(u)) < 1.0:
        raise InfeasibleLayer(
            f"sum of upper bounds {np.sum(u):.6g} cannot reach the simplex"
        )
    return y, u


@dataclass(frozen=True)
class SoftmaxEntropyObjective(GeneralConvexObjective):
    """-y'x + sum_i x_i log x_i, with iterates clipped to the domain."""

    y: np.ndarray = None  # type: ignore[assignment]

    def __init__(self, y: np.ndarray):
        y = as_vector(y)
        clip = lambda x: np.maximum(x, ENTROPY_CLIP)
        super().__init__(
            value_fn=lambda x: float(-y @ x + np.sum(clip(x) * np.log(clip(x)))),
            gradient_fn=lambda x: -y + 1.0 + np.log(clip(x)),
            hessian_fn=lambda x: np.diag(1.0 / clip(x)),
        )
        object.__setattr__(self, "y", y)


def build(kind: LayerKind) -> ProblemSpec:
    """Explicit problem data for a layer kind."""
    if isinstance(kind, QuadraticLayer):
        q = as_vector(kind.q)
        return ProblemSpec(
            n=q.shape[0],
            objective=QuadraticObjective(P=as_matrix(kind.P), q=q),
            constraints=kind.constraints,
        )
    if isinstance(kind, SparsemaxLayer):
        y, u = _check_box(kind.y, kind.u)
        n = y.shape[0]
        # ||x - y||^2 drops its constant: P = 2I, q = -2y.
        obj = QuadraticObjective(P=2.0 * np.eye(n), q=-2.0 * y)
        return ProblemSpec(n=n, objective=obj, constraints=_box_simplex(n, u))
    if isinstance(kind, SoftmaxLayer):
        y, u = _check_box(kind.y, kind.u)
        n = y.shape[0]
        return ProblemSpec(
            n=n, objective=SoftmaxEntropyObjective(y), constraints=_box_simplex(n, u)
        )
    raise TypeError(f"unknown layer kind {kind!r}")


def specialized_hessian_factor(
    kind: LayerKind, x: Optional[np.ndarray], rho: float
) -> Factorization:
    """Factorization of the layer's x-step Hessian at x.

    Quadratic and sparsemax kinds ignore x (their matrix is constant). It is
    the built problem's x-step factor (forward.xstep_factor), the one the
    solver forms: for sparsemax the factor of (2 + 2 rho) I + rho 11', for
    softmax of diag(1/x) + 2 rho I + rho 11'. The solver does not call this.
    """
    p = build(kind)
    if isinstance(kind, SoftmaxLayer):
        x = as_vector(x, size=p.n)
        if np.any(x <= 0):
            raise DomainError("entropy curvature needs strictly positive x")
    return xstep_factor(p, rho, x)


def solve_and_diff(
    kind: LayerKind, sel: ParamSelector, cfg: Optional[SolverConfig] = None
) -> DiffReport:
    """differentiate() on the built problem."""
    return differentiate(build(kind), sel, cfg)
