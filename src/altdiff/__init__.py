"""Differentiable convex optimization layers.

Solves  min f(x) s.t. Ax = b, Gx <= h  by operator splitting and computes
dx*/dtheta by Jacobian recursions on the solver's sweeps, reusing its Hessian
factorization, or at a polished stop by their limit in closed form. Oracles
(implicit differentiation of the optimality system, central finite
differences) are included for verification, along with ready-made layers, an
energy-scheduling training demo, and a benchmark CLI.
"""

from .backward import (
    DiffReport,
    JacobianState,
    admm_solve,
    differentiate,
    vjp,
)
from .errors import (
    AltdiffError,
    BadArgument,
    DimensionMismatch,
    DomainError,
    GradientMismatch,
    InfeasibleLayer,
    NewtonDiverged,
    NotConverged,
    NotOptimal,
    NotPSD,
    NotSymmetric,
    SingularKkt,
    SingularMatrix,
)
from .forward import (
    AdmmState,
    ForwardReport,
    SolverConfig,
    dual_update,
    primal_update,
    slack_update,
)
from .io import load_problem, problem_from_dict, problem_to_dict, save_problem
from .layers import (
    QuadraticLayer,
    SoftmaxLayer,
    SparsemaxLayer,
    build,
    solve_and_diff,
    specialized_hessian_factor,
)
from .linalg import Factorization, factorize
from .problem import (
    Direction,
    EqRhs,
    GeneralConvexObjective,
    IneqRhs,
    LinearCost,
    Polyhedron,
    ProblemSpec,
    QuadraticObjective,
    perturb,
    theta_partials,
    validate,
)
from .reference import finite_diff_jacobian, implicit_diff_solve, kkt_residual

__all__ = [name for name in dir() if not name.startswith("_")]
