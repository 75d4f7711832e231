"""Ground-truth oracles: optimality residuals, the linearized-optimality
(implicit differentiation) Jacobian, and central finite differences.

These are deliberately independent of the alternating recursion so they can
certify it: the implicit route assembles the full (n + p + m)-dimensional
linearized system and solves it in one shot by pivoted LU, and the
finite-difference route re-solves perturbed problems with the plain solver.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import NotConverged, NotOptimal, SingularKkt, SingularMatrix
from .backward import admm_solve
from .forward import SolverConfig
from .linalg import as_vector, check_pivots
from .problem import ParamSelector, ProblemSpec, ThetaPartials, perturb, theta_partials, validate

# Strict complementarity guard: below this, a constraint is simultaneously
# active and multiplier-free and the linearized system is (near) singular.
STRICT_COMPLEMENTARITY_TOL = 1e-8

# A point must satisfy the optimality system this well (relative to 1 + ||x||)
# before implicit differentiation at it is meaningful.
KKT_POINT_RTOL = 1e-6

# Central differences take this step in theta and divide two solver errors
# by 2*step; the inner solves must land well below step^2 for entrywise
# relative agreement at 1e-4.
FD_STEP = 1e-5
FD_SOLVER_EPS = 1e-10


def kkt_residual(p: ProblemSpec, x, lam, nu) -> np.ndarray:
    """Stacked optimality residual: stationarity, equality feasibility, and
    complementary slackness diag(nu)(Gx - h)."""
    validate(p)
    con = p.constraints
    x = as_vector(x, size=p.n)
    lam = as_vector(lam, size=con.n_eq)
    nu = as_vector(nu, size=con.n_ineq)
    stationarity = p.objective.gradient(x)
    if con.n_eq:
        stationarity = stationarity + con.A.T @ lam
    if con.n_ineq:
        stationarity = stationarity + con.G.T @ nu
    parts = [stationarity]
    if con.n_eq:
        parts.append(con.A @ x - con.b)
    if con.n_ineq:
        parts.append(nu * (con.G @ x - con.h))
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _kkt_rhs(p: ProblemSpec, x, lam, nu, pt: ThetaPartials) -> np.ndarray:
    """Derivative of the stacked optimality system w.r.t. theta, with the
    stacked d[b; h] and d[A; G] read back as their b/h and A/G rows."""
    con = p.constraints
    n, peq, m = p.n, con.n_eq, con.n_ineq
    rhs = np.zeros((n + peq + m, pt.m_theta))
    if pt.dq is not None:
        rhs[:n] += pt.dq
    if pt.dP is not None:
        rhs[:n] += (pt.dP @ x).reshape(-1, 1)
    if pt.dC is not None:
        dA, dG = pt.dC[:peq], pt.dC[peq:]
        rhs[:n] += (dA.T @ lam).reshape(-1, 1)
        rhs[:n] += (dG.T @ nu).reshape(-1, 1)
        rhs[n:n + peq] += (dA @ x).reshape(-1, 1)
        rhs[n + peq:] += (nu * (dG @ x)).reshape(-1, 1)
    rhs[n:n + peq] -= pt.d_rhs[:peq]
    rhs[n + peq:] -= nu.reshape(-1, 1) * pt.d_rhs[peq:]
    return rhs


def implicit_diff_solve(
    p: ProblemSpec, x_star, lam_star, nu_star, sel: ParamSelector
) -> np.ndarray:
    """dx*/dtheta from one solve of the linearized optimality system.

    The system matrix stacks [f'' A' G'; A 0 0; diag(nu)G 0 diag(Gx - h)];
    its x-block of -J^-1 (dF/dtheta) is returned. Matrix-parameter selectors
    are handled as directional contractions, never materializing the large
    Kronecker-structured Jacobians.
    """
    validate(p)
    con = p.constraints
    x = as_vector(x_star, size=p.n)
    lam = as_vector(lam_star, size=con.n_eq)
    nu = as_vector(nu_star, size=con.n_ineq)

    res = np.linalg.norm(kkt_residual(p, x, lam, nu))
    if res > KKT_POINT_RTOL * (1.0 + np.linalg.norm(x)):
        raise NotOptimal(
            f"point is not optimal enough to differentiate at "
            f"(residual {res:.3e})"
        )
    margin = con.G @ x - con.h if con.n_ineq else np.zeros(0)
    degenerate = (np.abs(nu) <= STRICT_COMPLEMENTARITY_TOL) & (
        np.abs(margin) <= STRICT_COMPLEMENTARITY_TOL
    )
    if np.any(degenerate):
        raise SingularKkt(
            f"strict complementarity fails on constraints "
            f"{np.nonzero(degenerate)[0].tolist()}"
        )

    n, peq, m = p.n, con.n_eq, con.n_ineq
    dim = n + peq + m
    J = np.zeros((dim, dim), order="F")  # column-major, as LAPACK factors it in place
    J[:n, :n] = p.objective.hessian(x)
    if peq:
        J[:n, n:n + peq] = con.A.T
        J[n:n + peq, :n] = con.A
    if m:
        J[:n, n + peq:] = con.G.T
        J[n + peq:, :n] = nu[:, None] * con.G
        J[n + peq:, n + peq:] = np.diag(margin)

    pt = theta_partials(p, sel)
    rhs = _kkt_rhs(p, x, lam, nu, pt)
    scale = float(scipy.linalg.lapack.dlange("I", J))  # the largest absolute row sum
    with warnings.catch_warnings():
        # Exact-zero pivots are reported through check_pivots below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(J, overwrite_a=True)  # ValueError if not finite
    try:
        check_pivots(np.diagonal(lu[0]), scale)
    except SingularMatrix as exc:
        raise SingularKkt(str(exc)) from exc
    return scipy.linalg.lu_solve(lu, -rhs, check_finite=False)[:n]


def finite_diff_jacobian(
    p: ProblemSpec, sel: ParamSelector, cfg: Optional[SolverConfig] = None
) -> np.ndarray:
    """Central differences of the solution map with step FD_STEP, one solver
    run per signed perturbation, each taken to FD_SOLVER_EPS."""
    validate(p)
    cfg = replace(cfg or SolverConfig(), eps=FD_SOLVER_EPS)
    m_theta = theta_partials(p, sel).m_theta
    jac = np.zeros((p.n, m_theta))
    for j in range(m_theta):
        e = np.zeros(m_theta)
        e[j] = FD_STEP
        x_plus = _solved(perturb(p, sel, e), cfg)
        x_minus = _solved(perturb(p, sel, -e), cfg)
        jac[:, j] = (x_plus - x_minus) / (2.0 * FD_STEP)
    return jac


def _solved(p: ProblemSpec, cfg: SolverConfig) -> np.ndarray:
    report = admm_solve(p, cfg)
    if not report.converged:
        raise NotConverged(
            f"finite-difference probe did not converge in {cfg.max_outer_iters} iterations"
        )
    return report.state.x
