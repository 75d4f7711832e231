"""ADMM solver for convex objectives over polyhedra.

The constrained problem is split through the augmented Lagrangian

    L(x, s, lam, nu) = f(x) + lam'(Ax - b) + nu'(Gx + s - h)
                       + (rho/2) (||Ax - b||^2 + ||Gx + s - h||^2),   s >= 0,

and iterated as: an unconstrained minimization in x, a closed-form ReLU
update of the slack s, and gradient-ascent updates of the duals lam, nu.
The x-step Hessian f''(x) + rho A'A + rho G'G is factorized and retained:
for quadratic objectives it is constant, so one factorization serves the
whole solve (and the Jacobian recursion afterwards).

The slack and dual steps are over-relaxed from the second sweep on: with
alpha = RELAXATION they read r_hat = alpha (C x - [b; h]) - (1 - alpha) [0; s]
at the new x and the previous slack (C = [A; G]) in place of the residual
r = C x - [b; h]. It is evaluated as r + (alpha - 1)(r + [0; s]), which
leaves r unrounded where the constraint residual r + [0; s] is exactly 0,
so a fixed point of the splitting stays one in floating point:

    lam += rho r_hat_eq,   s = max(0, -nu/rho - r_hat_in),
    nu  += rho (r_hat_in + s_new),

which is OSQP's relaxation (Stellato et al., 2020) and converges for any
alpha in (0, 2) (Eckstein and Bertsekas, 1992). It costs no
refactorization. The first sweep stays plain: its previous slack is the
initial max(0, h) (x starts at 0), not an iterate, and relaxing against it
made the Newton x-step of callback objectives diverge on the next sweep.
The residuals a report keeps are those of the returned, unrelaxed iterate.

The update steps here are the reference form of the splitting, which the
tests run. The solver loop (backward) takes primal_update's damped Newton
step for callback objectives, and its own slack and dual step; its
admm_solve runs that loop with a zero-width parameter, so a quadratic
objective gets differentiate's folded x-step: one solve at set-up, then one
matvec for x and no triangular solve per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NewtonDiverged, check_finite, check_integer
from .linalg import Factorization, factorize
from .problem import ProblemSpec, QuadraticObjective

# Damped Newton on callback objectives: stop at this gradient norm or step
# count; Armijo backtracking from the full step. Quadratic x-steps are exact.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITERS = 50
ARMIJO_SLOPE = 1e-4

# The x iterate can repeat for one sweep while the duals still move (the
# splitting has oscillatory modes), so the step rule must hold on this many
# consecutive sweeps before the solve is declared converged.
STEP_RULE_HITS = 3

# Over-relaxation alpha of the slack and dual steps from the second sweep
# on (the module docstring); OSQP's default.
RELAXATION = 1.6


@dataclass
class SolverConfig:
    """Penalty, step-rule tolerance and sweep budget of the solver loop; the
    inner Newton solve's limits are the constants NEWTON_TOL, NEWTON_MAX_ITERS."""

    rho: float = 1.0
    eps: float = 1e-6
    max_outer_iters: int = 10000

    def __post_init__(self):
        check_finite("rho", self.rho)
        check_finite("eps", self.eps)
        check_integer("max_outer_iters", self.max_outer_iters, 1)


@dataclass
class AdmmState:
    """Iterates of the splitting: primal x, slack s, duals lam (eq), nu (ineq)."""

    x: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    nu: np.ndarray
    k: int = 0


@dataclass
class ForwardReport:
    """Solve outcome plus the retained x-step factorization and diagnostics.

    The same for admm_solve and differentiate: factorization_ms times the
    set-up (penalty, factorization and what the sweep derives from it),
    iteration_ms the solver steps and the polish's forward half, not the
    Jacobian steps or the step norms. eq_residual and ineq_residual are
    ||A x - b|| and ||G x + s - h|| at the returned point, taken once after
    the loop (problem.Polyhedron.residual). polished says the solve stopped on a polished fixed point (backward's
    module docstring), polish_factorizations counts the LU factorizations
    the polish made; num_factorizations counts the x-step's only.
    """

    state: AdmmState
    converged: bool
    polished: bool = False
    polish_factorizations: int = 0
    step_norms: list = field(default_factory=list)
    eq_residual: float = math.nan
    ineq_residual: float = math.nan
    hessian_factorization: Optional[Factorization] = None
    num_factorizations: int = 0
    factorization_ms: float = 0.0
    iteration_ms: float = 0.0

    @property
    def iterations(self) -> int:
        return self.state.k


def penalty_matrix(p: ProblemSpec, rho: float) -> np.ndarray:
    """rho A'A + rho G'G, the constraint curvature added to the x-step Hessian.

    Formed as rho C'C from the stacked C = [A; G] in one product, which numpy
    evaluates as a symmetric rank-k update, so the result is exactly
    symmetric. With no constraint rows it is the n x n zero matrix.
    """
    C = p.constraints.C
    out = C.T @ C
    out *= rho
    return out


def xstep_factor(p: ProblemSpec, rho: float, x: Optional[np.ndarray] = None,
                 penalty: Optional[np.ndarray] = None) -> Factorization:
    """The factorization of the x-step Hessian f''(x) + rho A'A + rho G'G; a
    quadratic ignores x. penalty (penalty_matrix) reuses the curvature. The sum
    is column-major, as factorize copies it; penalty is exactly symmetric."""
    if penalty is None:
        penalty = penalty_matrix(p, rho)
    return factorize(np.add(p.objective.hessian(x), penalty.T, order="F"))


def lagrangian_gradient(p: ProblemSpec, x, s, lam, nu, rho: float) -> np.ndarray:
    con = p.constraints
    z = np.concatenate([lam, nu])
    return p.objective.gradient(x) + con.C.T @ (z + rho * con.residual(x, s))


def _lagrangian_value(p: ProblemSpec, x, s, lam, nu, rho: float) -> float:
    r = p.constraints.residual(x, s)
    z = np.concatenate([lam, nu])
    return p.objective.value(x) + float(z @ r) + 0.5 * rho * float(r @ r)


def primal_update(
    p: ProblemSpec,
    st: AdmmState,
    cfg: SolverConfig,
    fact: Optional[Factorization] = None,
    penalty: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, Factorization]:
    """Minimize the augmented Lagrangian in x; return the new x and the
    factorization of its Hessian f''(x) + rho A'A + rho G'G.

    Quadratic objectives reduce to one linear solve with the constant matrix
    P' + rho A'A + rho G'G; pass fact to reuse a factorization computed
    earlier in the same solve. Callback objectives run damped Newton (Armijo
    backtracking from the full step); pass penalty (penalty_matrix) to reuse
    the constraint curvature across calls. The factorization of the last
    Newton step is returned for the Jacobian recursion to inherit.
    """
    con = p.constraints
    rho = cfg.rho
    if isinstance(p.objective, QuadraticObjective):
        fact = fact or xstep_factor(p, rho)
        # Gradient at x = 0 gives the constant part of the linear system.
        g0 = p.objective.q.copy()
        if con.n_eq:
            g0 += con.A.T @ (st.lam - rho * con.b)
        if con.n_ineq:
            g0 += con.G.T @ (st.nu + rho * (st.s - con.h))
        return fact.solve(-g0), fact

    if penalty is None:
        penalty = penalty_matrix(p, rho)
    x = st.x.copy()
    fact = None
    g = lagrangian_gradient(p, x, st.s, st.lam, st.nu, rho)
    g0_norm = float(np.linalg.norm(g))
    for _ in range(NEWTON_MAX_ITERS):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= NEWTON_TOL:
            break
        fact = xstep_factor(p, rho, x, penalty)
        dx = -fact.solve(g)
        # Armijo backtracking on the augmented Lagrangian value in x. Near
        # the optimum the predicted decrease drops below the resolution of
        # the merit value itself; the pure step is safe there (convex f).
        slope = float(g @ dx)
        base = _lagrangian_value(p, x, st.s, st.lam, st.nu, rho)
        alpha = 1.0
        if abs(slope) > 1e-12 * (1.0 + abs(base)):
            for _ in range(60):
                x_try = x + alpha * dx
                if _lagrangian_value(p, x_try, st.s, st.lam, st.nu, rho) <= base + ARMIJO_SLOPE * alpha * slope:
                    break
                alpha *= 0.5
        x = x + alpha * dx
        g = lagrangian_gradient(p, x, st.s, st.lam, st.nu, rho)
    else:
        gnorm = float(np.linalg.norm(g))
        # Stagnation at a tiny gradient is rounding, not divergence.
        if gnorm >= max(g0_norm, 1e-7):
            raise NewtonDiverged(
                f"inner solve made no progress in {NEWTON_MAX_ITERS} iterations "
                f"(gradient norm {gnorm:.3e})"
            )
    if fact is None:
        # Zero Newton steps were taken; the recursion still needs curvature here.
        fact = xstep_factor(p, rho, x, penalty)
    return x, fact


def relaxation(k: int) -> float:
    """alpha of sweep k (0-based): 1 on the first sweep, RELAXATION after."""
    return RELAXATION if k else 1.0


def _relaxed_ineq_residual(st: AdmmState, G, h, x_new) -> np.ndarray:
    """alpha (G x - h) - (1 - alpha) s with st's pre-update slack, evaluated
    as r + (alpha - 1)(r + s), r = G x - h (module docstring)."""
    r = G @ x_new - h
    return r + (relaxation(st.k) - 1.0) * (r + st.s)


def slack_update(st: AdmmState, G, h, x_new, cfg: SolverConfig) -> np.ndarray:
    """Closed-form slack step on the relaxed residual (module docstring):
    s = max(0, -nu/rho - alpha (G x - h) + (1 - alpha) s_prev) elementwise."""
    if len(h) == 0:
        return np.zeros(0)
    return np.maximum(0.0, -st.nu / cfg.rho - _relaxed_ineq_residual(st, G, h, x_new))


def dual_update(st: AdmmState, A, b, G, h, x_new, s_new, cfg: SolverConfig):
    """Ascent steps on the relaxed residual: lam += alpha rho (Ax - b),
    nu += rho (alpha (Gx - h) - (1 - alpha) s_prev + s_new)."""
    lam_new = st.lam + cfg.rho * (relaxation(st.k) * (A @ x_new - b)) if len(b) else st.lam
    nu_new = (st.nu + cfg.rho * (_relaxed_ineq_residual(st, G, h, x_new) + s_new)
              if len(h) else st.nu)
    return lam_new, nu_new


def initial_state(p: ProblemSpec) -> AdmmState:
    """Zero primal/duals; slack starts at max(0, h - G x) = max(0, h) at x = 0."""
    con = p.constraints
    return AdmmState(x=np.zeros(p.n), s=np.maximum(0.0, con.h), lam=np.zeros(con.n_eq),
                     nu=np.zeros(con.n_ineq), k=0)
