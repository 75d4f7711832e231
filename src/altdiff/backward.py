"""Jacobians of the solution map, computed in lockstep with the solver.

Writing J* for the derivative of an iterate with respect to the selected
parameter theta, each solver sweep is followed by one sweep of the
linearized updates:

    Jx   <- -H(x)^-1 * d/dtheta grad_x L(x, s, lam, nu)
    Js_i <- -(1/rho) [Jnu + rho (G Jx - dh)]_i   if s_i > 0, else 0
    Jlam <- Jlam + rho (A Jx - db)
    Jnu  <- Jnu + rho (G Jx + Js - dh)

where H(x) is the factorization already produced by the x-step. The
recursion keeps a single Jacobian state (previous iterates are overwritten)
and converges to the derivative of the optimality system, so no solver
trajectory has to be stored. Stopping early simply yields a Jacobian whose
error tracks the error of the truncated iterate.

For a quadratic objective H is constant, and the x-step and the mixed
partial are the same affine map through W = H^-1 [A; G]': with
z = [lam; nu + rho s] and Y = [Jlam; Jnu + rho Js],

    x  = x0 - W z,          x0 = -H^-1 q + rho W [b; h]
    Jx = -(Hd + W Y),       Hd = H^-1 dq - rho W d[b; h]/dtheta

Set-up therefore factorizes H once. For theta = q, dq = I makes H^-1 dq
H^-1 itself, so set-up takes H^-1 from the factor (linalg.inverse: LAPACK
potri on a Cholesky factor) and forms W and H^-1 q as products, with no
solve. For every other selector it makes one solve against the factor,
H^-1 [A; G]' with the q and dq columns alongside; the b and h selectors
read W d[b; h] off the columns of W that db and dh select. Each sweep is
then one matvec with W for x, one with [A; G] for the residuals the slack
and dual steps share, and two products with the n x (p + m) blocks for the
Jacobian, about 4 n (p + m) m_theta flops, with no triangular solve and no
n x n product.

For theta = q with k = p + m < n, the Jacobian recursion runs on a k x k
core instead: dq = I and d[b; h] = 0 keep every iterate of the form
Jx = -(H^-1 + W T W') with T k x k, so each sweep makes two k x k products
(about 4 k^3 flops, against 4 n^2 k in n-space) and Jx is formed once, at
the end. The b and h selectors keep the n-space sweep: their direct term
has only m_theta columns, and the same move would leave the per-iteration
backward cost growing more slowly with n than acceptance criterion 5's
band (its per-iteration ratio is measured on IneqRhs) allows.

Every solve runs one loop (_solve) over one of three sweeps, picked at
set-up: the two above, and _GeneralSweep, which solves with the x-step
factor against the mixed partial, for callback objectives (damped Newton)
and matrix directions (dP, dA, dG). All three write the slack and dual
steps through one routine, _gated_update. forward.admm_solve is the same
loop with a zero-width parameter: it runs no Jacobian sweep, which leaves
the x-step rule.

The stopping rule reads the Jacobian step norm only on sweeps whose x step
is already below eps, so the loop takes it only there (on the k x k core it
costs a product as large as the sweep's own) and records nan elsewhere; the
stopping sweep is the one every step would give.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DimensionMismatch
from .forward import (
    STEP_RULE_HITS,
    AdmmState,
    ForwardReport,
    SolverConfig,
    dual_update,
    initial_state,
    penalty_matrix,
    primal_update,
    slack_update,
)
from .linalg import NORM_FLOOR, Factorization, factorize
from .problem import (
    EqRhs,
    IneqRhs,
    LinearCost,
    ParamSelector,
    ProblemSpec,
    QuadraticObjective,
    theta_dim,
    validate,
)

# Constraints with both a tiny multiplier and a tiny slack make the solution
# map nondifferentiable; solves near that set are flagged, not failed.
WEAK_ACTIVITY_TOL = 1e-6

# Per-thread count of JacobianState constructions, so tests can assert that a
# solve allocates exactly one state and overwrites it in place, also while
# other threads solve.
_allocs = threading.local()


def jacobian_allocations() -> int:
    """Number of JacobianState objects constructed so far on the calling thread."""
    return getattr(_allocs, "count", 0)


@dataclass
class JacobianState:
    """Derivatives of (x, s, lam, nu) w.r.t. theta, one column per component."""

    Jx: np.ndarray
    Js: np.ndarray
    Jlam: np.ndarray
    Jnu: np.ndarray

    def __post_init__(self):
        _allocs.count = jacobian_allocations() + 1

    @staticmethod
    def zeros(n: int, m_ineq: int, p_eq: int, m_theta: int) -> "JacobianState":
        return JacobianState(
            Jx=np.zeros((n, m_theta)),
            Js=np.zeros((m_ineq, m_theta)),
            Jlam=np.zeros((p_eq, m_theta)),
            Jnu=np.zeros((m_ineq, m_theta)),
        )


@dataclass
class DiffReport:
    """Solution, its Jacobian, and per-iteration diagnostics."""

    forward: ForwardReport
    jac: JacobianState
    # ||Jx_k - Jx_{k-1}|| / (1 + ||Jx_{k-1}||) per sweep, nan on a sweep whose
    # x step was at least eps (the stopping rule does not read it there);
    # differentiate(trace=True) takes every one. 0.0 at zero width.
    jac_step_norms: list = field(default_factory=list)
    weakly_active_warning: bool = False
    jacobian_ms: float = 0.0
    # Per-iteration distances to this run's own final iterate; filled only
    # when differentiate() is asked to trace.
    x_errors: Optional[np.ndarray] = None
    jac_errors: Optional[np.ndarray] = None
    # Distances of the final iterate to a tighter reference run; filled by
    # truncated_differentiate().
    x_error_vs_ref: Optional[float] = None
    jac_error_vs_ref: Optional[float] = None

    @property
    def x(self) -> np.ndarray:
        return self.forward.state.x

    @property
    def Jx(self) -> np.ndarray:
        return self.jac.Jx


@dataclass(frozen=True)
class ThetaPartials:
    """Derivatives of the raw parameter blocks w.r.t. theta (None means zero)."""

    m_theta: int
    dq: Optional[np.ndarray] = None  # d(linear cost)/dtheta, n x m_theta
    db: Optional[np.ndarray] = None  # p x m_theta
    dh: Optional[np.ndarray] = None  # m x m_theta
    dP: Optional[np.ndarray] = None  # direction only
    dA: Optional[np.ndarray] = None
    dG: Optional[np.ndarray] = None


def theta_partials(p: ProblemSpec, sel: ParamSelector) -> ThetaPartials:
    m_theta = theta_dim(p, sel)
    if isinstance(sel, LinearCost):
        return ThetaPartials(m_theta=m_theta, dq=np.eye(p.n))
    if isinstance(sel, EqRhs):
        return ThetaPartials(m_theta=m_theta, db=np.eye(p.constraints.n_eq))
    if isinstance(sel, IneqRhs):
        return ThetaPartials(m_theta=m_theta, dh=np.eye(p.constraints.n_ineq))
    col = lambda v: None if v is None else np.asarray(v, dtype=float).reshape(-1, 1)
    return ThetaPartials(
        m_theta=1,
        dq=col(sel.dq),
        db=col(sel.db),
        dh=col(sel.dh),
        dP=None if sel.dP is None else np.asarray(sel.dP, dtype=float),
        dA=None if sel.dA is None else np.asarray(sel.dA, dtype=float),
        dG=None if sel.dG is None else np.asarray(sel.dG, dtype=float),
    )


def direct_term(p: ProblemSpec, pt: ThetaPartials, rho: float) -> np.ndarray:
    """The x-independent part of the mixed partial: dq - rho A'db - rho G'dh.

    Constant across iterations for every selector, so it is computed once per
    differentiation run.
    """
    con = p.constraints
    out = np.zeros((p.n, pt.m_theta))
    if pt.dq is not None:
        out += pt.dq
    if pt.db is not None:
        out -= rho * (con.A.T @ pt.db)
    if pt.dh is not None:
        out -= rho * (con.G.T @ pt.dh)
    return out


def _rhs_partial(p_eq: int, m_ineq: int, pt: ThetaPartials) -> np.ndarray:
    """d[b; h]/dtheta, zero in the blocks theta does not enter."""
    out = np.zeros((p_eq + m_ineq, pt.m_theta))
    if pt.db is not None:
        out[:p_eq] = pt.db
    if pt.dh is not None:
        out[p_eq:] = pt.dh
    return out


def mixed_partial(
    p: ProblemSpec,
    sel: ParamSelector,
    st: AdmmState,
    jac: JacobianState,
    x_new: np.ndarray,
    rho: float,
    partials: Optional[ThetaPartials] = None,
    direct: Optional[np.ndarray] = None,
) -> np.ndarray:
    """d/dtheta of grad_x L(x_new, s, lam, nu; theta) with x_new held fixed.

    The slack and duals carry their stored Jacobians, so their contribution
    is A'Jlam + G'Jnu + rho G'Js; the explicit theta dependence of q, b, h
    (and, in Direction mode, of P, A, G) adds the direct terms.
    """
    con = p.constraints
    pt = partials if partials is not None else theta_partials(p, sel)
    if direct is None:
        direct = direct_term(p, pt, rho)
    out = direct.copy()
    if con.n_eq:
        out += con.A.T @ jac.Jlam
    if con.n_ineq:
        out += con.G.T @ (jac.Jnu + rho * jac.Js)
    if pt.dP is not None:
        out += (pt.dP @ x_new).reshape(-1, 1)
    if pt.dA is not None:
        res_eq = con.A @ x_new - con.b
        out += (pt.dA.T @ st.lam).reshape(-1, 1)
        out += rho * (pt.dA.T @ res_eq + con.A.T @ (pt.dA @ x_new)).reshape(-1, 1)
    if pt.dG is not None:
        res_in = con.G @ x_new + st.s - con.h
        out += (pt.dG.T @ st.nu).reshape(-1, 1)
        out += rho * (pt.dG.T @ res_in + con.G.T @ (pt.dG @ x_new)).reshape(-1, 1)
    return out


def _gated_update(jlam: np.ndarray, js: np.ndarray, jnu: np.ndarray, c: np.ndarray,
                  s_new: np.ndarray, rho: float, p_eq: int) -> None:
    """The slack and dual Jacobian steps, in place, from c = rho d(C x - [b; h]).

    u = Jnu + rho d(Gx - h): a row with s > 0 moves it all into the slack
    (Js = -u / rho, so Jnu + rho Js = 0); a gated row keeps Jnu = u. Only row
    operations, so the blocks may hold any right factor of the Jacobian.
    """
    jlam += c[:p_eq]
    u = c[p_eq:]
    u += jnu
    np.divide(u, -rho, out=js)
    jnu[...] = u
    active = s_new > 0.0
    js[~active, :] = 0.0
    jnu[active, :] = 0.0


class _Sweep:
    """The protocol of the solver loop. Per iteration: step(st), the solver
    sweep, returns (x, s, lam, nu, ||Ax - b||, ||Gx + s - h||); run(jac, s)
    is the Jacobian sweep, writing the new Jx to self.jx; advance(jac, need)
    swaps the two Jx buffers and, if need, returns the Jacobian step
    ||Jx_new - Jx|| / (1 + ||Jx||), taken in place on the outgoing buffer;
    else it returns nan and takes no norm. The loop needs the step only on
    sweeps whose x step is below eps, so most sweeps skip it; the first
    sweep taken after skipped ones rebuilds ||Jx||. After the loop,
    finish(jac) writes the final blocks. fact is the x-step factorization
    the report keeps.
    """

    # ||jac.Jx||, None when a skipped sweep left it unknown; the recursion
    # starts from Jx = 0.
    jx_norm: Optional[float] = 0.0

    def advance(self, jac: JacobianState, need: bool) -> float:
        old, new = jac.Jx, self.jx
        jac.Jx, self.jx = new, old
        if not need:
            self.jx_norm = None
            return np.nan
        if self.jx_norm is None:
            self.jx_norm = float(np.linalg.norm(old))
        old -= new
        step = float(np.linalg.norm(old) / (1.0 + self.jx_norm))
        self.jx_norm = float(np.linalg.norm(new))
        return step

    def finish(self, jac: JacobianState) -> None:
        """Write the final Jacobian blocks into jac (here they already are)."""

    def trace_point(self, jac: JacobianState) -> np.ndarray:
        """A copy of what a trace keeps of the current Jacobian iterate: an
        array whose distances to the others are those of the Jx iterates."""
        return jac.Jx.copy()


class _QuadraticSweep(_Sweep):
    """Solver and Jacobian sweep for constant-Hessian problems and vector parameters.

    The same update algebra as _GeneralSweep, with H^-1 folded into
    the constraint matrix at set-up: W, the x-step offset x0 and H^-1 times
    the direct term come from H^-1 and two products when theta = q
    (cost=True), else from one solve, so the x-step is a matvec and the
    Jacobian sweep is two matrix products, evaluated into preallocated
    buffers.
    """

    def __init__(self, p: ProblemSpec, pt: ThetaPartials, fact: Factorization, rho: float,
                 cost: bool):
        con = p.constraints
        self.fact, self.rho, self.p_eq = fact, rho, con.n_eq
        self.C = np.vstack([con.A, con.G])
        k = self.C.shape[0]
        self.rhs = np.concatenate([con.b, con.h])  # [b; h]
        q = p.objective.q
        if cost:
            # theta = q: dq = I, so H^-1 dq is H^-1 itself; take it from the
            # factor and get the rest as products.
            hinv = hinv_dq = fact.inverse()
            self.W = hinv @ self.C.T  # H^-1 [A; G]'
            hinv_q = hinv @ q
        else:
            cols = [self.C.T, q.reshape(-1, 1)]
            if pt.dq is not None:
                cols.append(pt.dq)
            sol = fact.solve(np.hstack(cols))
            self.W = np.ascontiguousarray(sol[:, :k])
            hinv_q = sol[:, k]
            hinv_dq = sol[:, k + 1:] if pt.dq is not None else None
        # The x-step at z = 0.
        self.x0 = rho * (self.W @ self.rhs) - hinv_q
        self.z = np.empty(k)
        self._init_jacobian(pt, hinv_dq)

    def _init_jacobian(self, pt: ThetaPartials, hinv_dq: Optional[np.ndarray]) -> None:
        k, mt, p_eq, rho = self.C.shape[0], pt.m_theta, self.p_eq, self.rho
        self.d_rhs = _rhs_partial(p_eq, k - p_eq, pt)
        # H^-1 (dq - rho [A; G]' d[b; h]), with W d[b; h] taken from the
        # columns of W that db and dh select.
        self.Hd = np.zeros((self.W.shape[0], mt)) if hinv_dq is None else hinv_dq
        if pt.db is not None:
            self.Hd = self.Hd - rho * (self.W[:, :p_eq] @ pt.db)
        if pt.dh is not None:
            self.Hd = self.Hd - rho * (self.W[:, p_eq:] @ pt.dh)
        self.y = np.empty_like(self.d_rhs)
        self.cjx = np.empty_like(self.d_rhs)
        self.jx = np.empty((self.W.shape[0], mt))

    def step(self, st: AdmmState) -> tuple:
        """One solver sweep: x-step, slack step and dual step from one residual.

        Returns the new (x, s, lam, nu) and the norms of A x - b and
        G x + s - h.
        """
        rho, p_eq, z = self.rho, self.p_eq, self.z
        z[:p_eq] = st.lam
        np.multiply(st.s, rho, out=z[p_eq:])
        z[p_eq:] += st.nu
        x = self.x0 - self.W @ z
        r = self.C @ x
        r -= self.rhs
        r_eq, r_in = r[:p_eq], r[p_eq:]
        s = np.maximum(0.0, -st.nu / rho - r_in)
        lam = st.lam + rho * r_eq
        r_in += s
        nu = st.nu + rho * r_in
        return x, s, lam, nu, float(np.linalg.norm(r_eq)), float(np.linalg.norm(r_in))

    def run(self, jac: JacobianState, s_new: np.ndarray) -> None:
        """One Jacobian sweep: the new Jx into the spare buffer, Js/Jlam/Jnu in place."""
        rho, p_eq, y, cjx, jx = self.rho, self.p_eq, self.y, self.cjx, self.jx
        y[:p_eq] = jac.Jlam
        np.multiply(jac.Js, rho, out=y[p_eq:])
        y[p_eq:] += jac.Jnu
        np.matmul(self.W, y, out=jx)
        jx += self.Hd
        np.negative(jx, out=jx)
        np.matmul(self.C, jx, out=cjx)
        cjx -= self.d_rhs
        cjx *= rho
        _gated_update(jac.Jlam, jac.Js, jac.Jnu, cjx, s_new, rho, p_eq)


class _CostCoreSweep(_QuadraticSweep):
    """The sweep w.r.t. the linear cost on k x k blocks, k = p + m < n.

    With dq = I and d[b; h] = 0, H^-1 dq = H^-1 and C H^-1 = W', so every
    block of the recursion keeps the form T W' with a k x k T: with
    Y = [Jlam; Jnu + rho Js] = T_Y W', the iterate is Jx = -(H^-1 + W T_Y W')
    and rho C Jx = -rho (I + M T_Y) W' with M = C W. Taking the thin QR
    W = Q R and V = T R' (so W' = R' Q' and T W' = V Q'), one sweep is

        V_Y = [V_lam; V_nu + rho V_s]
        c   = -rho (R' + M V_Y)        in place of rho (C Jx - d[b; h])

    followed by the same gated update on the V blocks: one k x k product.
    A step norm needs a second: ||Jx_new - Jx|| = ||R (V_Y,new - V_Y)||, and
    ||Jx||^2 = ||H^-1||^2 + 2 <W' H^-1 Q, V_Y> + ||R V_Y||^2. The zero start
    Jx = 0 is not of this form, so the first step is ||Jx_1||. run() keeps
    the previous sweep's V_Y, so a step taken after skipped ones rebuilds
    R V_Y of the previous iterate with a third product. Jx and the n-space
    blocks are formed once, by finish(). R is never inverted, so a
    rank-deficient [A; G] is fine.
    """

    def _init_jacobian(self, pt: ThetaPartials, hinv_dq: Optional[np.ndarray]) -> None:
        k, p_eq = self.C.shape[0], self.p_eq
        self.hinv = hinv_dq  # dq = I
        self.Q, self.R = np.linalg.qr(self.W)
        self.Rt = np.ascontiguousarray(self.R.T)
        self.M = self.C @ self.W
        self.K = (self.W.T @ self.hinv) @ self.Q  # W' H^-1 Q
        self.hinv_sq = float(np.vdot(self.hinv, self.hinv))
        self.V_lam = np.zeros((p_eq, k))
        self.V_s = np.zeros((k - p_eq, k))
        self.V_nu = np.zeros((k - p_eq, k))
        self.vy = np.zeros((k, k))
        self.vy_prev = np.zeros((k, k))  # V_Y of the previous sweep
        self.c = np.empty((k, k))
        self.rv = np.empty((k, k))
        self.rv_prev = np.empty((k, k))  # R V_Y of the previous sweep, if taken
        self.first = True

    def run(self, jac: JacobianState, s_new: np.ndarray) -> None:
        """One Jacobian sweep on the V blocks; jac is written by finish()."""
        self.vy, self.vy_prev = self.vy_prev, self.vy
        rho, p_eq, vy, c = self.rho, self.p_eq, self.vy, self.c
        vy[:p_eq] = self.V_lam
        np.multiply(self.V_s, rho, out=vy[p_eq:])
        vy[p_eq:] += self.V_nu
        np.matmul(self.M, vy, out=c)
        c += self.Rt
        c *= -rho
        _gated_update(self.V_lam, self.V_s, self.V_nu, c, s_new, rho, p_eq)

    def _norm(self, vy: np.ndarray, rv: np.ndarray) -> float:
        """||Jx|| of the iterate with V_Y = vy, from rv = R V_Y."""
        return float(np.sqrt(max(
            self.hinv_sq + 2.0 * np.vdot(self.K, vy) + np.vdot(rv, rv), 0.0)))

    def advance(self, jac: JacobianState, need: bool) -> float:
        first, self.first = self.first, False
        if not need:
            self.jx_norm = None
            return np.nan
        rv, prev = self.rv, self.rv_prev
        np.matmul(self.R, self.vy, out=rv)
        norm = self._norm(self.vy, rv)
        if first:
            step = norm
        else:
            if self.jx_norm is None:
                np.matmul(self.R, self.vy_prev, out=prev)
                self.jx_norm = self._norm(self.vy_prev, prev)
            prev -= rv
            step = float(np.linalg.norm(prev) / (1.0 + self.jx_norm))
        self.rv, self.rv_prev = prev, rv
        self.jx_norm = norm
        return step

    def finish(self, jac: JacobianState) -> None:
        qt = self.Q.T
        np.matmul(self.W @ self.vy, qt, out=jac.Jx)
        jac.Jx += self.hinv
        np.negative(jac.Jx, out=jac.Jx)
        np.matmul(self.V_lam, qt, out=jac.Jlam)
        np.matmul(self.V_s, qt, out=jac.Js)
        np.matmul(self.V_nu, qt, out=jac.Jnu)

    def trace_point(self, jac: JacobianState) -> np.ndarray:
        # R V_Y, k x k: ||Jx_i - Jx_j|| = ||R V_Y,i - R V_Y,j||
        return self.rv_prev.copy()


class _GeneralSweep(_Sweep):
    """Solver and Jacobian sweep through the forward update steps.

    Runs what the folded sweeps cannot: callback objectives, whose damped
    Newton x-step factorizes H(x) again every sweep (the Jacobian step
    reuses that sweep's factor), and matrix directions (dP, dA, dG), whose
    mixed partial depends on x. run() takes the mixed partial at the new x
    and the pre-update slack and duals, so step() keeps both.
    """

    def __init__(self, p: ProblemSpec, pt: ThetaPartials, cfg: SolverConfig,
                 fact: Optional[Factorization], penalty: np.ndarray):
        con = p.constraints
        self.p, self.pt, self.cfg, self.fact, self.penalty = p, pt, cfg, fact, penalty
        self.direct = direct_term(p, pt, cfg.rho)
        self.C = np.vstack([con.A, con.G])
        self.d_rhs = _rhs_partial(con.n_eq, con.n_ineq, pt)

    def step(self, st: AdmmState) -> tuple:
        p, cfg, con = self.p, self.cfg, self.p.constraints
        # A quadratic objective solves with the set-up factor; Newton ignores it.
        x, self.fact = primal_update(p, st, cfg, fact=self.fact, penalty=self.penalty)
        s = slack_update(st, con.G, con.h, x, cfg)
        lam, nu = dual_update(st, con.A, con.b, con.G, con.h, x, s, cfg)
        self.st, self.x = st, x
        return (x, s, lam, nu, float(np.linalg.norm(con.A @ x - con.b)),
                float(np.linalg.norm(con.G @ x + s - con.h)))

    def run(self, jac: JacobianState, s_new: np.ndarray) -> None:
        pt, rho, x, p_eq = self.pt, self.cfg.rho, self.x, self.p.constraints.n_eq
        mixed = mixed_partial(self.p, None, self.st, jac, x, rho, partials=pt, direct=self.direct)
        self.jx = jx = -self.fact.solve(mixed)
        # c = rho d(C x - [b; h]), with the dA x and dG x terms of a direction.
        c = self.C @ jx
        if pt.dA is not None:
            c[:p_eq] += (pt.dA @ x).reshape(-1, 1)
        if pt.dG is not None:
            c[p_eq:] += (pt.dG @ x).reshape(-1, 1)
        c -= self.d_rhs
        c *= rho
        _gated_update(jac.Jlam, jac.Js, jac.Jnu, c, s_new, rho, p_eq)


def _make_sweep(p: ProblemSpec, pt: ThetaPartials, cfg: SolverConfig, cost: bool) -> _Sweep:
    """The set-up of a solve: the constraint curvature, for a quadratic
    objective the one factorization of its constant Hessian, and the sweep.
    Vector parameters of a quadratic take the folded sweep, on the k x k
    core for theta = q with k = p + m < n (that needs C H^-1 = W', exact for
    a Cholesky factor); the rest run _GeneralSweep.
    """
    penalty = penalty_matrix(p, cfg.rho)
    if not isinstance(p.objective, QuadraticObjective):
        return _GeneralSweep(p, pt, cfg, None, penalty)
    fact = factorize(p.objective.P.T + penalty, spd_hint=True)
    if pt.dP is not None or pt.dA is not None or pt.dG is not None:
        return _GeneralSweep(p, pt, cfg, fact, penalty)
    con = p.constraints
    core = cost and fact.spd and con.n_eq + con.n_ineq < p.n
    return (_CostCoreSweep if core else _QuadraticSweep)(p, pt, fact, cfg.rho, cost)


def _distances_to_last(points: list) -> np.ndarray:
    last = points[-1]
    return np.array([np.linalg.norm(v - last) for v in points])


def _weakly_active(p: ProblemSpec, st: AdmmState) -> bool:
    con = p.constraints
    margin = np.abs(con.G @ st.x - con.h)
    return bool(np.any((np.abs(st.nu) <= WEAK_ACTIVITY_TOL) & (margin <= WEAK_ACTIVITY_TOL)))


def _solve(
    p: ProblemSpec,
    pt: ThetaPartials,
    cfg: SolverConfig,
    cost: bool = False,
    trace: bool = False,
) -> DiffReport:
    """The solver loop of every solve, on a validated problem. Timers:
    factorization_ms covers the set-up, iteration_ms the solver steps,
    jacobian_ms the Jacobian steps and finish()."""
    from . import linalg

    con = p.constraints
    st = initial_state(p)
    jac = JacobianState.zeros(p.n, con.n_ineq, con.n_eq, pt.m_theta)
    fwd = ForwardReport(state=st, converged=False)
    report = DiffReport(forward=fwd, jac=jac)
    count0 = linalg.factorization_count()
    perf = time.perf_counter

    t0 = perf()
    sweep = _make_sweep(p, pt, cfg, cost)
    fwd.factorization_ms += (perf() - t0) * 1e3

    x_hist: list[np.ndarray] = []
    jx_hist: list[np.ndarray] = []
    x_hits = jac_hits = 0
    x_norm = float(np.linalg.norm(st.x))
    jac_step = 0.0  # with zero width there is no Jacobian to step
    for _ in range(cfg.max_outer_iters):
        t0 = perf()
        x_new, s_new, lam_new, nu_new, eq_res, ineq_res = sweep.step(st)
        t1 = perf()
        fwd.iteration_ms += (t1 - t0) * 1e3

        if pt.m_theta:
            # Jacobian sweep: the mixed partial uses the pre-update slack/duals
            # and their Jacobians, exactly as the linearized updates require.
            sweep.run(jac, s_new)
            report.jacobian_ms += (perf() - t1) * 1e3

        # Diagnostics sit outside the timed recursion. The x step is
        # relative_step_norm(x_new, st.x) with ||x|| carried over. The rule
        # reads the Jacobian step only where the x step is below eps, so
        # only a trace takes it elsewhere; it is measured against
        # 1 + ||Jx|| so it still converges when Jx -> 0.
        step = float(np.linalg.norm(x_new - st.x) / max(x_norm, NORM_FLOOR))
        x_norm = float(np.linalg.norm(x_new))
        if pt.m_theta:
            jac_step = sweep.advance(jac, trace or step < cfg.eps)
        report.jac_step_norms.append(jac_step)
        fwd.step_norms.append(step)
        fwd.eq_residuals.append(eq_res)
        fwd.ineq_residuals.append(ineq_res)
        if trace:
            x_hist.append(x_new.copy())
            jx_hist.append(sweep.trace_point(jac))

        st.x, st.s, st.lam, st.nu = x_new, s_new, lam_new, nu_new
        st.k += 1
        # Both recursions must settle: an x iterate can be stationary from
        # the first sweep (inactive constraints) while its Jacobian is still
        # iterating toward the implicit derivative. A skipped Jacobian step
        # (nan) resets jac_hits only where x_hits is reset too, so the rule
        # stops on the sweep it would with every step taken. With zero width
        # this is the x rule alone.
        x_hits = x_hits + 1 if step < cfg.eps else 0
        jac_hits = jac_hits + 1 if jac_step < cfg.eps else 0
        if x_hits >= STEP_RULE_HITS and jac_hits >= STEP_RULE_HITS:
            fwd.converged = True
            break

    t0 = perf()
    sweep.finish(jac)
    report.jacobian_ms += (perf() - t0) * 1e3
    fwd.hessian_factorization = sweep.fact
    fwd.num_factorizations = linalg.factorization_count() - count0
    report.weakly_active_warning = _weakly_active(p, st)
    if trace:
        report.x_errors = _distances_to_last(x_hist)
        report.jac_errors = _distances_to_last(jx_hist)
    return report


def differentiate(
    p: ProblemSpec,
    sel: ParamSelector,
    cfg: Optional[SolverConfig] = None,
    trace: bool = False,
) -> DiffReport:
    """Solve the problem and its Jacobian w.r.t. the selected parameter.

    The solver sweep and the Jacobian sweep run inside one loop with the
    solver's stopping rule (relative x-step below cfg.eps), so loosening eps
    truncates both consistently. With trace=True the report additionally
    carries per-iteration distances of (x_k, Jx_k) to the run's own final
    iterate, at the cost of storing one trajectory copy: the n x m_theta Jx
    per sweep, or on the k x k core of a theta = q solve one k x k block
    per sweep (R V_Y, whose distances are those of the Jx iterates). A
    traced run also takes the Jacobian step norm on every sweep, where an
    untraced one leaves nan on sweeps the stopping rule does not read; the
    iterates and the stopping sweep are the same either way.
    """
    validate(p)
    return _solve(p, theta_partials(p, sel), cfg or SolverConfig(),
                  cost=isinstance(sel, LinearCost), trace=trace)


def truncated_differentiate(
    p: ProblemSpec,
    sel: ParamSelector,
    cfg: Optional[SolverConfig] = None,
    eps_list=(1e-1, 1e-2, 1e-3),
) -> list[DiffReport]:
    """One fresh differentiate() per tolerance, loosest first.

    Each report's x_error_vs_ref / jac_error_vs_ref compare its final iterate
    against the tightest run in the list, giving the empirical counterpart of
    the truncation bound: Jacobian error on the order of the iterate error.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("eps_list must be nonempty and positive")
    if any(a < b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be nonincreasing (loosest first)")
    cfg = cfg or SolverConfig()
    reports = [differentiate(p, sel, replace(cfg, eps=e)) for e in eps_list]
    ref = reports[-1]
    for r in reports:
        r.x_error_vs_ref = float(np.linalg.norm(r.x - ref.x))
        r.jac_error_vs_ref = float(np.linalg.norm(r.Jx - ref.Jx))
    return reports


def vjp(report: DiffReport, dR_dx) -> np.ndarray:
    """Pull a loss gradient w.r.t. x back to theta: returns dR_dx' Jx."""
    g = np.asarray(dR_dx, dtype=float).reshape(-1)
    if g.shape[0] != report.Jx.shape[0]:
        raise DimensionMismatch(
            f"gradient has length {g.shape[0]}, Jacobian has {report.Jx.shape[0]} rows"
        )
    return g @ report.Jx
