"""Jacobians of the solution map, computed in lockstep with the solver.

Writing J* for the derivative of an iterate with respect to the selected
parameter theta, each solver sweep is followed by one sweep of the
linearized updates. With C = [A; G], Y = [Jlam; Jnu + rho Js] and
c = d(C x - [b; h]) at the new Jx,

    Jx <- -H(x)^-1 * d/dtheta grad_x L(x, s, lam, nu)
    Y  <- sigma (g' Y + alpha rho c)        (row by row)

where H(x) is the factorization already produced by the x-step and alpha
the sweep's over-relaxation (forward.RELAXATION from the second sweep on, 1
on the first; see forward). The slack step is a ReLU of
u = nu + rho r_hat_in, and its derivative a sign gate: sigma is +1 on rows
whose new slack is 0 and -1 on the others. g' is the derivative of u in
the previous z_in = nu + rho s: 1 on rows whose slack was 0 on the previous
sweep and alpha - 1 on the others, so 0 there on the plain first sweep;
equality rows take 1 and alpha rho. The sweeps keep sg = sigma g' and
rs = alpha rho sigma. Y starts at the derivative of the initial z: rho d h
on the rows whose initial slack max(0, h - G x0) is positive, where sigma
starts at -1, so a Jx stopped after any sweep is the derivative of that
sweep's x. Y is the only dual-side state; at the end Jlam = Y_eq, a closed
row has Jnu = Y_in and Js = 0, an open one Js = Y_in / rho and Jnu = 0.
The recursion keeps a single Jacobian state (previous iterates are
overwritten) and converges to the derivative of the optimality system, so
no solver trajectory is stored, and stopping early yields a Jacobian whose
error tracks the iterate's.

For a quadratic objective H is constant, and the x-step and the mixed
partial are the same affine map through W = H^-1 C': with
z = [lam; nu + rho s],

    x  = x0 - W z,          x0 = -H^-1 q + rho W [b; h]
    Jx = -(Hd + W Y),       Hd = H^-1 dq - rho W d[b; h]/dtheta

and the forward step takes the same gate: with u = nu + rho r_hat_in, the
new nu is max(u, 0), the new s is (nu - u) / rho, and z_in = |u| = sigma u.
Set-up factorizes H once (_QuadraticSweep). Each sweep is then one matvec
with W for x, one with C for the residuals the slack and dual steps share,
and two products with the n x (p + m) blocks for the Jacobian, about
4 n (p + m) m_theta flops, with no triangular solve and no n x n product.
A matrix Direction (dP, dA, dG) takes the same x-step; its mixed partial
has terms in x as well, so its Jacobian sweep adds H^-1 times them, one
one-column solve per sweep, and d[A; G] x to d(C x - [b; h]).

The partials come in the same stacked layout (ThetaPartials): d[b; h] is
one k x m_theta block and a Direction's dA, dG the rows of one k x n block
d[A; G], so no sweep splits them; only the oracle reads their rows apart.

For theta = q with k = p + m < n, the Jacobian recursion runs on a k x k
core instead (_CostCoreSweep): every iterate has the form
Jx = -(H^-1 + W T W') with T k x k, and the gate folds into one k x k
product per sweep (about 2 k^3 flops, against 4 n^2 k in n-space), into
which alpha folds as a row scaling; Jx is formed once, at the end. The b
and h selectors keep the n-space sweep: on a k x k core their
per-iteration cost would grow with n more slowly than acceptance
criterion 5's band (measured on IneqRhs) allows.

Every solve runs one loop (_solve) over one of three sweeps, picked at
set-up: the two above for a quadratic objective, and _GeneralSweep for a
callback one, whose damped Newton x-step factorizes H(x) every sweep. All
three share one slack and dual step (_Sweep). forward.admm_solve is the
same loop with a zero-width parameter: it builds no Jacobian half and no
JacobianState.

The stopping rule reads the Jacobian step norm only on sweeps whose x step
is already below eps, so the loop takes it only there (on the k x k core it
costs two products as large as the sweep's own) and records nan elsewhere;
the stopping sweep is the one every step would give. A quadratic solve,
of a vector parameter or none, first tries the polish (below) on those
sweeps: where it succeeds, its fixed point replaces the sweep's iterate and
Jacobian step (nan), and the solve stops there, before the rule's third
hit; eps still sets the sweep it stops on.

Polish. Once the gate stops changing, the solver sweep and the Jacobian
sweep of a quadratic are one affine map, and its fixed point is one k x k
solve (as in OSQP's solution polishing, Stellato et al., 2020, section 5.3).
With M = C W = C H^-1 C' and D = -1/rho on the inequality rows the gate holds
open (0 elsewhere), a fixed point has C x - [b; h] + [0; s] = 0, that is

    (M + D) z = C x0 - [b; h],

and z's inequality rows >= 0 (nu on closed rows, rho s on open ones). Such a
z is a fixed point of the relaxed splitting and so a KKT point. At the first
sweep whose x step is below eps, and at later such sweeps whose gate is none
tried before, _QuadraticSweep factorizes M + D by LAPACK getrf (outside
linalg.factorize, so num_factorizations stays the x-step's one) and solves;
where some z_i < 0 on an inequality row it flips those rows' gate and tries
again, POLISH_MAX_FACTORIZATIONS factorizations per solve in all. A factor
whose reciprocal condition number (gecon) is below POLISH_MIN_RCOND is
refused, as where dependent active rows make M + D singular; a gate with
more active rows than variables (p + closed > n) is one such, refused
before any LU. An infeasible problem has no gate whose z passes. An
accepted z stops the solve with converged=True: x = x0 - W z, and the
Jacobian comes from the same factor, Y = -(M + D)^-1 (C Hd + d[b; h]) in
n-space and T = -(M + D)^-1 on the k x k core (C Hd = W' there), in float64
whatever the sweep's dtype. Otherwise the sweeps and the step rule go on.
Callback objectives, whose x-step is not this affine map, and matrix
Directions, whose Jacobian step has terms in x, are never polished.

Precision. Stopped at tolerance eps, the recursion leaves a Jacobian error
of the iterate's order, about eps and up. Float32 round-off (6e-8) is far
below that once eps >= FLOAT32_MIN_EPS, though what the sweeps gather of it
grows with ||H^-1|| and with the sweep count, which runs long where the
penalty rho C'C outweighs P; so there, for an estimated ||H^-1||_1 at most
FLOAT32_MAX_INV_NORM and a P that carries at least
FLOAT32_MIN_CURVATURE_SHARE of tr H, the two folded sweeps hold their
Jacobian state (W, C, Hd, d[b; h], Y and the Jx buffers; on the core -M, B,
T, G and K) in float32 and each product runs at single precision, at about
twice the speed. Their set-up products are formed in float64 and cast once. The
solver step stays float64 (x, the slack and so the sign gate, the
residuals), so every x iterate is the float64 one; the Jacobian blocks and
the Jacobian step the stopping rule reads carry float32 noise, about 1e-7
(1 + ||Jx||). Every block a report returns and the trace distances are
float64 arrays and the step norms Python floats, though on the float32
path the norms come from float32 products; the core sums the terms of its
||Jx||^2, which cancel near a vertex, in float64. Every other solve, and
_GeneralSweep and matrix Directions always, run in float64.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch
from .forward import (
    STEP_RULE_HITS,
    AdmmState,
    ForwardReport,
    SolverConfig,
    initial_state,
    penalty_matrix,
    primal_update,
    relaxation,
    xstep_factor,
)
from .linalg import NORM_FLOOR, Factorization
from .problem import (
    EqRhs,
    IneqRhs,
    LinearCost,
    ParamSelector,
    Polyhedron,
    ProblemSpec,
    QuadraticObjective,
    theta_dim,
    validate,
)

# Constraints with both a tiny multiplier and a tiny slack make the solution
# map nondifferentiable; solves near that set are flagged, not failed.
WEAK_ACTIVITY_TOL = 1e-6

# Tolerances from this one up run the folded Jacobian sweeps in float32.
# On unit-scale QPs float32 round-off moves each Jacobian step by about
# 1e-7 (1 + ||Jx||), a ten-thousandth of this threshold, so the stopping sweep
# rarely moves: on random QPs at 1e-3 by one sweep in 2 of 682 solves, at
# 1e-4 in about 2%. The round-off grows with ||H^-1||, so float32 also needs
# pocon's estimate of ||H^-1||_1 within the cap: with P / 1 to P / 100 the
# solves under it stayed within 2.2e-7. It grows with the sweep count too,
# which ||H^-1|| does not see where k >= n rows keep rho C'C full rank: P's
# share of tr H = tr P + rho ||C||_F^2 must reach the floor. Below it the
# penalty dominates and the sweeps run hundreds long: random QPs with
# P / 100 and P / 1000 that drifted over 1e-6 under the cap read 0.015 or
# less; unit-scale ones read 0.27 and up, the benchmark's QPs about 0.7.
FLOAT32_MIN_EPS = 1e-3
FLOAT32_MAX_INV_NORM = 100.0
FLOAT32_MIN_CURVATURE_SHARE = 0.1

# Polish (module docstring): LU factorizations of M + D one solve may make
# (0 switches the polish off), and the reciprocal condition number below
# which a factor is refused. On the benchmark's random QPs the accepted
# factors read 1.7e-3 and up, degenerate sparsemax vertices about 1e-17.
POLISH_MAX_FACTORIZATIONS = 3
POLISH_MIN_RCOND = 1e-8

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
        z = lambda rows: np.zeros((rows, m_theta))
        return JacobianState(Jx=z(n), Js=z(m_ineq), Jlam=z(p_eq), Jnu=z(m_ineq))


@dataclass
class DiffReport:
    """Solution, its Jacobian, and per-iteration diagnostics."""

    forward: ForwardReport
    jac: Optional[JacobianState] = None  # None only inside admm_solve
    # ||Jx_k - Jx_{k-1}|| / (1 + ||Jx_{k-1}||) per sweep, nan on a sweep whose
    # x step was at least eps (the stopping rule does not read it there);
    # differentiate(trace=True) takes every one but a polished sweep's, which
    # takes no recursion step (nan). 0.0 at zero width.
    jac_step_norms: list = field(default_factory=list)
    weakly_active_warning: bool = False
    jacobian_ms: float = 0.0
    # Per-iteration distances to this run's own returned iterate (a polished
    # sweep's is its polished point); filled only when differentiate() is
    # asked to trace.
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
    n, p_eq, m = p.n, p.constraints.n_eq, p.constraints.n_ineq
    k, m_theta = p_eq + m, theta_dim(p, sel)
    if isinstance(sel, LinearCost):
        return ThetaPartials(m_theta, dq=np.eye(n), d_rhs=np.zeros((k, n)), eye=True)
    if isinstance(sel, (EqRhs, IneqRhs)):
        d_rhs = np.eye(k, p_eq) if isinstance(sel, EqRhs) else np.eye(k, m, -p_eq)
        return ThetaPartials(m_theta, d_rhs=d_rhs)
    # A Direction's blocks, absent ones as zeros of their shape
    part = lambda v, *shape: np.zeros(shape) if v is None else np.reshape(v, shape).astype(float)
    return ThetaPartials(
        m_theta=1,
        dq=None if sel.dq is None else part(sel.dq, n, 1),
        d_rhs=np.vstack([part(sel.db, p_eq, 1), part(sel.dh, m, 1)]),
        dP=None if sel.dP is None else part(sel.dP, n, n),
        dC=None if sel.dA is None and sel.dG is None else np.vstack(
            [part(sel.dA, p_eq, n), part(sel.dG, m, n)]),
    )


def _times_d_rhs(M: np.ndarray, d_rhs: np.ndarray) -> np.ndarray:
    """M d[b; h], summed over the nonzero rows of d[b; h] only."""
    rows = d_rhs.any(axis=1)
    return M[:, rows] @ d_rhs[rows]


def direct_term(p: ProblemSpec, pt: ThetaPartials, rho: float) -> np.ndarray:
    """The x-independent part of the mixed partial: dq - rho C' d[b; h].

    Constant across iterations for every selector, so it is computed once per
    differentiation run.
    """
    out = -rho * _times_d_rhs(p.constraints.C.T, pt.d_rhs)
    if pt.dq is not None:
        out += pt.dq
    return out


def _direction_terms(con: Polyhedron, pt: ThetaPartials, st: AdmmState, x_new: np.ndarray,
                     rho: float, out: np.ndarray) -> np.ndarray:
    """Add a matrix Direction's terms in x of the mixed partial to out, at x_new
    and the pre-update s, lam, nu: dP x + dC'(z + rho r) + rho C'(dC x) with
    z = [lam; nu] and r = C x - [b; h] + [0; s]."""
    if pt.dP is not None:
        out += (pt.dP @ x_new).reshape(-1, 1)
    if pt.dC is not None:
        z = np.concatenate([st.lam, st.nu])
        r = con.residual(x_new, st.s)
        out += (pt.dC.T @ (z + rho * r) + rho * (con.C.T @ (pt.dC @ x_new))).reshape(-1, 1)
    return out


def mixed_partial(p: ProblemSpec, sel: ParamSelector, st: AdmmState, jac: JacobianState,
                  x_new: np.ndarray, rho: float) -> np.ndarray:
    """d/dtheta of grad_x L(x_new, s, lam, nu; theta) with x_new held fixed.

    The slack and duals carry their stored Jacobians, so their contribution
    is A'Jlam + G'Jnu + rho G'Js; the explicit theta dependence of q, b, h
    (and, in Direction mode, of P, A, G) adds the direct terms. The sweeps
    take it as direct + [A; G]'Y plus _direction_terms; the tests keep this
    form, written out from the A, b, G, h blocks, as reference.
    """
    con = p.constraints
    pt = theta_partials(p, sel)
    out = direct_term(p, pt, rho)
    if con.n_eq:
        out += con.A.T @ jac.Jlam
    if con.n_ineq:
        out += con.G.T @ (jac.Jnu + rho * jac.Js)
    if pt.dP is not None:
        out += (pt.dP @ x_new).reshape(-1, 1)
    if pt.dC is not None:
        # dA'(lam + rho (A x - b)) + dG'(nu + rho (G x + s - h))
        # + rho A'(dA x) + rho G'(dG x); the d[b; h] terms are direct.
        dA, dG = pt.dC[:con.n_eq], pt.dC[con.n_eq:]
        terms = (dA.T @ (st.lam + rho * (con.A @ x_new - con.b))
                 + dG.T @ (st.nu + rho * (con.G @ x_new + st.s - con.h))
                 + rho * (con.A.T @ (dA @ x_new)) + rho * (con.G.T @ (dG @ x_new)))
        out += terms.reshape(-1, 1)
    return out


def _norm(v: np.ndarray) -> float:
    """||v|| of a real 1-D array, as np.linalg.norm computes it, without its wrapper."""
    return math.sqrt(v.dot(v))


class _Sweep:
    """The protocol of the solver loop. Per iteration: step(st), the solver
    sweep, returns (x, s, lam, nu, ||Ax - b||, ||Gx + s - h||), every sweep
    through slack_dual(). At nonzero width, run(s) is the Jacobian sweep: it
    gates on the new slack, writes the new Jx to self.jx_next and steps Y
    (k x m_theta), in n-space through dual_tail(); advance(need) swaps
    self.jx_next in as the current iterate self.jx and, if need, returns the
    Jacobian step ||Jx_new - Jx|| / (1 + ||Jx||), taken in place on the
    outgoing buffer, else nan. The loop needs the step only on sweeps whose
    x step is below eps; the first step taken after skipped ones rebuilds
    ||Jx||. Where polishable, the loop calls polish(s_new) on such sweeps
    and, if it returns a point, polish_jacobian() at width, and stops.
    After the loop, finish() builds the solve's one JacobianState.
    fact is the x-step factorization the report keeps.

    The sweep owns the Jacobian iterate: each subclass allocates the Y and
    Jx buffers it steps (self.jx starts at Jx = 0), at nonzero width only.
    dtype is their precision and that of sigma, sigma g' and alpha rho sigma:
    _make_sweep picks float32 for some folded sweeps (the module docstring
    says which and why); finish() and trace_point() hand out float64.
    """

    # ||self.jx||, None when a skipped sweep left it unknown; the recursion
    # starts from Jx = 0.
    jx_norm: Optional[float] = 0.0
    # Whether polish() may run (quadratic sweeps with constraint rows and no
    # matrix Direction), and the LU factorizations it made in this solve.
    polishable = False
    polish_factorizations = 0

    def __init__(self, con: Polyhedron, rho: float, s0: np.ndarray, dtype=np.float64):
        self.con, self.C = con, con.C  # C = [A; G]
        self.p_eq, self.rho, self.dtype = con.n_eq, rho, dtype
        k = self.C.shape[0]
        # sigma, sigma g' and alpha rho sigma over all k rows. The first
        # sweep gates against the solve's initial slack s0: its positive
        # rows are open.
        self.sigma, self.sg = np.ones(k, dtype), np.ones(k, dtype)
        self.sigma[self.p_eq:][s0 > 0.0] = -1.0
        self.rs = np.empty(k, dtype)  # gate() writes all of it
        self.alpha = 1.0  # this sweep's relaxation, set by slack_dual()

    def slack_dual(self, st: AdmmState, x: np.ndarray) -> tuple:
        """The slack and dual steps at the new x, from one residual
        r = C x - [b; h] relaxed to r_hat = alpha r - (1 - alpha) [0; s_prev]:
        lam + rho r_hat_eq, and with u = nu + rho r_hat_in the new
        nu = max(u, 0) and s = (nu - u) / rho. Returns step()'s tuple, whose
        residual norms are r's. Keeps alpha, u, x and the pre-update st,
        where a Direction's terms in x are taken."""
        rho, p_eq = self.rho, self.p_eq
        self.st, self.x = st, x
        self.alpha = a = relaxation(st.k)
        r = self.C @ x
        r -= self.con.rhs
        r_eq, r_in = r[:p_eq], r[p_eq:]
        # r_hat as r + (alpha - 1)(r + [0; s_prev]), r where r + [0; s_prev] = 0
        r_hat = r.copy()
        r_hat[p_eq:] += st.s
        r_hat *= a - 1.0
        r_hat += r
        lam = st.lam + rho * r_hat[:p_eq]
        self.u = u = st.nu + rho * r_hat[p_eq:]
        nu = np.maximum(u, 0.0)
        s = nu - u
        s /= rho
        r_in += s
        return x, s, lam, nu, _norm(r_eq), _norm(r_in)

    def _init_dual_side(self, pt: ThetaPartials, n: int) -> None:
        """What dual_tail() reads and steps: d[b; h], C, Y, c, Jx. Y starts
        at the derivative of the initial z = [0; rho s0]: rho d h on the
        rows where s0 = max(0, h - G x0) is open."""
        k, mt, dt, p = self.C.shape[0], pt.m_theta, self.dtype, self.p_eq
        self.pt, self.d_rhs = pt, pt.d_rhs.astype(dt, copy=False)
        self.Cj = self.C.astype(dt, copy=False)  # C on the Jacobian side
        self.y, self.c = np.zeros((k, mt), dt), np.empty((k, mt), dt)
        open0 = self.sigma[p:] < 0.0
        self.y[p:][open0] = self.rho * pt.d_rhs[p:][open0]
        self.jx, self.jx_next = np.zeros((n, mt), dt), np.empty((n, mt), dt)

    def gate(self, s_new: np.ndarray) -> None:
        """sigma from the new slack; g' from the previous sweep's sigma, 1 on
        rows closed there and alpha - 1 on open ones; rs = alpha rho sigma,
        alpha rho on equality rows."""
        p, a = self.p_eq, self.alpha
        sigma = self.sigma[p:]
        closed = sigma > 0.0
        sigma[...] = np.where(s_new > 0.0, -1.0, 1.0)
        np.multiply(sigma, np.where(closed, 1.0, a - 1.0), out=self.sg[p:])
        np.multiply(sigma, a * self.rho, out=self.rs[p:])
        self.rs[:p] = a * self.rho

    def dual_step(self, c: np.ndarray, s_new: np.ndarray) -> None:
        """Gate on s_new, then Y <- sigma (g' Y + alpha rho c) rowwise, from
        c = d(C x - [b; h]), which is overwritten."""
        self.gate(s_new)
        c *= self.rs[:, None]
        self.y *= self.sg[:, None]
        self.y += c

    def dual_tail(self, s_new: np.ndarray) -> None:
        """The dual side of a Jacobian sweep from the new Jx (self.jx_next):
        c = C Jx + dC x - d[b; h], then dual_step()."""
        c = self.c
        np.matmul(self.Cj, self.jx_next, out=c)
        if self.pt.dC is not None:
            c += (self.pt.dC @ self.x).reshape(-1, 1)
        c -= self.d_rhs
        self.dual_step(c, s_new)

    def advance(self, need: bool) -> float:
        old, new = self.jx, self.jx_next
        self.jx, self.jx_next = new, old
        if not need:
            self.jx_norm = None
            return np.nan
        if self.jx_norm is None:
            self.jx_norm = float(np.linalg.norm(old))
        old -= new
        step = float(np.linalg.norm(old) / (1.0 + self.jx_norm))
        self.jx_norm = float(np.linalg.norm(new))
        return step

    def finish(self) -> JacobianState:
        """The final blocks in float64: Jx is self.jx; Jlam, Jnu, Js come off
        Y and the last gate, each formed in dtype and then cast."""
        y, p, closed = self.y, self.p_eq, self.sigma[self.p_eq:, None] > 0.0
        f64 = lambda a: a.astype(np.float64, copy=False)
        return JacobianState(Jx=f64(self.jx), Js=f64(np.where(closed, 0.0, y[p:] / self.rho)),
                             Jlam=y[:p].astype(np.float64), Jnu=f64(np.where(closed, y[p:], 0.0)))

    def trace_point(self) -> np.ndarray:
        """A copy of what a trace keeps of the current Jacobian iterate: an
        array whose distances to the others are those of the Jx iterates."""
        return self.jx.astype(np.float64)


class _QuadraticSweep(_Sweep):
    """Solver and Jacobian sweep for constant-Hessian problems, every selector.

    H^-1 is folded into the constraint matrix at set-up: W, the x-step
    offset x0 and H^-1 times the direct term come from H^-1 (LAPACK potri)
    and two products when theta = q, else from one solve against
    [C' | q | dq]. So the x-step is a matvec and the Jacobian
    sweep is two matrix products, evaluated into preallocated buffers; a
    matrix Direction adds one one-column solve for H^-1 times its terms in
    x. step() carries z from sweep to sweep, in float64; the Jacobian sweep
    runs on its own dtype copies of W and C.
    """

    def __init__(self, p: ProblemSpec, pt: ThetaPartials, fact: Factorization, rho: float,
                 s0: np.ndarray, dtype=np.float64):
        super().__init__(p.constraints, rho, s0, dtype)
        self.fact, k = fact, self.C.shape[0]
        q = p.objective.q
        if pt.eye:
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
        self.x0 = rho * (self.W @ self.con.rhs) - hinv_q
        self.z = np.empty(k)
        # The polish's M = C W (the core forms it at set-up, n-space at the
        # first polish), the gates it tried and its accepted LU factor.
        self.polishable = k > 0 and not pt.matrix
        self.M, self.tried, self.lu = None, [], None
        if pt.m_theta:
            self._init_jacobian(pt, hinv_dq)

    def _init_jacobian(self, pt: ThetaPartials, hinv_dq: Optional[np.ndarray]) -> None:
        W, dt = self.W, self.dtype
        # H^-1 (dq - rho C' d[b; h]) = H^-1 dq - rho W d[b; h], kept in
        # float64 for the polish
        self.hd64 = -self.rho * _times_d_rhs(W, pt.d_rhs)
        if hinv_dq is not None:
            self.hd64 += hinv_dq
        self.Hd = self.hd64.astype(dt, copy=False)
        self.Wn = np.negative(W, dtype=dt)  # so that Jx = -(Hd + W Y) takes no negation pass
        self._init_dual_side(pt, W.shape[0])

    def step(self, st: AdmmState) -> tuple:
        """One solver sweep: the x-step x0 - W z, then slack_dual()."""
        p_eq, z = self.p_eq, self.z
        if st.k == 0:
            z[:] = np.concatenate([st.lam, st.nu + self.rho * st.s])
        out = self.slack_dual(st, self.x0 - self.W @ z)
        z[:p_eq] = out[2]  # lam
        np.abs(self.u, out=z[p_eq:])
        return out

    def polish(self, s_new: np.ndarray) -> Optional[tuple]:
        """The forward half of the polish (module docstring) from the gate of
        s_new: solve (M + D) z = C x0 - [b; h], flipping the gate on the
        inequality rows where z < 0, until z's inequality rows are all >= 0,
        a gate or its factor is refused, a gate repeats one tried in this
        solve or the solve has made POLISH_MAX_FACTORIZATIONS. Returns
        step()'s tuple at the fixed point, or None."""
        p, rho, k = self.p_eq, self.rho, len(self.sigma)
        opened = s_new > 0.0
        while (self.polish_factorizations < POLISH_MAX_FACTORIZATIONS
               and not any(np.array_equal(opened, g) for g in self.tried)):
            self.tried.append(opened)
            if p + opened.size - np.count_nonzero(opened) > self.W.shape[0]:
                return None  # more active rows than variables: M + D is singular
            if self.M is None:
                self.M = self.C @ self.W
            a = self.M.copy()
            a.reshape(-1)[p * (k + 1)::k + 1][opened] -= 1.0 / rho  # + D
            anorm = np.abs(a).sum(axis=0).max()
            lu, piv, info = lapack.dgetrf(a)
            self.polish_factorizations += 1
            if info or lapack.dgecon(lu, anorm)[0] < POLISH_MIN_RCOND:
                return None
            z = lapack.dgetrs(lu, piv, self.C @ self.x0 - self.con.rhs)[0]
            flip = z[p:] < 0.0
            if flip.any():
                opened = opened ^ flip
                continue
            self.lu = lu, piv
            self.sigma[p:] = np.where(opened, -1.0, 1.0)
            x = self.x0 - self.W @ z
            nu = np.where(opened, 0.0, z[p:])
            s = np.where(opened, z[p:] / rho, 0.0)
            r = self.C @ x
            r -= self.con.rhs
            r[p:] += s
            return x, s, z[:p].copy(), nu, _norm(r[:p]), _norm(r[p:])
        return None

    def polish_jacobian(self) -> None:
        """The Jacobian half of an accepted polish, from its factor:
        (M + D) Y = -(C Hd + d[b; h]) and Jx = -(Hd + W Y), in float64."""
        pt = self.pt
        # C Hd = W' dq - rho M d[b; h], as C H^-1 = W'
        rhs = -self.rho * _times_d_rhs(self.M, pt.d_rhs)
        if pt.dq is not None:
            rhs += self.W.T if pt.eye else self.W.T @ pt.dq
        rhs += pt.d_rhs
        self.y = lapack.dgetrs(*self.lu, np.negative(rhs, out=rhs))[0]
        jx = self.W @ self.y
        jx += self.hd64
        self.jx = np.negative(jx, out=jx)

    def run(self, s_new: np.ndarray) -> None:
        """One Jacobian sweep: the new Jx into the spare buffer, then Y."""
        jx = self.jx_next
        np.matmul(self.Wn, self.y, out=jx)
        jx -= self.Hd
        if self.pt.matrix:
            terms = np.zeros((jx.shape[0], 1))
            jx -= self.fact.solve(_direction_terms(self.con, self.pt, self.st, self.x, self.rho,
                                                   terms))
        self.dual_tail(s_new)


class _CostCoreSweep(_QuadraticSweep):
    """The sweep w.r.t. the linear cost on k x k blocks, k = p + m < n.

    With dq = I and d[b; h] = 0, C H^-1 = W' keeps every iterate of the form
    Y = T W' and Jx = -(H^-1 + W T W') with a k x k T, and the gated step is,
    on T, with M = C W,

        T <- B T - alpha rho diag(sigma),
        B = diag(sigma) (-alpha rho M) + diag(sigma g'):

    a row scaling, two diagonal writes and one k x k product. A sweep's Jx
    comes from T before its step, so three buffers rotate: t (after this
    sweep's step), t_prev (this sweep's Jx) and t_spare (the previous one's).
    Nothing factors W, so a rank-deficient [A; G] needs no care. Step norms
    use G = W'W and K = W' H^-1 W: ||Jx||^2 = ||H^-1||^2 + 2 <K, T> + <GT, TG>
    and ||dJx||^2 = <G dT, dT G>, two products per step taken (two more after
    skipped sweeps); the first step is ||Jx_1||, as Jx_0 = 0 is not of this
    form. finish() forms Jx and the blocks with W' as the right factor.

    In float32 (see _make_sweep) -M, B, the T buffers, G, K and the
    G T, T G buffers are float32, cast once from float64 set-up products, so
    the sweep and the step norms run as SGEMM. W and H^-1 stay float64:
    finish() and trace_point() form W T W' from them in float64.
    """

    def _init_jacobian(self, pt: ThetaPartials, hinv_dq: Optional[np.ndarray]) -> None:
        k, W, dt = self.C.shape[0], self.W, self.dtype
        self.hinv = hinv_dq  # dq = I
        self.M = self.C @ W  # float64, for the polish
        self.Mn = np.negative(self.M, dtype=dt)  # -M
        self.G = (W.T @ W).astype(dt, copy=False)
        self.K = (W.T @ (self.hinv @ W)).astype(dt, copy=False)
        self.hinv_sq = float(np.vdot(self.hinv, self.hinv))
        self.B = np.empty((k, k), dt)
        self.t, self.t_prev, self.t_spare = (np.zeros((k, k), dt) for _ in range(3))
        # G T and T G of the current and of the previous iterate
        self.gt, self.tg, self.gt_prev, self.tg_prev = (np.empty((k, k), dt) for _ in range(4))
        self.first = True

    def run(self, s_new: np.ndarray) -> None:
        """One Jacobian sweep on T; Jx and Y are formed by finish()."""
        self.gate(s_new)
        B, t, k = self.B, self.t_spare, len(self.sigma)
        np.multiply(self.Mn, self.rs[:, None], out=B)  # diag(alpha rho sigma) (-M)
        B.reshape(-1)[:: k + 1] += self.sg  # its diagonal
        np.matmul(B, self.t, out=t)
        t.reshape(-1)[:: k + 1] -= self.rs
        self.t_prev, self.t, self.t_spare = self.t, t, self.t_prev

    def polish_jacobian(self) -> None:
        """T = -(M + D)^-1 from the accepted polish's factor (getri, which
        beats a solve against the identity), in float64; it is both this
        sweep's T and the one Y is formed from."""
        t = lapack.dgetri(*self.lu)[0]
        self.t = self.t_prev = np.negative(t, out=t)

    def _sq_norm(self, t: np.ndarray, gt: np.ndarray, tg: np.ndarray) -> float:
        """||Jx||^2 of the iterate T = t, writing G T to gt and T G to tg."""
        np.matmul(self.G, t, out=gt)
        np.matmul(t, self.G, out=tg)
        # The terms cancel near a vertex, so they are summed in float64.
        return max(self.hinv_sq + 2.0 * float(np.vdot(self.K, t)) + float(np.vdot(gt, tg)), 0.0)

    def advance(self, need: bool) -> float:
        first, self.first = self.first, False
        if not need:
            self.jx_norm = None
            return np.nan
        gt, tg, gt_prev, tg_prev = self.gt, self.tg, self.gt_prev, self.tg_prev
        norm = math.sqrt(self._sq_norm(self.t_prev, gt, tg))
        if first:
            step = norm
        else:
            if self.jx_norm is None:
                self.jx_norm = math.sqrt(self._sq_norm(self.t_spare, gt_prev, tg_prev))
            gt_prev -= gt
            tg_prev -= tg
            step = math.sqrt(max(np.vdot(gt_prev, tg_prev), 0.0)) / (1.0 + self.jx_norm)
        self.gt, self.tg, self.gt_prev, self.tg_prev = gt_prev, tg_prev, gt, tg
        self.jx_norm = norm
        return step

    def finish(self) -> JacobianState:
        wt = self.W.T
        self.y = self.t @ wt  # Y = T W'
        jx = self.W @ (self.y if self.t_prev is self.t else self.t_prev @ wt)
        jx += self.hinv
        self.jx = np.negative(jx, out=jx)
        return super().finish()

    def trace_point(self) -> np.ndarray:
        # W T W' = -(Jx + H^-1): its distances are those of the Jx iterates.
        return self.W @ self.t_prev @ self.W.T


class _GeneralSweep(_Sweep):
    """Solver and Jacobian sweep of a callback objective.

    Its damped Newton x-step factorizes H(x) again every sweep, and the
    Jacobian step solves with that sweep's factor against the mixed
    partial, direct + C'Y plus a Direction's terms in x, taken at the new x
    and the pre-update slack and duals. It runs in float64.
    """

    def __init__(self, p: ProblemSpec, pt: ThetaPartials, cfg: SolverConfig, s0: np.ndarray):
        super().__init__(p.constraints, cfg.rho, s0)
        self.p, self.cfg, self.penalty = p, cfg, penalty_matrix(p, cfg.rho)
        if pt.m_theta:
            self.direct = direct_term(p, pt, cfg.rho)
            self._init_dual_side(pt, p.n)

    def step(self, st: AdmmState) -> tuple:
        x, self.fact = primal_update(self.p, st, self.cfg, penalty=self.penalty)
        return self.slack_dual(st, x)

    def run(self, s_new: np.ndarray) -> None:
        mixed = self.direct + self.C.T @ self.y
        _direction_terms(self.con, self.pt, self.st, self.x, self.rho, mixed)
        np.negative(self.fact.solve(mixed), out=self.jx_next)
        self.dual_tail(s_new)


def _make_sweep(p: ProblemSpec, pt: ThetaPartials, cfg: SolverConfig,
                s0: np.ndarray) -> _Sweep:
    """The set-up of a solve: the constraint curvature, for a quadratic
    objective the one (Cholesky) factorization of its constant Hessian, and
    the sweep, whose first gate reads the initial slack s0. A quadratic
    takes the folded sweep, on the k x k core for theta = q with
    k = p + m < n; for a vector parameter it runs in float32 from
    eps >= FLOAT32_MIN_EPS when P carries at least
    FLOAT32_MIN_CURVATURE_SHARE of tr H and pocon estimates ||H^-1||_1 <=
    FLOAT32_MAX_INV_NORM. Callback objectives run _GeneralSweep, in float64.
    """
    if not isinstance(p.objective, QuadraticObjective):
        return _GeneralSweep(p, pt, cfg, s0)
    fact = xstep_factor(p, cfg.rho)
    core = pt.eye and p.constraints.C.shape[0] < p.n
    f32 = (pt.m_theta and not pt.matrix and cfg.eps >= FLOAT32_MIN_EPS
           and _curvature_share(p, cfg.rho) >= FLOAT32_MIN_CURVATURE_SHARE
           and fact.inverse_norm() <= FLOAT32_MAX_INV_NORM)
    sweep = _CostCoreSweep if core else _QuadraticSweep
    return sweep(p, pt, fact, cfg.rho, s0, np.float32 if f32 else np.float64)


def _curvature_share(p: ProblemSpec, rho: float) -> float:
    """tr P / tr H of a quadratic, H = P + rho C'C, whose trace is
    tr P + rho ||C||_F^2: O(k n), no factor. 0 where tr H is."""
    C, tr_p = p.constraints.C, float(np.trace(p.objective.P))
    tr_h = tr_p + rho * float(np.vdot(C, C))
    return tr_p / tr_h if tr_h > 0.0 else 0.0


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
    trace: bool = False,
) -> DiffReport:
    """The solver loop of every solve, on a validated problem. Timers:
    factorization_ms covers the set-up, iteration_ms the solver steps and
    the polish's forward half, jacobian_ms the Jacobian steps, the polish's
    Jacobian half and finish(), which run at width only."""
    from . import linalg

    st = initial_state(p)
    count0 = linalg.factorization_count()
    perf = time.perf_counter

    t0 = perf()
    sweep = _make_sweep(p, pt, cfg, st.s)
    fwd = ForwardReport(state=st, converged=False, factorization_ms=(perf() - t0) * 1e3)
    report = DiffReport(forward=fwd)

    x_hist: list[np.ndarray] = []
    jx_hist: list[np.ndarray] = []
    x_hits = jac_hits = 0
    x_norm = _norm(st.x)
    jac_step = 0.0  # with zero width there is no Jacobian to step
    for _ in range(cfg.max_outer_iters):
        t0 = perf()
        x_new, s_new, lam_new, nu_new, eq_res, ineq_res = sweep.step(st)
        fwd.iteration_ms += (perf() - t0) * 1e3
        # The x step, outside the timers: ||x_new - x|| / max(||x||,
        # NORM_FLOOR), ||x|| carried over. Below eps the polish may replace
        # this sweep's iterate and Jacobian step by the fixed point on its
        # gate, and stop the solve.
        step = _norm(x_new - st.x) / max(x_norm, NORM_FLOOR)
        x_norm = _norm(x_new)
        polished = None
        if sweep.polishable and step < cfg.eps:
            t0 = perf()
            polished = sweep.polish(s_new)
            fwd.iteration_ms += (perf() - t0) * 1e3
        if polished is not None:
            x_new, s_new, lam_new, nu_new, eq_res, ineq_res = polished
        if pt.m_theta:
            t0 = perf()
            if polished is None:
                # Jacobian sweep: the gate takes the new slack, the mixed
                # partial the pre-update slack and duals, as the linearized
                # updates require.
                sweep.run(s_new)
            else:
                sweep.polish_jacobian()
            report.jacobian_ms += (perf() - t0) * 1e3
            # The rule reads the Jacobian step only where the x step is below
            # eps, so only a trace takes it elsewhere; it is measured against
            # 1 + ||Jx|| so it still converges when Jx -> 0. A polished sweep
            # takes no recursion step.
            jac_step = sweep.advance(trace or step < cfg.eps) if polished is None else np.nan
            if trace:
                jx_hist.append(sweep.trace_point())
        report.jac_step_norms.append(jac_step)
        fwd.step_norms.append(step)
        fwd.eq_residuals.append(eq_res)
        fwd.ineq_residuals.append(ineq_res)
        if trace:
            x_hist.append(x_new.copy())

        st.x, st.s, st.lam, st.nu = x_new, s_new, lam_new, nu_new
        st.k += 1
        if polished is not None:
            fwd.converged = fwd.polished = True
            break
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

    if pt.m_theta:
        t0 = perf()
        report.jac = sweep.finish()
        report.jacobian_ms += (perf() - t0) * 1e3
    fwd.hessian_factorization = sweep.fact
    fwd.num_factorizations = linalg.factorization_count() - count0
    fwd.polish_factorizations = sweep.polish_factorizations
    report.weakly_active_warning = _weakly_active(p, st)
    if trace:
        report.x_errors = _distances_to_last(x_hist)
        report.jac_errors = _distances_to_last(jx_hist) if jx_hist else np.zeros(len(x_hist))
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
    iterate, at the cost of storing one trajectory copy: an n x m_theta
    block per sweep, Jx, or on the k x k core of a theta = q solve W T W'
    (formed for the trace with two products; its distances are those of
    the Jx iterates). A traced run also takes the Jacobian step norm on
    every sweep but a polished one, where an untraced one leaves nan on
    sweeps the stopping rule does not read; the iterates and the stopping
    sweep are the same either way.

    A quadratic objective with a vector parameter (LinearCost, EqRhs,
    IneqRhs, a Direction in q, b and h) is polished (module docstring): at
    the first sweep whose x step is below eps, the solve tries the fixed
    point of the splitting on the slack's sign gate, and if it is a KKT
    point returns it and its exact Jacobian with forward.polished = True.
    """
    validate(p)
    report = _solve(p, theta_partials(p, sel), cfg or SolverConfig(), trace=trace)
    if report.jac is None:  # zero width: empty blocks
        report.jac = JacobianState.zeros(p.n, p.constraints.n_ineq, p.constraints.n_eq, 0)
    return report


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
