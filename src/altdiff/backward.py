"""Jacobians of the solution map, by recursion or in the polish's closed form.

Writing J* for the derivative of an iterate with respect to the selected
parameter theta, a solver sweep has one sweep of the linearized updates
(run at once or replayed later, below; a polished solve runs none). With
C = [A; G], Y = [Jlam; Jnu + rho Js] and c = d(C x - [b; h]) at the new Jx,

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
no solver trajectory is stored (a deferred sweep, below, keeps only its
gate), and stopping early yields a Jacobian whose error tracks the
iterate's.

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

The partials (problem.theta_partials) come stacked as C is, d[b; h] and
d[A; G], so no sweep splits them; only the oracle reads their rows apart.

Every solve runs one loop (_solve) over one of two sweeps, picked at
set-up: the one above for a quadratic objective, and _GeneralSweep for a
callback one, whose damped Newton x-step factorizes H(x) every sweep. Both
share one slack and dual step (_Sweep). admm_solve is the same
loop with a zero-width parameter: it builds no Jacobian half and no
JacobianState.

The stopping rule reads the Jacobian step norm only on sweeps whose x step
is already below eps, so the loop takes it only there and records nan
elsewhere; the stopping sweep is the one every step would give. A
quadratic solve, of a vector parameter or none, first tries the polish
(below) on those sweeps: where it succeeds, its fixed point replaces the
sweep's iterate and Jacobian step (nan), and the solve stops there, before
the rule's third hit; eps still sets the sweep it stops on. Such a solve,
untraced, also defers the Jacobian sweeps of the sweeps before (below),
which an accepted polish makes moot.

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
Jacobian comes from the same factor in closed form,

    (M + D) Y' = R,    Jx = W Y' - H^-1 dq,    Y = rho d[b; h] - Y',

with R = W' dq + (I + rho D) d[b; h] (d[b; h] zeroed on the open rows); Y'
is the inverse (getri) times R where m_theta > k, else from getrs. It is
the recursion's fixed point Jx = -(Hd + W Y), (M + D) Y = -(C Hd + d[b; h]),
as C Hd + d[b; h] = R - rho (M + D) d[b; h]; the rho W d[b; h] that cancels
is never formed, so an open row's column of d[b; h] gives Jx = 0 and Js its
identity column exactly. For theta = q, R = W' and Y = -Y'. Otherwise the
sweeps and the step rule go on.
Callback objectives, whose x-step is not this affine map, and matrix
Directions, whose Jacobian step has terms in x, are never polished.

Every Jacobian sweep runs on one schedule. Each sweep that is not
polished keeps its gate (s_new > 0) on the _Sweep, one byte per inequality
row, and _Sweep.replay() runs the kept gates in order through run(), each
at the alpha of its own sweep index. An accepted polish takes no Jacobian
iterate, so it drops the kept gates, and a vector parameter's Jacobian
sweep reads the solver only through the gate and alpha. So an untraced
polishable solve replays only where a Jacobian is needed: at a sweep whose
x step is below eps and whose polish() returned None, and in finish() on a
solve that stopped unpolished on max_outer_iters. Every other solve
replays its one kept gate at once: a traced solve keeps every iterate, and
the run() of callback objectives and matrix Directions reads the sweep's x
and pre-update state. The folded sweep builds the recursion's Hd and
buffers at its first run() (_build), so a solve polished at its first
attempt builds none. Where it is replayed, every block, step norm and
stopping sweep is bit for bit the one of a sweep run at once.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
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
from .linalg import NORM_FLOOR, Factorization, factorization_count
from .problem import (
    ParamSelector,
    Polyhedron,
    ProblemSpec,
    QuadraticObjective,
    ThetaPartials,
    theta_partials,
)

# Constraints with both a tiny multiplier and a tiny slack make the solution
# map nondifferentiable; solves near that set are flagged, not failed.
WEAK_ACTIVITY_TOL = 1e-6

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
    # Time in the Jacobian sweeps run (at whichever sweep replays them), the
    # polish's Jacobian half and finish().
    jacobian_ms: float = 0.0
    # The Jacobian sweeps (run()) the solve made: 0 on an untraced solve
    # polished at its first attempt, the sweep count on an unpolished or
    # traced one.
    jacobian_sweeps: int = 0
    # Per-iteration distances to this run's own returned iterate (a polished
    # sweep's is its polished point); filled only when differentiate() is
    # asked to trace. bench.truncation_report measures runs against a tighter one.
    x_errors: Optional[np.ndarray] = None
    jac_errors: Optional[np.ndarray] = None

    @property
    def x(self) -> np.ndarray:
        return self.forward.state.x

    @property
    def Jx(self) -> np.ndarray:
        return self.jac.Jx


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


def _norm(v: np.ndarray) -> float:
    """||v|| of a real 1-D array, as np.linalg.norm computes it, without its wrapper."""
    return math.sqrt(v.dot(v))


class _Sweep:
    """The protocol of the solver loop. Per iteration: step(st), the solver
    sweep, returns (x, s, lam, nu), every sweep through slack_dual(). At
    nonzero width, run(s) is the Jacobian sweep: it gates on the new slack
    (or its mask s > 0), writes the new Jx to self.jx_next and steps Y
    (k x m_theta), in n-space through dual_tail().
    The loop appends each sweep's gate to self.gates, and replay(), the only
    caller of run(), runs the kept ones in order and swaps each new Jx in as
    self.jx; jac_step() then gives the last one's Jacobian step, which the
    loop needs only on sweeps whose x step is below eps. Where polishable,
    the loop calls polish(s_new) on such sweeps and, if it returns a point,
    drops the kept gates, calls polish_jacobian() at width, and stops; an
    untraced polishable loop replays only where a Jacobian is needed, every
    other loop at each sweep (module docstring). After the loop, finish()
    replays what is still kept and builds the solve's one JacobianState.
    fact is the x-step factorization the report keeps.

    The sweep owns the Jacobian iterate: each subclass allocates the Y and
    Jx buffers it steps (self.jx starts at Jx = 0), at nonzero width only,
    the folded sweep at its first run() and _GeneralSweep at set-up.
    """

    # Whether polish() may run (quadratic sweeps with constraint rows and no
    # matrix Direction), and the LU factorizations it made in this solve.
    polishable = False
    polish_factorizations = 0
    # The Jacobian sweeps run() made in this solve, also the sweep index of
    # gates[0].
    jacobian_sweeps = 0
    # Whether the folded sweep's run() has built its buffers (_build).
    built = False

    def __init__(self, con: Polyhedron, rho: float, s0: np.ndarray):
        self.con, self.C = con, con.C  # C = [A; G]
        self.p_eq, self.rho = con.n_eq, rho
        k = self.C.shape[0]
        # sigma, sigma g' and alpha rho sigma over all k rows. The first
        # sweep gates against the solve's initial slack s0: its positive
        # rows are open.
        self.sigma, self.sg = np.ones(k), np.ones(k)
        self.sigma[self.p_eq:][s0 > 0.0] = -1.0
        self.rs = np.empty(k)  # gate() writes all of it
        self.alpha = 1.0  # this sweep's relaxation, set by slack_dual()
        self.gates = []  # masks s_new > 0 of the sweeps whose run() waits

    def slack_dual(self, st: AdmmState, x: np.ndarray) -> tuple:
        """The slack and dual steps at the new x, from one residual
        r = C x - [b; h] relaxed to r_hat = alpha r - (1 - alpha) [0; s_prev]:
        lam + rho r_hat_eq, and with u = nu + rho r_hat_in the new
        nu = max(u, 0) and s = (nu - u) / rho. Returns step()'s tuple.
        Keeps alpha, u, x and the pre-update st, where a Direction's terms
        in x are taken."""
        rho, p_eq = self.rho, self.p_eq
        self.st, self.x = st, x
        self.alpha = a = relaxation(st.k)
        r = self.C @ x
        r -= self.con.rhs
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
        return x, s, lam, nu

    def _init_dual_side(self, n: int) -> None:
        """What dual_tail() steps: Y, c, Jx. Y starts at the derivative of
        the initial z = [0; rho s0]: rho d h on the rows where
        s0 = max(0, h - G x0) is open, which sigma still holds before the
        first run()."""
        pt = self.pt
        k, mt, p = self.C.shape[0], pt.m_theta, self.p_eq
        self.y, self.c = np.zeros((k, mt)), np.empty((k, mt))
        open0 = self.sigma[p:] < 0.0
        self.y[p:][open0] = self.rho * pt.d_rhs[p:][open0]
        self.jx, self.jx_next = np.zeros((n, mt)), np.empty((n, mt))

    def gate(self, s_new: np.ndarray) -> None:
        """sigma from the new slack, or from its mask s_new > 0, which reads
        alike; g' from the previous sweep's sigma, 1 on rows closed there
        and alpha - 1 on open ones; rs = alpha rho sigma, alpha rho on
        equality rows."""
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
        np.matmul(self.C, self.jx_next, out=c)
        if self.pt.dC is not None:
            c += (self.pt.dC @ self.x).reshape(-1, 1)
        c -= self.pt.d_rhs
        self.dual_step(c, s_new)

    def replay(self) -> None:
        """Run the kept Jacobian sweeps in order, each as it would have run
        at its own sweep: alpha of sweep jacobian_sweeps, run() on its gate,
        then jx_next swapped in as jx. Empties gates."""
        for opened in self.gates:
            self.alpha = relaxation(self.jacobian_sweeps)
            self.run(opened)
            self.jx, self.jx_next = self.jx_next, self.jx
            self.jacobian_sweeps += 1
        self.gates.clear()

    def jac_step(self) -> float:
        """The Jacobian step ||Jx - Jx_prev|| / (1 + ||Jx_prev||) of the last
        sweep run, taken in place on the spare buffer, which holds Jx_prev."""
        prev = self.jx_next
        prev_norm = np.linalg.norm(prev)
        prev -= self.jx
        return float(np.linalg.norm(prev) / (1.0 + prev_norm))

    def finish(self) -> JacobianState:
        """The final blocks, after replaying what is still kept: Jx is
        self.jx; Jlam, Jnu, Js come off Y and the last gate."""
        self.replay()
        y, p, closed = self.y, self.p_eq, self.sigma[self.p_eq:, None] > 0.0
        return JacobianState(Jx=self.jx, Js=np.where(closed, 0.0, y[p:] / self.rho),
                             Jlam=y[:p], Jnu=np.where(closed, y[p:], 0.0))


class _QuadraticSweep(_Sweep):
    """Solver and Jacobian sweep for constant-Hessian problems, every selector.

    H^-1 is folded into the constraint matrix at set-up: W, the x-step
    offset x0 and H^-1 dq come from H^-1 (LAPACK potri) and two products
    when theta = q, else from one solve against [C' | q | dq]. So the
    x-step is a matvec and the Jacobian sweep is two matrix products,
    evaluated into preallocated buffers; a matrix Direction adds one
    one-column solve for H^-1 times its terms in x. step() carries z from
    sweep to sweep.
    """

    def __init__(self, p: ProblemSpec, pt: ThetaPartials, fact: Factorization, rho: float,
                 s0: np.ndarray):
        super().__init__(p.constraints, rho, s0)
        self.fact, k = fact, self.C.shape[0]
        q = p.objective.q
        # Hq = H^-1 dq (None where dq is 0), which the polish's Jacobian
        # half and _build() read.
        if pt.eye:
            # theta = q: dq = I, so Hq is H^-1 itself; take it from the
            # factor and get the rest as products.
            hinv = self.Hq = fact.inverse()
            self.W = hinv @ self.C.T  # H^-1 [A; G]'
            hinv_q = hinv @ q
        else:
            # [C' | q | dq], column-major as the solve reads it
            rows = [self.C, q] if pt.dq is None else [self.C, q, pt.dq.T]
            sol = fact.solve(np.vstack(rows).T)
            self.W = np.ascontiguousarray(sol[:, :k])
            hinv_q = sol[:, k]
            self.Hq = None if pt.dq is None else sol[:, k + 1:]
        # The x-step at z = 0.
        self.x0 = rho * (self.W @ self.con.rhs) - hinv_q
        self.z = np.empty(k)
        # The polish's M = C W (formed at its first factorization), the
        # gates it tried and its accepted LU factor.
        self.pt, self.polishable = pt, k > 0 and not pt.matrix
        self.M, self.tried, self.lu = None, [], None

    def _build(self) -> None:
        """The recursion's Hd = H^-1 dq - rho W d[b; h], -W and buffers, at
        the first run(): a polished solve that ran none builds none."""
        self.built = True
        if self.pt.eye:
            self.Hd = self.Hq  # d[b; h] = 0
        else:
            self.Hd = -self.rho * _times_d_rhs(self.W, self.pt.d_rhs)
            if self.Hq is not None:
                self.Hd += self.Hq
        # -W, so that Jx = -(Hd + W Y) takes no negation pass
        self.Wn = np.negative(self.W)
        self._init_dual_side(self.W.shape[0])

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
        step()'s tuple (x, s, lam, nu) at the fixed point, or None."""
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
            return x, s, z[:p].copy(), nu
        return None

    def polish_jacobian(self) -> None:
        """The Jacobian half of an accepted polish, in closed form from its
        factor (module docstring): (M + D) Y' = R with R = W' dq plus
        d[b; h] zeroed on the open rows, Jx = W Y' - H^-1 dq and
        Y = rho d[b; h] - Y'. Y' is the inverse (getri) times R where theta
        has more columns than M + D has rows, else a solve (getrs)."""
        pt = self.pt
        if pt.eye:
            rhs = self.W.T  # d[b; h] = 0
        else:
            rhs = pt.d_rhs.copy()
            rhs[self.sigma < 0.0] = 0.0  # the open rows
            if pt.dq is not None:
                rhs += self.W.T @ pt.dq
        if pt.m_theta > len(self.sigma):
            yp = lapack.dgetri(*self.lu)[0] @ rhs
        else:
            yp = lapack.dgetrs(*self.lu, rhs)[0]
        self.jx = self.W @ yp
        if self.Hq is not None:
            self.jx -= self.Hq
        self.y = np.negative(yp, out=yp) if pt.eye else self.rho * pt.d_rhs - yp

    def run(self, s_new: np.ndarray) -> None:
        """One Jacobian sweep: the new Jx into the spare buffer, then Y."""
        if not self.built:
            self._build()
        jx = self.jx_next
        np.matmul(self.Wn, self.y, out=jx)
        jx -= self.Hd
        if self.pt.matrix:
            terms = np.zeros((jx.shape[0], 1))
            jx -= self.fact.solve(_direction_terms(self.con, self.pt, self.st, self.x, self.rho,
                                                   terms))
        self.dual_tail(s_new)


class _GeneralSweep(_Sweep):
    """Solver and Jacobian sweep of a callback objective.

    Its damped Newton x-step factorizes H(x) again every sweep, and the
    Jacobian step solves with that sweep's factor against the mixed
    partial, direct + C'Y plus a Direction's terms in x, taken at the new x
    and the pre-update slack and duals.
    """

    def __init__(self, p: ProblemSpec, pt: ThetaPartials, cfg: SolverConfig, s0: np.ndarray):
        super().__init__(p.constraints, cfg.rho, s0)
        self.p, self.cfg, self.penalty, self.pt = p, cfg, penalty_matrix(p, cfg.rho), pt
        if pt.m_theta:
            self.direct = direct_term(p, pt, cfg.rho)
            self._init_dual_side(p.n)

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
    takes the folded sweep, callback objectives _GeneralSweep.
    """
    if not isinstance(p.objective, QuadraticObjective):
        return _GeneralSweep(p, pt, cfg, s0)
    return _QuadraticSweep(p, pt, xstep_factor(p, cfg.rho), cfg.rho, s0)


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
    the polish's forward half, jacobian_ms the Jacobian steps (where they
    are replayed), the polish's Jacobian half and finish(), which run at
    width only."""
    st = initial_state(p)
    count0 = factorization_count()
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
        x_new, s_new, lam_new, nu_new = sweep.step(st)
        fwd.iteration_ms += (perf() - t0) * 1e3
        # The x step, outside the timers: ||x_new - x|| / max(||x||,
        # NORM_FLOOR), ||x|| carried over. Below eps the polish may replace
        # this sweep's iterate and Jacobian step by the fixed point on its
        # gate, and stop the solve.
        step = _norm(x_new - st.x) / max(x_norm, NORM_FLOOR)
        x_norm = _norm(x_new)
        # The rule reads the Jacobian step only where the x step is below
        # eps, so only a trace takes it elsewhere; it is measured against
        # 1 + ||Jx|| so it still converges when Jx -> 0.
        need = trace or step < cfg.eps
        polished = None
        if sweep.polishable and step < cfg.eps:
            t0 = perf()
            polished = sweep.polish(s_new)
            fwd.iteration_ms += (perf() - t0) * 1e3
        if polished is not None:
            x_new, s_new, lam_new, nu_new = polished
        if pt.m_theta:
            t0 = perf()
            if polished is not None:
                # The polish's Jacobian needs no recursion: drop what waits.
                sweep.gates.clear()
                sweep.polish_jacobian()
                jac_step = np.nan
            else:
                # Keep the gate, which is all a polishable sweep's run()
                # reads of the solver: a later polish may make its Jacobian
                # sweep moot, so it waits until a Jacobian is needed. The
                # run() of the other sweeps reads this sweep's x and
                # pre-update state, so it runs now.
                sweep.gates.append(s_new > 0.0)
                if need or not sweep.polishable:
                    sweep.replay()
                jac_step = sweep.jac_step() if need else np.nan
            report.jacobian_ms += (perf() - t0) * 1e3
            if trace:
                jx_hist.append(sweep.jx.copy())
        report.jac_step_norms.append(jac_step)
        fwd.step_norms.append(step)
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
    report.jacobian_sweeps = sweep.jacobian_sweeps
    r, p_eq = p.constraints.residual(st.x, st.s), p.constraints.n_eq
    fwd.eq_residual, fwd.ineq_residual = _norm(r[:p_eq]), _norm(r[p_eq:])
    fwd.hessian_factorization = sweep.fact
    fwd.num_factorizations = factorization_count() - count0
    fwd.polish_factorizations = sweep.polish_factorizations
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
    iterate, at the cost of storing one trajectory copy: the n x m_theta
    Jx of every sweep. A traced run also takes the Jacobian step norm on
    every sweep but a polished one, where an untraced one leaves nan on
    sweeps the stopping rule does not read; the iterates and the stopping
    sweep are the same either way.

    A quadratic objective with a vector parameter (LinearCost, EqRhs,
    IneqRhs, a Direction in q, b and h) is polished (module docstring): at
    the first sweep whose x step is below eps, the solve tries the fixed
    point of the splitting on the slack's sign gate, and if it is a KKT
    point returns it and its exact Jacobian with forward.polished = True.
    """
    report = _solve(p, theta_partials(p, sel), cfg or SolverConfig(), trace=trace)
    if report.jac is None:  # zero width: empty blocks
        report.jac = JacobianState.zeros(p.n, p.constraints.n_ineq, p.constraints.n_eq, 0)
    report.weakly_active_warning = _weakly_active(p, report.forward.state)
    return report


def admm_solve(p: ProblemSpec, cfg: Optional[SolverConfig] = None) -> ForwardReport:
    """Iterate the splitting until the relative x-step falls below cfg.eps.

    This is differentiate's loop with a zero-width parameter: it builds no
    Jacobian half and no JacobianState, and the x-step rule alone stops it,
    or for a quadratic objective the polish (module docstring) on the gate
    of the new slack, at a sweep whose x step is below eps. Never raises on
    slow convergence: the report carries converged=False when
    max_outer_iters is exhausted.
    """
    return _solve(p, ThetaPartials(m_theta=0), cfg or SolverConfig()).forward


def vjp(report: DiffReport, dR_dx) -> np.ndarray:
    """Pull a loss gradient w.r.t. x back to theta: returns dR_dx' Jx."""
    g = np.asarray(dR_dx, dtype=float).reshape(-1)
    if g.shape[0] != report.Jx.shape[0]:
        raise DimensionMismatch(
            f"gradient has length {g.shape[0]}, Jacobian has {report.Jx.shape[0]} rows"
        )
    return g @ report.Jx
