"""Seeded workloads for the altdiff benchmark and the checks on their outputs.

Every workload drives the package through its public API. An op is one
differentiable solve (one ``differentiate`` or ``solve_and_diff`` call), or
on ``energy-train`` one whole training step. Instances come from a fixed,
seeded pool that the ops cycle through, and each op builds a fresh
``ProblemSpec`` so it pays the per-instance validation a user who rebuilds a
spec pays.

Outputs are judged here, never by the report's own ``converged`` flag: the
primal residual is computed from the workload's own copy of A, b, G and h,
and x and the derivative the workload consumes are compared with
``implicit_diff_solve`` at a tight ``admm_solve`` solution.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

import altdiff as ad
from altdiff import bench, energy
from altdiff.reference import KKT_POINT_RTOL

# Every timed solve runs at this tolerance.
EPS = 1e-3

# The reference is admm_solve at TIGHT_EPS. Its step rule can stop on a
# transient (x steps halving, or x repeating exactly, while the duals are
# still far from optimal), so a point that fails the oracle's optimality test
# is iterated further with the package's own sweep functions, testing every
# REF_TEST_EVERY sweeps, up to REF_MAX_SWEEPS.
TIGHT_EPS = 1e-8
REF_TEST_EVERY = 50
REF_MAX_SWEEPS = 100000

# An op fails when an output crosses one of these bounds. They sit well
# above what eps=1e-3 truncation gives on these workloads and well below
# what a wrong answer gives (see README.md for the measured values).
PRIMAL_RESIDUAL_BOUND = 5e-2
X_REL_BOUND = 0.1
DERIV_REL_BOUND = 0.5


class CheckFailed(Exception):
    """An op's output failed one of the benchmark's own checks."""


@dataclass
class Output:
    """What the benchmark keeps from one op."""

    x: np.ndarray
    deriv: np.ndarray  # the derivative the workload consumes
    report: object  # the op's DiffReport


@dataclass
class Constraints:
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def primal_residual(x: np.ndarray, con: Constraints) -> float:
    """Largest equality or inequality violation, relative to 1 + the data scale."""
    eq = np.abs(con.A @ x - con.b).max(initial=0.0)
    ineq = np.maximum(con.G @ x - con.h, 0.0).max(initial=0.0)
    scale = 1.0 + max(np.abs(con.b).max(initial=0.0), np.abs(con.h).max(initial=0.0))
    return float(max(eq, ineq) / scale)


def rel_err(value: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(value - ref) / max(np.linalg.norm(ref), 1e-300))


def _optimal(spec, st) -> bool:
    res = float(np.linalg.norm(ad.kkt_residual(spec, st.x, st.lam, st.nu)))
    return res <= KKT_POINT_RTOL * (1.0 + np.linalg.norm(st.x))


def tight_reference(spec, sel) -> tuple[np.ndarray, np.ndarray]:
    """x* and dx*/dtheta from ``implicit_diff_solve`` at a tight solution."""
    cfg = ad.SolverConfig(eps=TIGHT_EPS)
    rep = ad.admm_solve(spec, cfg)
    st, fact = rep.state, rep.hessian_factorization
    con = spec.constraints
    sweeps = 0
    while not _optimal(spec, st):
        if sweeps >= REF_MAX_SWEEPS:
            raise CheckFailed(f"reference solve failed the optimality test after {sweeps} extra sweeps")
        for _ in range(REF_TEST_EVERY):
            # fact is reused for quadratic objectives and ignored otherwise.
            x, fact = ad.primal_update(spec, st, cfg, fact=fact)
            s = ad.slack_update(st, con.G, con.h, x, cfg)
            lam, nu = ad.dual_update(st, con.A, con.b, con.G, con.h, x, s, cfg)
            st = ad.AdmmState(x=x, s=s, lam=lam, nu=nu, k=st.k + 1)
        sweeps += REF_TEST_EVERY
    return st.x, ad.implicit_diff_solve(spec, st.x, st.lam, st.nu, sel)


def check_output(out: Output, con: Constraints, x_ref, deriv_ref) -> tuple[float, float]:
    """Raise CheckFailed on a bad output; return (x_rel_err, deriv_rel_err)."""
    if not (np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.deriv))):
        raise CheckFailed("non-finite output")
    res = primal_residual(out.x, con)
    if res > PRIMAL_RESIDUAL_BOUND:
        raise CheckFailed(f"primal residual {res:.3e} above {PRIMAL_RESIDUAL_BOUND:g}")
    x_err, d_err = rel_err(out.x, x_ref), rel_err(out.deriv, deriv_ref)
    if x_err > X_REL_BOUND:
        raise CheckFailed(f"x relative error {x_err:.3e} above {X_REL_BOUND:g}")
    if d_err > DERIV_REL_BOUND:
        raise CheckFailed(f"derivative relative error {d_err:.3e} above {DERIV_REL_BOUND:g}")
    return x_err, d_err


def box_simplex(u: np.ndarray) -> Constraints:
    n = u.shape[0]
    return Constraints(A=np.ones((1, n)), b=np.ones(1),
                       G=np.vstack([-np.eye(n), np.eye(n)]), h=np.concatenate([np.zeros(n), u]))


class PoolWorkload:
    """Cycles a seeded instance pool; op i solves instance i mod pool size.

    Ops are pure functions of their instance, so the references are computed
    once per instance, before the timed loop.
    """

    name = ""
    pool_size = 0

    def __init__(self, seed: int):
        self.cfg = ad.SolverConfig(eps=EPS)
        self.instances = [self.make_instance(s) for s in instance_seeds(seed, self.pool_size)]
        self.refs: dict = {}

    @property
    def pass_len(self) -> int:
        return self.pool_size

    def make_instance(self, seed: int):
        raise NotImplementedError

    def constraints(self, k: int) -> Constraints:
        raise NotImplementedError

    def reference_problem(self, k: int):
        raise NotImplementedError

    def ref_keys(self):
        return range(self.pool_size)

    def compute_reference(self, k: int):
        return tight_reference(*self.reference_problem(k))

    def check(self, i: int, out: Output) -> tuple[float, float]:
        k = i % self.pool_size
        x_ref, jx_ref = self.refs[k]
        return check_output(out, self.constraints(k), x_ref, jx_ref)

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass


class QpDense(PoolWorkload):
    """bench.gen_random_qp(400, 130, 50), differentiated w.r.t. b."""

    name = "qp-dense"
    pool_size = 48
    sel = ad.EqRhs()

    dims = (400, 130, 50)

    def make_instance(self, seed):
        p = bench.gen_random_qp(*self.dims, seed)
        c = p.constraints
        return dict(P=p.objective.P, q=p.objective.q, A=c.A, b=c.b, G=c.G, h=c.h)

    def op(self, i):
        spec = ad.ProblemSpec.quadratic(**self.instances[i % self.pool_size])
        rep = ad.differentiate(spec, self.sel, self.cfg)
        return Output(x=rep.x, deriv=rep.Jx, report=rep)

    def constraints(self, k):
        d = self.instances[k]
        return Constraints(A=d["A"], b=d["b"], G=d["G"], h=d["h"])

    def reference_problem(self, k):
        return ad.ProblemSpec.quadratic(**self.instances[k]), self.sel


class QpLayer(QpDense):
    """QuadraticLayer over bench.gen_random_qp(200, 70, 30) through
    solve_and_diff, differentiated w.r.t. the linear cost: the
    constant-curvature layer path (specialized_hessian_factor, one
    factorization) with a wide Jacobian (m_theta = n)."""

    name = "qp-layer"
    pool_size = 48
    sel = ad.LinearCost()
    dims = (200, 70, 30)

    def op(self, i):
        d = self.instances[i % self.pool_size]
        con = ad.Polyhedron.build(d["q"].shape[0], A=d["A"], b=d["b"], G=d["G"], h=d["h"])
        rep = ad.solve_and_diff(ad.QuadraticLayer(P=d["P"], q=d["q"], constraints=con), self.sel, self.cfg)
        return Output(x=rep.x, deriv=rep.Jx, report=rep)


class _BoxLayer(PoolWorkload):
    """A box-simplex layer with n = 100, y and u seeded as in bench.case_problem."""

    n = 100
    layer = None
    sel = ad.LinearCost()

    def make_instance(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(self.n)
        u = rng.uniform(2.0 / self.n, 6.0 / self.n, size=self.n)
        return y, u

    def op(self, i):
        y, u = self.instances[i % self.pool_size]
        rep = ad.solve_and_diff(self.layer(y=y, u=u), self.sel, self.cfg)
        return Output(x=rep.x, deriv=rep.Jx, report=rep)

    def constraints(self, k):
        return box_simplex(self.instances[k][1])

    def reference_problem(self, k):
        y, u = self.instances[k]
        return ad.build(self.layer(y=y, u=u)), self.sel


class SparsemaxLayer(_BoxLayer):
    name = "sparsemax-layer"
    pool_size = 16
    layer = ad.SparsemaxLayer


class SoftmaxLayer(_BoxLayer):
    name = "softmax-layer"
    pool_size = 16
    layer = ad.SoftmaxLayer


class EnergyTrain:
    """One op is one training step of the energy demo, built from the pieces
    ``energy.train`` uses: Mlp.forward -> energy_problem -> differentiate ->
    spo_grad_theta -> Mlp.backward -> adam_step.

    The dataset of (72 -> 24) demand windows is the pool; each step trains
    on the next window. The reference for a step depends on the network's
    forecast at that step, so it is computed right after the step, for ops
    0 to 2 * pass_len - 1 only (in a traced run, both halves of the identity
    pass); later steps get the cheap checks only.
    """

    name = "energy-train"
    days = 8
    lr = 1e-3

    def __init__(self, seed: int):
        self.cfg = ad.SolverConfig(eps=EPS)
        self.X, self.Y = energy.synth_demand(seed, self.days)
        tight = ad.SolverConfig(eps=TIGHT_EPS)
        self.x_true = [ad.admm_solve(energy.energy_problem(y), tight).state.x for y in self.Y]
        self.mlp = energy.Mlp.init(seed)
        self.params = self.mlp.params()
        self.adam = energy.AdamState.for_params(self.params)
        self.step = 0
        self.losses: list[float] = []
        horizon = self.Y.shape[1]
        diff = np.diff(np.eye(horizon), axis=0)
        self.con = Constraints(A=np.zeros((0, horizon)), b=np.zeros(0), G=np.vstack([diff, -diff]),
                               h=np.full(2 * (horizon - 1), energy.DEFAULT_RAMP))
        self.last_step: Optional[tuple] = None  # (forecast, window) of the last op

    @property
    def pass_len(self) -> int:
        return self.X.shape[0]

    def op(self, i):
        # The step counter, not i, picks the window: replays after restore()
        # must see the same data as the first run.
        j = self.step % self.pass_len
        theta_hat, cache = self.mlp.forward(self.X[j])
        rep = ad.differentiate(energy.energy_problem(theta_hat), ad.LinearCost(), self.cfg)
        loss = energy.spo_loss(rep.x, self.x_true[j])
        g_theta = energy.spo_grad_theta(rep, self.x_true[j])
        grads = self.mlp.backward(cache, g_theta)
        energy.adam_step(self.adam, self.params, grads, self.lr)
        self.last_step = (theta_hat, j)
        self.step += 1
        self.losses.append(loss)
        return Output(x=rep.x, deriv=g_theta, report=rep)

    def ref_keys(self):
        return ()

    def check(self, i: int, out: Output):
        """Cheap checks on every step; the oracle on the first two passes."""
        if i >= 2 * self.pass_len:
            if not (np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.deriv))):
                raise CheckFailed("non-finite output")
            res = primal_residual(out.x, self.con)
            if res > PRIMAL_RESIDUAL_BOUND:
                raise CheckFailed(f"primal residual {res:.3e} above {PRIMAL_RESIDUAL_BOUND:g}")
            return None
        theta_hat, j = self.last_step
        x_ref, jx_ref = tight_reference(energy.energy_problem(theta_hat), ad.LinearCost())
        g_ref = -2.0 * ((x_ref - self.x_true[j]) @ jx_ref)
        return check_output(out, self.con, x_ref, g_ref)

    def train_loss(self) -> float:
        """Mean spo_loss over the last complete pass through the dataset."""
        d = self.pass_len
        full = len(self.losses) // d
        if full == 0:
            return float("nan")
        return float(np.mean(self.losses[(full - 1) * d:full * d]))

    def snapshot(self):
        return copy.deepcopy((self.mlp, self.adam, self.step, len(self.losses)))

    def restore(self, snap) -> None:
        mlp, adam, self.step, n_losses = copy.deepcopy(snap)
        self.mlp, self.adam = mlp, adam
        self.params = self.mlp.params()
        del self.losses[n_losses:]


WORKLOADS = {w.name: w for w in (QpDense, QpLayer, SparsemaxLayer, SoftmaxLayer, EnergyTrain)}
