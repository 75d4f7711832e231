"""Print SHA-256 digests over the outputs of a fixed, seeded set of solves.

Two checkouts whose solver arithmetic is the same print the same digests, so
a change meant to move no bit (a reordering of work, a lazier set-up) can be
checked against its parent, and a change meant to move one kind of solve
only can show which kinds moved:

    python3 tools/output_digest.py            # from the root of a checkout

It prints one line per category of solve, then one line over every solve,
then one line over every solve's eq_residual and ineq_residual (the residual
norms at the returned point), then one line over the oracle,
implicit_diff_solve, at each random QP's admm_solve(eps=1e-8) point under
the three vector selectors, then one line over every solve's
weakly_active_warning and that of the weak_toys solves, then one line over
the exception types of the rejected inputs; no earlier line hashes the last
four.
The categories: polished QPs under q; polished QPs under b or h; unpolished
QPs (and QP solves that raise); vector Directions; matrix Directions;
SoftmaxLayer problems.

Each solve hashes x, the four Jacobian blocks, both step-norm lists, the
iteration count, polished, converged and the number of Jacobian sweeps run;
a solve that raises hashes the name of its exception type. The set: random
QPs with n from 5 to 50 (some with k = p + m < n, whose polished LinearCost
Jacobian takes the inverse of M + D, some with k >= n, and some with a
repeated constraint row, which refuses the polish) under the three vector
selectors, every other one of them under a matrix Direction (dP, dq, dG,
dh), which is never polished, and the others under a vector Direction (dq,
db, dh), whose polish reads W' dq and H^-1 dq; then small SoftmaxLayer
problems, whose callback objective takes a Newton x-step every sweep, under
the three vector selectors. Each runs at eps 1e-1, 1e-3 and 1e-6, max_outer_iters 3
and 10,000, untraced and traced. BLAS runs on one thread, since the digest
depends on the thread count.
"""

import hashlib
import os
import sys

# Pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import altdiff as ad  # noqa: E402
from altdiff.bench import gen_random_qp  # noqa: E402


def problems():
    rng = np.random.default_rng(20261019)
    for seed in range(26):
        n = int(rng.integers(5, 51))
        m, p = int(rng.integers(1, 2 * n)), int(rng.integers(0, n // 2 + 1))
        qp = gen_random_qp(n, m, p, seed)
        if seed % 5 == 4:  # repeat the first inequality row
            con = qp.constraints
            qp = ad.ProblemSpec.quadratic(qp.objective.P, qp.objective.q, A=con.A, b=con.b,
                                          G=np.vstack([con.G, con.G[:1]]),
                                          h=np.concatenate([con.h, con.h[:1]]))
        yield qp


def matrix_directions():
    """A Direction with dP, dq, dG and dh on every other random QP: its
    Jacobian sweep has terms in x, so it is never polished."""
    rng = np.random.default_rng(20261020)
    for qp in list(problems())[::2]:
        n, m = qp.n, qp.constraints.n_ineq
        dP = rng.standard_normal((n, n))
        yield qp, ad.Direction(dP=dP + dP.T, dq=rng.standard_normal(n),
                               dG=rng.standard_normal((m, n)), dh=rng.standard_normal(m))


def vector_directions():
    """A Direction with dq, db and dh on every other random QP, the ones
    matrix_directions leaves out."""
    rng = np.random.default_rng(20261022)
    for qp in list(problems())[1::2]:
        con = qp.constraints
        yield qp, ad.Direction(dq=rng.standard_normal(qp.n), db=rng.standard_normal(con.n_eq),
                               dh=rng.standard_normal(con.n_ineq))


def softmax_layers():
    """Small SoftmaxLayer problems, whose callback objective runs a damped
    Newton x-step every sweep; some raise NewtonDiverged."""
    rng = np.random.default_rng(20261021)
    for _ in range(8):
        n = int(rng.integers(3, 13))
        y, u = 3.0 * rng.standard_normal(n), rng.uniform(1.2 / n, 1.0, n)
        yield ad.build(ad.SoftmaxLayer(y=y, u=u))


def weak_toys():
    """min x^2 + q x s.t. x <= 0: at q = -2e-7 and q = 0 the bound is active
    with a multiplier of at most 2e-7, a weakly active constraint, which no
    solve of the set above flags; at q = -1 and q = 1 it is not."""
    for q in (-1.0, -2e-7, 0.0, 1.0):
        yield ad.ProblemSpec.quadratic(P=[[2.0]], q=[q], G=[[1.0]], h=[0.0])


def rejected_inputs():
    """Problems that fail validation, as functions that build them: an
    asymmetric P, a P with eigenvalue -1e-6, a P of the wrong shape, a
    gradient callback of the wrong length, a gradient that disagrees with its
    value, and a Polyhedron whose C and [b; h] row counts differ."""
    square = lambda x: float(x @ x)
    hess = lambda x: 2.0 * np.eye(2)
    yield lambda: ad.ProblemSpec.quadratic(P=[[1.0, 2.0], [0.0, 1.0]], q=[0.0, 0.0])
    yield lambda: ad.ProblemSpec.quadratic(P=np.diag([1.0, -1e-6]), q=[0.0, 0.0])
    yield lambda: ad.ProblemSpec(n=2, objective=ad.QuadraticObjective(P=np.eye(3), q=np.zeros(2)),
                                 constraints=ad.Polyhedron.build(2))
    yield lambda: ad.ProblemSpec.general(2, square, lambda x: 2.0 * x[:1], hess)
    yield lambda: ad.ProblemSpec.general(2, square, lambda x: 3.0 * x, hess)
    yield lambda: ad.ProblemSpec(n=2, objective=ad.QuadraticObjective(P=np.eye(2), q=np.zeros(2)),
                                 constraints=ad.Polyhedron(C=np.ones((2, 2)), rhs=np.ones(3),
                                                           n_eq=1))


def rejected_bytes(build):
    """The name of the exception type that building, then differentiating,
    the problem raises."""
    try:
        ad.differentiate(build(), ad.LinearCost())
    except Exception as exc:
        return type(exc).__name__.encode()
    return b"accepted"


CATEGORIES = ("polished QP under q", "polished QP under b or h", "unpolished QP",
              "vector Direction", "matrix Direction", "SoftmaxLayer")


def cases():
    """(kind, problem, selector); kind is "qp" or one of the last three categories."""
    selectors = (ad.LinearCost(), ad.EqRhs(), ad.IneqRhs())
    for qp in problems():
        for sel in selectors:
            yield "qp", qp, sel
    for qp, sel in vector_directions():
        yield CATEGORIES[3], qp, sel
    for qp, sel in matrix_directions():
        yield CATEGORIES[4], qp, sel
    for p in softmax_layers():
        for sel in selectors:
            yield CATEGORIES[5], p, sel


def oracle_bytes(p, sel):
    """implicit_diff_solve's bytes at p's admm_solve(eps=1e-8) point, or the
    name of the exception type where the solve or the oracle raises."""
    try:
        st = ad.admm_solve(p, ad.SolverConfig(eps=1e-8)).state
        return ad.implicit_diff_solve(p, st.x, st.lam, st.nu, sel).tobytes()
    except ad.AltdiffError as exc:
        return type(exc).__name__.encode()


def category(kind, sel, rep):
    if kind != "qp":
        return kind
    if rep is None or not rep.forward.polished:
        return CATEGORIES[2]
    return CATEGORIES[0] if isinstance(sel, ad.LinearCost) else CATEGORIES[1]


def solve_bytes(p, sel, cfg, trace):
    """The solve's report, or None where it raises, the bytes it hashes, the
    bytes of its two residual norms and of its weak-activity flag (the
    exception's name where it raises)."""
    try:
        rep = ad.differentiate(p, sel, cfg, trace=trace)
    except ad.AltdiffError as exc:
        name = type(exc).__name__.encode()
        return None, name, name, name
    fwd, jac = rep.forward, rep.jac
    parts = [np.ascontiguousarray(a, dtype=np.float64).tobytes()
             for a in (rep.x, jac.Jx, jac.Js, jac.Jlam, jac.Jnu,
                       fwd.step_norms, rep.jac_step_norms)]
    parts.append(repr((fwd.iterations, fwd.polished, fwd.converged,
                       rep.jacobian_sweeps)).encode())
    return (rep, b"".join(parts), np.array([fwd.eq_residual, fwd.ineq_residual]).tobytes(),
            repr(rep.weakly_active_warning).encode())


digest, residuals, weak, solves = hashlib.sha256(), hashlib.sha256(), hashlib.sha256(), 0
per_category = {name: [hashlib.sha256(), 0] for name in CATEGORIES}
for kind, p, sel in cases():
    for eps in (1e-1, 1e-3, 1e-6):
        for iters in (3, 10000):
            for trace in (False, True):
                cfg = ad.SolverConfig(eps=eps, max_outer_iters=iters)
                rep, data, res, flag = solve_bytes(p, sel, cfg, trace)
                digest.update(data)
                residuals.update(res)
                weak.update(flag)
                solves += 1
                entry = per_category[category(kind, sel, rep)]
                entry[0].update(data)
                entry[1] += 1
for name, (cat_digest, count) in per_category.items():
    print(f"{cat_digest.hexdigest()}  ({count} solves)  {name}")
print(f"{digest.hexdigest()}  ({solves} solves)")
print(f"{residuals.hexdigest()}  ({solves} solves)  eq_residual, ineq_residual")
oracle, points = hashlib.sha256(), 0
for qp in problems():
    for sel in (ad.LinearCost(), ad.EqRhs(), ad.IneqRhs()):
        oracle.update(oracle_bytes(qp, sel))
        points += 1
print(f"{oracle.hexdigest()}  ({points} points)  implicit_diff_solve")
toys = 0
for p in weak_toys():
    for sel in (ad.LinearCost(), ad.IneqRhs()):
        for eps in (1e-1, 1e-3, 1e-6):
            weak.update(solve_bytes(p, sel, ad.SolverConfig(eps=eps), False)[3])
            toys += 1
print(f"{weak.hexdigest()}  ({solves} solves, {toys} toys)  weakly_active_warning")
rejected, inputs = hashlib.sha256(), 0
for build in rejected_inputs():
    rejected.update(rejected_bytes(build))
    inputs += 1
print(f"{rejected.hexdigest()}  ({inputs} inputs)  rejected inputs")
