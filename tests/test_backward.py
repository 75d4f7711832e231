from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import altdiff as ad
from altdiff import backward, bench, forward, linalg
from altdiff.backward import JacobianState, theta_partials
from altdiff.errors import DimensionMismatch, SingularMatrix
from altdiff.reference import KKT_POINT_RTOL
from conftest import SUITE_M, SUITE_N, SUITE_P, SUITE_RHO, cosine, make_suite_qp


def _toy_active():
    # min 0.5 x^2 s.t. x >= 1; x*(h) = -h on the active branch.
    return ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[-1.0]], h=[-1.0])


def _state(x, s, lam, nu):
    return forward.AdmmState(
        x=np.asarray(x, float), s=np.asarray(s, float),
        lam=np.asarray(lam, float), nu=np.asarray(nu, float),
    )


def test_mixed_partial_eq_rhs():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], A=[[1.0]], b=[0.0])
    jac = JacobianState.zeros(1, 0, 1, 1)
    st = _state([0.0], [], [0.0], [])
    out = backward.mixed_partial(p, ad.EqRhs(), st, jac, np.zeros(1), rho=1.0)
    assert np.allclose(out, [[-1.0]])


def test_mixed_partial_linear_cost_identity():
    p = ad.ProblemSpec.quadratic(P=np.eye(3), q=np.zeros(3))
    jac = JacobianState.zeros(3, 0, 0, 3)
    st = _state(np.zeros(3), [], [], [])
    out = backward.mixed_partial(p, ad.LinearCost(), st, jac, np.zeros(3), rho=1.0)
    assert np.array_equal(out, np.eye(3))


def test_mixed_partial_ineq_rhs():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[0.0])
    jac = JacobianState.zeros(1, 1, 0, 1)
    st = _state([0.0], [0.0], [], [0.0])
    out = backward.mixed_partial(p, ad.IneqRhs(), st, jac, np.zeros(1), rho=2.0)
    assert np.allclose(out, [[-2.0]])


_Z = [[0.0]] * 3  # no column of d[b; h]


@pytest.mark.parametrize("sel, d_rhs, dC", [
    (ad.LinearCost(), [[0.0, 0.0]] * 3, None),
    (ad.EqRhs(), [[1.0], [0.0], [0.0]], None),
    (ad.IneqRhs(), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], None),
    (ad.Direction(db=[2.0]), [[2.0], [0.0], [0.0]], None),
    (ad.Direction(dh=[3.0, 4.0]), [[0.0], [3.0], [4.0]], None),
    (ad.Direction(dA=[[5.0, 6.0]]), _Z, [[5.0, 6.0], [0.0, 0.0], [0.0, 0.0]]),
    (ad.Direction(dG=[[1.0, 2.0], [3.0, 4.0]]), _Z, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]),
], ids=["LinearCost", "EqRhs", "IneqRhs", "db", "dh", "dA", "dG"])
def test_theta_partials_stack_constraint_rows(sel, d_rhs, dC):
    """d[b; h] and d[A; G] come stacked over the p + m = 1 + 2 rows of [A; G]."""
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=[[1.0, 1.0]], b=[1.0],
                                 G=-np.eye(2), h=np.zeros(2))
    pt = theta_partials(p, sel)
    assert pt.d_rhs.dtype == np.float64 and np.array_equal(pt.d_rhs, d_rhs)
    if dC is None:
        assert pt.dC is None and not pt.matrix
    else:
        assert np.array_equal(pt.dC, dC) and pt.matrix


def _gated(jlam, jnu, d, s, rho, js=None, closed_before=True, alpha=1.6):
    """One gated dual step of a sweep relaxed by alpha (1 on the first
    sweep), then finish()'s split of Y. The blocks are those of the previous
    sweep, whose slack was 0 (closed_before) or positive; Js defaults to 0.
    d = d(C x - [b; h]), so c = alpha rho d."""
    jlam, jnu = np.array(jlam, float), np.array(jnu, float)
    js = np.zeros_like(jnu) if js is None else np.array(js, float)
    p_eq, m = jlam.shape[0], jnu.shape[0]
    con = ad.Polyhedron.build(0, A=np.zeros((p_eq, 0)), b=np.zeros(p_eq),
                              G=np.zeros((m, 0)), h=np.zeros(m))
    sweep = backward._Sweep(con, rho, np.zeros(m))
    sweep.gate(np.full(m, 0.0 if closed_before else 1.0))
    sweep.alpha = alpha
    sweep.y, sweep.jx = np.vstack([jlam, jnu + rho * js]), np.zeros((0, jnu.shape[1]))
    sweep.dual_step(np.array(d, float), np.array(s, float))
    jac = sweep.finish()
    return jac.Jlam, jac.Js, jac.Jnu


def test_slack_jacobian_update_examples():
    # On an inequality row u = g' Y + alpha rho d, Y <- sigma u, with
    # g' = 1 on a row closed before, alpha - 1 on an open one; alpha = 1.6.
    none = np.zeros((0, 1))
    # closed gate: s=0, Jnu=5, G Jx=1, rho=1 -> Js = 0, Jnu = u = 5 + 1.6
    _, js, jnu = _gated(none, [[5.0]], [[1.0]], [0.0], rho=1.0)
    assert np.array_equal(js, [[0.0]])
    assert np.allclose(jnu, [[6.6]], rtol=1e-15)
    # open gate: s=2, Jnu=0, G Jx = 0.5 -> Js = -1.6 * 0.5, Jnu = 0
    _, js, jnu = _gated(none, [[0.0]], [[0.5]], [2.0], rho=1.0)
    assert np.allclose(js, [[-0.8]], rtol=1e-15)
    assert np.array_equal(jnu, [[0.0]])
    # rho=2, Jnu=2, dh=1, G Jx=0 -> Js = -(1/2)(2 + 3.2 (0 - 1)) = 0.6
    _, js, jnu = _gated(none, [[2.0]], [[0.0 - 1.0]], [1.0], rho=2.0)
    assert np.allclose(js, [[0.6]], rtol=1e-15)
    assert np.array_equal(jnu, [[0.0]])
    # rho=2, an open row before and after: its Y = rho Js = 3 enters u with
    # g' = 0.6, G Jx - dh = 0.25 -> Y = -(1.8 + 3.2 * 0.25) = -2.6 and
    # Js = Y / rho = -1.3, Jnu = 0
    _, js, jnu = _gated(none, [[0.0]], [[0.25]], [1.0], rho=2.0, js=[[1.5]],
                        closed_before=False)
    assert np.allclose(js, [[-1.3]], rtol=1e-15)
    assert np.array_equal(jnu, [[0.0]])
    # the same row on the plain first sweep: g' = 0 drops Y from u, so
    # Y = -(2 * 0.25) and Js = -0.25
    _, js, jnu = _gated(none, [[0.0]], [[0.25]], [1.0], rho=2.0, js=[[1.5]],
                        closed_before=False, alpha=1.0)
    assert np.array_equal(js, [[-0.25]])
    assert np.array_equal(jnu, [[0.0]])
    # rho=2, a closed row that opens: Jnu=1, G Jx - dh = 0.5 -> Y = -(1 + 1.6)
    # and Js = Y / rho = -1.3, Jnu = 0
    _, js, jnu = _gated(none, [[1.0]], [[0.5]], [3.0], rho=2.0)
    assert np.allclose(js, [[-1.3]], rtol=1e-15)
    assert np.array_equal(jnu, [[0.0]])


def test_dual_jacobian_update_examples():
    none = np.zeros((0, 1))
    # fixed point: A Jx == db leaves Jlam unchanged
    jlam, _, _ = _gated([[7.0]], none, [[1.0 - 1.0]], [], rho=1.0)
    assert np.allclose(jlam, [[7.0]])
    # Jlam=0, rho=1, A Jx=0.5, db=1 -> 1.6 * -0.5
    jlam, _, _ = _gated([[0.0]], none, [[0.5 - 1.0]], [], rho=1.0)
    assert np.allclose(jlam, [[-0.8]])
    # on the plain first sweep -> -0.5
    jlam, _, _ = _gated([[0.0]], none, [[0.5 - 1.0]], [], rho=1.0, alpha=1.0)
    assert np.allclose(jlam, [[-0.5]])
    # closed gate: Jnu=0, rho=2, G Jx - dh = 0.25 -> Js = 0, Jnu = 3.2 * 0.25
    _, js, jnu = _gated(none, [[0.0]], [[0.25]], [0.0], rho=2.0)
    assert np.array_equal(js, [[0.0]])
    assert np.allclose(jnu, [[0.8]])
    # equality and inequality rows in one call: Jlam += 1.6 c, gate on the rest
    jlam, js, jnu = _gated([[1.0]], [[3.0]], [[0.5], [1.0]], [0.0], rho=1.0)
    assert np.allclose(jlam, [[1.8]])
    assert np.array_equal(js, [[0.0]])
    assert np.allclose(jnu, [[4.6]])
    # rho=2, an equality row and an open one: Jlam += 3.2 * 0.5; the open row's
    # Y = -(3 + 3.2 * 1) = -6.2 gives Js = Y / rho = -3.1 and Jnu = 0
    jlam, js, jnu = _gated([[1.0]], [[3.0]], [[0.5], [1.0]], [4.0], rho=2.0)
    assert np.allclose(jlam, [[2.6]], rtol=1e-15)
    assert np.allclose(js, [[-3.1]], rtol=1e-15)
    assert np.array_equal(jnu, [[0.0]])


def test_differentiate_equality_sensitivity():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], A=[[1.0]], b=[1.0])
    rep = ad.differentiate(p, ad.EqRhs(), ad.SolverConfig(eps=1e-9))
    assert np.allclose(rep.Jx, [[1.0]], atol=1e-7)


def test_differentiate_inactive_constraint_insensitive():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[10.0])
    rep = ad.differentiate(p, ad.IneqRhs(), ad.SolverConfig(eps=1e-9))
    assert np.allclose(rep.Jx, [[0.0]], atol=1e-8)


def test_differentiate_active_constraint():
    rep = ad.differentiate(_toy_active(), ad.IneqRhs(), ad.SolverConfig(eps=1e-9))
    assert np.allclose(rep.Jx, [[-1.0]], atol=1e-7)


def test_truncated_singleton_matches_differentiate():
    p = _toy_active()
    cfg = ad.SolverConfig()
    (only,) = ad.truncated_differentiate(p, ad.IneqRhs(), cfg, eps_list=[1e-3])
    direct = ad.differentiate(p, ad.IneqRhs(), ad.SolverConfig(eps=1e-3))
    assert np.array_equal(only.Jx, direct.Jx)
    assert only.x_error_vs_ref == 0.0
    assert only.jac_error_vs_ref == 0.0


def test_truncated_iterations_nondecreasing(suite):
    p = suite.problem(2)
    reports = ad.truncated_differentiate(
        p, ad.EqRhs(), ad.SolverConfig(rho=SUITE_RHO), eps_list=[1e-1, 1e-2, 1e-3])
    iters = [r.forward.iterations for r in reports]
    assert iters == sorted(iters)


def test_truncated_toy_tolerance_tracking():
    reports = ad.truncated_differentiate(
        _toy_active(), ad.IneqRhs(), ad.SolverConfig(), eps_list=[1e-1, 1e-3])
    assert abs(reports[0].Jx[0, 0] - (-1.0)) <= 1e-1
    assert abs(reports[1].Jx[0, 0] - (-1.0)) <= 1e-3


def test_truncated_rejects_bad_eps_list():
    with pytest.raises(ValueError):
        ad.truncated_differentiate(_toy_active(), ad.IneqRhs(), eps_list=[1e-3, 1e-1])
    with pytest.raises(ValueError):
        ad.truncated_differentiate(_toy_active(), ad.IneqRhs(), eps_list=[])


def test_vjp_examples():
    rep = ad.differentiate(_toy_active(), ad.IneqRhs(), ad.SolverConfig())
    assert np.allclose(ad.vjp(rep, [0.0]), [0.0])
    rep.jac.Jx = np.eye(2)
    assert np.allclose(ad.vjp(rep, [1.0, 2.0]), [1.0, 2.0])
    rep.jac.Jx = np.array([[0.5]])
    assert np.allclose(ad.vjp(rep, [2.0]), [1.0])
    with pytest.raises(DimensionMismatch):
        ad.vjp(rep, [1.0, 2.0])


def test_single_jacobian_state_allocation(suite):
    before = backward.jacobian_allocations()
    ad.differentiate(suite.problem(1), ad.EqRhs(), ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    assert backward.jacobian_allocations() == before + 1


def test_no_extra_factorization_in_backward(suite):
    rep = suite.diff(3, ad.EqRhs(), 1e-6)
    assert rep.forward.num_factorizations == 1


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_fixed_point_identities(seed, suite):
    p = suite.problem(seed)
    A = p.constraints.A
    tol = 1e-4 * (1 + np.linalg.norm(A))
    rep_b = suite.diff(seed, ad.EqRhs(), 1e-6)
    assert np.linalg.norm(A @ rep_b.Jx - np.eye(A.shape[0])) <= tol
    rep_q = suite.diff(seed, ad.LinearCost(), 1e-6)
    assert np.linalg.norm(A @ rep_q.Jx) <= tol


@pytest.mark.parametrize("seed", [0, 7])
def test_complementary_slackness_jacobian(seed, suite):
    p = suite.problem(seed)
    rep = suite.diff(seed, ad.EqRhs(), 1e-6)
    st = rep.forward.state
    G = p.constraints.G
    gjx = G @ rep.Jx  # dh/dtheta = 0 for theta = b
    for i in range(G.shape[0]):
        if st.s[i] > 1e-6:
            assert np.linalg.norm(rep.jac.Jnu[i]) <= 1e-4
        elif st.s[i] <= 1e-6:
            assert np.linalg.norm(gjx[i]) <= 1e-4


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_matches_kkt_reference(seed, suite):
    rep = suite.diff(seed, ad.EqRhs(), 1e-6)
    ref = suite.kkt_jacobian(seed, ad.EqRhs())
    assert np.linalg.norm(rep.Jx - ref) / np.linalg.norm(ref) <= 1e-3
    assert cosine(rep.Jx, ref) >= 0.999


@pytest.mark.parametrize("seed", [0, 6])
def test_matches_finite_differences(seed, suite):
    p = suite.problem(seed)
    rep = suite.diff(seed, ad.EqRhs(), 1e-8)
    assert not rep.weakly_active_warning
    fd = ad.finite_diff_jacobian(p, ad.EqRhs(), ad.SolverConfig(rho=SUITE_RHO))
    err = np.abs(rep.Jx - fd)
    ok = (err <= 1e-4 * np.abs(fd)) | (err <= 1e-8)
    assert ok.all()


def test_weak_activity_warning():
    # min 0.5 x^2 s.t. x <= 0: constraint active with zero multiplier.
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[0.0])
    rep = ad.differentiate(p, ad.IneqRhs(), ad.SolverConfig(eps=1e-8))
    assert rep.weakly_active_warning


@pytest.mark.parametrize("solve", [ad.admm_solve, lambda p: ad.differentiate(p, ad.LinearCost()),
                                   lambda p: ad.differentiate(p, ad.IneqRhs())],
                         ids=["admm_solve", "LinearCost", "IneqRhs"])
def test_indefinite_xstep_hessian_raises(solve):
    # P passes validate (its negative eigenvalue is within PSD_TOL), but the
    # problem is unbounded below along x2, which no constraint bounds: the
    # x-step Hessian diag(1 + rho, -5e-9) has no Cholesky factor, and the
    # sweeps' fixed point x = (0, 2e5) is a saddle, not a solution.
    p = ad.ProblemSpec.quadratic(P=np.diag([1.0, -5e-9]), q=[0.0, 1e-3], G=[[1.0, 0.0]], h=[1.0])
    ad.validate(p)
    with pytest.raises(SingularMatrix, match="Cholesky factorization failed"):
        solve(p)


def _suite_direction(matrix):
    """A Direction on the suite's shape in (q, b, h), with dA and dG too if matrix."""
    rng = np.random.default_rng(5)
    blocks = dict(dq=rng.standard_normal(SUITE_N), db=rng.standard_normal(SUITE_P),
                  dh=rng.standard_normal(SUITE_M))
    if matrix:
        blocks.update(dA=rng.standard_normal((SUITE_P, SUITE_N)),
                      dG=rng.standard_normal((SUITE_M, SUITE_N)))
    return ad.Direction(**blocks)


def _matrix_direction(p):
    """A Direction in every block of p, a symmetric dP, dA and dG included."""
    rng = np.random.default_rng(6)
    con = p.constraints
    dP = rng.standard_normal((p.n, p.n))
    return ad.Direction(dP=dP + dP.T, dq=rng.standard_normal(p.n),
                        dA=rng.standard_normal(con.A.shape), db=rng.standard_normal(con.n_eq),
                        dG=rng.standard_normal(con.G.shape), dh=rng.standard_normal(con.n_ineq))


@pytest.mark.parametrize("sel", [ad.EqRhs(), ad.LinearCost(), _suite_direction(matrix=True)],
                         ids=lambda sel: type(sel).__name__)
def test_trace_errors_decay(suite, sel):
    p = suite.problem(5)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-8)
    rep = ad.differentiate(p, sel, cfg, trace=True)
    assert rep.x_errors is not None
    assert rep.x_errors[-1] == 0.0
    assert rep.x_errors[0] > rep.x_errors[-2]
    assert rep.jac_errors[0] > rep.jac_errors[-2]
    # The k x k core keeps a k x k block per sweep, not Jx: its distances
    # must still be those of the Jx iterates.
    ref = _reference_sweeps(p, sel, cfg)
    dist = lambda hist: [np.linalg.norm(v - hist[-1]) for v in hist]
    assert np.allclose(rep.x_errors, dist(ref.x_hist), rtol=1e-8, atol=1e-12)
    assert np.allclose(rep.jac_errors, dist(ref.jx_hist), rtol=1e-8, atol=1e-12)


def _reference_polish(p, pt, s_new, polish):
    """The polish written from the reduced KKT system on the gate of s_new:
    with the active rows C_a (equality rows and closed inequality rows),
    [P C_a'; C_a 0] [x; y] = [-q; [b; h]_a] and its derivative, with
    right-hand side [-dq; d[b; h]_a]. Open rows take s = h - G x and nu = 0.
    A gate whose closed rows get nu < 0 or whose open rows get s < 0 flips
    those rows and is tried again, each gate once per solve and as many
    matrices (counted in polish.matrices) as the solver may factorize.
    Returns (state, JacobianState or None, ||A x - b||, ||G x + s - h||),
    or None where C_a has more rows than x has entries (no matrix formed),
    a matrix's exact 1-norm condition number exceeds 1 / POLISH_MIN_RCOND or
    the gates run out."""
    con = p.constraints
    n, p_eq = p.n, con.n_eq
    opened = s_new > 0.0
    while (polish.matrices < backward.POLISH_MAX_FACTORIZATIONS
           and not any(np.array_equal(opened, g) for g in polish.tried)):
        polish.tried.append(opened)
        rows = np.concatenate([np.ones(p_eq, bool), ~opened])
        Ca = con.C[rows]
        if len(Ca) > n:
            return None
        polish.matrices += 1
        kkt = np.block([[p.objective.P, Ca.T], [Ca, np.zeros((len(Ca), len(Ca)))]])
        if np.linalg.cond(kkt, 1) > 1.0 / backward.POLISH_MIN_RCOND:
            return None
        sol = np.linalg.solve(kkt, np.concatenate([-p.objective.q, con.rhs[rows]]))
        x, y = sol[:n], sol[n:]
        nu = np.zeros(con.n_ineq)
        nu[~opened] = y[p_eq:]
        s = np.where(opened, con.h - con.G @ x, 0.0)
        flip = (nu < 0.0) | (s < 0.0)
        if flip.any():
            opened = opened ^ flip
            continue
        st = forward.AdmmState(x=x, s=s, lam=y[:p_eq], nu=nu)
        jac = None
        if pt is not None:
            dq = np.zeros((n, pt.m_theta)) if pt.dq is None else pt.dq
            jsol = np.linalg.solve(kkt, np.vstack([-dq, pt.d_rhs[rows]]))
            jx, jy = jsol[:n], jsol[n:]
            jnu = np.zeros((con.n_ineq, pt.m_theta))
            jnu[~opened] = jy[p_eq:]
            js = np.where(opened[:, None], pt.d_rhs[p_eq:] - con.G @ jx, 0.0)
            jac = JacobianState(Jx=jx, Js=js, Jlam=jy[:p_eq], Jnu=jnu)
        return (st, jac, np.linalg.norm(con.A @ x - con.b),
                np.linalg.norm(con.G @ x + s - con.h))
    return None


def _reference_sweeps(p, sel, cfg):
    """The solver loop written with the forward update steps and the
    linearized Jacobian updates spelled out; with sel=None its forward half
    alone, which stops on the x rule. A quadratic with constraint rows and
    no matrix Direction tries _reference_polish on each sweep whose x step
    is below eps, and stops at its point."""
    con = p.constraints
    fact = None
    if isinstance(p.objective, ad.QuadraticObjective):
        fact = ad.factorize(p.objective.P.T + forward.penalty_matrix(p, cfg.rho), spd_hint=True)
    pt = theta_partials(p, sel) if sel is not None else None
    polishable = (fact is not None and con.n_eq + con.n_ineq > 0
                  and (pt is None or not pt.matrix))
    polish = SimpleNamespace(tried=[], matrices=0)
    st = forward.initial_state(p)
    jac = None
    if pt is not None:
        jac = JacobianState.zeros(p.n, con.n_ineq, con.n_eq, pt.m_theta)
        # the initial slack max(0, h - G x0) moves with h where it is positive
        jac.Js = np.where(st.s[:, None] > 0.0, pt.d_rhs[con.n_eq:], 0.0)
    out = SimpleNamespace(eq_res=[], ineq_res=[], steps=[], jac_steps=[],
                          x_hist=[], jx_hist=[])
    x_hits = jac_hits = 0
    for _ in range(cfg.max_outer_iters):
        # A quadratic reuses the factor; Newton on a callback ignores it.
        x_new, fact = forward.primal_update(p, st, cfg, fact=fact)
        s_new = forward.slack_update(st, con.G, con.h, x_new, cfg)
        lam_new, nu_new = forward.dual_update(st, con.A, con.b, con.G, con.h,
                                              x_new, s_new, cfg)
        step = np.linalg.norm(x_new - st.x) / max(np.linalg.norm(st.x), linalg.NORM_FLOOR)
        out.steps.append(step)
        point = _reference_polish(p, pt, s_new, polish) if polishable and step < cfg.eps else None
        if point is not None:
            # the polished point replaces the sweep's, and no Jacobian step is taken
            polished, polished_jac, eq_res, ineq_res = point
            out.eq_res.append(eq_res)
            out.ineq_res.append(ineq_res)
            out.x_hist.append(polished.x)
            st.x, st.s, st.lam, st.nu = polished.x, polished.s, polished.lam, polished.nu
            st.k += 1
            if pt is not None:
                jac = polished_jac
                out.jac_steps.append(np.nan if pt.m_theta else 0.0)
                out.jx_hist.append(jac.Jx)
            break
        out.eq_res.append(np.linalg.norm(con.A @ x_new - con.b))
        out.ineq_res.append(np.linalg.norm(con.G @ x_new + s_new - con.h))
        jac_step = 0.0
        if pt is not None:
            # altdiff.backward's linearized updates written out, apart from
            # the solver's own routines: the derivatives of the relaxed steps
            # u = nu + rho (a (G x - h) - (1 - a) s), s_new = max(0, -u / rho)
            # and lam + a rho (A x - b), a = 1 on the first sweep.
            a = forward.RELAXATION if st.k else 1.0
            mixed = backward.mixed_partial(p, sel, st, jac, x_new, cfg.rho)
            jx = -fact.solve(mixed)
            d_eq = con.A @ jx - pt.d_rhs[:con.n_eq]
            d_in = con.G @ jx - pt.d_rhs[con.n_eq:]
            if pt.dC is not None:
                d_eq += (pt.dC[:con.n_eq] @ x_new).reshape(-1, 1)
                d_in += (pt.dC[con.n_eq:] @ x_new).reshape(-1, 1)
            du = jac.Jnu + cfg.rho * (a * d_in - (1.0 - a) * jac.Js)
            js = -du / cfg.rho
            js[s_new <= 0.0, :] = 0.0
            jlam = jac.Jlam + a * cfg.rho * d_eq
            jnu = du + cfg.rho * js
            jac_step = np.linalg.norm(jx - jac.Jx) / (1.0 + np.linalg.norm(jac.Jx))
            jac.Jx, jac.Js, jac.Jlam, jac.Jnu = jx, js, jlam, jnu
            out.jac_steps.append(jac_step)
            out.jx_hist.append(jx)
        out.x_hist.append(x_new)
        st.x, st.s, st.lam, st.nu = x_new, s_new, lam_new, nu_new
        st.k += 1
        x_hits = x_hits + 1 if step < cfg.eps else 0
        jac_hits = jac_hits + 1 if jac_step < cfg.eps else 0
        if x_hits >= forward.STEP_RULE_HITS and jac_hits >= forward.STEP_RULE_HITS:
            break
    out.st, out.jac, out.polished = st, jac, point is not None
    out.factorizations = polish.matrices
    return out


def _assert_forward_matches(fwd, ref):
    assert fwd.iterations == ref.st.k
    assert (fwd.polished, fwd.polish_factorizations) == (ref.polished, ref.factorizations)
    for name in ("x", "s", "lam", "nu"):
        assert np.allclose(getattr(fwd.state, name), getattr(ref.st, name), atol=1e-12), name
    assert np.allclose(fwd.eq_residuals, ref.eq_res, rtol=1e-10, atol=1e-12)
    assert np.allclose(fwd.ineq_residuals, ref.ineq_res, rtol=1e-10, atol=1e-12)
    assert np.allclose(fwd.step_norms, ref.steps, rtol=1e-8, atol=1e-14)


def _assert_sweep_matches(fast, p, sel, cfg):
    ref = _reference_sweeps(p, sel, cfg)
    _assert_forward_matches(fast.forward, ref)
    # The loop takes the Jacobian step only where the stopping rule reads it,
    # on sweeps whose x step is below eps, and not on a polished sweep; at
    # zero width it is 0.0.
    jac_steps, ref_steps = np.array(fast.jac_step_norms), np.array(ref.jac_steps)
    width = fast.Jx.shape[1]
    skipped = ((np.array(ref.steps) >= cfg.eps) & (width > 0)) | np.isnan(ref_steps)
    assert np.array_equal(np.isnan(jac_steps), skipped)
    assert width or not jac_steps.any()
    assert np.allclose(jac_steps[~skipped], ref_steps[~skipped], rtol=1e-8, atol=1e-14)
    for name in ("Jx", "Js", "Jlam", "Jnu"):
        assert np.allclose(getattr(fast.jac, name), getattr(ref.jac, name), atol=1e-10), name


def _constraint_shape(p, shape):
    con = p.constraints
    P, q = p.objective.P, p.objective.q
    if shape == "eq_only":
        return ad.ProblemSpec.quadratic(P, q, A=con.A, b=con.b)
    if shape == "ineq_only":
        return ad.ProblemSpec.quadratic(P, q, G=con.G, h=con.h)
    if shape == "eq_ineq_box":
        # |x_i| <= 1 on top: p + m >= n, so LinearCost keeps the n-space sweep.
        G = np.vstack([con.G, np.eye(p.n), -np.eye(p.n)])
        h = np.concatenate([con.h, np.ones(2 * p.n)])
        return ad.ProblemSpec.quadratic(P, q, A=con.A, b=con.b, G=G, h=h)
    if shape == "dup_rows":
        # The first A row and the first G row twice: [A; G] is rank-deficient.
        return ad.ProblemSpec.quadratic(
            P, q, A=np.vstack([con.A, con.A[:1]]), b=np.concatenate([con.b, con.b[:1]]),
            G=np.vstack([con.G, con.G[:1]]), h=np.concatenate([con.h, con.h[:1]]))
    return p


@pytest.fixture
def core_sweeps(monkeypatch):
    """Records each Jacobian sweep run on the k x k core."""
    calls = []
    run = backward._CostCoreSweep.run

    def counted(self, s_new):
        calls.append(s_new)
        return run(self, s_new)

    monkeypatch.setattr(backward._CostCoreSweep, "run", counted)
    return calls


@pytest.mark.parametrize("shape", ["eq_ineq", "eq_only", "ineq_only", "eq_ineq_box", "dup_rows"])
@pytest.mark.parametrize("sel", [ad.LinearCost(), ad.EqRhs(), ad.IneqRhs()],
                         ids=lambda sel: type(sel).__name__)
def test_fused_sweep_matches_reference_updates(suite, core_sweeps, sel, shape):
    """The buffered quadratic sweep must reproduce the reference loop's
    linearized updates step for step, in every Jacobian block, and its
    polish the reference's. LinearCost with p + m < n runs on the k x k core,
    every other case in n-space. A polished sweep runs no Jacobian sweep; the
    rank-deficient dup_rows refuses the polish."""
    p = _constraint_shape(suite.problem(8), shape)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    rep = ad.differentiate(p, sel, cfg)
    con = p.constraints
    core = isinstance(sel, ad.LinearCost) and con.n_eq + con.n_ineq < p.n
    assert rep.forward.polished == (shape != "dup_rows")
    assert len(core_sweeps) == (rep.forward.iterations - rep.forward.polished if core else 0)
    _assert_sweep_matches(rep, p, sel, cfg)


@pytest.mark.parametrize("sweeps", [1, 2, 6, 15])
@pytest.mark.parametrize("sel", [ad.EqRhs(), ad.IneqRhs(), ad.LinearCost()],
                         ids=lambda sel: type(sel).__name__)
def test_jacobian_is_derivative_of_truncated_iterate(core_sweeps, sel, sweeps):
    """Stopped after N sweeps, Jx_N is the derivative of x_N itself, the
    iterate the relaxed splitting reached, not only of the limit: central
    differences of x_N agree. N = 1 is the plain first sweep alone (with the
    initial slack max(0, h), which moves with h); later sweeps are relaxed.
    EqRhs and IneqRhs run in n-space, LinearCost (k = 9 < n = 12) on the
    k x k core. x_N is piecewise affine in theta, so differences of 1e-6
    carry only round-off."""
    p = bench.gen_random_qp(12, 6, 3, 7)
    cfg = ad.SolverConfig(eps=1e-15, max_outer_iters=sweeps)
    rep = ad.differentiate(p, sel, cfg)
    assert rep.forward.iterations == sweeps
    assert len(core_sweeps) == (sweeps if isinstance(sel, ad.LinearCost) else 0)
    step, m_theta = 1e-6, rep.Jx.shape[1]
    fd = np.empty_like(rep.Jx)
    for j in range(m_theta):
        e = np.zeros(m_theta)
        e[j] = step
        x_plus = ad.admm_solve(ad.perturb(p, sel, e), cfg).state.x
        x_minus = ad.admm_solve(ad.perturb(p, sel, -e), cfg).state.x
        fd[:, j] = (x_plus - x_minus) / (2.0 * step)
    assert np.abs(rep.Jx - fd).max() <= 1e-7 * np.abs(fd).max()


def test_core_factors_nothing_of_rank_deficient_constraints(suite, core_sweeps, monkeypatch):
    """The core takes no QR (or any other factor) of W = H^-1 [A; G]', so
    repeated constraint rows (k < n) run it like any other problem, and its
    derivative matches finite differences."""
    def refuse(*args, **kwargs):
        raise AssertionError("QR factorization in a solve")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    p = _constraint_shape(suite.problem(8), "dup_rows")
    rep = ad.differentiate(p, ad.LinearCost(), ad.SolverConfig(rho=SUITE_RHO, eps=1e-8))
    assert len(core_sweeps) == rep.forward.iterations
    assert not rep.weakly_active_warning
    fd = ad.finite_diff_jacobian(p, ad.LinearCost(), ad.SolverConfig(rho=SUITE_RHO))
    err = np.abs(rep.Jx - fd)
    assert ((err <= 1e-4 * np.abs(fd)) | (err <= 1e-8)).all()


@pytest.mark.parametrize("direction", [lambda p: _suite_direction(False),
                                       lambda p: _suite_direction(True), _matrix_direction],
                         ids=["vector", "matrix", "matrix-dP"])
def test_vector_direction_sweep_matches_reference_updates(suite, direction):
    # A direction in (q, b, h) only runs the fused sweep with one dq column;
    # with dA and dG (and dP) as well, the same sweep adds their terms in x.
    p = suite.problem(8)
    sel = direction(p)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    _assert_sweep_matches(ad.differentiate(p, sel, cfg), p, sel, cfg)


@pytest.mark.parametrize("case", ["eq_ineq", "eq_only", "ineq_only", "eq_ineq_box",
                                  "layer", "callback"])
def test_admm_solve_matches_reference_forward_loop(suite, case):
    """admm_solve is the solver loop at zero width: the forward half of the
    reference loop, stopping on the x rule alone."""
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    y, u = np.linspace(-1.0, 1.0, 8), np.full(8, 0.3)
    if case == "callback":
        p = ad.build(ad.SoftmaxLayer(y=y, u=u))
    elif case == "layer":
        # A box simplex: an equality row and k = 2n + 1 >= n.
        p = ad.build(ad.SparsemaxLayer(y=y, u=u))
    else:
        p = _constraint_shape(suite.problem(8), case)
    rep = ad.admm_solve(p, cfg)
    assert rep.converged
    _assert_forward_matches(rep, _reference_sweeps(p, None, cfg))


def test_admm_solve_runs_no_jacobian_sweep(suite, monkeypatch):
    """A zero-width parameter has no Jacobian to step: admm_solve never calls
    a sweep's run() or advance()."""
    def refuse(*args):
        raise AssertionError("Jacobian sweep at zero width")

    for kind in (backward._QuadraticSweep, backward._CostCoreSweep, backward._GeneralSweep):
        monkeypatch.setattr(kind, "run", refuse)
        monkeypatch.setattr(kind, "advance", refuse)
    y, u = np.linspace(-1.0, 1.0, 8), np.full(8, 0.3)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    for p in (suite.problem(8), ad.build(ad.SoftmaxLayer(y=y, u=u))):
        rep = ad.admm_solve(p, cfg)
        assert rep.converged and rep.iterations > 1


def test_admm_solve_builds_no_jacobian_half(suite, monkeypatch):
    """At zero width the sweep holds no Jacobian buffers (no -W copy, Hd, Y
    or Jx) and the solve constructs no JacobianState."""
    made, make = [], backward._make_sweep

    def spy(*args):
        made.append(make(*args))
        return made[-1]

    monkeypatch.setattr(backward, "_make_sweep", spy)
    y, u = np.linspace(-1.0, 1.0, 8), np.full(8, 0.3)
    for p, kind in ((suite.problem(8), backward._QuadraticSweep),
                    (ad.build(ad.SoftmaxLayer(y=y, u=u)), backward._GeneralSweep)):
        for eps in (1e-3, 1e-6):
            before = backward.jacobian_allocations()
            ad.admm_solve(p, ad.SolverConfig(rho=SUITE_RHO, eps=eps))
            assert backward.jacobian_allocations() == before
            assert type(made[-1]) is kind
            held = {"Wn", "Cj", "Hd", "d_rhs", "direct", "y", "c", "jx", "jx_next"}
            assert not held & set(vars(made[-1]))


def test_core_forms_y_only_in_finish(suite, monkeypatch):
    """The k x k core steps T alone: no k-row Y and no Jx buffer exists
    before finish() forms them."""
    held, finish = [], backward._CostCoreSweep.finish

    def spy(self):
        held.append({"y", "jx", "jx_next"} & set(vars(self)))
        return finish(self)

    monkeypatch.setattr(backward._CostCoreSweep, "finish", spy)
    for eps in (1e-3, 1e-6):
        rep = ad.differentiate(suite.problem(8), ad.LinearCost(),
                               ad.SolverConfig(rho=SUITE_RHO, eps=eps))
        assert rep.Jx.shape == (SUITE_N, SUITE_N)
    assert held == [set(), set()]


@pytest.mark.parametrize("kind", ["core", "nspace", "callback", "matrix"])
def test_untraced_run_matches_traced(suite, monkeypatch, kind):
    """Skipping the unread Jacobian step norms changes nothing else: with and
    without trace every sweep kind gives the same iterations, x, x steps and
    Jacobian blocks bit for bit, and the steps an untraced run takes. The
    quadratic vector-parameter runs stop on the polish, at the first sweep
    whose x step is below eps, the others on the step rule."""
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    p, sel = suite.problem(8), ad.LinearCost()
    if kind == "nspace":
        p = _constraint_shape(p, "eq_ineq_box")
    elif kind == "callback":
        y = np.linspace(-1.0, 1.0, 8)
        p = ad.build(ad.SoftmaxLayer(y=y, u=np.full(8, 0.3)))
    elif kind == "matrix":
        sel = _suite_direction(matrix=True)
    expected = {"core": backward._CostCoreSweep, "nspace": backward._QuadraticSweep,
                "callback": backward._GeneralSweep, "matrix": backward._QuadraticSweep}[kind]
    made, make = [], backward._make_sweep

    def spy(*args):
        made.append(make(*args))
        return made[-1]

    monkeypatch.setattr(backward, "_make_sweep", spy)
    plain = ad.differentiate(p, sel, cfg)
    traced = ad.differentiate(p, sel, cfg, trace=True)
    assert [type(sw) for sw in made] == [expected, expected]
    assert plain.forward.iterations == traced.forward.iterations
    polished = kind in ("core", "nspace")
    assert plain.forward.polished == traced.forward.polished == polished
    assert np.array_equal(plain.x, traced.x)
    assert plain.forward.step_norms == traced.forward.step_norms
    for name in ("Jx", "Js", "Jlam", "Jnu"):
        assert np.array_equal(getattr(plain.jac, name), getattr(traced.jac, name)), name
    full = np.array(traced.jac_step_norms)
    lazy = np.array(plain.jac_step_norms)
    # a polished sweep takes no Jacobian step, traced or not
    assert np.array_equal(np.isnan(full), np.arange(len(full)) == len(full) - 1 if polished
                          else np.zeros(len(full), bool))
    taken = ~np.isnan(lazy)
    assert polished or taken.sum() >= forward.STEP_RULE_HITS
    assert np.array_equal(lazy[taken], full[taken])


def test_layer_sweep_matches_reference_updates(suite):
    # A quadratic layer runs the sweep of its built problem.
    p = suite.problem(8)
    layer = ad.QuadraticLayer(P=p.objective.P, q=p.objective.q, constraints=p.constraints)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    _assert_sweep_matches(ad.solve_and_diff(layer, ad.LinearCost(), cfg), p,
                          ad.LinearCost(), cfg)


@pytest.fixture
def factor_calls(monkeypatch):
    """Names of the Factorization.solve/.inverse calls made, in order."""
    calls = []
    solve, inverse = ad.Factorization.solve, ad.Factorization.inverse

    def counted_solve(self, b):
        calls.append("solve")
        return solve(self, b)

    def counted_inverse(self):
        calls.append("inverse")
        return inverse(self)

    monkeypatch.setattr(ad.Factorization, "solve", counted_solve)
    monkeypatch.setattr(ad.Factorization, "inverse", counted_inverse)
    return calls


def _layer_solve(p, sel, cfg):
    layer = ad.QuadraticLayer(P=p.objective.P, q=p.objective.q, constraints=p.constraints)
    return ad.solve_and_diff(layer, sel, cfg)


def _forward_solve(p, _sel, cfg):
    return SimpleNamespace(forward=ad.admm_solve(p, cfg))


@pytest.mark.parametrize("solve, sel", [
    (ad.differentiate, ad.EqRhs()),
    (ad.differentiate, ad.IneqRhs()),
    (ad.differentiate, ad.LinearCost()),
    (_layer_solve, ad.LinearCost()),
    (_forward_solve, None),
    (ad.differentiate, _suite_direction(matrix=False)),
    (ad.differentiate, _matrix_direction),
], ids=["EqRhs", "IneqRhs", "LinearCost", "layer-LinearCost", "admm_solve", "Direction",
        "matrix-Direction"])
def test_quadratic_sweep_solves_once(suite, factor_calls, monkeypatch, solve, sel):
    """Set-up makes the only use of the factor, the sweeps none: H^-1 from it
    for theta = q, else one solve (admm_solve: against [A; G]' and q). A
    matrix Direction adds one one-column solve per sweep for H^-1 times its
    terms in x. No quadratic solve takes the forward x-step."""
    def refuse(*args, **kwargs):
        raise AssertionError("primal_update in a quadratic solve")

    monkeypatch.setattr(backward, "primal_update", refuse)
    monkeypatch.setattr(forward, "primal_update", refuse)
    p = suite.problem(8)
    matrix = callable(sel)
    rep = solve(p, sel(p) if matrix else sel, ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    assert rep.forward.iterations > 1
    if isinstance(sel, ad.LinearCost):
        assert factor_calls == ["inverse"]
    else:
        assert factor_calls == ["solve"] * (1 + (rep.forward.iterations if matrix else 0))


def test_direction_selector_matches_column(suite):
    p = suite.problem(4)
    full = suite.diff(4, ad.EqRhs(), 1e-8)
    e = np.zeros(p.constraints.n_eq)
    e[3] = 1.0
    rep = ad.differentiate(p, ad.Direction(db=e), ad.SolverConfig(rho=SUITE_RHO, eps=1e-8))
    assert np.allclose(rep.Jx.ravel(), full.Jx[:, 3], atol=1e-7)


def test_concurrent_solves_on_separate_problems(suite):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    seeds = range(8)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    problems = [suite.problem(s) for s in seeds]
    sequential = [ad.differentiate(p, ad.EqRhs(), cfg) for p in problems]

    def counted_solve(p):
        before = backward.jacobian_allocations()
        rep = ad.differentiate(p, ad.EqRhs(), cfg)
        return rep, backward.jacobian_allocations() - before

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(counted_solve, problems, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, (b, allocations) in zip(sequential, parallel):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.Jx, b.Jx)
        assert b.forward.num_factorizations == 1
        assert b.forward.polished and b.forward.polish_factorizations == 1
        assert allocations == 1


def test_zero_width_parameter():
    # differentiating w.r.t. b with no equality rows yields an empty Jacobian
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.5], G=[[1.0]], h=[10.0])
    rep = ad.differentiate(p, ad.EqRhs(), ad.SolverConfig(eps=1e-8))
    assert rep.forward.converged
    assert rep.Jx.shape == (1, 0)
    assert ad.finite_diff_jacobian(p, ad.EqRhs()).shape == (1, 0)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_zero_variables(eps):
    # eps = 1e-3 reaches the float32 gate, which estimates ||H^-1|| of the
    # empty factor.
    p = ad.ProblemSpec.quadratic(P=np.zeros((0, 0)), q=[], A=np.zeros((1, 0)), b=[0.0])
    rep = ad.differentiate(p, ad.EqRhs(), ad.SolverConfig(eps=eps))
    assert rep.forward.converged
    assert rep.Jx.shape == (0, 1) and rep.jac.Jlam.shape == (1, 1)


def test_direction_all_blocks_matches_reference(suite):
    # matrix and vector blocks perturbed together: the recursion's
    # direction terms against the one-shot linearized-optimality route
    p = suite.problem(9)
    con = p.constraints
    rng = np.random.default_rng(42)
    scale = 0.05
    dP = rng.standard_normal((p.n, p.n)) * scale
    sel = ad.Direction(
        dP=dP + dP.T,
        dq=rng.standard_normal(p.n) * scale,
        dA=rng.standard_normal(con.A.shape) * scale,
        db=rng.standard_normal(con.n_eq) * scale,
        dG=rng.standard_normal(con.G.shape) * scale,
        dh=rng.standard_normal(con.n_ineq) * scale,
    )
    rep = ad.differentiate(p, sel, ad.SolverConfig(rho=SUITE_RHO, eps=1e-9,
                                                   max_outer_iters=200000))
    st = suite.tight_state(9)
    ref = ad.implicit_diff_solve(p, st.x, st.lam, st.nu, sel)
    assert np.abs(rep.Jx - ref).max() <= 1e-5 * (1 + np.abs(ref).max())
    fd = ad.finite_diff_jacobian(p, sel, ad.SolverConfig(rho=SUITE_RHO), step=1e-6)
    assert np.abs(rep.Jx - fd).max() <= 1e-4 * (1 + np.abs(fd).max())


@hst.composite
def _feasible_qps(draw):
    """Strictly feasible unit-scale QPs with p + m < n or p + m >= n."""
    n = draw(hst.integers(2, 20))
    p_eq = draw(hst.integers(0, n - 1))
    if draw(hst.booleans()):
        m = draw(hst.integers(n - p_eq, 2 * n))
    else:
        m = draw(hst.integers(0, n - p_eq - 1))
    return make_suite_qp(n, m, p_eq, draw(hst.integers(0, 2**32 - 1)))


def _check_random_qp_derivative(p, sel):
    tight = ad.admm_solve(p, ad.SolverConfig(rho=SUITE_RHO, eps=1e-10,
                                             max_outer_iters=200000))
    st = tight.state
    # admm_solve's step rule can stop on a transient far from the optimum;
    # the oracle is defined only at a point that passes its KKT test.
    kkt = np.linalg.norm(ad.kkt_residual(p, st.x, st.lam, st.nu))
    assume(kkt <= KKT_POINT_RTOL * (1.0 + np.linalg.norm(st.x)))
    rep = ad.differentiate(p, sel, ad.SolverConfig(rho=SUITE_RHO, eps=1e-8,
                                                   max_outer_iters=200000))
    assume(not rep.weakly_active_warning)
    ref = ad.implicit_diff_solve(p, st.x, st.lam, st.nu, sel)
    # At a vertex (p + active rows = n) dx/dq = 0 and a relative error is
    # noise; there the error is held to 1e-4, against derivatives of order 1
    # elsewhere (P's eigenvalues are at least 0.1).
    assert np.linalg.norm(rep.Jx - ref) <= 1e-3 * max(np.linalg.norm(ref), 0.1)


@given(_feasible_qps())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_random_qp_cost_derivative_matches_oracle(p):
    """Both sides of the core selection agree with the implicit derivative."""
    _check_random_qp_derivative(p, ad.LinearCost())


@pytest.mark.parametrize("sel", [ad.EqRhs(), ad.IneqRhs()], ids=lambda sel: type(sel).__name__)
@given(p=_feasible_qps())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_random_qp_rhs_derivative_matches_oracle(sel, p):
    """The n-space sweep of the b and h selectors agrees with the implicit
    derivative, with k < n and k >= n, under the same bound."""
    _check_random_qp_derivative(p, sel)


# The polish: a polished solve stops at an exact KKT point of its gate, with
# the exact derivative there; where no gate gives one, it is refused.

POLISH_ORACLE_TOL = 1e-8  # on max |Jx - oracle| / (1 + max |oracle|)


def _vector_direction(p, seed):
    """A Direction in (q, b, h) only, drawn on p's shape."""
    rng = np.random.default_rng(seed)
    con = p.constraints
    return ad.Direction(dq=rng.standard_normal(p.n), db=rng.standard_normal(con.n_eq),
                        dh=rng.standard_normal(con.n_ineq))


@given(p=_feasible_qps(), sel=hst.sampled_from(["LinearCost", "EqRhs", "IneqRhs", "Direction"]),
       eps=hst.sampled_from([1e-3, 1e-6]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_polished_solve_is_kkt_point_with_oracle_derivative(p, sel, eps):
    """Every polished solve, on the k x k core or in n-space, passes the
    oracle's KKT test at its returned point, and its Jx is the oracle's there."""
    sel = _vector_direction(p, p.n) if sel == "Direction" else getattr(ad, sel)()
    rep = ad.differentiate(p, sel, ad.SolverConfig(rho=SUITE_RHO, eps=eps))
    fwd = rep.forward
    assert 0 <= fwd.polish_factorizations <= backward.POLISH_MAX_FACTORIZATIONS
    assert fwd.num_factorizations == 1
    if not fwd.polished:
        return
    assert fwd.converged and fwd.step_norms[-1] < eps
    st = fwd.state
    kkt = np.linalg.norm(ad.kkt_residual(p, st.x, st.lam, st.nu))
    assert kkt <= KKT_POINT_RTOL * (1.0 + np.linalg.norm(st.x))
    assert st.s.min(initial=0.0) >= 0.0 and st.nu.min(initial=0.0) >= 0.0
    assert not np.any((st.s > 0.0) & (st.nu > 0.0))
    if rep.weakly_active_warning or not rep.Jx.size:
        return
    ref = ad.implicit_diff_solve(p, st.x, st.lam, st.nu, sel)
    assert np.abs(rep.Jx - ref).max() <= POLISH_ORACLE_TOL * (1.0 + np.abs(ref).max())


@hst.composite
def _infeasible_qps(draw):
    """A unit-scale QP with rows no x satisfies: g'x <= -d and -g'x <= -d,
    or g'x = 1 and g'x <= 1 - d, or a combination of equality rows held d
    below its value."""
    n = draw(hst.integers(1, 15))
    p_eq = draw(hst.integers(0, n - 1))
    seed = draw(hst.integers(0, 2**32 - 1))
    kind = draw(hst.sampled_from(["split", "eq-ineq", "combination"]))
    d = draw(hst.floats(0.05, 2.0))
    base = make_suite_qp(n, draw(hst.integers(0, 2 * n)), p_eq, seed)
    rng = np.random.default_rng(seed)
    con = base.constraints
    A, b, G, h = con.A, con.b, con.G, con.h
    g = rng.standard_normal(n)
    g /= np.linalg.norm(g)
    if kind == "split":
        G, h = np.vstack([G, g, -g]), np.concatenate([h, [-d, -d]])
    elif kind == "eq-ineq":
        A, b = np.vstack([A, g]), np.concatenate([b, [1.0]])
        G, h = np.vstack([G, g]), np.concatenate([h, [1.0 - d]])
    else:
        if not p_eq:
            A, b = g.reshape(1, -1), np.zeros(1)
        c = rng.standard_normal(A.shape[0])
        row = c @ A
        scale = np.linalg.norm(row)
        G, h = np.vstack([G, row / scale]), np.concatenate([h, [(c @ b - d) / scale]])
    return ad.ProblemSpec.quadratic(P=base.objective.P, q=base.objective.q, A=A, b=b, G=G, h=h)


@given(p=_infeasible_qps())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_infeasible_qp_is_never_polished(p):
    """No gate of an infeasible QP gives a z whose inequality rows are all
    >= 0, so no solve stops on the polish, however it stops otherwise."""
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-3, max_outer_iters=2000)
    for fwd in (ad.admm_solve(p, cfg), ad.differentiate(p, ad.LinearCost(), cfg).forward):
        assert not fwd.polished


def test_infeasible_equality_and_bound_is_not_polished():
    # x1 = 1 and x1 <= 0: the closed gate has two active rows on one
    # variable (M + D singular, no LU made), the open one gives s = -1. The
    # step rule still stops this solve and reports converged (ROADMAP item
    # 3), but the polish certifies nothing.
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], A=[[1.0]], b=[1.0], G=[[1.0]], h=[0.0])
    rep = ad.admm_solve(p)
    assert not rep.polished and rep.polish_factorizations == 0


@pytest.mark.parametrize("solve", [ad.admm_solve, lambda p, cfg: ad.differentiate(
    p, ad.LinearCost(), cfg).forward, lambda p, cfg: ad.differentiate(p, ad.IneqRhs(), cfg).forward],
    ids=["admm_solve", "LinearCost", "IneqRhs"])
@pytest.mark.parametrize("shape, G, q, lus", [
    # x1 <= 0, x2 <= 0, x1 + x2 <= 0 active at x = 0: p + active = 3 > n = 2,
    # so M + D is singular on the closed gate and no LU is made
    ("vertex", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [-1.0, -1.0], 0),
    # x1 <= 0 twice: 2 active rows but rank 1, so gecon refuses the LU
    ("repeated-row", [[1.0, 0.0], [1.0, 0.0]], [-1.0, 0.5], 1),
])
def test_degenerate_active_set_refuses_polish(solve, shape, G, q, lus):
    """min ||x||^2 / 2 + q'x s.t. G x <= 0, with dependent active rows: the
    polish is refused, with no LinAlgWarning, and the step rule stops the
    solve at the solution."""
    import warnings

    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=q, G=G, h=np.zeros(len(G)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fwd = solve(p, ad.SolverConfig(eps=1e-6))
    assert fwd.converged and not fwd.polished
    assert fwd.polish_factorizations == lus
    assert np.abs(fwd.state.x - np.minimum(-np.asarray(q), 0.0)).max() <= 1e-5


def test_polish_is_timed_in_its_halves(suite, monkeypatch):
    """The polish's forward half counts in iteration_ms, its Jacobian half
    in jacobian_ms."""
    import time

    def slowed(name):
        method = getattr(backward._QuadraticSweep, name)

        def slow(self, *args):
            time.sleep(0.02)
            return method(self, *args)

        monkeypatch.setattr(backward._QuadraticSweep, name, slow)

    slowed("polish")
    slowed("polish_jacobian")
    rep = ad.differentiate(suite.problem(4), ad.EqRhs(), ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    assert rep.forward.polished and rep.forward.polish_factorizations == 1
    assert rep.forward.iteration_ms >= 20.0
    assert rep.jacobian_ms >= 20.0


# Precision of the folded sweeps: float32 Jacobian state from eps >=
# FLOAT32_MIN_EPS; patching the constant to inf runs the same solve in float64.
# A polished solve takes its Jacobian in float64 from the polish's factor, so
# the tests of the float32 recursion switch the polish off (no_polish).

F32_BOUND = 1e-6  # on max |float32 - float64| / (1 + ||Jx||)


@pytest.fixture
def no_polish(monkeypatch):
    """Solves run the bare recursion and stop on the step rule."""
    monkeypatch.setattr(backward, "POLISH_MAX_FACTORIZATIONS", 0)


@pytest.fixture
def sweep_dtypes(monkeypatch):
    """Records the Jacobian dtype of each sweep made."""
    made, make = [], backward._make_sweep

    def record(*args):
        sweep = make(*args)
        made.append(sweep.dtype)
        return sweep

    monkeypatch.setattr(backward, "_make_sweep", record)
    return made


def _float64_run(monkeypatch, p, sel, cfg, trace=False):
    with monkeypatch.context() as m:
        m.setattr(backward, "FLOAT32_MIN_EPS", np.inf)
        return ad.differentiate(p, sel, cfg, trace=trace)


def _assert_f32_close(rep32, rep64):
    """Same iterations and x; each block within F32_BOUND of the float64 one,
    relative to 1 + its norm (the dual blocks can be far larger than Jx)."""
    assert rep32.forward.iterations == rep64.forward.iterations
    assert np.array_equal(rep32.x, rep64.x)
    for name in ("Jx", "Js", "Jlam", "Jnu"):
        a, b = getattr(rep32.jac, name), getattr(rep64.jac, name)
        assert a.dtype == np.float64, name
        if a.size:
            assert np.abs(a - b).max() <= F32_BOUND * (1.0 + np.linalg.norm(b)), name


def _assert_identical(rep, ref):
    """Bit for bit the same solve: iterations, x, every block and step norm."""
    assert rep.forward.iterations == ref.forward.iterations
    assert np.array_equal(rep.x, ref.x)
    for name in ("Jx", "Js", "Jlam", "Jnu"):
        assert np.array_equal(getattr(rep.jac, name), getattr(ref.jac, name)), name
    assert np.array_equal(rep.jac_step_norms, ref.jac_step_norms, equal_nan=True)


def _precision_problem(suite, shape):
    if shape == "sparsemax":
        rng = np.random.default_rng(3)
        return ad.build(ad.SparsemaxLayer(y=rng.standard_normal(30), u=np.full(30, 0.2)))
    p = suite.problem(4)
    if shape == "flat":
        # P / 100: ||H^-1||_1 is estimated at about 730 against about 10 at
        # unit scale, over backward.FLOAT32_MAX_INV_NORM. In float32 the
        # difference grows with ||H^-1|| and the sweep count; here it put Js
        # 4.5e-6 off for IneqRhs at rho = 0.7, over F32_BOUND.
        con = p.constraints
        return ad.ProblemSpec.quadratic(P=p.objective.P / 100, q=p.objective.q,
                                        A=con.A, b=con.b, G=con.G, h=con.h)
    return _constraint_shape(p, "eq_ineq_box" if shape == "k>=n" else "eq_ineq")


# rho = 1 makes finish()'s Js = Y_in / rho exact; 0.7 rounds it in float32.
@pytest.mark.parametrize("shape, rho", [
    pytest.param(shape, rho, id=shape if rho == SUITE_RHO else f"{shape}-rho{rho}")
    for rho in (SUITE_RHO, 0.7) for shape in ("k<n", "k>=n", "sparsemax", "flat")])
@pytest.mark.parametrize("sel", [ad.LinearCost(), ad.EqRhs(), ad.IneqRhs(), _matrix_direction],
                         ids=lambda sel: "matrix-Direction" if callable(sel) else type(sel).__name__)
def test_float32_sweep_matches_float64(suite, monkeypatch, no_polish, sweep_dtypes, sel, shape,
                                       rho):
    """At eps = 1e-3 every folded sweep of a vector parameter (the k x k core
    for LinearCost with k < n, else n-space) on a well-conditioned H runs in
    float32 and stays within float32 round-off of its float64 run, with the
    same iterations and the same x; also at a rho other than 1. Flat
    curvature (large ||H^-1||) and a matrix Direction keep float64, bit for
    bit: in float32 a matrix Direction's blocks moved by up to 2.8e-6
    (1 + their norm) on the flat problem."""
    p = _precision_problem(suite, shape)
    matrix = callable(sel)
    sel = sel(p) if matrix else sel
    cfg = ad.SolverConfig(rho=rho, eps=1e-3)
    rep = ad.differentiate(p, sel, cfg)
    rep64 = _float64_run(monkeypatch, p, sel, cfg)
    f64 = matrix or shape == "flat"
    assert sweep_dtypes == [np.float64 if f64 else np.float32, np.float64]
    if f64:
        _assert_identical(rep, rep64)
    else:
        _assert_f32_close(rep, rep64)


@pytest.mark.parametrize("dims, sel", [((200, 70, 30), ad.LinearCost()),
                                       ((400, 130, 50), ad.EqRhs())],
                         ids=["qp-layer", "qp-dense"])
def test_benchmark_shapes_pick_float32(dims, sel):
    """The random QPs of the benchmark workloads estimate ||H^-1||_1 at
    about 0.2, far under FLOAT32_MAX_INV_NORM, and P carries about 0.7 of
    tr H, far over FLOAT32_MIN_CURVATURE_SHARE, so eps = 1e-3 runs float32."""
    for seed in range(3):
        p = bench.gen_random_qp(*dims, seed)
        sweep = backward._make_sweep(p, theta_partials(p, sel), ad.SolverConfig(eps=1e-3),
                                     forward.initial_state(p).s)
        assert sweep.dtype == np.float32, seed


@pytest.mark.parametrize("sel", [ad.EqRhs(), ad.IneqRhs()], ids=lambda sel: type(sel).__name__)
def test_penalty_dominated_hessian_keeps_float64(suite, monkeypatch, no_polish, sweep_dtypes, sel):
    """Box rows (k >= n) keep rho C'C full rank, so ||H^-1||_1 stays about 1
    however flat P is, while P / 100 makes the sweeps run long (over 1,000
    here). P's share of tr H, about 0.004, sends the solve to float64; run
    in float32 regardless, its blocks drift about 2e-6 off, over F32_BOUND."""
    p = _constraint_shape(suite.problem(4), "eq_ineq_box")
    con = p.constraints
    p = ad.ProblemSpec.quadratic(P=p.objective.P / 100, q=p.objective.q,
                                 A=con.A, b=con.b, G=con.G, h=con.h)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-3)
    assert forward.xstep_factor(p, cfg.rho).inverse_norm() <= backward.FLOAT32_MAX_INV_NORM
    assert backward._curvature_share(p, cfg.rho) < backward.FLOAT32_MIN_CURVATURE_SHARE
    rep = ad.differentiate(p, sel, cfg)
    with monkeypatch.context() as m:
        m.setattr(backward, "FLOAT32_MIN_CURVATURE_SHARE", 0.0)
        rep32 = ad.differentiate(p, sel, cfg)
    assert sweep_dtypes == [np.float64, np.float32]
    assert rep.forward.iterations == rep32.forward.iterations > 1000
    drift = max(np.abs(getattr(rep32.jac, name) - getattr(rep.jac, name)).max()
                / (1.0 + np.linalg.norm(getattr(rep.jac, name))) for name in ("Jx", "Js", "Jlam", "Jnu"))
    assert drift > F32_BOUND


@pytest.mark.parametrize("sel", [ad.LinearCost(), ad.IneqRhs()],
                         ids=lambda sel: type(sel).__name__)
def test_float32_sweep_returns_float64(suite, no_polish, sweep_dtypes, sel):
    rep = ad.differentiate(suite.problem(4), sel, ad.SolverConfig(rho=SUITE_RHO, eps=1e-3),
                           trace=True)
    assert sweep_dtypes == [np.float32]
    for name in ("Jx", "Js", "Jlam", "Jnu"):
        assert getattr(rep.jac, name).dtype == np.float64, name
    assert rep.jac_errors.dtype == np.float64 and rep.x_errors.dtype == np.float64
    assert all(type(v) is float for v in rep.jac_step_norms)


@pytest.mark.parametrize("sel", [ad.LinearCost(), ad.EqRhs()], ids=lambda sel: type(sel).__name__)
def test_float64_below_float32_floor(suite, monkeypatch, sweep_dtypes, sel):
    """Below FLOAT32_MIN_EPS a solve is bit for bit the float64 one."""
    p = suite.problem(4)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=backward.FLOAT32_MIN_EPS / 2)
    plain = ad.differentiate(p, sel, cfg, trace=True)
    ref = _float64_run(monkeypatch, p, sel, cfg, trace=True)
    assert sweep_dtypes == [np.float64, np.float64]
    assert plain.forward.iterations == ref.forward.iterations
    assert np.array_equal(plain.x, ref.x)
    for name in ("Jx", "Js", "Jlam", "Jnu"):
        assert np.array_equal(getattr(plain.jac, name), getattr(ref.jac, name)), name
    assert np.array_equal(plain.jac_errors, ref.jac_errors)
    assert plain.jac_step_norms == ref.jac_step_norms


# The polish is switched off by a marker, not in the body: derandomize seeds
# the draw from the body's source, so editing it would draw other examples.
@pytest.mark.usefixtures("no_polish")
@given(p=_feasible_qps(), sel=hst.sampled_from([ad.LinearCost(), ad.EqRhs(), ad.IneqRhs()]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_random_qp_float32_sweep_matches_float64(p, sel):
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-3)
    rep32 = ad.differentiate(p, sel, cfg)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(backward, "FLOAT32_MIN_EPS", np.inf)
        rep64 = ad.differentiate(p, sel, cfg)
    _assert_f32_close(rep32, rep64)
