import numpy as np
import pytest

import altdiff as ad
from altdiff import forward
from altdiff.reference import kkt_residual
from conftest import SUITE_RHO, make_suite_qp


def _state(x, s, lam, nu):
    return forward.AdmmState(
        x=np.asarray(x, float), s=np.asarray(s, float),
        lam=np.asarray(lam, float), nu=np.asarray(nu, float),
    )


def test_primal_update_unconstrained_quadratic():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0])
    x, fact = forward.primal_update(p, _state([5.0], [], [], []), ad.SolverConfig())
    assert x == pytest.approx([0.0])
    assert fact.n == 1


def test_primal_update_penalized_equality():
    # argmin 0.5 x^2 + 0.5 (x-1)^2 = 0.5 at rho=1, lam=0.
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], A=[[1.0]], b=[1.0])
    x, _ = forward.primal_update(p, _state([0.0], [], [0.0], []), ad.SolverConfig(rho=1.0))
    assert x == pytest.approx([0.5])


def test_primal_update_general_convex_newton():
    # stationary point of e^x - x is x = 0
    p = ad.ProblemSpec.general(
        n=1,
        value=lambda x: float(np.exp(x[0]) - x[0]),
        gradient=lambda x: np.exp(x) - 1.0,
        hessian=lambda x: np.diag(np.exp(x)),
    )
    ad.validate(p)
    x, _ = forward.primal_update(p, _state([1.0], [], [], []), ad.SolverConfig())
    assert abs(x[0]) < 1e-8


def test_newton_backtracks_from_overshooting_step(monkeypatch):
    # sum_i sqrt(1 + (x_i - c_i)^2) from x = 0: its full Newton step maps
    # t = x - c to -t^3, so from t = -+3 it lands at x = +-30 and Armijo
    # must halve it. The optimum is x = c, and dx/dq = -f''(c)^-1 = -I.
    c = np.array([3.0, -3.0])
    p = ad.ProblemSpec.general(
        n=2,
        value=lambda x: float(np.sum(np.sqrt(1.0 + (x - c) ** 2))),
        gradient=lambda x: (x - c) / np.sqrt(1.0 + (x - c) ** 2),
        hessian=lambda x: np.diag((1.0 + (x - c) ** 2) ** -1.5),
    )
    tried, value = [], forward._lagrangian_value

    def spy(p, x, *args):
        tried.append(x.copy())
        return value(p, x, *args)

    monkeypatch.setattr(forward, "_lagrangian_value", spy)
    rep = ad.differentiate(p, ad.LinearCost(), ad.SolverConfig(eps=1e-10))
    # the merit value at x = 0, the full step, then its half
    assert np.array_equal(tried[0], [0.0, 0.0])
    assert np.allclose(tried[1], [30.0, -30.0]) and np.allclose(tried[2], [15.0, -15.0])
    assert rep.forward.converged
    assert np.allclose(rep.x, c, atol=1e-9)
    assert np.allclose(rep.Jx, -np.eye(2), atol=1e-9)


def test_slack_update_examples():
    cfg = ad.SolverConfig(rho=1.0)
    G = np.eye(2)
    # nu=0, Gx-h = (-2, 3) -> s = (2, 0)
    st = _state([0.0, 0.0], [0.0, 0.0], [], [0.0, 0.0])
    s = forward.slack_update(st, G, np.array([2.0, -3.0]), np.zeros(2), cfg)
    assert np.allclose(s, [2.0, 0.0])
    # nu=(1,1), Gx-h = 0 -> clipped to zero
    st = _state([0.0, 0.0], [0.0, 0.0], [], [1.0, 1.0])
    s = forward.slack_update(st, G, np.zeros(2), np.zeros(2), cfg)
    assert np.allclose(s, [0.0, 0.0])
    # nu=(-4,0), rho=2, Gx-h=(1,-1) -> (1, 1)
    cfg2 = ad.SolverConfig(rho=2.0)
    st = _state([0.0, 0.0], [0.0, 0.0], [], [-4.0, 0.0])
    s = forward.slack_update(st, G, -np.array([1.0, -1.0]), np.zeros(2), cfg2)
    assert np.allclose(s, [1.0, 1.0])


def test_slack_update_nonnegative_property():
    rng = np.random.default_rng(0)
    cfg = ad.SolverConfig(rho=0.7)
    for _ in range(50):
        st = _state(rng.standard_normal(3), np.zeros(4), [], rng.standard_normal(4))
        s = forward.slack_update(st, rng.standard_normal((4, 3)), rng.standard_normal(4),
                                 rng.standard_normal(3), cfg)
        assert np.all(s >= 0.0)


def test_dual_update_examples():
    A = np.array([[1.0]])
    G = np.array([[1.0]])
    # feasible point leaves lam unchanged
    st = _state([1.0], [0.0], [3.0], [0.0])
    lam, _ = forward.dual_update(st, A, np.array([1.0]), G, np.array([10.0]),
                                 np.array([1.0]), np.array([9.0]), ad.SolverConfig())
    assert lam == pytest.approx([3.0])
    # lam=0, rho=2, Ax-b=0.5 -> 1.0
    st = _state([0.0], [0.0], [0.0], [0.0])
    lam, _ = forward.dual_update(st, A, np.array([0.5]), G, np.array([10.0]),
                                 np.array([1.0]), np.array([9.0]), ad.SolverConfig(rho=2.0))
    assert lam == pytest.approx([1.0])
    # nu=1, rho=1, Gx+s-h=-1 -> 0
    st = _state([0.0], [1.0], [0.0], [1.0])
    _, nu = forward.dual_update(st, A, np.array([0.0]), G, np.array([2.0]),
                                np.array([0.0]), np.array([1.0]), ad.SolverConfig())
    assert nu == pytest.approx([0.0])


def test_admm_solve_inactive_constraint():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[10.0])
    rep = ad.admm_solve(p, ad.SolverConfig(eps=1e-9))
    assert rep.converged
    assert rep.state.x == pytest.approx([0.0], abs=1e-8)
    assert rep.state.nu == pytest.approx([0.0], abs=1e-8)


def test_admm_solve_active_constraint():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[-1.0]], h=[-1.0])
    rep = ad.admm_solve(p, ad.SolverConfig(eps=1e-9))
    assert rep.state.x == pytest.approx([1.0], abs=1e-7)
    assert rep.state.nu == pytest.approx([1.0], abs=1e-7)


def test_admm_solve_equality_toy():
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=[[1.0, 1.0]], b=[1.0])
    rep = ad.admm_solve(p, ad.SolverConfig(eps=1e-10))
    assert rep.state.x == pytest.approx([0.5, 0.5], abs=1e-8)
    assert rep.state.lam == pytest.approx([-0.5], abs=1e-8)


def test_single_factorization_per_quadratic_solve(suite):
    p = suite.problem(0)
    rep = ad.admm_solve(p, ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    assert rep.num_factorizations == 1
    assert rep.hessian_factorization is not None


def test_not_converged_flagged_not_raised():
    p = make_suite_qp(10, 4, 2, 3)
    rep = ad.admm_solve(p, ad.SolverConfig(eps=1e-12, max_outer_iters=2))
    assert not rep.converged
    assert rep.state.k == 2


def test_converged_means_last_step_below_eps():
    p = make_suite_qp(10, 4, 2, 1)
    cfg = ad.SolverConfig(eps=1e-6)
    rep = ad.admm_solve(p, cfg)
    assert rep.converged
    assert rep.step_norms[-1] < cfg.eps


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_convergence_invariants(seed, suite):
    eps = 1e-6
    p = suite.problem(seed)
    rep = ad.admm_solve(p, ad.SolverConfig(rho=SUITE_RHO, eps=eps))
    st = rep.state
    con = p.constraints
    assert np.linalg.norm(con.A @ st.x - con.b) <= 10 * eps * (1 + np.linalg.norm(con.b))
    assert np.linalg.norm(con.G @ st.x + st.s - con.h) <= 10 * eps * (1 + np.linalg.norm(con.h))
    assert st.nu.min() >= -10 * eps
    comp = abs(st.nu @ st.s)
    assert comp <= 10 * eps * (1 + np.linalg.norm(st.nu) * np.linalg.norm(st.s))
    res = np.linalg.norm(kkt_residual(p, st.x, st.lam, st.nu))
    assert res <= 10 * eps * (1 + np.linalg.norm(st.x))


@pytest.mark.parametrize("seed", [0, 5])
def test_objective_matches_reference(seed, suite):
    p = suite.problem(seed)
    rep = ad.admm_solve(p, ad.SolverConfig(rho=SUITE_RHO, eps=1e-8))
    ref = suite.tight_state(seed)
    f_hat = p.objective.value(rep.state.x)
    f_ref = p.objective.value(ref.x)
    assert abs(f_hat - f_ref) <= 1e-6 * max(abs(f_ref), 1.0)


def test_newton_diverged_raised_without_progress(monkeypatch):
    p = ad.ProblemSpec.general(
        n=1,
        value=lambda x: float(np.exp(x[0]) - x[0]),
        gradient=lambda x: np.exp(x) - 1.0,
        hessian=lambda x: np.diag(np.exp(x)),
    )
    ad.validate(p)
    from altdiff.errors import NewtonDiverged
    monkeypatch.setattr(forward, "NEWTON_MAX_ITERS", 0)
    with pytest.raises(NewtonDiverged):
        forward.primal_update(p, _state([5.0], [], [], []), ad.SolverConfig())


def test_solver_config_validation():
    with pytest.raises(ValueError):
        ad.SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        ad.SolverConfig(eps=-1.0)
    with pytest.raises(ValueError):
        ad.SolverConfig(max_outer_iters=0)


def test_report_timing_fields_populated(suite):
    rep = ad.admm_solve(suite.problem(4), ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    assert rep.factorization_ms > 0
    assert rep.iteration_ms > 0
    assert len(rep.eq_residuals) == rep.iterations


@pytest.mark.parametrize("shape", ["eq_ineq", "eq_only", "ineq_only", "unconstrained"])
def test_penalty_matrix_is_rho_gram_of_constraints(shape):
    rng = np.random.default_rng(3)
    n = 12
    A = rng.standard_normal((5, n)) if shape in ("eq_ineq", "eq_only") else None
    G = rng.standard_normal((9, n)) if shape in ("eq_ineq", "ineq_only") else None
    p = ad.ProblemSpec.quadratic(
        P=np.eye(n), q=np.zeros(n),
        A=A, b=None if A is None else np.zeros(5),
        G=G, h=None if G is None else np.ones(9),
    )
    rho = 1.7
    out = forward.penalty_matrix(p, rho)
    expected = np.zeros((n, n))
    for block in (A, G):
        if block is not None:
            expected += rho * (block.T @ block)
    assert out.shape == (n, n)
    assert np.array_equal(out, out.T)
    if shape == "unconstrained":
        assert np.array_equal(out, np.zeros((n, n)))
    else:
        np.testing.assert_allclose(out, expected, rtol=1e-12)


@pytest.mark.parametrize("solve", ["admm_solve", "differentiate"])
def test_setup_time_includes_penalty_assembly(suite, monkeypatch, solve):
    import time

    penalty = forward.penalty_matrix

    def slow_penalty(p, rho):
        time.sleep(0.02)
        return penalty(p, rho)

    # Both modules hold a binding of the function.
    monkeypatch.setattr(forward, "penalty_matrix", slow_penalty)
    monkeypatch.setattr(ad.backward, "penalty_matrix", slow_penalty)
    cfg = ad.SolverConfig(rho=SUITE_RHO, eps=1e-6)
    if solve == "admm_solve":
        rep = ad.admm_solve(suite.problem(4), cfg)
    else:
        rep = ad.differentiate(suite.problem(4), ad.EqRhs(), cfg).forward
    assert rep.factorization_ms >= 20.0
