import numpy as np
import pytest

import altdiff as ad
from altdiff.errors import DomainError, InfeasibleLayer
from altdiff.forward import penalty_matrix


def brute_force_box_simplex_projection(y, u, grid=4001):
    """Independent oracle for n = 2: scan the segment x = (t, 1-t) clipped to
    the box and return the feasible minimizer of ||x - y||^2."""
    lo = max(0.0, 1.0 - u[1])
    hi = min(u[0], 1.0)
    ts = np.linspace(lo, hi, grid)
    pts = np.stack([ts, 1.0 - ts], axis=1)
    costs = np.sum((pts - np.asarray(y)) ** 2, axis=1)
    return pts[np.argmin(costs)]


def test_sparsemax_symmetric():
    rep = ad.solve_and_diff(ad.SparsemaxLayer(y=np.array([0.5, 0.5]), u=np.array([1.0, 1.0])),
                            ad.EqRhs(), ad.SolverConfig(eps=1e-9))
    assert rep.x == pytest.approx([0.5, 0.5], abs=1e-7)


def test_sparsemax_vertex_matches_oracle():
    y, u = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    oracle = brute_force_box_simplex_projection(y, u)
    rep = ad.solve_and_diff(ad.SparsemaxLayer(y=y, u=u), ad.LinearCost(),
                            ad.SolverConfig(eps=1e-9))
    assert np.abs(rep.x - oracle).max() <= 1e-5
    assert rep.x == pytest.approx([1.0, 0.0], abs=1e-5)


def test_sparsemax_vertex_insensitive_to_cost():
    rep = ad.solve_and_diff(ad.SparsemaxLayer(y=np.array([2.0, 0.0]), u=np.array([1.0, 1.0])),
                            ad.LinearCost(), ad.SolverConfig(eps=1e-9))
    assert np.abs(rep.Jx).max() <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_sparsemax_feasibility(seed):
    rng = np.random.default_rng(seed)
    n = 6
    y = rng.standard_normal(n)
    u = rng.uniform(0.25, 0.8, size=n)
    eps = 1e-8
    rep = ad.solve_and_diff(ad.SparsemaxLayer(y=y, u=u), ad.EqRhs(),
                            ad.SolverConfig(eps=eps))
    x = rep.x
    assert abs(x.sum() - 1.0) <= 10 * eps * 10
    assert np.all(x >= -10 * eps)
    assert np.all(x <= u + 10 * eps)


def test_softmax_symmetric():
    rep = ad.solve_and_diff(ad.SoftmaxLayer(y=np.zeros(2), u=np.ones(2)),
                            ad.EqRhs(), ad.SolverConfig(eps=1e-9))
    assert rep.x == pytest.approx([0.5, 0.5], abs=1e-7)


def test_softmax_loose_box_analytic():
    rep = ad.solve_and_diff(ad.SoftmaxLayer(y=np.array([np.log(2.0), 0.0]),
                                            u=np.array([10.0, 10.0])),
                            ad.EqRhs(), ad.SolverConfig(eps=1e-9))
    assert rep.x == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-5)


def test_softmax_matches_classical():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(5)
    rep = ad.solve_and_diff(ad.SoftmaxLayer(y=y, u=np.full(5, 50.0)),
                            ad.EqRhs(), ad.SolverConfig(eps=1e-9))
    soft = np.exp(y) / np.exp(y).sum()
    assert np.abs(rep.x - soft).max() <= 1e-6


def test_softmax_cost_direction_matches_finite_differences():
    # A Direction(dq=v) shifts a callback objective's linear term by t v;
    # finite differences re-solve those shifted problems.
    rng = np.random.default_rng(4)
    p = ad.build(ad.SoftmaxLayer(y=rng.standard_normal(4), u=np.full(4, 5.0)))
    sel = ad.Direction(dq=rng.standard_normal(4))
    assert np.array_equal(ad.perturb(p, sel, [0.5]).objective.lin, 0.5 * sel.dq)
    rep = ad.differentiate(p, sel, ad.SolverConfig(eps=1e-10))
    fd = ad.finite_diff_jacobian(p, sel)
    assert np.abs(rep.Jx - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


def test_infeasible_box_rejected():
    with pytest.raises(InfeasibleLayer):
        ad.build(ad.SparsemaxLayer(y=np.zeros(3), u=np.full(3, 0.2)))
    with pytest.raises(InfeasibleLayer):
        ad.build(ad.SoftmaxLayer(y=np.zeros(2), u=np.array([1.0, -1.0])))


def test_specialized_factor_scalars():
    # sparsemax n=1, rho=1: (2 + 2) I + 1 = [[5]]
    f = ad.specialized_hessian_factor(ad.SparsemaxLayer(y=np.zeros(1), u=np.ones(1)),
                                      None, rho=1.0)
    assert f.solve(np.array([5.0])) == pytest.approx([1.0])
    # quadratic P=I1, A=[1], no G: [[2]]
    kind = ad.QuadraticLayer(P=np.eye(1), q=np.zeros(1),
                             constraints=ad.Polyhedron.build(1, A=[[1.0]], b=[0.0]))
    f2 = ad.specialized_hessian_factor(kind, None, rho=1.0)
    assert f2.solve(np.array([2.0])) == pytest.approx([1.0])
    # softmax n=1, x=0.5, rho=1: 1/0.5 + 2 + 1 = [[5]]
    f3 = ad.specialized_hessian_factor(ad.SoftmaxLayer(y=np.zeros(1), u=np.ones(1)),
                                       np.array([0.5]), rho=1.0)
    assert f3.solve(np.array([5.0])) == pytest.approx([1.0])


def test_softmax_factor_rejects_nonpositive_x():
    with pytest.raises(DomainError):
        ad.specialized_hessian_factor(ad.SoftmaxLayer(y=np.zeros(2), u=np.ones(2)),
                                      np.array([0.5, 0.0]), rho=1.0)


def test_sparsemax_factor_equals_generic_matrix():
    kind = ad.SparsemaxLayer(y=np.array([0.3, 0.4, 0.1]), u=np.full(3, 0.9))
    prob = ad.build(kind)
    rho = 1.0
    generic = prob.objective.P.T + penalty_matrix(prob, rho)
    closed = (2.0 + 2.0 * rho) * np.eye(3) + rho * np.ones((3, 3))
    assert np.array_equal(generic, closed)
    f = ad.specialized_hessian_factor(kind, None, rho)
    g = ad.factorize(generic)
    rhs = np.eye(3)
    assert np.array_equal(f.solve(rhs), g.solve(rhs))


@pytest.mark.parametrize("kind, sel, eps", [
    (ad.SparsemaxLayer(y=np.array([0.6, 0.1, 0.2]), u=np.full(3, 0.7)), ad.LinearCost(), 1e-8),
    (ad.QuadraticLayer(P=np.eye(1), q=np.zeros(1),
                       constraints=ad.Polyhedron.build(1, G=[[-1.0]], h=[-1.0])),
     ad.IneqRhs(), 1e-9),
    (ad.SoftmaxLayer(y=np.array([0.4, -0.2, 0.1]), u=np.full(3, 5.0)), ad.EqRhs(), 1e-8),
], ids=["sparsemax", "quadratic", "softmax"])
def test_solve_and_diff_matches_generic(kind, sel, eps):
    cfg = ad.SolverConfig(eps=eps)
    special = ad.solve_and_diff(kind, sel, cfg)
    generic = ad.differentiate(ad.build(kind), sel, cfg)
    assert np.array_equal(special.x, generic.x)
    assert np.array_equal(special.Jx, generic.Jx)


def test_sparsemax_jacobian_matches_finite_differences():
    kind = ad.SparsemaxLayer(y=np.array([0.6, 0.1, 0.2]), u=np.full(3, 0.7))
    prob = ad.build(kind)
    rep = ad.solve_and_diff(kind, ad.LinearCost(), ad.SolverConfig(eps=1e-8))
    assert not rep.weakly_active_warning
    fd = ad.finite_diff_jacobian(prob, ad.LinearCost(), ad.SolverConfig())
    err = np.abs(rep.Jx - fd)
    assert ((err <= 1e-4 * np.abs(fd)) | (err <= 1e-8)).all()


def test_build_rejects_unknown_kind():
    with pytest.raises(TypeError):
        ad.build("nope")


def test_softmax_layer_benchmark_instance_solves():
    """The first seed-0 instance of the benchmark's softmax-layer pool. Its
    Newton x-step diverged on the second sweep when the relaxation of the
    slack and dual steps also took the first sweep, against the initial
    slack max(0, h) rather than an iterate."""
    n = 100
    rng = np.random.default_rng(1826701614)
    y = rng.standard_normal(n)
    u = rng.uniform(2.0 / n, 6.0 / n, size=n)
    rep = ad.solve_and_diff(ad.SoftmaxLayer(y=y, u=u), ad.LinearCost(), ad.SolverConfig(eps=1e-3))
    assert rep.forward.converged
    assert np.all(np.isfinite(rep.Jx))
    assert abs(rep.x.sum() - 1.0) < 1e-2 and np.all(rep.x <= u + 1e-2)
