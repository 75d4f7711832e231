import numpy as np
import pytest

import altdiff as ad
from altdiff.errors import NotConverged, SingularKkt
from conftest import SUITE_RHO, make_suite_qp


def _toy_active():
    return ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[-1.0]], h=[-1.0])


def test_kkt_residual_at_optimum():
    res = ad.kkt_residual(_toy_active(), [1.0], [], [1.0])
    assert np.allclose(res, [0.0, 0.0], atol=1e-14)


def test_kkt_residual_unconstrained():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0])
    assert np.allclose(ad.kkt_residual(p, [0.0], [], []), [0.0])
    assert np.allclose(ad.kkt_residual(p, [1.0], [], []), [1.0])


def test_implicit_diff_active_toy():
    # Linearized system [[1,-1],[-1,0]] [dx; dnu] = -[0; -1] gives dx = -1.
    out = ad.implicit_diff_solve(_toy_active(), [1.0], [], [1.0], ad.IneqRhs())
    assert np.allclose(out, [[-1.0]], atol=1e-12)


def test_implicit_diff_equality_toy():
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=[[1.0, 1.0]], b=[1.0])
    out = ad.implicit_diff_solve(p, [0.5, 0.5], [-0.5], [], ad.EqRhs())
    assert np.allclose(out, [[0.5], [0.5]], atol=1e-12)


def test_implicit_diff_inactive_decouples():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[10.0])
    out = ad.implicit_diff_solve(p, [0.0], [], [0.0], ad.IneqRhs())
    assert np.allclose(out, [[0.0]], atol=1e-14)


def test_implicit_diff_guards_degenerate():
    # active constraint with zero multiplier: strict complementarity fails
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[0.0])
    with pytest.raises(SingularKkt):
        ad.implicit_diff_solve(p, [0.0], [], [0.0], ad.IneqRhs())


def test_implicit_diff_pivot_check_raises_singular_kkt():
    # Strictly complementary (no inequality rows) but A repeats a row, so the
    # KKT matrix is singular; its largest row sum is 3.
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=[[1.0, 1.0], [1.0, 1.0]],
                                 b=[1.0, 1.0])
    with pytest.raises(SingularKkt, match=r"pivot magnitude below 3\.000e-12"):
        ad.implicit_diff_solve(p, [0.5, 0.5], [-0.25, -0.25], [], ad.EqRhs())


def test_implicit_diff_rejects_nonfinite_hessian():
    p = ad.ProblemSpec.general(1, lambda x: 0.5 * float(x @ x), lambda x: x,
                               lambda x: np.full((1, 1), np.nan))
    with pytest.raises(ValueError):
        ad.implicit_diff_solve(p, [0.0], [], [], ad.LinearCost())


def test_implicit_diff_rejects_non_optimal_point():
    with pytest.raises(ValueError):
        ad.implicit_diff_solve(_toy_active(), [2.0], [], [1.0], ad.IneqRhs())


def test_finite_diff_equality_sensitivity():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], A=[[1.0]], b=[1.0])
    fd = ad.finite_diff_jacobian(p, ad.EqRhs(), ad.SolverConfig())
    assert np.allclose(fd, [[1.0]], atol=1e-6)


def test_finite_diff_inactive():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[10.0])
    fd = ad.finite_diff_jacobian(p, ad.IneqRhs(), ad.SolverConfig())
    assert np.allclose(fd, [[0.0]], atol=1e-6)


def test_finite_diff_linear_cost():
    # unconstrained quadratic: x*(q) = -q
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.5])
    fd = ad.finite_diff_jacobian(p, ad.LinearCost(), ad.SolverConfig())
    assert np.allclose(fd, [[-1.0]], atol=1e-6)


def test_finite_diff_propagates_non_convergence():
    p = make_suite_qp(10, 4, 2, 0)
    with pytest.raises(NotConverged):
        ad.finite_diff_jacobian(p, ad.EqRhs(), ad.SolverConfig(max_outer_iters=1))


@pytest.mark.parametrize("seed", [0, 1])
def test_implicit_vs_finite_difference(seed, suite):
    p = suite.problem(seed)
    st = suite.tight_state(seed)
    for sel in (ad.EqRhs(), ad.LinearCost()):
        ref = ad.implicit_diff_solve(p, st.x, st.lam, st.nu, sel)
        fd = ad.finite_diff_jacobian(p, sel, ad.SolverConfig(rho=SUITE_RHO))
        assert np.abs(ref - fd).max() / max(np.abs(ref).max(), 1.0) <= 1e-4


def test_direction_contraction_matches_full(suite):
    p = suite.problem(2)
    st = suite.tight_state(2)
    rng = np.random.default_rng(0)
    d = rng.standard_normal(p.constraints.n_eq)
    full = suite.kkt_jacobian(2, ad.EqRhs())
    contracted = ad.implicit_diff_solve(p, st.x, st.lam, st.nu, ad.Direction(db=d))
    assert np.allclose(contracted.ravel(), full @ d, atol=1e-9)


def test_direction_matrix_parameter(suite):
    # directional derivative along a random dA agrees with finite differences
    p = suite.problem(6)
    st = suite.tight_state(6)
    rng = np.random.default_rng(1)
    dA = rng.standard_normal(p.constraints.A.shape) * 0.1
    sel = ad.Direction(dA=dA)
    ref = ad.implicit_diff_solve(p, st.x, st.lam, st.nu, sel)
    fd = ad.finite_diff_jacobian(p, sel, ad.SolverConfig(rho=SUITE_RHO))
    assert np.abs(ref - fd).max() <= 1e-4 * (1 + np.abs(ref).max())
