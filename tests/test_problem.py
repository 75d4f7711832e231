import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altdiff as ad
from altdiff.errors import (
    DimensionMismatch,
    GradientMismatch,
    NotPSD,
    NotSymmetric,
)


def test_validate_minimal_qp():
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0])
    ad.validate(p)


def test_validate_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        ad.ProblemSpec.quadratic(P=[[1.0, 2.0], [0.0, 1.0]], q=[0.0, 0.0])


def test_validate_rejects_wrong_columns():
    with pytest.raises(DimensionMismatch):
        ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=np.ones((1, 3)), b=[1.0])


def test_validate_rejects_indefinite():
    with pytest.raises(NotPSD):
        ad.ProblemSpec.quadratic(P=[[1.0, 0.0], [0.0, -1.0]], q=[0.0, 0.0])


@pytest.mark.parametrize("P, psd", [
    (np.diag([1.0, -1e-7]), False),
    (np.diag([1.0, -1e-9]), True),
    (np.diag([1.0, 0.0]), True),
], ids=["below_tol", "within_tol", "singular"])
def test_validate_psd_boundary(P, psd):
    if psd:
        ad.validate(ad.ProblemSpec.quadratic(P=P, q=np.zeros(2)))
    else:
        with pytest.raises(NotPSD, match="-1.000e-07"):
            ad.ProblemSpec.quadratic(P=P, q=np.zeros(2))


def test_validate_accepts_rank_deficient_gram():
    M = np.random.default_rng(3).standard_normal((200, 400))
    ad.validate(ad.ProblemSpec.quadratic(P=M.T @ M, q=np.zeros(400)))


def test_validate_gradient_probe():
    good = ad.ProblemSpec.general(
        n=2,
        value=lambda x: float(np.sum(x ** 2)),
        gradient=lambda x: 2 * x,
        hessian=lambda x: 2 * np.eye(2),
    )
    ad.validate(good)
    with pytest.raises(GradientMismatch):
        ad.ProblemSpec.general(
            n=2,
            value=lambda x: float(np.sum(x ** 2)),
            gradient=lambda x: 3 * x,  # inconsistent with the value
            hessian=lambda x: 2 * np.eye(2),
        )


def test_validate_rejects_wrong_hessian_shape():
    # A spec built directly is checked by its constructor, as ProblemSpec.quadratic's is.
    with pytest.raises(DimensionMismatch, match=r"P has shape \(3, 3\), expected \(2, 2\)"):
        ad.ProblemSpec(n=2, objective=ad.QuadraticObjective(P=np.eye(3), q=np.zeros(2)),
                       constraints=ad.Polyhedron.build(2))


def test_validate_rejects_wrong_gradient_length():
    with pytest.raises(DimensionMismatch, match="gradient callback returned length 1, expected 2"):
        ad.ProblemSpec.general(
            n=2,
            value=lambda x: float(np.sum(x ** 2)),
            gradient=lambda x: 2 * x[:1],
            hessian=lambda x: 2 * np.eye(2),
        )


def _spec(P=np.eye(2), q=np.zeros(2), C=np.ones((1, 2)), rhs=np.ones(1)):
    return ad.ProblemSpec(n=2, objective=ad.QuadraticObjective(P=np.asarray(P), q=np.asarray(q)),
                          constraints=ad.Polyhedron(C=np.asarray(C), rhs=np.asarray(rhs), n_eq=1))


@pytest.mark.parametrize("build, message", [
    (lambda: _spec(q=[0.0, np.nan]), "vector entries must be finite"),
    (lambda: _spec(P=[[1.0, 0.0], [0.0, np.inf]]), "matrix entries must be finite"),
    (lambda: _spec(P=[[np.nan, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
    (lambda: _spec(C=[[1.0, -np.inf]]), "matrix entries must be finite"),
    (lambda: _spec(rhs=[np.nan]), "vector entries must be finite"),
    (lambda: ad.ProblemSpec(
        n=2, constraints=ad.Polyhedron.build(2),
        objective=ad.GeneralConvexObjective(lambda x: float(x @ x), lambda x: 2 * x,
                                            lambda x: 2 * np.eye(2), lin=np.array([np.nan, 0.0]))),
     "vector entries must be finite"),
], ids=["q_nan", "P_inf", "P_nan", "C_inf", "rhs_nan", "lin_nan"])
def test_spec_built_directly_rejects_non_finite_data(build, message):
    # The check ProblemSpec.quadratic and Polyhedron.build make, made by the constructor.
    with pytest.raises(ValueError, match=message):
        build()


def test_spec_built_directly_reads_list_data_as_arrays():
    # A list q used to end in AttributeError: 'list' object has no attribute 'shape'.
    p = ad.ProblemSpec(n=2, objective=ad.QuadraticObjective(P=np.eye(2), q=[0.0, 1.0]),
                       constraints=ad.Polyhedron.build(2))
    assert isinstance(p.objective.q, np.ndarray) and p.objective.q.dtype == float
    lists = ad.ProblemSpec(n=2, objective=ad.QuadraticObjective(P=[[1, 0], [0, 1]], q=[0, 1]),
                           constraints=ad.Polyhedron(C=[[1.0, 1.0]], rhs=[1.0], n_eq=1))
    arrays = _spec(q=[0.0, 1.0])
    assert np.array_equal(ad.differentiate(lists, ad.EqRhs()).Jx,
                          ad.differentiate(arrays, ad.EqRhs()).Jx)
    with pytest.raises(DimensionMismatch, match=r"q has shape \(3,\), expected \(2,\)"):
        ad.ProblemSpec(n=2, objective=ad.QuadraticObjective(P=np.eye(2), q=[0.0, 1.0, 2.0]),
                       constraints=ad.Polyhedron.build(2))


def test_spec_data_keeps_float_arrays_as_given():
    # No copy, so the reading as arrays adds no pass over P to ProblemSpec.quadratic.
    P, q, C, rhs = np.eye(3), np.zeros(3), np.ones((1, 3)), np.ones(1)
    obj, con = ad.QuadraticObjective(P=P, q=q), ad.Polyhedron(C=C, rhs=rhs, n_eq=1)
    assert obj.P is P and obj.q is q and con.C is C and con.rhs is rhs


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_spec_accepts_finite_data_whose_norm_overflows():
    p = _spec(P=np.diag([1e200, 1e200]))
    assert not np.isfinite(np.linalg.norm(p.objective.P))


def test_theta_dim():
    p = ad.ProblemSpec.quadratic(
        P=np.eye(24), q=np.zeros(24),
        A=np.ones((10, 24)) / 24, b=np.zeros(10),
        G=np.eye(24), h=np.ones(24),
    )
    assert ad.theta_partials(p, ad.LinearCost()).m_theta == 24
    assert ad.theta_partials(p, ad.EqRhs()).m_theta == 10
    assert ad.theta_partials(p, ad.IneqRhs()).m_theta == 24
    assert ad.theta_partials(p, ad.Direction(db=np.zeros(10))).m_theta == 1


def test_perturb_zero_delta_is_identity():
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=np.ones((1, 2)), b=[1.0])
    out = ad.perturb(p, ad.EqRhs(), [0.0])
    assert np.array_equal(out.constraints.b, p.constraints.b)
    assert np.array_equal(out.objective.q, p.objective.q)


def test_perturb_linear_cost_basis_vector():
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.array([1.0, 2.0]))
    out = ad.perturb(p, ad.LinearCost(), [1.0, 0.0])
    assert np.array_equal(out.objective.q, [2.0, 2.0])


def test_perturb_direction_shifts_blocks():
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=np.eye(2), b=[0.0, 0.0])
    d = ad.Direction(db=np.array([1.0, 0.0]))
    out = ad.perturb(p, d, [0.5])
    assert np.array_equal(out.constraints.b, [0.5, 0.0])
    # Blocks in any layout of the right size, as theta_partials reads them.
    out = ad.perturb(p, ad.Direction(dq=[[1.0], [2.0]], db=[[1.0, 0.0]]), [0.5])
    assert np.array_equal(out.objective.q, [0.5, 1.0]) and np.array_equal(out.constraints.b, [0.5, 0.0])
    ad.validate(out)


def test_perturb_wrong_length():
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        ad.perturb(p, ad.LinearCost(), [1.0])


# Dyadic payloads keep every addition exact, so the round trip is bitwise;
# with arbitrary reals the final rounding of (q + d) - d may differ by 1 ulp.
dyadic = st.integers(-2 ** 20, 2 ** 20).map(lambda k: k / 1024.0)


@given(st.lists(dyadic, min_size=2, max_size=2), st.lists(dyadic, min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_perturb_round_trip_bitwise(qvals, delta):
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.array(qvals))
    delta = np.array(delta)
    back = ad.perturb(ad.perturb(p, ad.LinearCost(), delta), ad.LinearCost(), -delta)
    assert np.array_equal(back.objective.q, p.objective.q)


@given(st.lists(dyadic, min_size=1, max_size=1))
@settings(max_examples=30, deadline=None)
def test_perturb_round_trip_eq_rhs(delta):
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=np.ones((1, 2)), b=[1.0])
    delta = np.array(delta)
    back = ad.perturb(ad.perturb(p, ad.EqRhs(), delta), ad.EqRhs(), -delta)
    assert np.array_equal(back.constraints.b, p.constraints.b)


def test_theta_dim_matches_jacobian_columns():
    p = ad.ProblemSpec.quadratic(
        P=np.eye(3), q=np.zeros(3), A=np.ones((1, 3)), b=[1.0],
        G=-np.eye(3), h=np.zeros(3),
    )
    for sel in (ad.LinearCost(), ad.EqRhs(), ad.IneqRhs(), ad.Direction(db=np.ones(1))):
        rep = ad.differentiate(p, sel, ad.SolverConfig(eps=1e-6))
        assert rep.Jx.shape == (3, ad.theta_partials(p, sel).m_theta)


def test_perturb_general_convex_linear_cost():
    pr = ad.ProblemSpec.general(
        n=1,
        value=lambda x: float(np.exp(x[0])),
        gradient=lambda x: np.exp(x),
        hessian=lambda x: np.diag(np.exp(x)),
    )
    shifted = ad.perturb(pr, ad.LinearCost(), [2.0])
    x = np.array([0.3])
    assert shifted.objective.value(x) == pytest.approx(np.exp(0.3) + 0.6)
    assert shifted.objective.gradient(x)[0] == pytest.approx(np.exp(0.3) + 2.0)


def _stacked_problem():
    return ad.ProblemSpec.quadratic(
        P=np.eye(3), q=np.zeros(3), A=[[1.0, 1.0, 1.0]], b=[1.0],
        G=[[1.0, 0.0, 0.0], [0.0, -1.0, 2.0]], h=[2.0, 3.0],
    )


def test_polyhedron_blocks_are_views_of_the_stack():
    con = _stacked_problem().constraints
    assert con.C.shape == (3, 3) and con.n_eq == 1 and con.n_ineq == 2
    assert np.array_equal(con.C, [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 2.0]])
    assert np.array_equal(con.rhs, [1.0, 2.0, 3.0])
    for block, stack in ((con.A, con.C), (con.G, con.C), (con.b, con.rhs), (con.h, con.rhs)):
        assert np.shares_memory(block, stack)
    assert np.array_equal(con.A, [[1.0, 1.0, 1.0]]) and np.array_equal(con.h, [2.0, 3.0])


@pytest.mark.parametrize("blocks, n_eq", [
    (dict(G=-np.eye(2), h=np.zeros(2)), 0),
    (dict(A=np.ones((1, 2)), b=[1.0]), 1),
    ({}, 0),
], ids=["no_A", "no_G", "none"])
def test_polyhedron_empty_blocks_keep_columns(blocks, n_eq):
    con = ad.Polyhedron.build(2, **blocks)
    k = con.C.shape[0]
    assert con.C.shape == (k, 2) and con.rhs.shape == (k,) and con.n_eq == n_eq
    assert con.A.shape == (n_eq, 2) and con.b.shape == (n_eq,)
    assert con.G.shape == (k - n_eq, 2) and con.h.shape == (k - n_eq,)


def test_validate_rejects_inconsistent_stack():
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2))
    bad = [ad.Polyhedron(C=np.ones((2, 2)), rhs=np.ones(3), n_eq=1),
           ad.Polyhedron(C=np.ones((2, 3)), rhs=np.ones(2), n_eq=1),
           ad.Polyhedron(C=np.ones((2, 2)), rhs=np.ones(2), n_eq=3)]
    for con in bad:
        with pytest.raises(DimensionMismatch):
            ad.ProblemSpec(n=2, objective=p.objective, constraints=con)


@pytest.mark.parametrize("sel, delta, C, rhs", [
    (ad.EqRhs(), [0.5], None, [1.5, 2.0, 3.0]),
    (ad.IneqRhs(), [0.5, -1.0], None, [1.0, 2.5, 2.0]),
    (ad.Direction(dA=[[1.0, 0.0, 0.0]], dG=[[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]], dh=[1.0, 0.0]),
     [0.5], [[1.5, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]], [1.0, 2.5, 3.0]),
    (ad.LinearCost(), [0.5, 0.0, -1.0], None, [1.0, 2.0, 3.0]),
    (ad.Direction(dq=[1.0, 0.0, 0.0], dh=[[0.0, 2.0]]), [0.5], None, [1.0, 2.0, 4.0]),
], ids=["EqRhs", "IneqRhs", "matrix_Direction", "LinearCost", "vector_Direction"])
def test_perturb_restacks_constraints(sel, delta, C, rhs):
    p = _stacked_problem()
    con = p.constraints
    C0, rhs0 = con.C.copy(), con.rhs.copy()
    out = ad.perturb(p, sel, delta).constraints
    assert np.array_equal(out.C, C0 if C is None else C)
    assert np.array_equal(out.rhs, rhs)
    assert out.n_eq == 1
    assert np.array_equal(out.b, out.rhs[:1]) and np.shares_memory(out.h, out.rhs)
    assert not np.shares_memory(out.rhs, con.rhs) and not np.shares_memory(out.C, con.C)
    assert np.array_equal(con.C, C0) and np.array_equal(con.rhs, rhs0)


@pytest.mark.parametrize("sel, exc", [
    (ad.Direction(dq=np.ones(4)), DimensionMismatch),
    (ad.Direction(db=np.ones((1, 2))), DimensionMismatch),
    (ad.Direction(dA=np.ones(3)), DimensionMismatch),
    (ad.Direction(dG=np.ones((3, 2))), DimensionMismatch),
    (ad.Direction(dP=np.ones((3, 3, 1))), DimensionMismatch),
    (ad.Direction(dh=[1.0, np.nan]), ValueError),
    (ad.Direction(dG=np.full((2, 3), np.inf)), ValueError),
    # blocks are checked in the order dP, dq, dA, db, dG, dh
    (ad.Direction(dq=[np.inf] * 3, dA=np.ones((2, 3))), ValueError),
    ("b", TypeError),
], ids=["dq_size", "db_size", "dA_ndim", "dG_shape", "dP_ndim", "dh_nan", "dG_inf",
        "order", "unknown"])
def test_theta_partials_checks_direction_blocks(sel, exc):
    """A malformed Direction is refused by theta_partials, and so by every
    reader of it: perturb, differentiate and the finite-difference oracle."""
    p = _stacked_problem()
    for call in (lambda: ad.theta_partials(p, sel), lambda: ad.perturb(p, sel, [0.5]),
                 lambda: ad.differentiate(p, sel), lambda: ad.finite_diff_jacobian(p, sel)):
        with pytest.raises(exc):
            call()


def test_theta_partials_direction_dp_needs_a_quadratic():
    p = ad.ProblemSpec.general(n=2, value=lambda x: float(x @ x), gradient=lambda x: 2 * x,
                               hessian=lambda x: 2 * np.eye(2))
    with pytest.raises(DimensionMismatch, match="quadratic"):
        ad.theta_partials(p, ad.Direction(dP=np.eye(2)))
    pt = ad.theta_partials(p, ad.Direction(dq=[[1.0, 2.0]]))
    assert pt.m_theta == 1 and np.array_equal(pt.dq, [[1.0], [2.0]]) and pt.dP is None
