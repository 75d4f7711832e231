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
    p = ad.ProblemSpec.quadratic(P=[[1.0, 2.0], [0.0, 1.0]], q=[0.0, 0.0])
    with pytest.raises(NotSymmetric):
        ad.validate(p)


def test_validate_rejects_wrong_columns():
    with pytest.raises(DimensionMismatch):
        ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=np.ones((1, 3)), b=[1.0])


def test_validate_rejects_indefinite():
    p = ad.ProblemSpec.quadratic(P=[[1.0, 0.0], [0.0, -1.0]], q=[0.0, 0.0])
    with pytest.raises(NotPSD):
        ad.validate(p)


@pytest.mark.parametrize("P, psd", [
    (np.diag([1.0, -1e-7]), False),
    (np.diag([1.0, -1e-9]), True),
    (np.diag([1.0, 0.0]), True),
], ids=["below_tol", "within_tol", "singular"])
def test_validate_psd_boundary(P, psd):
    p = ad.ProblemSpec.quadratic(P=P, q=np.zeros(2))
    if psd:
        ad.validate(p)
    else:
        with pytest.raises(NotPSD, match="-1.000e-07"):
            ad.validate(p)


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
    bad = ad.ProblemSpec.general(
        n=2,
        value=lambda x: float(np.sum(x ** 2)),
        gradient=lambda x: 3 * x,  # inconsistent with the value
        hessian=lambda x: 2 * np.eye(2),
    )
    with pytest.raises(GradientMismatch):
        ad.validate(bad)


def test_theta_dim():
    p = ad.ProblemSpec.quadratic(
        P=np.eye(24), q=np.zeros(24),
        A=np.ones((10, 24)) / 24, b=np.zeros(10),
        G=np.eye(24), h=np.ones(24),
    )
    assert ad.theta_dim(p, ad.LinearCost()) == 24
    assert ad.theta_dim(p, ad.EqRhs()) == 10
    assert ad.theta_dim(p, ad.IneqRhs()) == 24
    assert ad.theta_dim(p, ad.Direction(db=np.zeros(10))) == 1


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
        assert rep.Jx.shape == (3, ad.theta_dim(p, sel))


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
