import numpy as np
import pytest
import scipy.linalg

from altdiff import linalg
from altdiff.errors import DimensionMismatch, SingularMatrix


def test_factorize_identity():
    f = linalg.factorize(np.eye(2))
    assert np.allclose(f.solve(np.array([3.0, 4.0])), [3.0, 4.0])


def test_factorize_diagonal():
    f = linalg.factorize(np.diag([2.0, 4.0]))
    assert np.allclose(f.solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_factorize_2x2_cramer():
    # Cramer on [[4,1],[1,3]] x = (1,2): det 11, x = (3*1-1*2)/11, y = (4*2-1*1)/11.
    f = linalg.factorize(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x = f.solve(np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-14)


def test_solve_matrix_rhs():
    f = linalg.factorize(np.eye(3))
    assert np.allclose(f.solve(np.eye(3)), np.eye(3))
    f2 = linalg.factorize(np.diag([2.0, 2.0]))
    assert np.allclose(f2.solve(np.array([[2.0], [4.0]])), [[1.0], [2.0]])
    f3 = linalg.factorize(np.array([[4.0, 1.0], [1.0, 3.0]]))
    assert np.allclose(f3.solve(np.array([[1.0], [2.0]])), [[1.0 / 11.0], [7.0 / 11.0]])


def test_factorize_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        linalg.factorize(np.ones((2, 3)))


def test_solve_rejects_bad_rhs():
    f = linalg.factorize(np.eye(2))
    with pytest.raises(DimensionMismatch):
        f.solve(np.ones(3))


def test_singular_matrix_detected():
    with pytest.raises(SingularMatrix):
        linalg.factorize(np.zeros((2, 2)))
    with pytest.raises(SingularMatrix):
        linalg.factorize(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_factorize_rejects_indefinite_matrix():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])  # indefinite, Cholesky must fail
    with pytest.raises(SingularMatrix, match="Cholesky factorization failed"):
        linalg.factorize(m)


def test_factorize_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.factorize(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("seed", range(10))
def test_solve_residual_well_conditioned(seed):
    # Random symmetric, diagonally dominant matrices are well inside the 1e6
    # condition budget.
    rng = np.random.default_rng(seed)
    n = 30
    a = rng.standard_normal((n, n))
    m = a + a.T + 3 * n * np.eye(n)
    b = rng.standard_normal(n)
    f = linalg.factorize(m)
    x = f.solve(b)
    assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) <= 1e-8


def test_solve_residual_moderately_conditioned():
    # condition number around 1e5, still inside the 1e6 budget
    rng = np.random.default_rng(1)
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = q @ np.diag(np.logspace(0, 5, n)) @ q.T
    b = rng.standard_normal(n)
    x = linalg.factorize(m).solve(b)
    assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) <= 1e-8


def test_factorize_deterministic():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 20))
    m = a + a.T + 40 * np.eye(20)
    b = rng.standard_normal(20)
    x1 = linalg.factorize(m.copy()).solve(b.copy())
    x2 = linalg.factorize(m.copy()).solve(b.copy())
    assert np.array_equal(x1, x2)


def test_factorization_counter_increments():
    before = linalg.factorization_count()
    linalg.factorize(np.eye(3))
    assert linalg.factorization_count() == before + 1


def test_factorization_counter_is_per_thread():
    import threading

    before = linalg.factorization_count()
    worker = threading.Thread(target=lambda: [linalg.factorize(np.eye(3)) for _ in range(5)])
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert linalg.factorization_count() == before


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 30])
def test_inverse_from_cholesky_matches_solve(n):
    f = linalg.factorize(_spd(n))
    inv = f.inverse()
    np.testing.assert_allclose(inv, f.solve(np.eye(n)), rtol=1e-12, atol=0)
    assert np.array_equal(inv, inv.T)
    assert inv.flags.c_contiguous


def test_inverse_mirror_matches_row_copies():
    """The masked mirror writes potri's upper triangle over the lower one
    exactly as copying it row by row does; the lower triangle of
    cho_factor's output holds the input's entries, which must not leak
    through."""
    m = _spd(40, seed=3)
    c, _ = scipy.linalg.cho_factor(m)
    ref, _ = scipy.linalg.lapack.dpotri(c)
    for i in range(1, 40):
        ref[i, :i] = ref[:i, i]
    inv = linalg.Factorization(n=40, factor=c).inverse()
    assert np.array_equal(inv, ref.T)
    assert np.array_equal(inv, inv.T)


def test_factorize_scale_is_max_row_sum():
    # Row sums 2 and 2 + 1e-13, largest entry 1 + 1e-13; the second squared
    # Cholesky pivot, about 1e-13, passes potrf but falls below 1e-12 times
    # the largest row sum.
    with pytest.raises(SingularMatrix, match=r"max row norm 2\.000e\+00"):
        linalg.factorize(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))


def test_check_pivots_threshold_is_relative_to_scale():
    linalg.check_pivots(np.array([3.0, -2.1e-12]), 2.0)
    linalg.check_pivots(np.zeros(0), 1.0)  # an empty matrix has no pivot to fail
    with pytest.raises(SingularMatrix, match=r"pivot magnitude below 2\.000e-12"):
        linalg.check_pivots(np.array([3.0, -2e-12]), 2.0)


def test_inverse_of_empty_matrix():
    inv = linalg.factorize(np.zeros((0, 0))).inverse()
    assert inv.shape == (0, 0)


def test_inverse_makes_no_factorization():
    f = linalg.factorize(_spd(5))
    before = linalg.factorization_count()
    f.inverse()
    assert linalg.factorization_count() == before


def _factor_bytes(f):
    return f.factor.tobytes(order="A")


@pytest.mark.parametrize("lower_differs", [True, False])
@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_factorize_reads_c_and_f_order_alike(n, lower_differs):
    """factorize copies its input column-major, so the same matrix in C and
    in F order gives the same factor and solves, byte for byte, and both are
    the factor scipy's cho_factor gives for the C-ordered array. potrf reads
    the upper triangle only, so a strict lower triangle that differs from it
    changes no byte of the solves."""
    a = _spd(n, seed=n)
    if lower_differs:
        a = a + np.tril(np.random.default_rng(n + 1).standard_normal((n, n)), k=-1)
    fc, ff = linalg.factorize(a), linalg.factorize(np.asfortranarray(a))
    assert _factor_bytes(fc) == _factor_bytes(ff)
    rhs = np.random.default_rng(n).standard_normal((n, 3))
    for b in (rhs, rhs[:, 0], np.asfortranarray(rhs)):
        assert fc.solve(b).tobytes() == ff.solve(b).tobytes()
        assert fc.solve(b).tobytes() == linalg.factorize(np.triu(a)).solve(b).tobytes()
    if n:
        ref, lower = scipy.linalg.cho_factor(a, check_finite=False)
        assert not lower and _factor_bytes(fc) == ref.tobytes(order="A")
        assert fc.factor.flags.f_contiguous


def test_factorize_leaves_its_input_unchanged():
    a = _spd(6)
    for m in (a.copy(), np.asfortranarray(a)):
        linalg.factorize(m)
        assert np.array_equal(m, a)
