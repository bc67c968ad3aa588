import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levislice import linalg as la
from oracles import DependentVectorsError, gram_solve_2


def random_hermitian(rng, m):
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (x + x.conj().T) / 2


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eig_min_identity():
    w, v = la.hermitian_eig(np.eye(2))
    assert w[0] == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(v[:, 0]) == pytest.approx(1.0, abs=1e-14)


def test_eig_min_diagonal():
    w, v = la.hermitian_eig(np.diag([-1.0, 0.0]))
    assert w[0] == pytest.approx(-1.0, abs=1e-14)
    assert abs(v[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_eig_min_pauli_y():
    a = np.array([[0, 1j], [-1j, 0]])
    w, v = la.hermitian_eig(a)
    assert w[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.norm(a @ v[:, 0] + v[:, 0]) <= 1e-10


def test_eig_symmetrizes_input():
    # the upper triangle alone is not Hermitian; eig sees (A + A^H)/2
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    w, v = la.hermitian_eig(a)
    sym = (a + a.conj().T) / 2
    assert np.allclose(v @ np.diag(w) @ v.conj().T, sym)


def test_eig_dimension_bounds(rng):
    # square matrices of any dimension >= 1; LAPACK has no upper bound
    for bad in (np.ones((2, 3)), np.ones(4), np.zeros((0, 0))):
        with pytest.raises(la.LinalgError):
            la.hermitian_eig(bad)
    a = random_hermitian(rng, 17)
    w, v = la.hermitian_eig(a)
    assert np.max(np.abs(a - v @ np.diag(w) @ v.conj().T)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(1, 8))
def test_eig_reconstruction(seed, m):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, m)
    w, v = la.hermitian_eig(a)
    assert np.max(np.abs(a - v @ np.diag(w) @ v.conj().T)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(m))) <= 1e-10
    assert np.all(np.diff(w) >= 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_eig_2x2_closed_form(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 2)
    w, _ = la.hermitian_eig(a)
    tr = a[0, 0].real + a[1, 1].real
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = np.sqrt(tr * tr - 4 * det)
    assert w[0] == pytest.approx((tr - disc) / 2, abs=1e-12)
    assert w[1] == pytest.approx((tr + disc) / 2, abs=1e-12)


def test_eig_stack_matches_single_matrices(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(6)])
    w, v = la.hermitian_eig(stack)
    assert w.shape == (6, 4) and v.shape == (6, 4, 4)
    for k in range(6):
        wk, vk = la.hermitian_eig(stack[k])
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert np.max(np.abs(stack[k] @ v[k] - v[k] * w[k])) <= 1e-12


# ---------------------------------------------------------------------------
# tangent basis
# ---------------------------------------------------------------------------

def test_tangent_basis_axis_case():
    basis = la.tangent_null_basis(np.array([0.0, 0.5]))
    assert basis.shape == (2, 1)
    assert np.allclose(basis[:, 0], [1, 0])


def test_tangent_basis_e1_c3():
    basis = la.tangent_null_basis(np.array([1.0, 0, 0], complex))
    assert basis.shape == (3, 2)
    assert np.max(np.abs(basis[0, :])) <= 1e-12   # columns span {Z1 = 0}
    assert np.allclose(basis.conj().T @ basis, np.eye(2))


def test_tangent_basis_hand_null_space():
    g = np.array([1.0, 1.0]) / np.sqrt(2)
    basis = la.tangent_null_basis(g)
    v = basis[:, 0]
    assert abs(v[0] + v[1]) <= 1e-12
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_tangent_basis_gradient_floor():
    with pytest.raises(la.DegenerateGradientError):
        la.tangent_null_basis(np.array([1e-10, 0]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_tangent_basis_properties(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis = la.tangent_null_basis(g)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(n - 1))) <= 1e-12
    # bilinear tangency convention: sum_j g_j v_j = 0 (no conjugate on g)
    assert np.max(np.abs(g @ basis)) <= 1e-12 * np.linalg.norm(g)


def test_tangent_basis_stack_matches_rows(rng):
    g = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    g[0] = [0, 2, 0, 0]          # first coordinate zero: the unit-phase fallback
    stack = la.tangent_null_basis(g)
    assert stack.shape == (9, 4, 3)
    for k in range(9):
        assert np.allclose(stack[k], la.tangent_null_basis(g[k]), atol=1e-15)


def test_tangent_basis_stack_gradient_floor():
    with pytest.raises(la.DegenerateGradientError):
        la.tangent_null_basis(np.array([[1.0, 0.0], [1e-10, 0.0]]))


# ---------------------------------------------------------------------------
# Gram solve (the least-squares oracle of tests/oracles.py)
# ---------------------------------------------------------------------------

def test_gram_solve_orthonormal_case():
    b = np.array([1, 0], complex)
    c = np.array([0, 1], complex)
    w1, w2, resid = gram_solve_2(b, c, b)
    assert (w1, w2) == (pytest.approx(1), pytest.approx(0))
    assert resid <= 1e-14


def test_gram_solve_zero_target():
    w1, w2, resid = gram_solve_2(np.array([0, 0.1]), np.array([1, 0]),
                                 np.zeros(2))
    assert abs(w1) <= 1e-14 and abs(w2) <= 1e-14 and resid <= 1e-14


def test_gram_solve_off_span_residual():
    b = np.array([1, 0, 0], complex)
    c = np.array([0, 1, 0], complex)
    w1, w2, resid = gram_solve_2(b, c, np.array([0, 0, 1], complex))
    assert abs(w1) <= 1e-14 and abs(w2) <= 1e-14
    assert resid == pytest.approx(1.0, abs=1e-14)


def test_gram_solve_dependent_vectors():
    with pytest.raises(DependentVectorsError):
        gram_solve_2(np.array([1, 0], complex), np.array([2, 0], complex),
                     np.zeros(2))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 6))
def test_gram_solve_residual_orthogonality(seed, n):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w1, w2, _ = gram_solve_2(b, c, r)
    resid = r - b * w1 - c * w2
    assert abs(np.vdot(b, resid)) <= 1e-10 * (1 + np.linalg.norm(r))
    assert abs(np.vdot(c, resid)) <= 1e-10 * (1 + np.linalg.norm(r))


# ---------------------------------------------------------------------------
# Row norms and the batched dependence test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_row_norms_equal_the_one_row_norm_to_the_bit(rng, n):
    x = (rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n))) \
        * 10.0 ** rng.uniform(-8, 8, (400, 1))
    want = np.array([np.linalg.norm(row) for row in x])
    assert la.row_norms(x).tobytes() == want.tobytes()


def test_dependent_rows_match_gram_solve(rng):
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    c = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    c[1] = (2 - 1j) * b[1]
    c[4] = b[4] * 1e-3 + 1e-12 * c[4]
    mask = la.dependent_rows(b, c)
    for k in range(6):
        try:
            gram_solve_2(b[k], c[k], b[k])
            dependent = False
        except DependentVectorsError:
            dependent = True
        assert mask[k] == dependent
    assert mask.tolist() == [False, True, False, False, True, False]
