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
    # LAPACK has no upper bound on the dimension
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

def basis_of(g):
    """The tangent basis of one gradient, through a one-row stack."""
    g = np.asarray(g, complex)[None]
    return la.tangent_null_basis(g, np.linalg.norm(g, axis=1))[0]


def test_tangent_basis_axis_case():
    basis = basis_of([0.0, 0.5])
    assert basis.shape == (2, 1)
    assert np.allclose(basis[:, 0], [1, 0])


def test_tangent_basis_e1_c3():
    basis = basis_of([1.0, 0, 0])
    assert basis.shape == (3, 2)
    assert np.max(np.abs(basis[0, :])) <= 1e-12   # columns span {Z1 = 0}
    assert np.allclose(basis.conj().T @ basis, np.eye(2))


def test_tangent_basis_hand_null_space():
    basis = basis_of(np.array([1.0, 1.0]) / np.sqrt(2))
    v = basis[:, 0]
    assert abs(v[0] + v[1]) <= 1e-12
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_tangent_basis_of_a_row_of_norm_inf_is_e2_to_en():
    # how _levi_min passes a gradient below the floor, zero or not
    g = np.array([[0, 0, 0], [1e-9, -2e-9j, 3e-9], [1, 2j, -3]], complex)
    norms = np.array([np.inf, np.inf, np.linalg.norm(g[2])])
    basis = la.tangent_null_basis(g, norms)
    assert np.array_equal(basis[0], np.eye(3)[:, 1:])
    assert np.array_equal(basis[1], np.eye(3)[:, 1:])
    assert np.array_equal(basis[2], basis_of(g[2]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_tangent_basis_properties(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis = basis_of(g)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(n - 1))) <= 1e-12
    # bilinear tangency convention: sum_j g_j v_j = 0 (no conjugate on g)
    assert np.max(np.abs(g @ basis)) <= 1e-12 * np.linalg.norm(g)


def test_tangent_basis_stack_matches_rows(rng):
    g = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    g[0] = [0, 2, 0, 0]          # first coordinate zero: the unit-phase fallback
    stack = la.tangent_null_basis(g, np.linalg.norm(g, axis=1))
    assert stack.shape == (9, 4, 3)
    for k in range(9):
        assert np.allclose(stack[k], basis_of(g[k]), atol=1e-15)


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

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_row_norms_equal_the_one_row_norm_to_the_bit(rng, n):
    # the one norm rule of Newton, the Levi stage and the witness: a row with
    # finite squares gets the bits of np.linalg.norm along axis 1, a finite
    # row whose squares overflow a finite norm, a non-finite row NaN, and
    # each row the norm it gets alone
    x = (rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n))) \
        * 10.0 ** rng.uniform(-8, 8, (400, 1))
    x[1] *= 1e160
    x[3, 0] = np.inf
    x[5, -1] = np.nan
    got = la.row_norms(x)
    keep = np.ones(len(x), bool)
    keep[[1, 3, 5]] = False
    assert got[keep].tobytes() == np.linalg.norm(x[keep], axis=1).tobytes()
    assert abs(got[1] / (1e160 * np.linalg.norm(x[1] / 1e160)) - 1.0) < 1e-15
    assert np.isnan(got[3]) and np.isnan(got[5])
    alone = np.array([la.row_norms(row[None])[0] for row in x])
    assert got.tobytes() == alone.tobytes()


@pytest.mark.filterwarnings("error")
def test_row_norms_rescale_only_rows_whose_squares_overflow(rng):
    x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    x[1] *= 1e160
    x[3, 2] = np.inf
    got = la.row_norms(x)
    # the squares of rows 0, 2 and 4 are finite: their norms keep their bits
    keep = [0, 2, 4]
    want = np.array([np.linalg.norm(x[k]) for k in keep])
    assert got[keep].tobytes() == want.tobytes()
    assert abs(got[1] / (1e160 * np.linalg.norm(x[1] / 1e160)) - 1.0) < 1e-15
    assert np.isnan(got[3])


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
def test_dependent_rows_hold_at_huge_and_tiny_scales(rng, scale):
    # the Gram test is scale-invariant: squaring raw entries overflowed at
    # 1e200 and underflowed at 1e-200, and both read as dependent
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    c = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    c[1] = (2 - 1j) * b[1]
    want = la.dependent_rows(b, c)
    assert want.tolist() == [False, True, False, False, False, False]
    assert la.dependent_rows(scale * b, c).tolist() == want.tolist()
    assert la.dependent_rows(scale * b, scale * c).tolist() == want.tolist()
    assert not la.dependent_rows([[scale, 0]], [[0, scale]])[0]


@pytest.mark.filterwarnings("error")
def test_zero_and_non_finite_rows_are_dependent():
    # a naive scaling would divide a zero row by 0 and pass the NaN
    b = np.array([[0, 0], [np.inf, 0], [np.nan, 1], [1, 0], [1e308 + 1e308j, 1]])
    c = np.array([[0, 1], [0, 1], [0, 1], [0, 0], [0, 1]], complex)
    assert la.dependent_rows(b, c).tolist() == [True, True, True, True, False]


def test_dependent_rows_near_the_floor_keep_the_unscaled_verdict(rng):
    # rows of moderate scale whose Gram ratio lies within a few ulps of
    # GRAM_DET_FLOOR: scaling by a power of two must not flip a verdict
    S, n = 4000, 3
    b = rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))
    d = rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))

    def unscaled(b, c):
        bb = np.sum(b.real ** 2 + b.imag ** 2, axis=-1)
        cc = np.sum(c.real ** 2 + c.imag ** 2, axis=-1)
        cb = np.sum(np.conj(b) * c, axis=-1)
        return bb * cc - np.abs(cb) ** 2 <= la.GRAM_DET_FLOOR * bb * cc

    # c = b + t d has Gram ratio t^2 |d|^2 r / |c|^2, r that of (b, d):
    # aim t at the floor, give or take a few percent
    bb = np.sum(np.abs(b) ** 2, axis=-1)
    dd = np.sum(np.abs(d) ** 2, axis=-1)
    r = 1.0 - np.abs(np.sum(np.conj(b) * d, axis=-1)) ** 2 / (bb * dd)
    t = np.sqrt(la.GRAM_DET_FLOOR * bb / (r * dd))[:, None]
    t *= 1.0 + 0.03 * rng.standard_normal((S, 1))
    c = b + t * d
    b = b * 10.0 ** rng.integers(-70, 70, (S, 1))
    c = c * 10.0 ** rng.integers(-70, 70, (S, 1))
    want = unscaled(b, c)
    assert 0.05 < want.mean() < 0.95
    assert la.dependent_rows(b, c).tolist() == want.tolist()
