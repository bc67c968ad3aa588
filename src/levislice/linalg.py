"""Small dense complex linear algebra, batched over a leading axis.

Hermitian eigendecompositions of single matrices or stacks (LAPACK through
numpy.linalg.eigh), orthonormal bases of complex tangent spaces via a
Householder reflector per row, row norms equal to the one-row norm, and
the dependence test behind affine slices.
"""

from __future__ import annotations

import numpy as np

GRAM_DET_FLOOR = 1e-14


class LinalgError(Exception):
    pass


class DegenerateGradientError(LinalgError):
    pass


def _symmetrized(a) -> np.ndarray:
    """(A + A^H)/2 for one m x m matrix or a stack (..., m, m), m >= 1."""
    a = np.asarray(a, complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"expected square matrices, got shape {a.shape}")
    if a.shape[-1] < 1:
        raise LinalgError("expected matrices of dimension >= 1")
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2.0


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or a stack (..., m, m).

    Returns (eigenvalues ascending, eigenvectors as matching columns), with
    the same leading axes as the input.  The input is symmetrized first.
    """
    return np.linalg.eigh(_symmetrized(a))


def tangent_null_basis(g, grad_floor: float, norms=None) -> np.ndarray:
    """Orthonormal bases of {Z : sum_j g_j Z_j = 0}; a gradient of norm below
    grad_floor raises DegenerateGradientError.  `norms`, the rows' norms as
    np.linalg.norm(g, axis=1) gives them, spares taking them again.

    For one gradient g of length n, the basis is the columns of an
    n x (n-1) matrix; for a stack (B, n) the result is (B, n, n-1).  Each is
    built from the Householder reflector sending conj(g)/|g| to a multiple
    of e1, keeping columns 2..n.  Column phases are normalized so the
    largest entry of each column is real positive.
    """
    g = np.asarray(g, complex)
    single = g.ndim == 1
    g = np.atleast_2d(g)
    n = g.shape[1]
    gn = np.linalg.norm(g, axis=1) if norms is None else np.atleast_1d(norms)
    if np.any(gn < grad_floor):
        raise DegenerateGradientError(
            f"|gradient| = {gn.min():.3e} below floor {grad_floor:.1e}")
    if n < 2:
        raise LinalgError("tangent basis requires dimension >= 2")
    x = np.conj(g) / gn[:, None]
    x0 = np.abs(x[:, 0])
    v = x.copy()
    v[:, 0] += np.where(x0 > 0, x[:, 0] / np.where(x0 > 0, x0, 1.0), 1.0)
    vv = np.sum(v.real ** 2 + v.imag ** 2, axis=1)
    outer = v[:, :, None] * np.conj(v)[:, None, 1:]
    basis = np.eye(n)[:, 1:] - 2.0 * outer / vv[:, None, None]
    top = np.take_along_axis(basis, np.argmax(np.abs(basis), axis=1)[:, None, :],
                             axis=1)
    basis = basis * (np.conj(top) / np.abs(top))
    return basis[0] if single else basis


def row_norms(x) -> np.ndarray:
    """Euclidean norms of the rows of a complex (B, n) array.

    Each equals np.linalg.norm of its row alone, bit for bit.  The one-row
    norm sums its squares through BLAS dot; np.linalg.norm(x, axis=1) sums
    them otherwise and can differ in the last bit.  A stack of row-by-column
    matmuls calls the same dot once per row.
    """
    x = np.asarray(x, complex)
    re, im = x.real, x.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None]
                    + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def dependent_rows(b, c) -> np.ndarray:
    """Mask of the rows k of (S, n) arrays where b[k] and c[k] are
    numerically dependent: their Gram determinant
    |b|^2 |c|^2 - |<c, b>|^2 is at most GRAM_DET_FLOOR |b|^2 |c|^2.  The
    test is scale-invariant, so each row is first scaled by the power of two
    that brings its largest real or imaginary part into [0.5, 1): its
    squares cannot overflow or underflow, and a row whose squares did
    neither gets the unscaled test's verdict.  A zero row or a row with a
    non-finite entry is dependent."""
    b, c = (_power_of_two_rows(x) for x in (b, c))
    with np.errstate(invalid="ignore"):
        bb = np.sum(b.real ** 2 + b.imag ** 2, axis=-1)
        cc = np.sum(c.real ** 2 + c.imag ** 2, axis=-1)
        cb = np.sum(np.conj(b) * c, axis=-1)
        return ~(bb * cc - np.abs(cb) ** 2 > GRAM_DET_FLOOR * bb * cc)


def _power_of_two_rows(x) -> np.ndarray:
    """x (complex rows) times 2**-e per row, e the exponent of the row's
    largest real or imaginary part (0 for a zero or non-finite row)."""
    parts = np.ascontiguousarray(x, complex).view(float)
    top = np.abs(parts).max(axis=-1, keepdims=True)
    return np.ldexp(parts, -np.frexp(top)[1]).view(complex)
