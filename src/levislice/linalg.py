"""Small dense complex linear algebra, batched over a leading axis.

Hermitian eigendecompositions of stacks (LAPACK through numpy.linalg.eigh),
orthonormal bases of complex tangent spaces from gradients and their given
norms via a Householder reflector per row, overflow-safe row norms, and the
dependence test behind affine slices.
"""

from __future__ import annotations

import numpy as np

GRAM_DET_FLOOR = 1e-14


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of (A + A^H)/2 for a stack A (..., m, m): the
    eigenvalues ascending and the eigenvectors as matching columns."""
    a = np.asarray(a, complex)
    return np.linalg.eigh((a + np.conj(np.swapaxes(a, -1, -2))) / 2.0)


def tangent_null_basis(g, norms) -> np.ndarray:
    """Orthonormal bases of {Z : sum_j g_j Z_j = 0}, (B, n, n-1), for a stack
    of gradients g (B, n) with their norms (B,).

    Row k's basis is columns 2..n of the Householder reflector sending
    conj(g_k)/norms[k] to a multiple of e1; a row of norm inf gets e2..en.
    Column phases are normalized so the largest entry of each column is
    real positive.
    """
    n = g.shape[1]
    x = np.conj(g) / norms[:, None]
    x0 = np.abs(x[:, 0])
    v = x.copy()
    v[:, 0] += np.where(x0 > 0, x[:, 0] / np.where(x0 > 0, x0, 1.0), 1.0)
    vv = np.sum(v.real ** 2 + v.imag ** 2, axis=1)
    outer = v[:, :, None] * np.conj(v)[:, None, 1:]
    basis = np.eye(n)[:, 1:] - 2.0 * outer / vv[:, None, None]
    top = np.take_along_axis(basis, np.argmax(np.abs(basis), axis=1)[:, None, :],
                             axis=1)
    return basis * (np.conj(top) / np.abs(top))


@np.errstate(over="ignore", invalid="ignore")
def row_norms(x) -> np.ndarray:
    """Norms of the rows of x (B, k), the one norm rule of Newton, the Levi
    stage and the witness.  A row whose squares overflow is scaled by its
    largest entry, so a finite row gets a finite norm; a non-finite row comes
    out NaN; rows with a finite norm keep np.linalg.norm's bits."""
    norms = np.linalg.norm(x, axis=1)
    over = np.isinf(norms)
    if over.any():
        rows = x[over]
        big = np.abs(rows).max(axis=1)
        norms[over] = big * np.linalg.norm(rows / big[:, None], axis=1)
    return norms


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
