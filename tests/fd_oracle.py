"""Independent finite-difference oracle for Wirtinger jets.

Evaluates expressions with its own tiny interpreter of the node table in
extended precision (np.clongdouble), builds the full real gradient/Hessian
by second-order central differences with step h = cbrt(double eps) scaled
by 1 + |coordinate|, and converts to Wirtinger derivatives:

    d/dz_j    = (d/dx_j - i d/dy_j) / 2
    d/dzbar_j = (d/dx_j + i d/dy_j) / 2

Extended precision keeps the subtractive cancellation of the second
differences far below the 1e-6 comparison tolerance.
"""

from __future__ import annotations

import numpy as np

from levislice import expr as E

assert np.finfo(np.longdouble).eps < 1e-18, "extended precision required"

_H0 = float(np.finfo(float).eps) ** (1.0 / 3.0)


_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


def eval_extended(nodes: tuple, zs: np.ndarray) -> np.ndarray:
    """Evaluate a node table on a (B, n) clongdouble batch, independently of
    the library's evaluator: one value per node, in table order."""
    vals = []
    for kind, *args in nodes:
        if kind == "var":
            val = zs[:, args[0] - 1]
        elif kind == "const":
            val = np.full(zs.shape[0], args[0], np.clongdouble)
        elif kind == "conj":
            val = np.conj(vals[args[0]])
        elif kind == "exp":
            val = np.exp(vals[args[0]])
        elif kind == "pow":
            val = vals[args[0]] ** args[1]
        else:
            val = _BINARY[kind](vals[args[0]], vals[args[1]])
        vals.append(val)
    return vals[-1]


def fd_wirtinger_jet(ast: E.Ast, point):
    """(value, grad, mixed, holo) by central differences on the real form."""
    point = np.asarray(point, complex)
    n = len(point)
    base = np.empty(2 * n, np.longdouble)
    base[0::2] = point.real
    base[1::2] = point.imag
    h = _H0 * (1.0 + np.abs(base.astype(float)))

    def make_points(offsets):
        reals = base[None, :] + np.asarray(offsets, np.longdouble)
        return (reals[:, 0::2] + 1j * reals[:, 1::2]).astype(np.clongdouble)

    def f(offsets):
        return eval_extended(ast.nodes, make_points(offsets)).real

    m = 2 * n
    zero = np.zeros(m, np.longdouble)
    f0 = f([zero])[0]

    # gradient and diagonal second differences
    offs = []
    for u in range(m):
        for s in (h[u], -h[u]):
            off = zero.copy()
            off[u] = s
            offs.append(off)
    vals = f(offs)
    grad_r = np.empty(m, np.longdouble)
    hess = np.zeros((m, m), np.longdouble)
    for u in range(m):
        fp, fm = vals[2 * u], vals[2 * u + 1]
        grad_r[u] = (fp - fm) / (2 * h[u])
        hess[u, u] = (fp - 2 * f0 + fm) / (h[u] * h[u])

    # off-diagonal second differences
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    offs = []
    for u, v in pairs:
        for su, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            off = zero.copy()
            off[u] = su * h[u]
            off[v] = sv * h[v]
            offs.append(off)
    vals = f(offs)
    for idx, (u, v) in enumerate(pairs):
        fpp, fpm, fmp, fmm = vals[4 * idx:4 * idx + 4]
        hess[u, v] = hess[v, u] = (fpp - fpm - fmp + fmm) / (4 * h[u] * h[v])

    grad = np.empty(n, complex)
    mixed = np.empty((n, n), complex)
    holo = np.empty((n, n), complex)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        grad[j] = (float(grad_r[xj]) - 1j * float(grad_r[yj])) / 2.0
        for k in range(n):
            xk, yk = 2 * k, 2 * k + 1
            hxx = float(hess[xj, xk])
            hyy = float(hess[yj, yk])
            hxy = float(hess[xj, yk])
            hyx = float(hess[yj, xk])
            mixed[j, k] = (hxx + hyy + 1j * (hxy - hyx)) / 4.0
            holo[j, k] = (hxx - hyy - 1j * (hxy + hyx)) / 4.0
    return float(f0), grad, mixed, holo
