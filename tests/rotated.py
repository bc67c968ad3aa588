"""Seeded rotated ellipsoids and saddles in C^n with known verdicts.

ellipsoid: sum_j c_j |(Uz)_j|^2 - 1, strongly pseudoconvex;
saddle:    Re((Uz)_n) - sum_{j<n} c_j |(Uz)_j|^2, nonpseudoconvex;
with U a Haar-random unitary and c_j log-uniform on [1/4, 4].
"""

import numpy as np

from levislice import levi


def _const(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"({float(z.real)!r}{sign}{float(abs(z.imag))!r}*i)"


def rotated_domain(kind: str, n: int, seed: int) -> levi.Domain:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    c = [float(x) for x in np.exp(rng.uniform(np.log(0.25), np.log(4.0), n))]
    w = ["+".join(f"{_const(u[j, k])}*z{k + 1}" for k in range(n)) for j in range(n)]
    if kind == "ellipsoid":
        rho = "+".join(f"{c[j]!r}*abs2({w[j]})" for j in range(n)) + "-1"
        half = 1.25 / min(c) ** 0.5
    else:
        rho = f"re({w[n - 1]})" + "".join(f"-{c[j]!r}*abs2({w[j]})" for j in range(n - 1))
        half = 1.0 / max(1.0, *c[:n - 1]) ** 0.5
    return levi.make_domain(rho, box=levi.square_box(n, half))
