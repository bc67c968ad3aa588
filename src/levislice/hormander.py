"""Local quadratic polynomial witness of nonpseudoconvexity.

At a boundary point M whose restricted Levi minimum is negative, the
second-order Taylor jet of rho plus a strictly positive eps*|z - M|^2 term
yields a real-valued quadratic q with q(M) = 0, nonzero gradient, a complex
tangent direction of negative Levi form, and {q < 0} locally contained in
the domain.  Containment is verified statistically by sampling; the record
keeps the final radius for auditability.  q is evaluated in real
coordinates: d = z - M as x = (Re d1, Im d1, Re d2, ...) = d.view(float), the
interleaved layout of complex128, gives q(M + d) = g.x + x^T A x, A symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .levi import Domain, LeviProbe


class WitnessPreconditionError(Exception):
    pass


class ContainmentError(Exception):
    pass


MAX_HALVINGS = 20


@dataclass(frozen=True)
class QuadraticWitness:
    center: np.ndarray    # M
    lin: np.ndarray       # holomorphic gradient of q at M
    holo2: np.ndarray     # symmetric (dz dz) block
    mixed2: np.ndarray    # Hermitian (dz dzbar) block, before the eps bump
    eps: float
    radius: float         # validity neighborhood radius
    direction: np.ndarray # unit tangent Z with negative Levi form


@dataclass(frozen=True)
class VerificationRecord:
    checks: dict
    levi_value: float     # Levi form of q in direction Z (= lambda + eps)
    radius: float
    samples: int
    seed: int
    halvings: int

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def _eval_offsets(q: QuadraticWitness, x: np.ndarray) -> np.ndarray:
    """q(M + d) at the (B, 2n) real offsets x = d.view(float); d = P x with
    P = I (x) [1, i], so g and A are real parts of P-congruences of q's blocks."""
    n = len(q.center)
    P = np.kron(np.eye(n), [1.0, 1j])
    g = 2.0 * (q.lin @ P).real
    A = (P.T @ q.holo2 @ P).real + (P.T @ q.mixed2 @ P.conj()).real
    A += q.eps * np.eye(2 * n)
    return x @ g + np.einsum("bk,bk->b", x @ A, x)


def eval_quadratic(q: QuadraticWitness, z) -> np.ndarray | float:
    """q(z) = 2 Re(lin . d) + Re(d^T holo2 d) + Re(d^T mixed2 dbar) + eps|d|^2."""
    z = np.asarray(z, complex)
    out = _eval_offsets(q, (np.atleast_2d(z) - q.center).view(float))
    return float(out[0]) if z.ndim == 1 else out


def build_quadratic_witness(domain: Domain, probe: LeviProbe) -> QuadraticWitness:
    if probe.lambda_min >= -domain.tol.levi_eps:
        raise WitnessPreconditionError(
            f"probe lambda_min {probe.lambda_min:.3e} is not negative enough")
    M = np.asarray(probe.point, complex)
    jet = ex.eval_jet(domain.ast, M)
    return QuadraticWitness(
        center=M,
        lin=jet.grad.copy(),
        holo2=jet.holo.copy(),
        mixed2=jet.mixed.copy(),
        eps=abs(probe.lambda_min) / 2.0,
        radius=0.1 * (1.0 + float(np.linalg.norm(M))),
        direction=np.asarray(probe.direction, complex),
    )


def levi_form_of_quadratic(q: QuadraticWitness, W) -> float:
    """Levi form of q (constant in z): W^T (mixed2) conj(W) + eps |W|^2."""
    W = np.asarray(W, complex)
    base = np.einsum("jk,j,k->", q.mixed2, W, np.conj(W)).real
    return float(base + q.eps * np.vdot(W, W).real)


def verify_quadratic_witness(domain: Domain, q: QuadraticWitness,
                             samples: int = 10000, seed: int = 0) -> VerificationRecord:
    """Run the five witness checks; shrink the radius until containment holds.

    Containment means: no sampled z in the ball around M has q(z) < 0 while
    rho(z) >= 0.  A violation halves the radius (at most 20 times).
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    Z = q.direction
    checks = {
        "q_zero_at_center": abs(eval_quadratic(q, q.center)) <= 1e-12,
        "gradient_nonzero": float(np.linalg.norm(q.lin)) > domain.tol.grad_floor,
        "direction_tangent": abs(complex(np.sum(q.lin * Z))) <= 1e-10,
    }
    levi_value = levi_form_of_quadratic(q, Z)
    checks["negative_levi"] = levi_value < 0.0

    n = len(q.center)
    for halvings in range(MAX_HALVINGS + 1):
        radius = q.radius / 2.0 ** halvings
        rng = np.random.default_rng((seed, halvings))
        x = rng.standard_normal((samples, 2 * n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        x *= (radius * rng.random(samples) ** (1.0 / (2 * n)))[:, None]
        qv = _eval_offsets(q, x)
        rv = ex.eval_raw(domain.ast, x.view(complex) + q.center).real
        if not np.any((qv < 0.0) & (rv >= 0.0)):
            checks["containment"] = True
            break
    else:
        raise ContainmentError(
            f"containment still violated after {MAX_HALVINGS} radius halvings")
    return VerificationRecord(checks=checks, levi_value=levi_value,
                              radius=radius, samples=samples, seed=seed,
                              halvings=halvings)


# ---------------------------------------------------------------------------
# Rendering q in the expression grammar (used for cross-checks)
# ---------------------------------------------------------------------------

def quadratic_as_expression(q: QuadraticWitness) -> str:
    """Render q as a parseable expression string in z1..zn."""
    n = len(q.center)
    dvar = [f"(z{j + 1}-{ex._fmt_const(q.center[j])})" for j in range(n)]
    terms = []
    lin_parts = [f"{ex._fmt_const(q.lin[j])}*{dvar[j]}"
                 for j in range(n) if q.lin[j] != 0]
    if lin_parts:
        terms.append(f"2*re({'+'.join(lin_parts)})")
    holo_parts = [f"{ex._fmt_const(q.holo2[j, k])}*{dvar[j]}*{dvar[k]}"
                  for j in range(n) for k in range(n) if q.holo2[j, k] != 0]
    if holo_parts:
        terms.append(f"re({'+'.join(holo_parts)})")
    mixed_parts = [f"{ex._fmt_const(q.mixed2[j, k])}*{dvar[j]}*conj({dvar[k]})"
                   for j in range(n) for k in range(n) if q.mixed2[j, k] != 0]
    if mixed_parts:
        terms.append(f"re({'+'.join(mixed_parts)})")
    abs_parts = "+".join(f"abs2({dvar[j]})" for j in range(n))
    terms.append(f"{repr(float(q.eps))}*({abs_parts})")
    return "+".join(terms)
