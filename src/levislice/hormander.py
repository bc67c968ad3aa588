"""Local quadratic polynomial witness of nonpseudoconvexity.

At a boundary point M whose restricted Levi minimum is negative, the
second-order Taylor jet of rho plus a strictly positive eps*|z - M|^2 term
yields a real-valued quadratic q with q(M) = 0, nonzero gradient, a complex
tangent direction of negative Levi form, and {q < 0} locally contained in
the domain.  With d = z - M, q(M + d) = 2 Re(lin.d) + Re(d^T holo2 d) +
Re(d^T mixed2 dbar) + eps|d|^2.

Containment is proved, not sampled.  With f = rho - q, Taylor's theorem
with the Lagrange remainder gives, on the ball |d| <= r,

    f(M + d) <= f(M)+ + gamma |d| - (eps - delta) |d|^2,

where gamma bounds 2|grad rho(M) - lin|, rounding error only, and delta
bounds ||X||_2 + ||Y||_2 over the ball for X = dzdz rho(xi) - holo2 and
Y = dzdzbar rho(xi) - mixed2, since |Re(d^T X d)| <= ||X||_2 |d|^2 and
|Re(d^T Y dbar)| <= ||Y||_2 |d|^2.  Each norm is bounded by the larger of
the largest row sum and column sum of entrywise bounds, as ||X||_2 <=
max(||X||_1, ||X||_inf).  When delta < eps, q < 0 implies rho < 0 at every
point of the ball outside the exception ball of radius r0, the positive root
of the right-hand side.  delta comes from one replay of the expression's
tape on discs, the jet walk over midpoint-radius discs
(expr.enclose_jet_batch), on the polydisc around M, which contains the
ball; f(M) and gamma from the same replay at the thin point M.  The radius
is halved until the proof holds; if it never does, or rho cannot be
enclosed even at the thin point M, the witness is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import linalg as la
from .levi import GRAD_FLOOR, LEVI_EPS, Domain, LeviProbe, levi_form


class WitnessPreconditionError(ex.Error):
    pass


class ContainmentError(ex.Error):
    pass


MAX_HALVINGS = 20
# upward rounding of the few float operations that combine the enclosures
# into delta, gamma and r0, each of which errs by a few units of 2**-53
ROUND_UP = 1.0 + 2.0 ** -40


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
    halvings: int
    hessian_bound: float      # delta of the proof
    exception_radius: float   # r0 of the proof

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    @property
    def samples(self) -> int:
        # no point is sampled; the benchmark's tracer reads this (ROADMAP item 5)
        return 0


def eval_quadratic(q: QuadraticWitness, z) -> np.ndarray | float:
    """q(z) = 2 Re(lin . d) + Re(d^T holo2 d) + Re(d^T mixed2 dbar) + eps|d|^2."""
    z = np.asarray(z, complex)
    d = np.atleast_2d(z) - q.center
    mixed = q.mixed2 + q.eps * np.eye(len(q.lin))
    quad = np.einsum("bj,bj->b", d, d @ q.holo2.T + np.conj(d) @ mixed.T).real
    out = 2.0 * (d @ q.lin).real + quad
    return float(out[0]) if z.ndim == 1 else out


def build_quadratic_witness(domain: Domain, probe: LeviProbe) -> QuadraticWitness:
    if probe.lambda_min >= -LEVI_EPS:
        raise WitnessPreconditionError(
            f"probe lambda_min {probe.lambda_min:.3e} is not negative enough")
    M = np.asarray(probe.point, complex)
    jet = ex.eval_jet(domain.ast, M)
    return QuadraticWitness(
        center=M,
        lin=jet.dz.copy(),
        holo2=jet.dzz.copy(),
        mixed2=jet.dzzb.copy(),
        eps=abs(probe.lambda_min) / 2.0,
        radius=0.1 * (1.0 + float(np.linalg.norm(M))),
        direction=np.asarray(probe.direction, complex),
    )


def _norm_bound(dev) -> float:
    """Bound on ||X||_2 over the disc matrix dev: the larger of the largest row
    and column sums of |dev.mid| + dev.rad, which bounds |X| entrywise."""
    bound = np.abs(dev.mid) + dev.rad
    return float(max(np.max(np.sum(bound, axis=0)), np.max(np.sum(bound, axis=1))))


def containment_bounds(domain: Domain, q: QuadraticWitness,
                       radius: float) -> tuple[float, float]:
    """(delta, r0) on the ball of `radius` around M, both rounded up.

    delta bounds the Hessian spread over the ball, r0 the exception radius;
    r0 is inf when delta >= eps.  Raises expr.EvalError when rho cannot be
    enclosed there (a divisor's disc may contain 0, or a bound overflows).
    """
    M = q.center
    # row 0: the polydisc of radius `radius`, which contains the ball;
    # row 1: the thin point M
    jet = ex.enclose_jet_batch(domain.ast, [M, M], [[radius], [0.0]])
    delta = ROUND_UP * (_norm_bound(jet.dzz[0] - q.holo2)
                        + _norm_bound(jet.dzzb[0] - q.mixed2))
    grad = jet.dz[1] - q.lin
    gamma = ROUND_UP * 2.0 * float(np.linalg.norm(np.abs(grad.mid) + grad.rad))
    f0 = ROUND_UP * max(float(jet.val.mid[1].real + jet.val.rad[1]), 0.0)
    curvature = (q.eps - delta) / ROUND_UP
    if not curvature > 0.0:
        return delta, np.inf
    r0 = ROUND_UP * (gamma + np.sqrt(gamma * gamma + 4.0 * curvature * f0)) / (2.0 * curvature)
    return delta, float(r0)


def verify_quadratic_witness(domain: Domain, q: QuadraticWitness) -> VerificationRecord:
    """Run the five witness checks; shrink the radius until containment holds.

    Containment is proved at the first radius q.radius / 2**h, h <= 20, with
    delta < eps and r0 below the radius (see the module docstring).  Raises
    ContainmentError when no radius proves it, and at once when rho cannot
    be enclosed at the thin point M, which every radius's enclosure holds.
    """
    Z = q.direction
    gn = float(la.row_norms(q.lin[None])[0])
    checks = {
        "q_zero_at_center": abs(eval_quadratic(q, q.center)) <= 1e-12,
        "gradient_nonzero": gn >= GRAD_FLOOR,
        # Z is a unit vector, so the test is relative to |lin|
        "direction_tangent": abs(complex(np.sum(q.lin * Z))) <= 1e-10 * gn,
    }
    levi_value = float(levi_form(q.mixed2[None], Z[None])[0] + q.eps * np.vdot(Z, Z).real)
    checks["negative_levi"] = levi_value < 0.0

    for halvings in range(MAX_HALVINGS + 1):
        radius = q.radius / 2.0 ** halvings
        try:
            delta, r0 = containment_bounds(domain, q, radius)
        except ex.EvalError:
            if not halvings:
                _enclose_center(domain, q)
            continue
        if r0 < radius:
            break
    else:
        raise ContainmentError(
            f"containment not proved at any of {MAX_HALVINGS + 1} radii")
    checks["containment"] = True
    return VerificationRecord(checks=checks, levi_value=levi_value, radius=radius,
                              halvings=halvings, hessian_bound=delta,
                              exception_radius=r0)


def _enclose_center(domain: Domain, q: QuadraticWitness):
    """Raise ContainmentError when rho cannot be enclosed at the thin point
    M: then no radius's enclosure can be."""
    try:
        ex.enclose_jet_batch(domain.ast, q.center[None], 0.0)
    except ex.EvalError as err:
        raise ContainmentError(f"rho cannot be enclosed at the witness "
                               f"center: {err}") from err
