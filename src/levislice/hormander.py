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
is halved until the proof holds; if it never does, containment falls back
to random sampling, as the record says.
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
# random points per radius of the sampling fallback: the default, and the
# fewest accepted
CONTAINMENT_SAMPLES = 10000
MIN_CONTAINMENT_SAMPLES = 100
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
    samples: int          # size of the sampling fallback
    seed: int
    halvings: int
    method: str           # "proven" or "sampled"
    hessian_bound: float | None      # delta of the proof; None when sampled
    exception_radius: float | None   # r0 of the proof; None when sampled

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def _eval_offsets(q: QuadraticWitness, d: np.ndarray) -> np.ndarray:
    """q(M + d) at the (B, n) complex offsets d."""
    mixed = q.mixed2 + q.eps * np.eye(len(q.lin))
    quad = np.einsum("bj,bj->b", d, d @ q.holo2.T + np.conj(d) @ mixed.T).real
    return 2.0 * (d @ q.lin).real + quad


def eval_quadratic(q: QuadraticWitness, z) -> np.ndarray | float:
    """q(z) = 2 Re(lin . d) + Re(d^T holo2 d) + Re(d^T mixed2 dbar) + eps|d|^2."""
    z = np.asarray(z, complex)
    out = _eval_offsets(q, np.atleast_2d(z) - q.center)
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


def sample_containment(domain: Domain, q: QuadraticWitness, samples: int,
                       seed: int) -> tuple[int, float]:
    """Containment by sampling: (halvings, radius) of the first radius at which
    no sampled z in the ball around M has q(z) < 0 while rho(z) >= 0.

    A violation halves the radius, at most MAX_HALVINGS times; then
    ContainmentError.  The draws of halving h come from the stream
    (seed, h).
    """
    n = len(q.center)
    for halvings in range(MAX_HALVINGS + 1):
        radius = q.radius / 2.0 ** halvings
        rng = np.random.default_rng((seed, halvings))
        x = rng.standard_normal((samples, 2 * n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        x *= (radius * rng.random(samples) ** (1.0 / (2 * n)))[:, None]
        d = x.view(complex)
        qv = _eval_offsets(q, d)
        rv = ex.eval_raw(domain.ast, d + q.center).real
        if not np.any((qv < 0.0) & (rv >= 0.0)):
            return halvings, radius
    raise ContainmentError(
        f"containment still violated after {MAX_HALVINGS} radius halvings")


def verify_quadratic_witness(domain: Domain, q: QuadraticWitness,
                             samples: int = CONTAINMENT_SAMPLES,
                             seed: int = 0) -> VerificationRecord:
    """Run the five witness checks; shrink the radius until containment holds.

    Containment is proved at the first radius q.radius / 2**h, h <= 20, with
    delta < eps and r0 below the radius (see the module docstring).  If no
    radius proves it, `samples` random points per radius decide it, as in
    sample_containment, which raises ContainmentError when that fails too.
    """
    if samples < MIN_CONTAINMENT_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_CONTAINMENT_SAMPLES}")
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
            continue
        if r0 < radius:
            method = "proven"
            break
    else:
        halvings, radius = sample_containment(domain, q, samples, seed)
        method, delta, r0 = "sampled", None, None
    checks["containment"] = True
    return VerificationRecord(checks=checks, levi_value=levi_value,
                              radius=radius, samples=samples, seed=seed,
                              halvings=halvings, method=method,
                              hessian_bound=delta, exception_radius=r0)
