"""Affine two-dimensional slices, the inward step and the witness slice.

A slice is the plane h(a, b, c) = {a + b*w1 + c*w2} with b, c linearly
independent.  The gradient of rho_h is that of rho pulled back by the n x 2
frame [b c] (`levi._pulled_back_grad`), and its Levi form along v is that of
rho along [b c] v (`levi.levi_form`).  Slices pass through points just
inside the boundary, which `inward_step` finds for the witness slice and the
forward sweep alike.  Any boundary probe with a negative restricted Levi
minimum yields a witness certificate: a slice through an interior point p0
and the boundary point M, spanned by the complex normal and the bad tangent
direction, whose induced two-dimensional domain inherits the same negative
Levi value.  Its frame is orthonormal, b the unit normal (M - p0)/|M - p0|
and c = Z, so w measures lengths as z does and M sits at w = (|M - p0|, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import levi
from . import linalg as la
from .hormander import QuadraticWitness, build_quadratic_witness
from .levi import Domain, LeviProbe


class SliceError(ex.Error):
    pass


class WitnessError(SliceError):
    pass


MAX_BACKTRACK_HALVINGS = 40


@dataclass(frozen=True)
class Slice:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def frame(self) -> np.ndarray:
        """The n x 2 matrix [b c]."""
        return np.stack([self.b, self.c], axis=1)


def make_slice(a, b, c) -> Slice:
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    c = np.asarray(c, complex)
    if not (len(a) == len(b) == len(c)):
        raise SliceError("a, b, c must have equal length")
    if len(a) < 2:
        raise SliceError("slices require ambient dimension >= 2")
    if la.dependent_rows(b[None], c[None])[0]:
        raise SliceError("b, c numerically dependent")
    return Slice(a, b, c)


def inward_step(domain: Domain, M, grad) -> tuple[np.ndarray, np.ndarray]:
    """Points just inside the domain, one below each boundary point.

    Row k of M (B, n) steps along the inward complex normal
    -conj(grad_k)/|grad_k|, from t = 0.1 (1 + |M_k|), and halves t until
    rho < -levi.BOUNDARY_EPS there, at most MAX_BACKTRACK_HALVINGS times.
    Returns the points (B, n) and their steps t (B,).
    """
    gn = la.row_norms(grad)
    if np.any(gn < levi.GRAD_FLOOR):
        raise levi.DegenerateGradientError(f"gradient norm {gn.min():.3e} below floor")
    nu = np.conj(grad) * (1.0 / gn)[:, None]
    t = 0.1 * (1.0 + la.row_norms(M))
    points = np.empty_like(M)
    todo = np.arange(len(M))
    for _ in range(MAX_BACKTRACK_HALVINGS + 1):
        candidates = M[todo] - t[todo, None] * nu[todo]
        inside = ex.eval_raw(domain.ast, candidates).real < -levi.BOUNDARY_EPS
        points[todo[inside]] = candidates[inside]
        todo = todo[~inside]
        if not todo.size:
            return points, t
        t[todo] /= 2.0
    raise SliceError(f"{todo.size} of {len(M)} boundary points have no "
                     "interior point along the complex normal")


@dataclass(frozen=True)
class WitnessCertificate:
    M: np.ndarray
    Z: np.ndarray
    lam: float                 # negative restricted Levi minimum at M
    p0: np.ndarray             # interior point on the complex normal line
    t: float                   # accepted normal step
    slice: Slice               # a = p0, b = (M - p0)/|M - p0|, c = Z
    mu: np.ndarray             # the w of M: a + frame mu = M, mu = (|M - p0|, 0)
    zeta: np.ndarray           # tangent image of Z = (0, 1)
    lambda_slice: float        # Levi form of rho_h at mu in direction zeta
    quadratic: QuadraticWitness


def witness_slice(domain: Domain, probe: LeviProbe,
                  quadratic: QuadraticWitness | None = None) -> WitnessCertificate:
    """Construct the two-dimensional witness slice for a bad boundary probe.

    The slice passes through the interior point p0 that `inward_step` finds
    below M, with b = (M - p0)/|M - p0| and c = Z: unit vectors, orthogonal
    as Z is a complex tangent vector.  All certificate invariants are checked
    before returning.  The quadratic witness at the probe is built here
    unless the caller already has it; its blocks are the jet of rho at M
    that the checks read.
    """
    if probe.lambda_min >= -levi.LEVI_EPS:
        raise WitnessError(
            f"probe lambda_min {probe.lambda_min:.3e} does not witness "
            "nonpseudoconvexity")
    M = np.asarray(probe.point, complex)
    Z = np.asarray(probe.direction, complex)
    if quadratic is None:
        quadratic = build_quadratic_witness(domain, probe)
    grad = quadratic.lin[None]
    p0, t = inward_step(domain, M[None], grad)

    step = M - p0[0]
    length = float(la.row_norms(step[None])[0])
    s = make_slice(p0[0], step / length, Z)
    mu = np.array([length + 0j, 0.0 + 0j])
    zeta = np.array([0.0 + 0j, 1.0 + 0j])

    if np.linalg.norm(s.a + s.frame @ mu - M) > 1e-12 * (1.0 + np.linalg.norm(M)):
        raise WitnessError("a + frame mu != M")
    # c = Z is a unit vector, so the test is relative to |grad|
    tangency = abs(levi._pulled_back_grad(grad, s.frame[None])[0, 1])
    if tangency > 1e-10 * la.row_norms(grad)[0]:
        raise WitnessError(f"zeta not tangent to the slice boundary "
                           f"(|d rho_h/d w2| = {tangency:.3e})")
    # the Levi form of rho_h at mu along zeta is that of rho at M along c = Z
    lambda_slice = float(levi.levi_form(quadratic.mixed2[None], s.c[None])[0])
    if abs(lambda_slice - probe.lambda_min) > 1e-9 * (1.0 + abs(probe.lambda_min)):
        raise WitnessError(
            f"Levi transport failed: lambda_slice {lambda_slice!r} vs "
            f"lambda {probe.lambda_min!r}")

    return WitnessCertificate(M=M, Z=Z, lam=probe.lambda_min, p0=p0[0], t=float(t[0]),
                              slice=s, mu=mu, zeta=zeta,
                              lambda_slice=lambda_slice, quadratic=quadratic)
