"""Affine two-dimensional slices and the witness-slice construction.

A slice is the plane h(a, b, c) = {a + b*w1 + c*w2} with b, c linearly
independent, parametrised by the map phi(w).  Jets of rho pull
back to jets of rho_h by congruence with the n x 2 matrix [b c].  Any
boundary probe with a negative restricted Levi minimum yields a witness
certificate: a slice through an interior point p0 and the boundary point M,
spanned by the complex normal and the bad tangent direction, whose induced
two-dimensional domain inherits the same negative Levi value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import linalg as la
from .hormander import QuadraticWitness, build_quadratic_witness
from .levi import Domain, LeviProbe


class SliceError(Exception):
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
    def n(self) -> int:
        return len(self.a)

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
    try:
        # independence check via the Gram determinant
        la.gram_solve_2(b, c, np.zeros_like(a))
    except la.DependentVectorsError as err:
        raise SliceError(str(err)) from err
    return Slice(a, b, c)


def phi(s: Slice, w) -> np.ndarray:
    w = np.asarray(w, complex)
    return s.a + s.b * w[0] + s.c * w[1]


def pullback_jet(s: Slice, jet: ex.WirtingerJet) -> ex.WirtingerJet:
    """Chain rule for rho_h = rho . phi: congruence with the frame [b c]."""
    B = s.frame
    if jet.grad.shape[0] != s.n:
        raise SliceError("jet dimension does not match slice")
    grad_h = B.T @ jet.grad
    mixed_h = np.einsum("lm,li,mj->ij", jet.mixed, B, np.conj(B))
    holo_h = np.einsum("lm,li,mj->ij", jet.holo, B, B)
    return ex.WirtingerJet(jet.value, grad_h, mixed_h, holo_h)


@dataclass(frozen=True)
class WitnessCertificate:
    M: np.ndarray
    Z: np.ndarray
    lam: float                 # negative restricted Levi minimum at M
    p0: np.ndarray             # interior point on the complex normal line
    t: float                   # accepted normal step
    slice: Slice               # a = p0, b = M - p0, c = Z
    mu: np.ndarray             # phi^{-1}(M) = (1, 0)
    zeta: np.ndarray           # tangent image of Z = (0, 1)
    lambda_slice: float        # Levi form of rho_h at mu in direction zeta
    quadratic: QuadraticWitness


def witness_slice(domain: Domain, probe: LeviProbe,
                  quadratic: QuadraticWitness | None = None) -> WitnessCertificate:
    """Construct the two-dimensional witness slice for a bad boundary probe.

    The slice passes through an interior point p0 found by backtracking
    along the inward complex normal, with b = M - p0 and c = Z.  All
    certificate invariants are checked before returning.  The quadratic
    witness at the probe is built here unless the caller already has it;
    its blocks are the jet of rho at M that the checks read.
    """
    tol = domain.tol
    if probe.lambda_min >= -tol.levi_eps:
        raise WitnessError(
            f"probe lambda_min {probe.lambda_min:.3e} does not witness "
            "nonpseudoconvexity")
    M = np.asarray(probe.point, complex)
    Z = np.asarray(probe.direction, complex)
    if quadratic is None:
        quadratic = build_quadratic_witness(domain, probe)
    # rho's value at M is about 0 and goes unused
    jet = ex.WirtingerJet(0.0, quadratic.lin, quadratic.mixed2, quadratic.holo2)
    gn = float(np.linalg.norm(jet.grad))
    if gn < tol.grad_floor:
        raise la.DegenerateGradientError(f"gradient norm {gn:.3e} below floor")
    # unit outward real normal; tangent vectors are Hermitian-orthogonal to it
    nu = np.conj(jet.grad) / gn

    t = 0.1 * (1.0 + float(np.linalg.norm(M)))
    p0 = None
    for _ in range(MAX_BACKTRACK_HALVINGS + 1):
        candidate = M - t * nu
        value = float(ex.eval_raw(domain.ast, candidate[None, :])[0].real)
        if value < -tol.boundary_eps:
            p0 = candidate
            break
        t /= 2.0
    if p0 is None:
        raise WitnessError("no interior point found along the complex normal")

    s = make_slice(p0, M - p0, Z)
    mu = np.array([1.0 + 0j, 0.0 + 0j])
    zeta = np.array([0.0 + 0j, 1.0 + 0j])

    if np.linalg.norm(phi(s, mu) - M) > 1e-12 * (1.0 + np.linalg.norm(M)):
        raise WitnessError("phi(mu) != M")
    jet_h = pullback_jet(s, jet)
    tangency = abs(jet_h.grad[1])
    if tangency > 1e-10:
        raise WitnessError(f"zeta not tangent to the slice boundary "
                           f"(|d rho_h/d w2| = {tangency:.3e})")
    lambda_slice = float(jet_h.mixed[1, 1].real)
    if abs(lambda_slice - probe.lambda_min) > 1e-9 * (1.0 + abs(probe.lambda_min)):
        raise WitnessError(
            f"Levi transport failed: lambda_slice {lambda_slice!r} vs "
            f"lambda {probe.lambda_min!r}")

    return WitnessCertificate(M=M, Z=Z, lam=probe.lambda_min, p0=p0, t=t,
                              slice=s, mu=mu, zeta=zeta,
                              lambda_slice=lambda_slice, quadratic=quadratic)
