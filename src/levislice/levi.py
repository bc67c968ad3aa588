"""Boundary geometry engine.

A Domain is a real-valued defining function rho together with a sampling
box; the open set is {rho < 0} and its boundary is {rho = 0}.  This module
projects points onto the boundary, evaluates the Levi form, minimizes it
over complex tangent directions, and classifies the domain at sampled
boundary points.  Every stage works on whole arrays of points: one Newton
loop, one jet evaluation and one stacked eigensolve per ambient classification.

Two-dimensional affine slices z = a + [b c] w are classified without
building a new expression: Newton runs in w with rho evaluated at z and its
gradient pulled back by [b c]^T; a slice's complex tangent space is one
line, so its Levi minimum is the Levi form of rho along [b c] Z, with no
eigensolve.  A batch of slices shares each of those calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import linalg as la


class DomainError(ex.Error):
    pass


class BoundaryNotFoundError(ex.Error):
    pass


class DegenerateGradientError(DomainError):
    """The holomorphic gradient at a point is below GRAD_FLOOR."""


VERDICT_PSEUDOCONVEX = "pseudoconvex-at-samples"
VERDICT_NONPSEUDOCONVEX = "nonpseudoconvex"
VERDICT_DEGENERATE = "degenerate"

# fraction by which the sampling box is inflated when accepting projected points
BOX_INFLATION = 0.1
# degenerate-gradient samples tolerated before the verdict becomes "degenerate"
DEGENERATE_FRACTION = 0.1
# Newton accepts |rho| <= BOUNDARY_EPS (1 + |grad_R rho|), and a point with
# rho < -BOUNDARY_EPS is inside
BOUNDARY_EPS = 1e-9
# a gradient below this norm is degenerate
GRAD_FLOOR = 1e-8
# a Levi minimum below -LEVI_EPS is negative
LEVI_EPS = 1e-7


@dataclass(frozen=True, eq=False)
class Domain:
    """Domains compare and hash by identity, as their box is an array; the
    per-process domain cache shares one object per (rho, box)."""
    ast: ex.Ast
    box: np.ndarray          # (2n, 2) bounds, real coords ordered re1, im1, re2, ...

    @property
    def n(self) -> int:
        """Complex dimension, set by the box (rho need not use every variable)."""
        return self.box.shape[0] // 2


def square_box(n: int, half_width: float) -> np.ndarray:
    """Box [-w, w] in every one of the 2n real coordinates."""
    return np.array([[-half_width, half_width]] * (2 * n), float)


def _checked_box(box, n: int) -> np.ndarray:
    box = np.asarray(box, float)
    if box.shape != (2 * n, 2):
        raise DomainError(f"box must have shape ({2 * n}, 2), got {box.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        width = box[:, 1] - box[:, 0]
    # a positive, finite width needs finite bounds
    if not np.all(np.isfinite(width) & (width > 0)):
        raise DomainError("box bounds must be finite with lower < upper "
                          "and a finite width upper - lower")
    return box


def make_domain(rho, box=None) -> Domain:
    """Parse and validate a domain in C^n.

    The dimension n is the box's when one is given, else the largest
    variable index of rho; rho may leave variables out but not go beyond n.
    """
    ast = ex.parse(rho) if isinstance(rho, str) else rho
    n = np.shape(box)[0] // 2 if box is not None else max(ast.n, 1)
    if n < 2:
        raise DomainError(f"dimension n = {n}: pseudoconvexity analysis needs n >= 2")
    if ast.n > n:
        raise DomainError(f"rho uses z{ast.n} but the domain has dimension {n}")
    box = _checked_box(square_box(n, 1.5) if box is None else box, n)
    if not ex.check_real_valued(ast, box):
        raise DomainError("defining function is not real-valued on the sampling box")
    return Domain(ast, box)


@dataclass(frozen=True)
class LeviProbe:
    point: np.ndarray        # boundary point M
    lambda_min: float        # minimum of the Levi form over unit tangent vectors
    direction: np.ndarray    # unit tangent minimizer Z
    grad_norm: float


@dataclass(frozen=True)
class LeviReport:
    """Probes of one classification as arrays, one row per nondegenerate probe."""
    points: np.ndarray       # (P, n) boundary points
    lambdas: np.ndarray      # (P,) restricted Levi minima
    directions: np.ndarray   # (P, n) unit tangent minimizers
    grad_norms: np.ndarray   # (P,)
    worst: int | None
    verdict: str
    degenerate_count: int
    sample_count: int

    def probe(self, i: int) -> LeviProbe:
        return LeviProbe(point=self.points[i].copy(),
                         lambda_min=float(self.lambdas[i]),
                         direction=self.directions[i].copy(),
                         grad_norm=float(self.grad_norms[i]))

    @property
    def probes(self) -> list[LeviProbe]:
        return [self.probe(i) for i in range(len(self.lambdas))]

    @property
    def worst_probe(self) -> LeviProbe:
        if self.worst is None:
            raise DomainError("report has no probes")
        return self.probe(self.worst)


# ---------------------------------------------------------------------------
# Sampling and projection
# ---------------------------------------------------------------------------

def sample_box_points(box: np.ndarray, count: int, seed) -> np.ndarray:
    """Pseudorandom points in the box, drawn as the realness check draws its
    own (expr.sample_box).  A function of its own, not an alias: the traced
    benchmark counts `levi.box_points` by wrapping this name, and wrapping an
    alias would wrap `expr.sample_box` too and count the realness draws."""
    return ex.sample_box(box, count, seed)


def _in_inflated_box(box: np.ndarray, pts: np.ndarray) -> np.ndarray:
    reals = np.ascontiguousarray(pts).view(float)
    center = (box[:, 0] + box[:, 1]) / 2.0
    half = (box[:, 1] - box[:, 0]) / 2.0 * (1.0 + BOX_INFLATION)
    return np.all(np.abs(reals - center) <= half, axis=1)


def _pulled_back_grad(grad: np.ndarray, frame) -> np.ndarray:
    """Holomorphic gradient in w: frame^T grad row by row."""
    return grad if frame is None else np.einsum("bjk,bj->bk", frame, grad)


@np.errstate(over="ignore", invalid="ignore")
def _newton(ast: ex.Ast, w0: np.ndarray, a=None,
            frame=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-direction Newton toward {rho = 0} on a batch of points, for at
    most 50 iterations.

    The points are w with z = a + frame @ w per row (z = w without a frame).
    The real gradient of rho is 2*conj(grad); the step is the exact Newton
    step for the linearization of rho along that direction.  Only the points
    still moving are evaluated, packed batch axis last with their a (n, B)
    and frame (n, 2, B), so the einsums loop over the batch innermost; all
    step, then the pack shrinks if some point stopped.  A point fails, and
    stops where it is, only when rho, its real gradient norm or the point is
    not finite; as overflow only fails points, numpy need not warn of it.  A
    small gradient is no failure: whether a converged point is degenerate is
    the Levi stage's test of |grad| against GRAD_FLOOR.  Returns the final
    points and a convergence mask.
    """
    w = np.empty_like(w0)
    done = np.zeros(len(w), bool)
    rows = np.arange(len(w))            # row of w of each packed point
    pw = np.ascontiguousarray(w0.T)
    if frame is not None:
        a = np.ascontiguousarray(a.T)
        frame = np.ascontiguousarray(np.moveaxis(frame, 0, -1))
    for _ in range(50):
        if not rows.size:
            break
        z = pw if frame is None else a + np.einsum("jkb,kb->jb", frame, pw)
        vals, grads = ex.eval_value_grad(ast, z.T)
        if frame is not None:
            grads = np.einsum("jkb,jb->kb", frame, grads.T).T
        # grads is row by row, as the norms must sum each row's squares
        gn = la.row_norms(grads)
        rgn = 2.0 * gn
        # rho may stay finite at a non-finite point
        live = (rgn < np.inf) & np.isfinite(vals)
        finite = np.isfinite(pw)
        if not finite.all():
            live &= finite.all(axis=0)
        conv = live & (np.abs(vals) <= BOUNDARY_EPS * (1.0 + rgn))
        step = live > conv
        gn2 = 2.0 * np.maximum(gn ** 2, np.finfo(float).tiny)
        coef = vals / gn2
        over = np.isinf(gn2)
        if over.any():
            coef[over] = vals[over] / gn[over] / (2.0 * gn[over])
        moved = pw - coef * np.conj(grads.T)
        if not step.all():
            stop = np.flatnonzero(~step)
            w[rows[stop]] = pw.take(stop, axis=1).T
            done[rows[conv]] = True
            keep = np.flatnonzero(step)
            rows, moved, a, frame = (None if x is None else x.take(keep, axis=-1)
                                     for x in (rows, moved, a, frame))
        pw = moved
    w[rows] = pw.T
    return w, done


def _boundary_batch(domain: Domain, box: np.ndarray, count: int, seed, a=None,
                    frame=None) -> tuple[np.ndarray, np.ndarray]:
    """Project `count` box samples per slice onto the boundary; drop failures.

    With a (S, n) and frame (S, n, 2), the samples of slice k are points w of
    the slice z = a_k + frame_k w, block k of S*count box points drawn from
    one stream; without a frame there is one block of points z.  Returns the
    points that converged inside the (slightly inflated) box and the slice
    index of each.  Errors if fewer than half of some slice's samples are
    kept, which usually means the box misses the boundary entirely.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    slices = 1 if frame is None else len(a)
    rows = np.repeat(np.arange(slices), count)
    starts = sample_box_points(box, slices * count, seed)
    if frame is not None:
        a, frame = a[rows], frame[rows]
    pts, ok = _newton(domain.ast, starts, a, frame)
    ok &= _in_inflated_box(box, pts)
    for found in np.bincount(rows[ok], minlength=slices):
        if found < 0.5 * count:
            raise BoundaryNotFoundError(
                f"only {found}/{count} samples reached the boundary; "
                "the sampling box likely misses it")
    return pts.compress(ok, axis=0), rows[ok]


def sample_boundary(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Project `count` box samples onto the boundary; drop failures.

    Errors if fewer than half converge inside the (slightly inflated) box.
    """
    return _boundary_batch(domain, domain.box, count, seed)[0]


# ---------------------------------------------------------------------------
# Levi form
# ---------------------------------------------------------------------------

def levi_form(mixed: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Levi form Re(W^T mixed conj(W)) row by row: mixed (B, n, n), W (B, n)."""
    return np.einsum("bj,bj->b", W, np.einsum("bjk,bk->bj", mixed, np.conj(W))).real


def _levi_min(grad: np.ndarray, mixed: np.ndarray):
    """Restricted Levi minima at a batch of jets (grad (B, n), mixed (B, n, n)).

    Returns (ok, lam, Z, gn): ok marks gradients of at least GRAD_FLOOR; for
    those rows lam is the smallest eigenvalue of the Levi form on the complex
    tangent space and Z a unit minimizer.  Degenerate rows pass as norm inf,
    so their basis is e2..en, and come out as nan and zeros.
    """
    gn = la.row_norms(grad)
    ok = gn >= GRAD_FLOOR
    basis = la.tangent_null_basis(grad, np.where(ok, gn, np.inf))
    restricted = np.swapaxes(basis, 1, 2) @ mixed @ np.conj(basis)
    eigvals, vecs = la.hermitian_eig(restricted)
    # with restricted = P^T H conj(P), the Levi form of P v is
    # conj(v)^H restricted conj(v), so the minimizer is P conj(eigvec)
    Z = (basis @ np.conj(vecs[:, :, :1]))[:, :, 0]
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    return ok, np.where(ok, eigvals[:, 0], np.nan), np.where(ok[:, None], Z, 0), gn


def _slice_levi_min(grad: np.ndarray, mixed: np.ndarray, frame: np.ndarray):
    """`_levi_min` on two-dimensional slices, in closed form, from the gradient
    in w (B, 2), the ambient mixed Hessian (B, n, n) and the frames (B, n, 2):
    the tangent line in w is spanned by Z = (g2, -g1)/|g|, phased as
    `linalg.tangent_null_basis` phases a column, and the minimum is the Levi
    form at W = frame Z.  Degenerate rows divide by inf: Z = 0, no warning."""
    gn = la.row_norms(grad)
    ok = gn >= GRAD_FLOOR
    Z = np.stack([grad[:, 1], -grad[:, 0]], axis=1) / np.where(ok, gn, np.inf)[:, None]
    top = np.take_along_axis(Z, np.abs(Z).argmax(axis=1)[:, None], axis=1)
    Z *= np.conj(top) / np.where(ok[:, None], np.abs(top), 1.0)
    W = frame[:, :, 0] * Z[:, :1] + frame[:, :, 1] * Z[:, 1:]
    return ok, np.where(ok, levi_form(mixed, W), np.nan), Z, gn


def _reports(rows, slices: int, points, ok, lam, Z, gn) -> list[LeviReport]:
    """Verdicts of `slices` classifications from their per-point Levi minima,
    row i of the points belonging to classification rows[i] (sorted).

    Degenerate-gradient samples are dropped in one compress and counted;
    they force the "degenerate" verdict once they exceed 10% of a
    classification's samples.  The kept rows of classification k form one
    segment, and its worst probe is the segment's argmin.
    """
    P, L, D, G = (x.compress(ok, axis=0) for x in (points, lam, Z, gn))
    sizes = np.bincount(rows, minlength=slices).tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rows[ok], minlength=slices))))
    reports = []
    for lo, hi, size in zip(bounds[:-1].tolist(), bounds[1:].tolist(), sizes):
        degenerate = size - (hi - lo)
        worst, verdict = None, VERDICT_DEGENERATE
        if hi > lo and degenerate <= DEGENERATE_FRACTION * size:
            worst = int(L[lo:hi].argmin())
            verdict = (VERDICT_NONPSEUDOCONVEX if L[lo + worst] < -LEVI_EPS
                       else VERDICT_PSEUDOCONVEX)
        reports.append(LeviReport(P[lo:hi], L[lo:hi], D[lo:hi], G[lo:hi], worst,
                                  verdict, degenerate, size))
    return reports


def restricted_levi_min(domain: Domain, M) -> LeviProbe:
    M = np.asarray(M, complex)
    jet = ex.eval_jet(domain.ast, M, holo=False)
    ok, lam, Z, gn = _levi_min(jet.dz[None, :], jet.dzzb[None])
    if not ok[0]:
        raise DegenerateGradientError(f"gradient norm {gn[0]:.3e} below floor")
    return LeviProbe(point=M.copy(), lambda_min=float(lam[0]), direction=Z[0],
                     grad_norm=float(gn[0]))


def classify(domain: Domain, count: int = 200, seed: int = 0) -> LeviReport:
    """Probe sampled boundary points and classify the domain."""
    points = sample_boundary(domain, count, seed)
    jets = ex.eval_jet_batch(domain.ast, points, holo=False)
    return _reports(np.zeros(len(points), int), 1, points,
                    *_levi_min(jets.dz, jets.dzzb))[0]


def classify_slices(domain: Domain, a, frame, window: float, count: int,
                    seed) -> list[LeviReport]:
    """Classify the two-dimensional slices z = a_k + frame_k w, all in one batch.

    a is (S, n) and frame (S, n, 2).  The S*count box starts are drawn from
    one stream seeded by `seed` over the w-box [-window, window]^4, and
    slice k reads block k.  So the report of slice k equals what `classify`
    gives on the domain {rho(a_k + frame_k w) < 0} over that box from those
    starts (for one slice, from the same seed): the realness check, the
    fewer-than-half-converged error, the inflated-box filter and the
    degenerate rule all hold per slice.  Points and directions of the
    reports are in w.
    """
    a = np.asarray(a, complex)
    frame = np.asarray(frame, complex)
    if a.ndim != 2 or frame.shape != (*a.shape, 2):
        raise ValueError("need one n x 2 frame per slice base point")
    box = _checked_box(square_box(2, window), 2)
    if not ex.check_real_valued(domain.ast, box, a, frame):
        raise DomainError("defining function is not real-valued on the sampling box")
    w, rows = _boundary_batch(domain, box, count, seed, a, frame)
    F = frame[rows]
    jets = ex.eval_jet_batch(domain.ast, a[rows] + np.einsum("bjk,bk->bj", F, w),
                             holo=False)
    gw = _pulled_back_grad(jets.dz, F)
    return _reports(rows, len(a), w, *_slice_levi_min(gw, jets.dzzb, F))
