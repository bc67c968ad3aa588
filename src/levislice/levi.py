"""Boundary geometry engine.

A Domain is a real-valued defining function rho together with a sampling
box; the open set is {rho < 0} and its boundary is {rho = 0}.  This module
projects points onto the boundary, evaluates the Levi form, minimizes it
over complex tangent directions, and classifies the domain at sampled
boundary points.  Every stage works on whole arrays of points: one Newton
loop, one jet evaluation and one stacked eigensolve per classification.

Two-dimensional affine slices z = a + [b c] w are classified the same way
without building a new expression: Newton runs in w with rho evaluated at
z and its gradient pulled back by [b c]^T, and the mixed Hessian is pulled
back by congruence.  A batch of slices shares each of those calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import linalg as la


class DomainError(Exception):
    pass


class BoundaryNotFoundError(Exception):
    pass


VERDICT_PSEUDOCONVEX = "pseudoconvex-at-samples"
VERDICT_NONPSEUDOCONVEX = "nonpseudoconvex"
VERDICT_DEGENERATE = "degenerate"

# fraction by which the sampling box is inflated when accepting projected points
BOX_INFLATION = 0.1
# degenerate-gradient samples tolerated before the verdict becomes "degenerate"
DEGENERATE_FRACTION = 0.1
# random points of the sampled realness check, and its seed
REALNESS_TRIALS = 64
REALNESS_SEED = 0


@dataclass(frozen=True)
class Tolerances:
    boundary_eps: float = 1e-9
    grad_floor: float = 1e-8
    levi_eps: float = 1e-7
    realness_eps: float = 1e-9


@dataclass(frozen=True)
class Domain:
    ast: ex.Ast
    box: np.ndarray          # (2n, 2) bounds, real coords ordered re1, im1, re2, ...
    tol: Tolerances = field(default_factory=Tolerances)

    @property
    def n(self) -> int:
        """Complex dimension, set by the box (rho need not use every variable)."""
        return self.box.shape[0] // 2


def square_box(n: int, half_width: float, center=None) -> np.ndarray:
    """Box [c - w, c + w] in every one of the 2n real coordinates."""
    centers = np.zeros(2 * n) if center is None else np.asarray(center, float)
    return np.stack([centers - half_width, centers + half_width], axis=1)


def _checked_box(box, n: int) -> np.ndarray:
    box = np.asarray(box, float)
    if box.shape != (2 * n, 2):
        raise DomainError(f"box must have shape ({2 * n}, 2), got {box.shape}")
    if not (np.all(np.isfinite(box)) and np.all(box[:, 0] < box[:, 1])):
        raise DomainError("box bounds must be finite with lower < upper")
    return box


def make_domain(rho, box=None, tol: Tolerances = Tolerances()) -> Domain:
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
    if not ex.check_real_valued(ast, REALNESS_TRIALS, REALNESS_SEED, box=box,
                                realness_tol=tol.realness_eps):
        raise DomainError("defining function is not real-valued on the sampling box")
    return Domain(ast, box, tol)


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

def sample_box_points(box: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Pseudorandom points in the box from one stream, filled row by row.

    Row i is drawn after rows 0..i-1, so a shorter request returns a prefix
    of a longer one with the same seed.
    """
    rng = np.random.default_rng(seed)
    reals = box[:, 0] + rng.random((count, box.shape[0])) * (box[:, 1] - box[:, 0])
    return reals[:, 0::2] + 1j * reals[:, 1::2]


def _in_inflated_box(box: np.ndarray, pts: np.ndarray) -> np.ndarray:
    reals = np.empty((pts.shape[0], 2 * pts.shape[1]))
    reals[:, 0::2] = pts.real
    reals[:, 1::2] = pts.imag
    center = (box[:, 0] + box[:, 1]) / 2.0
    half = (box[:, 1] - box[:, 0]) / 2.0 * (1.0 + BOX_INFLATION)
    return np.all(np.abs(reals - center) <= half, axis=1)


def _ambient(w: np.ndarray, a, frame) -> np.ndarray:
    """z = a + frame @ w row by row; w itself when there is no frame."""
    return w if frame is None else a + np.einsum("bjk,bk->bj", frame, w)


def _pulled_back_grad(grad: np.ndarray, frame) -> np.ndarray:
    """Holomorphic gradient in w: frame^T grad row by row."""
    return grad if frame is None else np.einsum("bjk,bj->bk", frame, grad)


def _rows(x, rows):
    return None if x is None else x[rows]


def _newton(ast: ex.Ast, tol: Tolerances, w0: np.ndarray, a=None,
            frame=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-direction Newton toward {rho = 0} on a batch of points, for at
    most 50 iterations.

    The points are w with z = a + frame @ w per row (z = w without a frame).
    The real gradient of rho is 2*conj(grad); the step is the exact Newton
    step for the linearization of rho along that direction.  Each point's
    iteration depends on that point alone, so only the points still moving
    are evaluated.  Returns the final points and a convergence mask.
    """
    w = w0.copy()
    done = np.zeros(len(w), bool)
    failed = np.zeros(len(w), bool)
    for _ in range(50):
        rows = np.flatnonzero(~(done | failed))
        if not rows.size:
            break
        fr = _rows(frame, rows)
        vals, grads = ex.eval_value_grad(ast, _ambient(w[rows], _rows(a, rows), fr))
        grads = _pulled_back_grad(grads, fr)
        gn = np.linalg.norm(grads, axis=1)
        rgn = 2.0 * gn
        bad = ~np.all(np.isfinite(w[rows]), axis=1) | ~np.isfinite(vals)
        fail = bad | (rgn < tol.grad_floor)
        conv = ~fail & (np.abs(vals) <= tol.boundary_eps * (1.0 + rgn))
        failed[rows] = fail
        done[rows] = conv
        step = ~(fail | conv)
        gn2 = np.maximum(gn[step] ** 2, np.finfo(float).tiny)
        w[rows[step]] -= (vals[step] / (2.0 * gn2))[:, None] * np.conj(grads[step])
    return w, done


def _project(ast: ex.Ast, tol: Tolerances, w0: np.ndarray, a=None,
             frame=None) -> tuple[np.ndarray, np.ndarray]:
    """Newton on the batch; where evaluation fails, split it so one bad point
    cannot poison the rest.  A point that fails alone keeps its start and is
    marked unconverged."""
    try:
        return _newton(ast, tol, w0, a, frame)
    except ex.EvalError:
        if len(w0) == 1:
            return w0.copy(), np.zeros(1, bool)
    halves = [_project(ast, tol, w0[part], _rows(a, part), _rows(frame, part))
              for part in (slice(None, len(w0) // 2), slice(len(w0) // 2, None))]
    return (np.concatenate([h[0] for h in halves]),
            np.concatenate([h[1] for h in halves]))


def _boundary_batch(domain: Domain, box: np.ndarray, count: int, seeds, a=None,
                    frame=None) -> tuple[np.ndarray, np.ndarray]:
    """Project `count` box samples per seed onto the boundary; drop failures.

    With a (S, n) and frame (S, n, 2), the samples of seed k are points w of
    the slice z = a_k + frame_k w.  Returns the points that converged inside
    the (slightly inflated) box and the seed index of each.  Errors if fewer
    than half of some seed's samples are kept, which usually means the box
    misses the boundary entirely.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rows = np.repeat(np.arange(len(seeds)), count)
    starts = np.concatenate([sample_box_points(box, count, s) for s in seeds])
    if frame is not None:
        a, frame = a[rows], frame[rows]
    pts, ok = _project(domain.ast, domain.tol, starts, a, frame)
    ok &= _in_inflated_box(box, pts)
    for found in np.bincount(rows[ok], minlength=len(seeds)):
        if found < 0.5 * count:
            raise BoundaryNotFoundError(
                f"only {found}/{count} samples reached the boundary; "
                "the sampling box likely misses it")
    return pts[ok], rows[ok]


def sample_boundary(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Project `count` box samples onto the boundary; drop failures.

    Errors if fewer than half converge inside the (slightly inflated) box.
    """
    return _boundary_batch(domain, domain.box, count, [seed])[0]


# ---------------------------------------------------------------------------
# Levi form
# ---------------------------------------------------------------------------

def _levi_min(grad: np.ndarray, mixed: np.ndarray, grad_floor: float):
    """Restricted Levi minima at a batch of jets (grad (B, n), mixed (B, n, n)).

    Returns (ok, lam, Z, gn): ok marks gradients at or above the floor; for
    those rows lam is the smallest eigenvalue of the Levi form on the complex
    tangent space and Z a unit minimizer.  Other rows hold nan and zeros.
    """
    gn = np.linalg.norm(grad, axis=1)
    ok = gn >= grad_floor
    lam = np.full(len(grad), np.nan)
    Z = np.zeros(grad.shape, complex)
    if ok.any():
        basis = la.tangent_null_basis(grad[ok], grad_floor=grad_floor)
        restricted = np.swapaxes(basis, 1, 2) @ mixed[ok] @ np.conj(basis)
        eigvals, vecs = la.hermitian_eig(restricted)
        # with restricted = P^T H conj(P), the Levi form of P v is
        # conj(v)^H restricted conj(v), so the minimizer is P conj(eigvec)
        Zok = (basis @ np.conj(vecs[:, :, :1]))[:, :, 0]
        Z[ok] = Zok / np.linalg.norm(Zok, axis=1)[:, None]
        lam[ok] = eigvals[:, 0]
    return ok, lam, Z, gn


def _report(points, ok, lam, Z, gn, levi_eps: float) -> LeviReport:
    """Verdict of one classification from its per-point Levi minima.

    Degenerate-gradient samples are skipped and counted; they force the
    "degenerate" verdict once they exceed 10% of the samples.
    """
    degenerate = int(np.count_nonzero(~ok))
    kept = (points[ok], lam[ok], Z[ok], gn[ok])
    if not ok.any() or degenerate > DEGENERATE_FRACTION * len(points):
        return LeviReport(*kept, None, VERDICT_DEGENERATE, degenerate, len(points))
    worst = int(np.argmin(kept[1]))
    if kept[1][worst] < -levi_eps:
        verdict = VERDICT_NONPSEUDOCONVEX
    else:
        verdict = VERDICT_PSEUDOCONVEX
    return LeviReport(*kept, worst, verdict, degenerate, len(points))


def restricted_levi_min(domain: Domain, M) -> LeviProbe:
    M = np.asarray(M, complex)
    jet = ex.eval_jet(domain.ast, M, holo=False)
    ok, lam, Z, gn = _levi_min(jet.grad[None, :], jet.mixed[None],
                               domain.tol.grad_floor)
    if not ok[0]:
        raise la.DegenerateGradientError(f"gradient norm {gn[0]:.3e} below floor")
    return LeviProbe(point=M.copy(), lambda_min=float(lam[0]), direction=Z[0],
                     grad_norm=float(gn[0]))


def classify(domain: Domain, count: int = 200, seed: int = 0) -> LeviReport:
    """Probe sampled boundary points and classify the domain."""
    points = sample_boundary(domain, count, seed)
    jets = ex.eval_jet_batch(domain.ast, points, holo=False)
    return _report(points, *_levi_min(jets.grad, jets.mixed, domain.tol.grad_floor),
                   domain.tol.levi_eps)


def classify_slices(domain: Domain, a, frame, window: float, count: int,
                    seeds) -> list[LeviReport]:
    """Classify the two-dimensional slices z = a_k + frame_k w, all in one batch.

    a is (S, n) and frame (S, n, 2).  Slice k is sampled in the w-box
    [-window, window]^4 with seed seeds[k], and its report equals what
    `classify` gives on the domain {rho(a_k + frame_k w) < 0} over that box:
    the realness check, the fewer-than-half-converged error, the inflated-box
    filter and the degenerate rule all hold per slice.  Points and directions
    of the reports are in w.
    """
    a = np.asarray(a, complex)
    frame = np.asarray(frame, complex)
    if len(seeds) != len(a) or frame.shape != (*a.shape, 2):
        raise ValueError("need one seed and one n x 2 frame per slice base point")
    tol = domain.tol
    box = _checked_box(square_box(2, window), 2)
    if not ex.check_real_valued(domain.ast, REALNESS_TRIALS, REALNESS_SEED, box=box,
                                realness_tol=tol.realness_eps, a=a, frame=frame):
        raise DomainError("defining function is not real-valued on the sampling box")
    w, rows = _boundary_batch(domain, box, count, seeds, a, frame)
    F = frame[rows]
    jets = ex.eval_jet_batch(domain.ast, _ambient(w, a[rows], F), holo=False)
    grad = _pulled_back_grad(jets.grad, F)
    mixed = np.einsum("bli,blm,bmj->bij", F, jets.mixed, np.conj(F))
    levi_min = _levi_min(grad, mixed, tol.grad_floor)
    bounds = np.searchsorted(rows, np.arange(len(a) + 1))
    return [_report(w[lo:hi], *(x[lo:hi] for x in levi_min), tol.levi_eps)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
