"""Independent reference implementations that the tests compare against.

None of these run in a command.  The symbolic pullback (`compose_with_affine`)
checks the chain-rule pullback of jets, `pulled_back_mixed` forms the mixed
Hessian in w that the library's slice classification does without,
`DiscWalk` is the jet walk run directly on midpoint-radius discs, the
reference for the enclosures the tape replays,
`quadratic_as_expression` re-parses a quadratic witness,
`real_form_matrix` writes a complex quadratic form as a real symmetric
matrix, the reference for the containment proof's norm bound, `levi_form_at`
evaluates the Levi form in one direction at one point, `phi`,
`gram_solve_2`, `phi_inv`, `slice_gradient_check` and `project_to_boundary`
check slices and boundary projection point by point,
`sweep_slices_one_by_one` builds the forward sweep's slices one at a time,
`newton_reference` is the boundary Newton with a row-major pack, and
`reports_one_by_one` builds per-slice reports in a loop.
"""

from __future__ import annotations

import numpy as np

from levislice import expr as ex
from levislice import levi
from levislice import linalg as la
from levislice.expr import Ast
from levislice.hormander import QuadraticWitness
from levislice.levi import Domain
from levislice.slicing import MAX_BACKTRACK_HALVINGS, Slice, SliceError, make_slice


class ProjectionError(Exception):
    pass


class OffPlaneError(SliceError):
    pass


class DependentVectorsError(Exception):
    pass


# ---------------------------------------------------------------------------
# The direct disc walk
# ---------------------------------------------------------------------------

class DiscWalk(ex._Walk):
    """The jet walk on a _Disc of points, node by node: each constant is a
    thin disc, so arithmetic on constants is enclosed too, and a divisor's
    disc that may hold 0 raises EvalError."""

    def const(self, value: complex):
        return ex._Disc.of(np.complex128(value))


# ---------------------------------------------------------------------------
# Affine composition
# ---------------------------------------------------------------------------

def compose_with_affine(ast: Ast, a, b, c) -> Ast:
    """Substitute z_j <- a_j + b_j*w1 + c_j*w2, returning a 2-variable AST.

    The result is the symbolic pullback rho_h = rho . phi.  The pipeline
    pulls jets back by the chain rule instead; this symbolic route is the
    independent check of that path.  The node table is rewritten in order:
    each ("var", j) node becomes the nodes of the affine form, and every
    operand is renumbered to the rewritten node.
    """
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    c = np.asarray(c, complex)
    if not (len(a) == len(b) == len(c) >= max(ast.n, 1)):
        raise ValueError(f"affine data must have equal length >= {max(ast.n, 1)}")
    nodes: list[tuple] = []

    def emit(node: tuple) -> int:
        nodes.append(node)
        return len(nodes) - 1

    new = []  # the rewritten index of each node of ast
    for kind, *args in ast.nodes:
        if kind == "var":
            j = args[0] - 1
            const_a = emit(("const", complex(a[j])))
            b_w1 = emit(("mul", emit(("const", complex(b[j]))), emit(("var", 1))))
            c_w2 = emit(("mul", emit(("const", complex(c[j]))), emit(("var", 2))))
            new.append(emit(("add", const_a, emit(("add", b_w1, c_w2)))))
        elif kind == "const":
            new.append(emit((kind, *args)))
        elif kind == "pow":
            new.append(emit((kind, new[args[0]], args[1])))
        else:
            new.append(emit((kind, *(new[k] for k in args))))
    return Ast(tuple(nodes), 2)


def pulled_back_mixed(mixed, frame) -> np.ndarray:
    """Mixed Hessian in w by the chain rule: frame^T mixed conj(frame) row by
    row, for mixed (B, n, n) and frame (B, n, 2)."""
    return np.einsum("bli,blm,bmj->bij", frame, mixed, np.conj(frame))


# ---------------------------------------------------------------------------
# Rendering q in the expression grammar
# ---------------------------------------------------------------------------

def _fmt_const(c: complex) -> str:
    re_s = repr(float(c.real))
    if c.imag == 0.0:
        return f"({re_s})"
    sign = "+" if c.imag >= 0 else "-"
    return f"({re_s}{sign}{repr(abs(float(c.imag)))}*i)"


def quadratic_as_expression(q: QuadraticWitness) -> str:
    """Render q as a parseable expression string in z1..zn."""
    n = len(q.center)
    dvar = [f"(z{j + 1}-{_fmt_const(q.center[j])})" for j in range(n)]
    terms = []
    lin_parts = [f"{_fmt_const(q.lin[j])}*{dvar[j]}"
                 for j in range(n) if q.lin[j] != 0]
    if lin_parts:
        terms.append(f"2*re({'+'.join(lin_parts)})")
    holo_parts = [f"{_fmt_const(q.holo2[j, k])}*{dvar[j]}*{dvar[k]}"
                  for j in range(n) for k in range(n) if q.holo2[j, k] != 0]
    if holo_parts:
        terms.append(f"re({'+'.join(holo_parts)})")
    mixed_parts = [f"{_fmt_const(q.mixed2[j, k])}*{dvar[j]}*conj({dvar[k]})"
                   for j in range(n) for k in range(n) if q.mixed2[j, k] != 0]
    if mixed_parts:
        terms.append(f"re({'+'.join(mixed_parts)})")
    abs_parts = "+".join(f"abs2({dvar[j]})" for j in range(n))
    terms.append(f"{repr(float(q.eps))}*({abs_parts})")
    return "+".join(terms)


def real_form_matrix(X, conjugate: bool) -> np.ndarray:
    """The symmetric real 2n x 2n matrix S with x^T S x = Re(d^T X d), or
    Re(d^T X conj(d)) when `conjugate`, for the real offsets x = d.view(float).

    S is read off the form by polarization on pairs of real unit vectors,
    S_ab = (f(e_a + e_b) - f(e_a) - f(e_b)) / 2, with no formula for its
    blocks; the mean with its transpose makes S symmetric to the bit.
    """
    X = np.asarray(X, complex)
    m = 2 * len(X)
    units = np.eye(m).view(complex)          # row a: the d of e_a

    def form(d):
        right = np.conj(d) if conjugate else d
        return np.einsum("bj,jk,bk->b", d, X, right).real

    pairs = (units[:, None, :] + units[None, :, :]).reshape(m * m, -1)
    diag = form(units)
    S = (form(pairs).reshape(m, m) - diag[:, None] - diag[None, :]) / 2.0
    return (S + S.T) / 2.0


# ---------------------------------------------------------------------------
# Point-by-point Levi form, slices and projection
# ---------------------------------------------------------------------------

def levi_form_at(domain: Domain, M, Z) -> float:
    """Levi form sum_{j,k} (d^2 rho / dz_j dzbar_k)(M) Z_j conj(Z_k)."""
    Z = np.asarray(Z, complex)
    jet = ex.eval_jet(domain.ast, M, holo=False)
    raw = complex(np.einsum("jk,j,k->", jet.dzzb, Z, np.conj(Z)))
    if abs(raw.imag) > 1e-10 * (1.0 + abs(raw)):
        raise levi.DomainError(f"Levi form not real: imaginary part {raw.imag:.3e}")
    return raw.real


def phi(s: Slice, w) -> np.ndarray:
    """The point a + b w1 + c w2 of the slice."""
    w = np.asarray(w, complex)
    return s.a + s.b * w[0] + s.c * w[1]


def gram_solve_2(b, c, r) -> tuple[complex, complex, float]:
    """Least-squares coefficients of r on span{b, c}: minimize |r - b*w1 - c*w2|.

    Returns (w1, w2, residual_norm).  Raises DependentVectorsError when the
    Gram determinant signals numerically dependent b, c.
    """
    b = np.asarray(b, complex)
    c = np.asarray(c, complex)
    r = np.asarray(r, complex)
    bb = np.vdot(b, b).real
    cc = np.vdot(c, c).real
    cb = np.vdot(b, c)        # <c, b>
    det = bb * cc - abs(cb) ** 2
    if det <= la.GRAM_DET_FLOOR * bb * cc:
        raise DependentVectorsError(
            f"b, c numerically dependent (Gram determinant {det:.3e})")
    rb = np.vdot(b, r)        # <r, b>
    rc = np.vdot(c, r)
    w1 = (rb * cc - cb * rc) / det
    w2 = (bb * rc - np.conj(cb) * rb) / det
    resid = r - b * w1 - c * w2
    return complex(w1), complex(w2), float(np.linalg.norm(resid))


def phi_inv(s: Slice, z) -> np.ndarray:
    z = np.asarray(z, complex)
    w1, w2, resid = gram_solve_2(s.b, s.c, z - s.a)
    if resid > 1e-8 * (1.0 + np.linalg.norm(z)):
        raise OffPlaneError(f"point is off the slice plane (residual {resid:.3e})")
    return np.array([w1, w2])


def slice_gradient_check(s: Slice, domain: Domain, mu) -> bool:
    """True iff rho_h has a nonvanishing gradient at mu.

    This holds exactly when b or c is not complex tangent to the boundary at
    phi(mu), which is what makes rho_h a local defining function there.
    """
    _, grads = ex.eval_value_grad(domain.ast, phi(s, mu)[None, :])
    grad_h = s.frame.T @ grads[0]
    return bool(np.linalg.norm(grad_h) >= levi.GRAD_FLOOR)


def project_to_boundary(domain: Domain, z0) -> np.ndarray:
    z0 = np.asarray(z0, complex)[None, :]
    pts, ok = levi._newton(domain.ast, z0)
    if not ok[0]:
        raise ProjectionError("boundary projection did not converge")
    return pts[0]


def sweep_slices_one_by_one(domain: Domain, points, slices: int, seed: int):
    """The slices of `pipeline.sweep_slices`, built slice by slice: each
    base point by its own backtracking along the normal, with one-row norms,
    then each frame by four draws of n from the one stream, and each pair
    that `make_slice` rejects drawn again in slice order."""
    _, grads = ex.eval_value_grad(domain.ast, points)
    bases = []
    for k in range(slices):
        M = points[k % len(points)]
        g = grads[k % len(points)]
        nu = np.conj(g) * (1.0 / np.linalg.norm(g))
        t = 0.1 * (1.0 + np.linalg.norm(M))
        for _ in range(MAX_BACKTRACK_HALVINGS + 1):
            a = M - t * nu
            if ex.eval_raw(domain.ast, a[None])[0].real < -levi.BOUNDARY_EPS:
                break
            t /= 2.0
        else:
            raise SliceError(f"slice {k}: no interior point")
        bases.append(a)
    rng = np.random.default_rng((seed, 7919))
    frames = [None] * slices
    pending = range(slices)
    while pending:
        pairs = {}
        for k in pending:
            re_b, im_b, re_c, im_c = (rng.standard_normal(domain.n) for _ in range(4))
            b, c = re_b + 1j * im_b, re_c + 1j * im_c
            pairs[k] = (b * (1.0 / np.linalg.norm(b)), c * (1.0 / np.linalg.norm(c)))
        pending = []
        for k, (b, c) in pairs.items():
            try:
                frames[k] = make_slice(bases[k], b, c).frame
            except SliceError:
                pending.append(k)
    return np.array(bases), np.array(frames)


# ---------------------------------------------------------------------------
# Boundary Newton and per-slice reports
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def newton_reference(ast: Ast, w0: np.ndarray, a=None,
                     frame=None) -> tuple[np.ndarray, np.ndarray]:
    """`levi._newton` as it was with row-major einsums, each iteration's
    tests on separate masks and a seven-array repack before the step: the
    same rule, which the packed batch-last Newton must match bit for bit."""
    w = np.empty_like(w0)
    done = np.zeros(len(w), bool)
    rows = np.arange(len(w))            # row of w of each packed point
    pw = w0.copy()
    for _ in range(50):
        if not rows.size:
            break
        z = pw if frame is None else a + np.einsum("bjk,bk->bj", frame, pw)
        vals, grads = ex.eval_value_grad(ast, z)
        grads = levi._pulled_back_grad(grads, frame)
        gn = np.linalg.norm(grads, axis=1)
        over = np.isinf(gn)
        if over.any():
            g = grads[over]
            big = np.abs(g).max(axis=1)
            gn[over] = big * np.linalg.norm(g / big[:, None], axis=1)
        rgn = 2.0 * gn
        fail = ~np.isfinite(rgn) | ~np.isfinite(vals)
        finite = np.isfinite(pw)
        if not finite.all():
            fail |= ~finite.all(axis=1)
        conv = ~fail & (np.abs(vals) <= levi.BOUNDARY_EPS * (1.0 + rgn))
        step = ~(fail | conv)
        if not step.all():
            stop = np.flatnonzero(~step)
            w[rows[stop]] = pw.take(stop, axis=0)
            done[rows[conv]] = True
            keep = np.flatnonzero(step)
            rows, pw, vals, grads, gn, a, frame = (
                None if x is None else x.take(keep, axis=0)
                for x in (rows, pw, vals, grads, gn, a, frame))
        gn2 = 2.0 * np.maximum(gn ** 2, np.finfo(float).tiny)
        coef = vals / gn2
        over = np.isinf(gn2)
        if over.any():
            coef[over] = vals[over] / gn[over] / (2.0 * gn[over])
        pw -= coef[:, None] * np.conj(grads)
    w[rows] = pw
    return w, done


def reports_one_by_one(rows, slices: int, points, ok, lam, Z, gn) -> list:
    """The reports of `levi._reports`, one slice at a time: each slice's
    degenerate rows dropped and counted, and its worst probe the first
    argmin of its kept lambdas."""
    reports = []
    for k in range(slices):
        mine = rows == k
        p, o, l, z, g = (x[mine] for x in (points, ok, lam, Z, gn))
        degenerate = int(np.count_nonzero(~o))
        kept = (p[o], l[o], z[o], g[o])
        if not o.any() or degenerate > levi.DEGENERATE_FRACTION * len(p):
            reports.append(levi.LeviReport(*kept, None, levi.VERDICT_DEGENERATE,
                                           degenerate, len(p)))
            continue
        worst = int(np.argmin(kept[1]))
        verdict = (levi.VERDICT_NONPSEUDOCONVEX if kept[1][worst] < -levi.LEVI_EPS
                   else levi.VERDICT_PSEUDOCONVEX)
        reports.append(levi.LeviReport(*kept, worst, verdict, degenerate, len(p)))
    return reports
