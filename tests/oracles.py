"""Independent reference implementations that the tests compare against.

None of these run in a command.  The symbolic pullback (`compose_with_affine`)
checks the chain-rule pullback of jets, `quadratic_as_expression` re-parses
a quadratic witness, `levi_form_at` evaluates the Levi form in one direction
at one point, `phi`, `gram_solve_2`, `phi_inv`, `slice_gradient_check` and
`project_to_boundary` check slices and boundary projection point by point,
and `sweep_slices_one_by_one` builds the forward sweep's slices one at a
time.
"""

from __future__ import annotations

import numpy as np

from levislice import expr as ex
from levislice import levi
from levislice import linalg as la
from levislice.expr import Add, Ast, Conj, Const, Exp, Mul, Node, Pow, Var
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
# Affine composition
# ---------------------------------------------------------------------------

def compose_with_affine(ast: Ast, a, b, c) -> Ast:
    """Substitute z_j <- a_j + b_j*w1 + c_j*w2, returning a 2-variable AST.

    The result is the symbolic pullback rho_h = rho . phi.  The pipeline
    pulls jets back by the chain rule instead; this symbolic route is the
    independent check of that path.
    """
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    c = np.asarray(c, complex)
    if not (len(a) == len(b) == len(c) >= max(ast.n, 1)):
        raise ValueError(f"affine data must have equal length >= {max(ast.n, 1)}")
    table = {}
    for j in range(len(a)):
        table[j + 1] = Add(Const(complex(a[j])),
                           Add(Mul(Const(complex(b[j])), Var(1)),
                               Mul(Const(complex(c[j])), Var(2))))
    root = _substitute(ast.root, table, {})
    return Ast(root, 2)


def _substitute(node: Node, table: dict[int, Node], memo: dict) -> Node:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Var):
        out = table[node.index]
    elif isinstance(node, Const):
        out = node
    elif isinstance(node, Conj):
        out = Conj(_substitute(node.arg, table, memo))
    elif isinstance(node, Exp):
        out = Exp(_substitute(node.arg, table, memo))
    elif isinstance(node, Pow):
        out = Pow(_substitute(node.base, table, memo), node.exponent)
    else:
        out = type(node)(_substitute(node.lhs, table, memo),
                         _substitute(node.rhs, table, memo))
    memo[key] = out
    return out


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
    return bool(np.linalg.norm(grad_h) > levi.GRAD_FLOOR)


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
