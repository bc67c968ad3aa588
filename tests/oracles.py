"""Independent reference implementations that the tests compare against.

None of these run in a command.  The symbolic pullback (`compose_with_affine`)
checks the chain-rule pullback of jets, `quadratic_as_expression` re-parses
a quadratic witness, `levi_form_at` evaluates the Levi form in one direction
at one point, and `phi_inv`, `slice_gradient_check` and
`project_to_boundary` check slices and boundary projection point by point.
"""

from __future__ import annotations

import numpy as np

from levislice import expr as ex
from levislice import levi
from levislice.expr import Add, Ast, Conj, Const, Exp, Mul, Node, Pow, Var
from levislice.hormander import QuadraticWitness
from levislice.levi import Domain
from levislice.linalg import gram_solve_2
from levislice.slicing import Slice, SliceError, phi


class ProjectionError(Exception):
    pass


class OffPlaneError(SliceError):
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


# ---------------------------------------------------------------------------
# Point-by-point Levi form, slices and projection
# ---------------------------------------------------------------------------

def levi_form_at(domain: Domain, M, Z) -> float:
    """Levi form sum_{j,k} (d^2 rho / dz_j dzbar_k)(M) Z_j conj(Z_k)."""
    Z = np.asarray(Z, complex)
    jet = ex.eval_jet(domain.ast, M, holo=False)
    raw = complex(np.einsum("jk,j,k->", jet.mixed, Z, np.conj(Z)))
    if abs(raw.imag) > 1e-10 * (1.0 + abs(raw)):
        raise levi.DomainError(f"Levi form not real: imaginary part {raw.imag:.3e}")
    return raw.real


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
    return bool(np.linalg.norm(grad_h) > domain.tol.grad_floor)


def project_to_boundary(domain: Domain, z0) -> np.ndarray:
    z0 = np.asarray(z0, complex)[None, :]
    pts, ok = levi._newton(domain.ast, domain.tol, z0)
    if not ok[0]:
        raise ProjectionError("boundary projection did not converge")
    return pts[0]
