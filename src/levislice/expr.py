"""Defining-function expressions: parsing, printing, and Wirtinger jets.

Expressions are real-valued functions of n complex variables written in a
small grammar (z1, z2, ..., i, conj, re, im, abs2, exp, + - * / ^).  They
are parsed into an immutable AST over eight core node kinds; re/im/abs2 are
rewritten in terms of conj at parse time.

Differentiation is forward-mode over the doubled variable set (z, zbar)
treated as formally independent, so conj is exact: it swaps the holomorphic
and antiholomorphic components of a jet.  All evaluation is batched over
points; scalar entry points wrap a batch of one.

The jet walk propagates only nonzero derivative structure: a missing
derivative block is an exact zero, a constant is a scalar with no blocks,
and a variable carries only its one-hot d/dz.  Terms with a missing factor
are never formed.  The public entry points fill the missing blocks in at
the root, so they always return full-shape arrays.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import Union

import numpy as np


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvalError(ExprError):
    """Numerical failure while evaluating an expression."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Conj:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Sub:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Mul:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Div:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int  # nonnegative integer


@dataclass(frozen=True)
class Exp:
    arg: "Node"


Node = Union[Var, Const, Conj, Add, Sub, Mul, Div, Pow, Exp]


@dataclass(frozen=True)
class Ast:
    root: Node
    n: int  # number of complex variables (largest index that occurs)


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

_NUMBER = _re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = _re.compile(r"[A-Za-z][A-Za-z0-9]*")
_FUNCS = ("conj", "re", "im", "abs2", "exp")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT.match(text, pos)
        if m:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message: str):
        raise ExprSyntaxError(message, self.peek()[2])

    def accept_op(self, *ops: str) -> str | None:
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.advance()
            return value
        return None

    def expect_op(self, op: str):
        if not self.accept_op(op):
            self.fail(f"expected {op!r}")

    def expr(self) -> Node:
        node = self.term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return node
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)

    def term(self) -> Node:
        node = self.factor()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return node
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)

    def factor(self) -> Node:
        if self.accept_op("-"):
            return Mul(Const(-1.0 + 0j), self.factor())
        node = self.atom()
        if self.accept_op("^"):
            kind, value, _ = self.peek()
            if kind != "num" or not value.isdigit():
                self.fail("expected a nonnegative integer exponent")
            self.advance()
            node = Pow(node, int(value))
        return node

    def atom(self) -> Node:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(complex(float(value)))
        if kind == "ident":
            self.advance()
            if value == "i":
                return Const(1j)
            if value[0] == "z" and value[1:].isdigit():
                index = int(value[1:])
                if index == 0:
                    raise ExprSyntaxError("variable index must be >= 1", pos)
                return Var(index)
            if value in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _apply_func(value, arg)
            raise ExprSyntaxError(f"unknown function or name {value!r}", pos)
        if self.accept_op("("):
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("expected expression")


def _apply_func(name: str, arg: Node) -> Node:
    if name == "conj":
        return Conj(arg)
    if name == "exp":
        return Exp(arg)
    if name == "re":
        return Mul(Const(0.5 + 0j), Add(arg, Conj(arg)))
    if name == "im":
        return Mul(Const(-0.5j), Sub(arg, Conj(arg)))
    # abs2(u) = u * conj(u); the subtree is shared on purpose
    return Mul(arg, Conj(arg))


def _children(node: Node) -> tuple:
    if isinstance(node, (Var, Const)):
        return ()
    if isinstance(node, (Conj, Exp)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return (node.lhs, node.rhs)


def _dimension(node: Node) -> int:
    if isinstance(node, Var):
        return node.index
    return max(map(_dimension, _children(node)), default=0)


def parse(text: str) -> Ast:
    parser = _Parser(text)
    root = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos)
    return Ast(root, _dimension(root))


# ---------------------------------------------------------------------------
# Printing (parse . to_string is the identity up to evaluation)
# ---------------------------------------------------------------------------

def _fmt_const(c: complex) -> str:
    re_s = repr(float(c.real))
    if c.imag == 0.0:
        return f"({re_s})"
    sign = "+" if c.imag >= 0 else "-"
    return f"({re_s}{sign}{repr(abs(float(c.imag)))}*i)"


def _node_str(node: Node) -> str:
    if isinstance(node, Var):
        return f"z{node.index}"
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Conj):
        return f"conj({_node_str(node.arg)})"
    if isinstance(node, Exp):
        return f"exp({_node_str(node.arg)})"
    if isinstance(node, Pow):
        return f"{_node_str(node.base)}^{node.exponent}"
    op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
    return f"({_node_str(node.lhs)}{op}{_node_str(node.rhs)})"


def to_string(ast: Ast) -> str:
    return _node_str(ast.root)


# ---------------------------------------------------------------------------
# Jet propagation
# ---------------------------------------------------------------------------

@dataclass
class _Jet:
    """Truncated Taylor data in the 2n formal variables (z, zbar).

    A block that is None is an exact zero, and a constant is a 0-d val with
    no blocks.  Present arrays broadcast against a leading batch axis of
    length B: val is 0-d or (B,), dz/dzb are (1 or B, n) and dzz/dzzb/dzbzb
    are (1 or B, n, n); a leading 1 means the block is the same at every
    point.  Which blocks can exist at all is fixed by the walk: none above
    its order, and no dzz/dzbzb unless it asks for the holomorphic block.
    """
    val: np.ndarray
    dz: np.ndarray | None = None
    dzb: np.ndarray | None = None
    dzz: np.ndarray | None = None
    dzzb: np.ndarray | None = None
    dzbzb: np.ndarray | None = None


def _sum(*terms):
    """The sum of the present terms, left to right; None if there are none."""
    out = None
    for term in terms:
        if term is not None:
            out = term if out is None else out + term
    return out


def _scale(block, val):
    """block times a per-point value, broadcast over the derivative axes."""
    if block is None:
        return None
    if np.ndim(val):
        val = val.reshape(val.shape + (1,) * (block.ndim - 1))
    return block * val


def _outer(x, y):
    if x is None or y is None:
        return None
    return x[:, :, None] * y[:, None, :]


def _neg(x):
    return None if x is None else -x


def _plus(x, y, sign: float):
    """x + sign*y for sign = +-1, with None as zero."""
    if y is None:
        return x
    if x is None:
        return y if sign > 0 else -y
    return x + y if sign > 0 else x - y


class _Walk:
    """One evaluation of an AST's jets on a batch of points.

    Shared subtrees (abs2 shares its argument) are evaluated once.  A
    node's jet is kept only until its last consumer has read it, so the
    live set stays near the current path instead of the whole tree.  The
    operations skip structural zeros: a term with a missing factor is not
    formed, and second-order terms are formed only at order 2 (the
    holomorphic ones only with holo).
    """

    def __init__(self, root: Node, points: np.ndarray, order: int, holo: bool):
        self.points = points
        self.order = order
        self.holo = holo
        self.memo: dict[int, _Jet] = {}
        self.uses: dict[int, int] = {}
        stack = [root]
        while stack:
            for child in _children(stack.pop()):
                key = id(child)
                if key not in self.uses:
                    stack.append(child)
                self.uses[key] = self.uses.get(key, 0) + 1

    def take(self, node: Node) -> _Jet:
        """The jet of a child node, released after its last consumer."""
        key = id(node)
        jet = self.memo.pop(key, None)
        if jet is None:
            jet = self.eval(node)
        self.uses[key] -= 1
        if self.uses[key]:
            self.memo[key] = jet
        return jet

    def eval(self, node: Node) -> _Jet:
        if isinstance(node, Var):
            # the column as a view; d/dz is one-hot and the same at every point
            jet = _Jet(self.points[:, node.index - 1])
            if self.order >= 1:
                jet.dz = np.zeros((1, self.points.shape[1]), self.points.dtype)
                jet.dz[0, node.index - 1] = 1.0
            return jet
        if isinstance(node, Const):
            return _Jet(self.points.dtype.type(node.value))
        if isinstance(node, Conj):
            return self.conj(self.take(node.arg))
        if isinstance(node, Exp):
            return self.exp(self.take(node.arg))
        if isinstance(node, Pow):
            base = self.take(node.base)
            if node.exponent == 0:
                return _Jet(self.points.dtype.type(1.0))
            return self.pow(base, node.exponent)
        lhs = self.take(node.lhs)
        rhs = self.take(node.rhs)
        if isinstance(node, Add):
            return self.add(lhs, rhs, 1.0)
        if isinstance(node, Sub):
            return self.add(lhs, rhs, -1.0)
        if isinstance(node, Mul):
            return self.mul(lhs, rhs)
        if isinstance(node, Div):
            return self.mul(lhs, self.inv(rhs))
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    def add(self, u: _Jet, v: _Jet, sign: float) -> _Jet:
        return _Jet(u.val + sign * v.val,
                    dz=_plus(u.dz, v.dz, sign), dzb=_plus(u.dzb, v.dzb, sign),
                    dzz=_plus(u.dzz, v.dzz, sign), dzzb=_plus(u.dzzb, v.dzzb, sign),
                    dzbzb=_plus(u.dzbzb, v.dzbzb, sign))

    def mul(self, u: _Jet, v: _Jet) -> _Jet:
        out = _Jet(u.val * v.val)
        if self.order >= 1:
            out.dz = _sum(_scale(u.dz, v.val), _scale(v.dz, u.val))
            out.dzb = _sum(_scale(u.dzb, v.val), _scale(v.dzb, u.val))
        if self.order >= 2:
            out.dzzb = _sum(_scale(u.dzzb, v.val), _scale(v.dzzb, u.val),
                            _outer(u.dz, v.dzb), _outer(v.dz, u.dzb))
            if self.holo:
                out.dzz = _sum(_scale(u.dzz, v.val), _scale(v.dzz, u.val),
                               _outer(u.dz, v.dz), _outer(v.dz, u.dz))
                out.dzbzb = _sum(_scale(u.dzbzb, v.val), _scale(v.dzbzb, u.val),
                                 _outer(u.dzb, v.dzb), _outer(v.dzb, u.dzb))
        return out

    def inv(self, u: _Jet) -> _Jet:
        if np.any(u.val == 0):
            raise EvalError("division by zero")
        w = 1.0 / u.val
        out = _Jet(w)
        if self.order >= 1:
            w2 = w * w
            out.dz = _scale(_neg(u.dz), w2)
            out.dzb = _scale(_neg(u.dzb), w2)
        if self.order >= 2:
            w3 = w * w * w

            def second(hess, x, y):
                cross = _outer(x, y)
                return _sum(_scale(_neg(hess), w2),
                            None if cross is None else _scale(2.0 * cross, w3))
            out.dzzb = second(u.dzzb, u.dz, u.dzb)
            if self.holo:
                out.dzz = second(u.dzz, u.dz, u.dz)
                out.dzbzb = second(u.dzbzb, u.dzb, u.dzb)
        return out

    def conj(self, u: _Jet) -> _Jet:
        def c(x):
            return None if x is None else np.conj(x)
        return _Jet(np.conj(u.val), dz=c(u.dzb), dzb=c(u.dz), dzz=c(u.dzbzb),
                    dzzb=None if u.dzzb is None else c(np.swapaxes(u.dzzb, 1, 2)),
                    dzbzb=c(u.dzz))

    def exp(self, u: _Jet) -> _Jet:
        e = np.exp(u.val)
        out = _Jet(e)
        if self.order >= 1:
            out.dz = _scale(u.dz, e)
            out.dzb = _scale(u.dzb, e)
        if self.order >= 2:
            out.dzzb = _scale(_sum(u.dzzb, _outer(u.dz, u.dzb)), e)
            if self.holo:
                out.dzz = _scale(_sum(u.dzz, _outer(u.dz, u.dz)), e)
                out.dzbzb = _scale(_sum(u.dzbzb, _outer(u.dzb, u.dzb)), e)
        return out

    def pow(self, u: _Jet, k: int) -> _Jet:
        result = None
        base = u
        e = k
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result


def _as_points(ast: Ast, points) -> np.ndarray:
    arr = np.asarray(points)
    if not np.iscomplexobj(arr):
        arr = arr.astype(complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < max(ast.n, 1):
        raise ValueError(f"expected points with {max(ast.n, 1)} coordinates, "
                         f"got shape {arr.shape}")
    return arr


def _run(ast: Ast, points, order: int, holo: bool = False) -> _Jet:
    """The root jet at full shape, with the blocks callers read: val, dz,
    dzzb and, with holo, dzz.

    val is a fresh (B,) array that never aliases the points, a missing block
    is filled with zeros, and a present block gets + 0.0, which turns a -0.0
    left by a skipped zero term into the +0.0 that adding the term gives.
    """
    points = _as_points(ast, points)
    jet = _Walk(ast.root, points, order, holo).eval(ast.root)
    B, n = points.shape
    val = np.array(np.broadcast_to(jet.val, (B,)))
    if not np.all(np.isfinite(val)):
        raise EvalError("non-finite value in evaluation")

    def full(block, ndim):
        shape = (B,) + (n,) * ndim
        if block is None:
            return np.zeros(shape, points.dtype)
        return np.broadcast_to(block, shape) + 0.0
    out = _Jet(val)
    if order >= 1:
        out.dz = full(jet.dz, 1)
    if order >= 2:
        out.dzzb = full(jet.dzzb, 2)
        if holo:
            out.dzz = full(jet.dzz, 2)
    return out


# ---------------------------------------------------------------------------
# Public evaluation API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WirtingerJet:
    """Second-order Wirtinger jet of a real-valued expression, at one point
    or at a batch of B points (then every field has a leading axis of B).

    grad[j]     = d rho / d z_j
    mixed[j,k]  = d^2 rho / (d z_j d zbar_k)   (Hermitian)
    holo[j,k]   = d^2 rho / (d z_j d z_k)      (symmetric; None if not asked for)

    The antiholomorphic gradient is conj(grad) and is not stored.
    """
    value: float | np.ndarray
    grad: np.ndarray
    mixed: np.ndarray
    holo: np.ndarray | None

    def __len__(self) -> int:
        """Number of points of a batch."""
        return len(self.value)


def eval_raw(ast: Ast, points) -> np.ndarray:
    """Raw complex values at a (B, n) batch of points."""
    return _run(ast, points, 0).val


def eval_value_grad(ast: Ast, points) -> tuple[np.ndarray, np.ndarray]:
    """Real values and holomorphic gradients at a (B, n) batch of points."""
    jet = _run(ast, points, 1)
    return jet.val.real.astype(float), jet.dz


def eval_jet_batch(ast: Ast, points, holo: bool = True) -> WirtingerJet:
    """Second-order jets at a (B, n) batch of points, as one batched jet.

    With holo=False the holomorphic block (dz dz) is neither computed nor
    returned, which saves a third of the work and memory of the walk.
    """
    jet = _run(ast, points, 2, holo)
    for block in (jet.dz, jet.dzz, jet.dzzb):
        if block is not None and not np.all(np.isfinite(block)):
            raise EvalError("non-finite derivative in evaluation")
    return WirtingerJet(jet.val.real.astype(float), jet.dz, jet.dzzb, jet.dzz)


def eval_jet(ast: Ast, point, holo: bool = True) -> WirtingerJet:
    """The jet at one point, without the batch axis."""
    jet = eval_jet_batch(ast, np.asarray(point, complex)[None, :], holo)
    return WirtingerJet(float(jet.value[0]), jet.grad[0], jet.mixed[0],
                        None if jet.holo is None else jet.holo[0])


def check_real_valued(ast: Ast, trial_count: int, seed: int,
                      box: np.ndarray | None = None,
                      realness_tol: float = 1e-9,
                      a: np.ndarray | None = None,
                      frame: np.ndarray | None = None) -> bool:
    """Sampled realness check: max |Im rho| over random points in the box.

    With a (S, n) and frame (S, n, m), the points w are drawn in the m-variable
    box and rho is checked at a_k + frame_k w on every map k, each against its
    own scale, in one evaluation; the result is True iff every map passes.
    """
    if trial_count < 1:
        raise ValueError("trial_count must be >= 1")
    if box is None:
        box = np.array([[-1.0, 1.0]] * (2 * max(ast.n, 1)))
    box = np.asarray(box, float)
    rng = np.random.default_rng(seed)
    width = box[:, 1] - box[:, 0]
    reals = box[:, 0] + rng.random((trial_count, box.shape[0])) * width
    pts = reals[:, 0::2] + 1j * reals[:, 1::2]
    if frame is None:
        vals = eval_raw(ast, pts)[None, :]
    else:
        z = np.asarray(a)[:, None, :] + np.einsum("sjk,pk->spj", frame, pts)
        vals = eval_raw(ast, z.reshape(-1, z.shape[2])).reshape(z.shape[:2])
    scale = 1.0 + np.max(np.abs(vals), axis=1)
    return bool(np.all(np.max(np.abs(vals.imag), axis=1) <= realness_tol * scale))


# ---------------------------------------------------------------------------
# Affine composition
# ---------------------------------------------------------------------------

def compose_with_affine(ast: Ast, a, b, c) -> Ast:
    """Substitute z_j <- a_j + b_j*w1 + c_j*w2, returning a 2-variable AST.

    The result is the symbolic pullback rho_h = rho . phi.  The pipeline
    pulls jets back by the chain rule instead; this symbolic route is kept
    as the independent check of that path.
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
