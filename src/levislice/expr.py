"""Defining-function expressions: parsing, printing, and Wirtinger jets.

Expressions are real-valued functions of n complex variables written in a
small grammar (z1, z2, ..., i, conj, re, im, abs2, exp, + - * / ^).  They
are parsed into an immutable AST over eight core node kinds; re/im/abs2 are
rewritten in terms of conj at parse time.

Differentiation is forward-mode over the doubled variable set (z, zbar)
treated as formally independent, so conj is exact: it swaps the holomorphic
and antiholomorphic components of a jet.  All evaluation is batched over
points; scalar entry points wrap a batch of one.
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

    Arrays carry a leading batch axis: val (B,), dz/dzb (B, n),
    dzz/dzzb/dzbzb (B, n, n).  First-order blocks are None at order 0 and
    second-order blocks below order 2; the holomorphic blocks dzz/dzbzb are
    also None when only the mixed block dzzb was asked for.  The operations
    below propagate exactly the blocks their operands carry.
    """
    val: np.ndarray
    dz: np.ndarray | None = None
    dzb: np.ndarray | None = None
    dzz: np.ndarray | None = None
    dzzb: np.ndarray | None = None
    dzbzb: np.ndarray | None = None


def _zeros(B: int, n: int, order: int, holo: bool, dtype) -> _Jet:
    jet = _Jet(np.zeros(B, dtype))
    if order >= 1:
        jet.dz = np.zeros((B, n), dtype)
        jet.dzb = np.zeros((B, n), dtype)
    if order >= 2:
        jet.dzzb = np.zeros((B, n, n), dtype)
        if holo:
            jet.dzz = np.zeros((B, n, n), dtype)
            jet.dzbzb = np.zeros((B, n, n), dtype)
    return jet


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _add(u: _Jet, v: _Jet, sign: float) -> _Jet:
    out = _Jet(u.val + sign * v.val)
    if u.dz is not None:
        out.dz = u.dz + sign * v.dz
        out.dzb = u.dzb + sign * v.dzb
    if u.dzzb is not None:
        out.dzzb = u.dzzb + sign * v.dzzb
    if u.dzz is not None:
        out.dzz = u.dzz + sign * v.dzz
        out.dzbzb = u.dzbzb + sign * v.dzbzb
    return out


def _mul(u: _Jet, v: _Jet) -> _Jet:
    out = _Jet(u.val * v.val)
    if u.dz is not None:
        uv = u.val[:, None]
        vv = v.val[:, None]
        out.dz = u.dz * vv + v.dz * uv
        out.dzb = u.dzb * vv + v.dzb * uv
    if u.dzzb is not None:
        uv2 = u.val[:, None, None]
        vv2 = v.val[:, None, None]
        out.dzzb = (u.dzzb * vv2 + v.dzzb * uv2
                    + _outer(u.dz, v.dzb) + _outer(v.dz, u.dzb))
        if u.dzz is not None:
            out.dzz = (u.dzz * vv2 + v.dzz * uv2
                       + _outer(u.dz, v.dz) + _outer(v.dz, u.dz))
            out.dzbzb = (u.dzbzb * vv2 + v.dzbzb * uv2
                         + _outer(u.dzb, v.dzb) + _outer(v.dzb, u.dzb))
    return out


def _inv(u: _Jet) -> _Jet:
    if np.any(u.val == 0):
        raise EvalError("division by zero")
    w = 1.0 / u.val
    out = _Jet(w)
    if u.dz is not None:
        w2 = (w * w)[:, None]
        out.dz = -u.dz * w2
        out.dzb = -u.dzb * w2
    if u.dzzb is not None:
        w2m = (w * w)[:, None, None]
        w3m = (w * w * w)[:, None, None]
        out.dzzb = -u.dzzb * w2m + 2.0 * _outer(u.dz, u.dzb) * w3m
        if u.dzz is not None:
            out.dzz = -u.dzz * w2m + 2.0 * _outer(u.dz, u.dz) * w3m
            out.dzbzb = -u.dzbzb * w2m + 2.0 * _outer(u.dzb, u.dzb) * w3m
    return out


def _conj(u: _Jet) -> _Jet:
    out = _Jet(np.conj(u.val))
    if u.dz is not None:
        out.dz = np.conj(u.dzb)
        out.dzb = np.conj(u.dz)
    if u.dzzb is not None:
        out.dzzb = np.conj(np.swapaxes(u.dzzb, 1, 2))
    if u.dzz is not None:
        out.dzz = np.conj(u.dzbzb)
        out.dzbzb = np.conj(u.dzz)
    return out


def _exp(u: _Jet) -> _Jet:
    e = np.exp(u.val)
    out = _Jet(e)
    if u.dz is not None:
        em = e[:, None]
        out.dz = u.dz * em
        out.dzb = u.dzb * em
    if u.dzzb is not None:
        em2 = e[:, None, None]
        out.dzzb = (u.dzzb + _outer(u.dz, u.dzb)) * em2
        if u.dzz is not None:
            out.dzz = (u.dzz + _outer(u.dz, u.dz)) * em2
            out.dzbzb = (u.dzbzb + _outer(u.dzb, u.dzb)) * em2
    return out


def _pow(u: _Jet, k: int) -> _Jet:
    result = None
    base = u
    e = k
    while e:
        if e & 1:
            result = base if result is None else _mul(result, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    return result


class _Walk:
    """One evaluation of an AST's jets on a batch of points.

    Shared subtrees (abs2 shares its argument) are evaluated once.  A
    node's jet is kept only until its last consumer has read it, so the
    live set stays near the current path instead of the whole tree.
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

    def constant(self, value) -> _Jet:
        """A jet with the given values and all derivatives zero."""
        B, n = self.points.shape
        jet = _zeros(B, n, self.order, self.holo, self.points.dtype)
        jet.val = np.broadcast_to(value, B).astype(self.points.dtype)
        return jet

    def eval(self, node: Node) -> _Jet:
        if isinstance(node, Var):
            jet = self.constant(self.points[:, node.index - 1])
            if jet.dz is not None:
                jet.dz[:, node.index - 1] = 1.0
            return jet
        if isinstance(node, Const):
            return self.constant(node.value)
        if isinstance(node, Conj):
            return _conj(self.take(node.arg))
        if isinstance(node, Exp):
            return _exp(self.take(node.arg))
        if isinstance(node, Pow):
            base = self.take(node.base)
            return _pow(base, node.exponent) if node.exponent else self.constant(1.0)
        lhs = self.take(node.lhs)
        rhs = self.take(node.rhs)
        if isinstance(node, Add):
            return _add(lhs, rhs, 1.0)
        if isinstance(node, Sub):
            return _add(lhs, rhs, -1.0)
        if isinstance(node, Mul):
            return _mul(lhs, rhs)
        if isinstance(node, Div):
            return _mul(lhs, _inv(rhs))
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover


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
    jet = _Walk(ast.root, _as_points(ast, points), order, holo).eval(ast.root)
    if not np.all(np.isfinite(jet.val)):
        raise EvalError("non-finite value in evaluation")
    return jet


# ---------------------------------------------------------------------------
# Public evaluation API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WirtingerJet:
    """Second-order Wirtinger jet of a real-valued expression at a point.

    grad[j]     = d rho / d z_j
    mixed[j,k]  = d^2 rho / (d z_j d zbar_k)   (Hermitian)
    holo[j,k]   = d^2 rho / (d z_j d z_k)      (symmetric; None if not asked for)

    The antiholomorphic gradient is conj(grad) and is not stored.
    """
    value: float
    grad: np.ndarray
    mixed: np.ndarray
    holo: np.ndarray | None


@dataclass(frozen=True)
class JetBatch:
    value: np.ndarray   # (B,) real
    grad: np.ndarray    # (B, n) complex
    mixed: np.ndarray   # (B, n, n) complex
    holo: np.ndarray | None    # (B, n, n) complex, None if not asked for

    def __len__(self) -> int:
        return self.value.shape[0]

    def at(self, i: int) -> WirtingerJet:
        holo = None if self.holo is None else self.holo[i].copy()
        return WirtingerJet(float(self.value[i]), self.grad[i].copy(),
                            self.mixed[i].copy(), holo)


def eval_raw(ast: Ast, points) -> np.ndarray:
    """Raw complex values at a (B, n) batch of points."""
    return _run(ast, points, 0).val


def eval_value_grad(ast: Ast, points) -> tuple[np.ndarray, np.ndarray]:
    """Real values and holomorphic gradients at a (B, n) batch of points."""
    jet = _run(ast, points, 1)
    return jet.val.real.astype(float), jet.dz


def eval_jet_batch(ast: Ast, points, holo: bool = True) -> JetBatch:
    """Second-order jets at a (B, n) batch of points.

    With holo=False the holomorphic block (dz dz) is neither computed nor
    returned, which saves a third of the work and memory of the walk.
    """
    jet = _run(ast, points, 2, holo)
    for block in (jet.dz, jet.dzz, jet.dzzb):
        if block is not None and not np.all(np.isfinite(block)):
            raise EvalError("non-finite derivative in evaluation")
    return JetBatch(jet.val.real.astype(float), jet.dz, jet.dzzb, jet.dzz)


def eval_jet(ast: Ast, point, holo: bool = True) -> WirtingerJet:
    return eval_jet_batch(ast, np.asarray(point, complex)[None, :], holo).at(0)


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
