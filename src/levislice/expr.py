"""Defining-function expressions: parsing and Wirtinger jets.

Expressions are real-valued functions of n complex variables written in a
small grammar (z1, z2, ..., i, conj, re, im, abs2, exp, + - * / ^).  They
are parsed into an immutable table of nodes in post-order, over eight core
node kinds; re/im/abs2 are rewritten in terms of conj at parse time, and
equal subexpressions become one node.

Differentiation is forward-mode over the doubled variable set (z, zbar)
treated as formally independent, so conj is exact: it swaps the holomorphic
and antiholomorphic components of a jet.  All evaluation is batched over
points; scalar entry points wrap a batch of one.

The jet walk forms the full second-order jet and propagates only nonzero
derivative structure: a missing derivative block is an exact zero, a
constant is a scalar with no blocks, and a variable carries only its
one-hot d/dz.  Terms with a missing factor are never formed.  The public
entry points fill the missing blocks in at the root, so they always return
full-shape arrays.

The walk is traced once per expression and replayed per batch (the tape of
operator-overloading AD; Griewank & Walther, *Evaluating Derivatives*,
2nd ed., ch. 6).  The trace runs it on a symbolic batch of points: every
operation on a point-dependent value is recorded on the tape's code, and
every operation on point-independent values alone on its prelude of
constants, which runs at once on the float constants, with the walk's numpy
calls.  That folds the c d/dz of every linear form and the mixed and
holomorphic Hessians of a quadric; the one-hot d/dz of each variable is an
exact array from the start.  Points are always taken as complex128, so the
Ast keeps one tape per column count.  eval_raw, eval_value_grad, eval_jet_batch and eval_jet replay it,
pruned to the root blocks they return: the tape's programs, not the walk,
pick the blocks.  A replay releases each intermediate after its last
reader, and yields the walk's bits exactly, because it makes the walk's
numpy calls on the same operands.  A row gets the same bits in any batch,
except in a NaN, whose bits numpy may set differently for another batch
length; that is harmless, as every NaN row is rejected as non-finite.  A
trace stands for every batch only because the walk's control flow depends
on the AST alone: the walk makes no test of values.  A divisor's exact
zeros become NaN before it divides, so a row that divides by zero comes out
NaN, and the tape is pure dataflow.  eval_raw and eval_jet_batch raise
EvalError on a non-finite row; eval_value_grad returns it as it is, for
Newton to drop.

The same walk also runs on midpoint-radius discs instead of points: over a
polydisc it returns discs that enclose every value the jet takes there,
rounding included.  The quadratic witness proves its containment with it.
The same tape serves it.  The first enclosure runs the prelude again with
each constant a thin disc, and keeps the disc registers on the tape: an
operation on constants alone is then disc arithmetic, and its rounded
radius stays with it, while the one-hot d/dz stay exact arrays.
enclose_jet_batch replays the code on those registers and a batch of
polydiscs, and yields the bits of the walk run directly on discs.  The one
difference is the pruning of the code: the walk also forms a zero power's
base, which the replay skips, so where only a point-dependent base divides
by a disc around 0 the replay returns the power's 1 and the walk raises.
"""

from __future__ import annotations

import operator
import re as _re
from dataclasses import dataclass, field

import numpy as np


class Error(Exception):
    """Base class of every failure the library raises."""


class ExprError(Error):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvalError(ExprError):
    """Numerical failure while evaluating an expression."""


# the sampled realness check: random points per check, their seed, and the
# largest |Im rho| accepted, relative to 1 + max |rho|
REALNESS_TRIALS = 64
REALNESS_SEED = 0
REALNESS_EPS = 1e-9


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ast:
    """A parsed expression as a table of nodes in post-order.

    Each node is a flat tuple: ("var", j) for z_j (1-based), ("const", c),
    ("conj" | "exp", k), ("pow", k, e) with a nonnegative integer e, or
    ("add" | "sub" | "mul" | "div", k1, k2).  An operand k indexes an
    earlier node, and the root is the last.  Equality, hashing and repr are
    those of the tuple, so no node costs a Python frame.
    """
    nodes: tuple
    n: int  # number of complex variables (largest index that occurs)
    # the traced jet walk, filled on first evaluation and no part of the
    # expression's identity: one _Tape per column count of the points, whose
    # disc registers the first enclosure adds
    _tapes: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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


# deepest nesting of parentheses, function calls and unary minus signs the
# parser takes; a level costs it up to four Python frames
MAX_NESTING = 200


class _Parser:
    """Recursive descent that emits each node once into a post-order table
    and returns node indices."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        # the table: each node and its index, in the order emitted
        self.nodes: dict[tuple, int] = {}

    def emit(self, node: tuple) -> int:
        """The index of node in the table, appended if it is new: equal
        subexpressions become one node."""
        return self.nodes.setdefault(node, len(self.nodes))

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

    def expr(self) -> int:
        node = self.term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return node
            rhs = self.term()
            node = self.emit(("add" if op == "+" else "sub", node, rhs))

    def term(self) -> int:
        node = self.factor()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return node
            rhs = self.factor()
            node = self.emit(("mul" if op == "*" else "div", node, rhs))

    def factor(self) -> int:
        # every level of nesting passes here once
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        if self.accept_op("-"):
            minus = self.emit(("const", -1.0 + 0j))
            node = self.emit(("mul", minus, self.factor()))
        else:
            node = self.atom()
            if self.accept_op("^"):
                kind, value, _ = self.peek()
                if kind != "num" or not value.isdigit():
                    self.fail("expected a nonnegative integer exponent")
                self.advance()
                node = self.emit(("pow", node, int(value)))
        self.depth -= 1
        return node

    def atom(self) -> int:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            return self.emit(("const", complex(float(value))))
        if kind == "ident":
            self.advance()
            if value == "i":
                return self.emit(("const", 1j))
            if value[0] == "z" and value[1:].isdigit():
                index = int(value[1:])
                if index == 0:
                    raise ExprSyntaxError("variable index must be >= 1", pos)
                return self.emit(("var", index))
            if value in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return self.function(value, arg)
            raise ExprSyntaxError(f"unknown function or name {value!r}", pos)
        if self.accept_op("("):
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("expected expression")

    def function(self, name: str, arg: int) -> int:
        """name(arg), with re, im and abs2 rewritten in terms of conj; each
        reads the one node of its argument twice."""
        if name in ("conj", "exp"):
            return self.emit((name, arg))
        conj = self.emit(("conj", arg))
        if name == "re":
            half = self.emit(("const", 0.5 + 0j))
            return self.emit(("mul", half, self.emit(("add", arg, conj))))
        if name == "im":
            half = self.emit(("const", -0.5j))
            return self.emit(("mul", half, self.emit(("sub", arg, conj))))
        return self.emit(("mul", arg, conj))  # abs2(u) = u * conj(u)


def parse(text: str) -> Ast:
    parser = _Parser(text)
    parser.expr()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos)
    nodes = tuple(parser.nodes)
    return Ast(nodes, max((node[1] for node in nodes if node[0] == "var"), default=0))


# ---------------------------------------------------------------------------
# Jet propagation
# ---------------------------------------------------------------------------

@dataclass
class Jet:
    """Second-order Wirtinger jet in the 2n formal variables (z, zbar):
    dz[j] = d rho/d z_j, dzz[j,k] = d^2 rho/(d z_j d z_k), dzzb[j,k] =
    d^2 rho/(d z_j d zbar_k), and dzb, dzbzb likewise in zbar.

    A block that is None is an exact zero, and a constant is a 0-d val with
    no blocks.  In the walk, present arrays broadcast against a leading batch
    axis of length B: val is 0-d or (B,), dz/dzb are (1 or B, n) and
    dzz/dzzb/dzbzb are (1 or B, n, n); a leading 1 means the block is the
    same at every point.  The walk forms every block; a traced walk's tape
    picks the ones a caller reads, at full shape: eval_jet_batch and
    eval_jet return a real val, dz, dzzb and (unless holo=False) dzz, and
    enclose_jet_batch returns val, dz, dzz and dzzb as discs.
    """
    val: np.ndarray
    dz: np.ndarray | None = None
    dzb: np.ndarray | None = None
    dzz: np.ndarray | None = None
    dzzb: np.ndarray | None = None
    dzbzb: np.ndarray | None = None

    def __len__(self) -> int:
        """Number of points of a batch; a single-point jet has no length."""
        if np.ndim(self.val) == 0:
            raise TypeError("a single-point jet has no len()")
        return self.val.shape[0]


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
        val = val.reshape((-1,) + (1,) * (block.ndim - 1))
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


# Relative and absolute slack added to every disc radius.  One numpy
# operation on complex doubles (+, *, 1/x, exp, abs) errs by a few units of
# 2**-53 of its result; 2**-45 covers that, and the rounding of the radius
# arithmetic itself, many times over.  The absolute term covers underflow.
_SLACK = 2.0 ** -45
_TINY = 2.0 ** -1000


def _on_discs(op):
    """The binary disc method op, with its other operand taken as a disc."""
    return lambda self, other: op(self, _Disc.of(other))


class _Disc:
    """Complex midpoint-radius array: entry k stands for the closed disc
    |z - mid[k]| <= rad[k], with rad a float array of mid's shape.

    Every operation returns discs that contain the exact result for every
    choice of operands in the operands' discs; the rounding of the computed
    midpoint and radius is added to the radius, as in Rump, "Fast and
    parallel interval arithmetic", BIT 39 (1999).  A plain array or number
    operand is taken as exact.  The numpy ufuncs the jet walk applies
    dispatch here, so the tape replays on discs unchanged.
    """

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad):
        self.mid = mid
        self.rad = rad

    @staticmethod
    def of(x) -> "_Disc":
        if isinstance(x, _Disc):
            return x
        x = np.asarray(x, complex)
        return _Disc(x, np.zeros(x.shape))

    shape = property(lambda self: self.mid.shape)
    ndim = property(lambda self: self.mid.ndim)

    def __getitem__(self, key) -> "_Disc":
        return _Disc(self.mid[key], self.rad[key])

    def reshape(self, shape) -> "_Disc":
        return _Disc(self.mid.reshape(shape), self.rad.reshape(shape))

    def swapaxes(self, a: int, b: int) -> "_Disc":
        return _Disc(self.mid.swapaxes(a, b), self.rad.swapaxes(a, b))

    @_on_discs
    def __add__(self, other) -> "_Disc":
        mid = self.mid + other.mid
        return _Disc(mid, _rounded(self.rad + other.rad, np.abs(mid)))

    @_on_discs
    def __sub__(self, other) -> "_Disc":
        mid = self.mid - other.mid
        return _Disc(mid, _rounded(self.rad + other.rad, np.abs(mid)))

    def __neg__(self) -> "_Disc":
        return _Disc(-self.mid, self.rad)

    @_on_discs
    def __mul__(self, other) -> "_Disc":
        # |xy - ab| <= |a| s + r |b| + r s for |x - a| <= r, |y - b| <= s
        a, b = np.abs(self.mid), np.abs(other.mid)
        rad = a * other.rad + self.rad * (b + other.rad)
        return _Disc(self.mid * other.mid, _rounded(rad, a * b))

    __rmul__ = __mul__

    @_on_discs
    def __rtruediv__(self, other) -> "_Disc":
        return other * self.reciprocal()

    def conj(self) -> "_Disc":
        return _Disc(np.conj(self.mid), self.rad)

    def exp(self) -> "_Disc":
        # |e^x - e^a| = |e^a| |e^(x - a) - 1| <= |e^a| (e^r - 1)
        e = np.exp(self.mid)
        size = np.abs(e)
        return _Disc(e, _rounded(size * np.expm1(self.rad), size))

    def gap(self) -> np.ndarray:
        """A lower bound on |z| over each disc; <= 0 where it may hold 0."""
        return np.abs(self.mid) * (1.0 - _SLACK) - self.rad

    def reciprocal(self) -> "_Disc":
        # |1/x - 1/a| = |x - a| / (|x| |a|) <= r / ((|a| - r) |a|)
        gap = self.gap()
        if not np.all(gap > 0.0):
            raise EvalError("division by a disc that may contain zero")
        size = np.abs(self.mid) * (1.0 - _SLACK)
        return _Disc(1.0 / self.mid, _rounded(self.rad / (gap * size), 1.0 / size))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _DISC_UFUNCS.get(ufunc)
        if method != "__call__" or kwargs or op is None:
            return NotImplemented
        return op(*map(_Disc.of, inputs))


def _rounded(rad, size):
    """A propagated radius rounded up, plus the rounding error of a computed
    midpoint of modulus at most about `size`."""
    return rad * (1.0 + _SLACK) + size * _SLACK + _TINY


_DISC_UFUNCS = {np.add: _Disc.__add__, np.subtract: _Disc.__sub__,
                np.multiply: _Disc.__mul__, np.negative: _Disc.__neg__,
                np.conjugate: _Disc.conj, np.exp: _Disc.exp}


class _Walk:
    """One evaluation of an AST's full second-order jet on a batch of points.

    Every block is formed, the holomorphic ones included: the tape's
    programs pick the blocks each caller reads, and the direct walks of the
    tests compare them all.  The walk takes the node table in
    order, so a node the parser shared (abs2's argument, a repeated z_j or
    subexpression) is evaluated once, and no node costs a Python frame: a
    long or deep expression cannot exhaust the stack.  The operations skip
    structural zeros: a term with a missing factor is not formed.

    The points are the _Sym of a tape being traced, whose constants are
    leaves of the tape's prelude, or a (B, columns) complex array, whose
    constants are complex128; the tests' direct disc walk overrides const
    to walk a _Disc of points.  The walk touches its numbers only through
    arithmetic, numpy ufuncs, indexing, reshape and swapaxes, _zero_to_nan
    and the hook const, which serve all three number types.  Its control
    flow depends on the AST alone, never on a value: that is what lets one
    trace stand for every batch, on points and on discs.
    """

    def __init__(self, nodes: tuple, points, columns: int):
        self.nodes = nodes
        self.points = points
        self.columns = columns

    def run(self) -> Jet:
        """The root jet, one jet per node in table order.  Overflow, invalid
        operations and division by zero make inf or nan, which the callers
        reject, so numpy need not warn."""
        jets: list[Jet] = []
        with np.errstate(over="ignore", invalid="ignore"):
            for node in self.nodes:
                jets.append(self.jet(node, jets))
        return jets[-1]

    def const(self, value: complex):
        """A constant; a leaf of the prelude in a walk being traced."""
        c = np.complex128(value)
        return self.points.tape.leaf(c) if isinstance(self.points, _Sym) else c

    def jet(self, node: tuple, jets: list) -> Jet:
        """The jet of node from the jets of the nodes before it."""
        kind = node[0]
        if kind == "var":
            # the column as a view; d/dz is one-hot and the same at every point
            dz = np.zeros((1, self.columns), complex)
            dz[0, node[1] - 1] = 1.0
            return Jet(self.points[:, node[1] - 1], dz=dz)
        if kind == "const":
            return Jet(self.const(node[1]))
        u = jets[node[1]]
        if kind == "conj":
            return self.conj(u)
        if kind == "exp":
            return self.exp(u)
        if kind == "pow":
            return Jet(self.const(1.0)) if node[2] == 0 else self.pow(u, node[2])
        v = jets[node[2]]
        if kind == "add":
            return self.add(u, v, 1.0)
        if kind == "sub":
            return self.add(u, v, -1.0)
        if kind == "mul":
            return self.mul(u, v)
        if kind == "div":
            return self.mul(u, self.inv(v))
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    def add(self, u: Jet, v: Jet, sign: float) -> Jet:
        return Jet(u.val + sign * v.val,
                   dz=_plus(u.dz, v.dz, sign), dzb=_plus(u.dzb, v.dzb, sign),
                   dzz=_plus(u.dzz, v.dzz, sign), dzzb=_plus(u.dzzb, v.dzzb, sign),
                   dzbzb=_plus(u.dzbzb, v.dzbzb, sign))

    def mul(self, u: Jet, v: Jet) -> Jet:
        return Jet(u.val * v.val,
                   dz=_sum(_scale(u.dz, v.val), _scale(v.dz, u.val)),
                   dzb=_sum(_scale(u.dzb, v.val), _scale(v.dzb, u.val)),
                   dzzb=_sum(_scale(u.dzzb, v.val), _scale(v.dzzb, u.val),
                             _outer(u.dz, v.dzb), _outer(v.dz, u.dzb)),
                   dzz=_sum(_scale(u.dzz, v.val), _scale(v.dzz, u.val),
                            _outer(u.dz, v.dz), _outer(v.dz, u.dz)),
                   dzbzb=_sum(_scale(u.dzbzb, v.val), _scale(v.dzbzb, u.val),
                              _outer(u.dzb, v.dzb), _outer(v.dzb, u.dzb)))

    def inv(self, u: Jet) -> Jet:
        w = 1.0 / _zero_to_nan(u.val)
        w2 = w * w
        w3 = w * w * w

        def second(hess, x, y):
            cross = _outer(x, y)
            return _sum(_scale(_neg(hess), w2),
                        None if cross is None else _scale(2.0 * cross, w3))
        return Jet(w, dz=_scale(_neg(u.dz), w2), dzb=_scale(_neg(u.dzb), w2),
                   dzzb=second(u.dzzb, u.dz, u.dzb), dzz=second(u.dzz, u.dz, u.dz),
                   dzbzb=second(u.dzbzb, u.dzb, u.dzb))

    def conj(self, u: Jet) -> Jet:
        def c(x):
            return None if x is None else np.conj(x)
        return Jet(np.conj(u.val), dz=c(u.dzb), dzb=c(u.dz), dzz=c(u.dzbzb),
                   dzzb=None if u.dzzb is None else c(np.swapaxes(u.dzzb, 1, 2)),
                   dzbzb=c(u.dzz))

    def exp(self, u: Jet) -> Jet:
        e = np.exp(u.val)
        return Jet(e, dz=_scale(u.dz, e), dzb=_scale(u.dzb, e),
                   dzzb=_scale(_sum(u.dzzb, _outer(u.dz, u.dzb)), e),
                   dzz=_scale(_sum(u.dzz, _outer(u.dz, u.dz)), e),
                   dzbzb=_scale(_sum(u.dzbzb, _outer(u.dzb, u.dzb)), e))

    def pow(self, u: Jet, k: int) -> Jet:
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


def _zero_to_nan(x):
    """x with its exact zeros made NaN, so that dividing by it gives NaN, not
    inf, in a row that divides by zero; recorded like any operation.  A disc
    is returned as it is: its reciprocal raises where the disc may hold 0."""
    if isinstance(x, _Sym):
        return _elementwise(_zero_to_nan, (x,))
    if isinstance(x, _Disc):
        return x
    return np.where(x == 0, np.nan, x)


# ---------------------------------------------------------------------------
# Tape: the walk traced once per expression, replayed per batch
# ---------------------------------------------------------------------------

def _elementwise(fn, args) -> "_Sym":
    """Record fn(*args), an operation that broadcasts its operands."""
    tape = next(a.tape for a in args if isinstance(a, _Sym))
    return tape.record(fn, args, max(getattr(a, "ndim", 0) for a in args))


def _binary(fn):
    # the tape and the axes are taken from self, without _elementwise's
    # search: binary operations are most of a trace's records
    return (lambda self, other: self.tape.record(
                fn, (self, other), max(self.ndim, getattr(other, "ndim", 0))),
            lambda self, other: self.tape.record(
                fn, (other, self), max(self.ndim, getattr(other, "ndim", 0))))


class _Sym:
    """A value of a walk being traced: the points, a result that depends on
    them, or a constant of the tape's prelude.

    An operation with a _Sym operand is recorded on its tape, with the
    operands in the order the walk gave them, and returns a new _Sym.  Only
    the number of axes is tracked; the leading one of a point-dependent
    value is the batch axis, whose length the walk never reads, so a replay
    serves every batch length.
    """

    __slots__ = ("tape", "slot", "ndim")

    def __init__(self, tape: "_Tape", slot: int, ndim: int):
        self.tape = tape
        self.slot = slot
        self.ndim = ndim

    def __getitem__(self, key: tuple) -> "_Sym":
        """Basic indexing by the walk's tuples of slices, ints and None: an
        int drops an axis and None adds one."""
        ndim = (self.ndim + sum(k is None for k in key)
                - sum(isinstance(k, int) for k in key))
        return self.tape.record(operator.itemgetter(key), (self,), ndim)

    def reshape(self, shape: tuple) -> "_Sym":
        return self.tape.record(operator.methodcaller("reshape", shape), (self,),
                                len(shape))

    def swapaxes(self, a: int, b: int) -> "_Sym":
        return self.tape.record(operator.methodcaller("swapaxes", a, b), (self,),
                                self.ndim)

    __add__, __radd__ = _binary(operator.add)
    __sub__, __rsub__ = _binary(operator.sub)
    __mul__, __rmul__ = _binary(operator.mul)
    __truediv__, __rtruediv__ = _binary(operator.truediv)

    def __neg__(self) -> "_Sym":
        return _elementwise(operator.neg, (self,))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        return _elementwise(ufunc, inputs)


class _Tape:
    """One full second-order walk, traced: a prelude on the constants and
    code on the points.

    A register file holds the points (slot 0), the constants and one slot
    per recorded result.  An instruction is (fn, argument slots, result
    slot).  An operation on constants alone goes on the prelude, which runs
    it at once on the float constants; every other goes on the code.  The
    float register file keeps only the constants that the code and the
    blocks read.  `disc_registers` runs the prelude again with each const
    leaf a thin disc, which gives the register file of an enclosure.
    `program` prunes the code to what some blocks of the root need, and
    `replay` runs such a program on a batch of points or of polydiscs.
    """

    def __init__(self):
        self.registers: list = [None]
        self.leaves: list[int] = []  # the slots of the const nodes' values
        self.prelude: list[tuple] = []
        self.code: list[tuple] = []
        self.blocks: dict[str, int | None] = {}
        self.programs: dict[tuple, tuple] = {}
        self.discs: list | None = None  # the disc register file, once built

    def slot(self, x) -> int:
        """The slot of a _Sym, or a new slot holding the constant x."""
        if isinstance(x, _Sym):
            return x.slot
        self.registers.append(x)
        return len(self.registers) - 1

    def leaf(self, c) -> _Sym:
        """The value of a const node, a leaf of the prelude."""
        self.leaves.append(self.slot(c))
        return _Sym(self, self.leaves[-1], 0)

    def record(self, fn, args, ndim: int) -> _Sym:
        """Record fn on the code if an operand depends on the points, which
        hold None until the replay; else run it and record it on the
        prelude."""
        r = self.registers
        slots = []
        folded = True
        for x in args:
            if isinstance(x, _Sym):
                slots.append(x.slot)
                if r[x.slot] is None:
                    folded = False
            else:
                slots.append(len(r))
                r.append(x)
        out = len(r)
        slots = tuple(slots)
        if folded:
            r.append(fn(*[r[s] for s in slots]))
            self.prelude.append((fn, slots, out))
        else:
            r.append(None)
            self.code.append((fn, slots, out))
        return _Sym(self, out, ndim)

    def program(self, blocks: tuple) -> tuple:
        """(code, {block: slot}) for the named blocks of the root jet.

        The code keeps the instructions the blocks read, in tape order, as
        (fn, a, b, out, drop): b is None for a unary fn, and drop lists the
        points and results whose last reader it is.
        """
        if blocks not in self.programs:
            outputs = {name: self.blocks[name] for name in blocks}
            needed = set(outputs.values())
            code = []
            for fn, args, out in reversed(self.code):
                if out in needed:
                    # the points and results hold None until the replay
                    drop = tuple(s for s in set(args) - needed
                                 if self.registers[s] is None)
                    needed.update(args)
                    a, b = args if len(args) == 2 else (*args, None)
                    code.append((fn, a, b, out, drop))
            self.programs[blocks] = (code[::-1], outputs)
        return self.programs[blocks]

    def disc_registers(self) -> list:
        """The register file of an enclosure, built on first use: the
        prelude run again with each const leaf a thin disc and the one-hot
        d/dz and other literal arrays exact, so that each constant the code
        reads is a disc that holds its exact value.  Raises EvalError where
        a constant divisor's disc may hold 0, and then keeps nothing."""
        if self.discs is None:
            r = self.registers.copy()
            for s in self.leaves:
                r[s] = _Disc.of(r[s])
            with np.errstate(over="ignore", invalid="ignore"):
                for fn, args, out in self.prelude:
                    r[out] = fn(*[r[s] for s in args])
            self.discs = [None if x is None else d for x, d in zip(self.registers, r)]
        return self.discs

    def replay(self, points, code) -> list:
        """The register file after running code on a batch of points, or of
        polydiscs given as a _Disc: the constants, the outputs, and None in
        every released slot."""
        r = (self.disc_registers() if isinstance(points, _Disc) else self.registers).copy()
        r[0] = points
        with np.errstate(over="ignore", invalid="ignore"):
            for fn, a, b, out, drop in code:
                r[out] = fn(r[a]) if b is None else fn(r[a], r[b])
                for s in drop:
                    r[s] = None
        return r


def _trace(nodes: tuple, columns: int) -> _Tape:
    """Run the walk once on a symbolic batch of points with these columns.
    A folded value that neither the code nor a block reads is then released:
    only the prelude needs it, and only on discs, where it runs again."""
    tape = _Tape()
    jet = _Walk(nodes, _Sym(tape, 0, 2), columns).run()
    for name in ("val", "dz", "dzz", "dzzb"):
        block = getattr(jet, name)
        tape.blocks[name] = None if block is None else tape.slot(block)
    read = {s for _, args, _ in tape.code for s in args}
    read.update(tape.blocks.values())
    for _, _, out in tape.prelude:
        if out not in read:
            tape.registers[out] = None
    return tape


def _as_points(ast: Ast, points) -> np.ndarray:
    arr = np.asarray(points, complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < max(ast.n, 1):
        raise ValueError(f"expected points with {max(ast.n, 1)} coordinates, "
                         f"got shape {arr.shape}")
    return arr


def _tape(ast: Ast, points: np.ndarray) -> _Tape:
    """The expression's tape for points of this column count, traced on
    first use.  The trace never raises on a value: a constant zero divisor
    is a NaN constant in the float registers, and every evaluation that
    checks its rows raises; every enclosure raises, since the divisor's
    disc holds 0."""
    columns = points.shape[1]
    if columns not in ast._tapes:
        ast._tapes[columns] = _trace(ast.nodes, columns)
    return ast._tapes[columns]


def _run(ast: Ast, points, blocks: tuple) -> Jet:
    """The named blocks of the root jet at full shape, replayed from the
    expression's tape; blocks starts with "val".

    val is a fresh (B,) array that never aliases the points, a missing block
    is filled with zeros, and a present block gets + 0.0, which turns a -0.0
    left by a skipped zero term into the +0.0 that adding the term gives.
    """
    points = _as_points(ast, points)
    tape = _tape(ast, points)
    code, outputs = tape.program(blocks)
    registers = tape.replay(points, code)
    B, n = points.shape
    jet = Jet(np.empty(B, complex))
    np.copyto(jet.val, registers[outputs["val"]])
    for name in blocks[1:]:
        # a block's rank is its number of derivatives: dz 1, dzz and dzzb 2
        shape = (B,) + (n,) * name.count("z")
        block = outputs[name]
        setattr(jet, name, np.zeros(shape, complex) if block is None
                else np.add(registers[block], 0.0, out=np.empty(shape, complex)))
    return jet


# ---------------------------------------------------------------------------
# Public evaluation API
# ---------------------------------------------------------------------------

def eval_raw(ast: Ast, points) -> np.ndarray:
    """Raw complex values at a (B, n) batch of points.  Raises EvalError if
    some value is not finite."""
    val = _run(ast, points, ("val",)).val
    if not np.all(np.isfinite(val)):
        raise EvalError("non-finite value in evaluation")
    return val


def eval_value_grad(ast: Ast, points) -> tuple[np.ndarray, np.ndarray]:
    """Real values and holomorphic gradients at a (B, n) batch of points.

    Never raises on a value: a row that overflows or divides by zero comes
    back non-finite, as it is, and the caller decides what to do with it
    (Newton drops it)."""
    jet = _run(ast, points, ("val", "dz"))
    return jet.val.real.astype(float), jet.dz


def eval_jet_batch(ast: Ast, points, holo: bool = True) -> Jet:
    """Second-order jets at a (B, n) batch of points, as one batched jet:
    real val (B,), dz (B, n), dzzb and dzz (B, n, n).

    With holo=False the holomorphic block dzz is neither computed nor
    returned (it is None), which saves a third of the work and memory of
    the walk.  Raises EvalError if some value or derivative is not finite.
    """
    blocks = ("val", "dz", "dzzb", "dzz") if holo else ("val", "dz", "dzzb")
    jet = _run(ast, points, blocks)
    if not np.all(np.isfinite(jet.val)):
        raise EvalError("non-finite value in evaluation")
    for block in (jet.dz, jet.dzz, jet.dzzb):
        if block is not None and not np.all(np.isfinite(block)):
            raise EvalError("non-finite derivative in evaluation")
    jet.val = jet.val.real.astype(float)
    return jet


def eval_jet(ast: Ast, point, holo: bool = True) -> Jet:
    """The jet at one point, without the batch axis; val is a float."""
    jet = eval_jet_batch(ast, np.asarray(point, complex)[None, :], holo)
    return Jet(float(jet.val[0]), dz=jet.dz[0], dzzb=jet.dzzb[0],
               dzz=None if jet.dzz is None else jet.dzz[0])


def enclose_jet_batch(ast: Ast, centers, radii) -> Jet:
    """Discs that enclose the second-order jet over a batch of polydiscs.

    Row b is the polydisc of the points z with |z_j - centers[b, j]| <=
    radii[b, j]; radii broadcast against the (B, n) centers, and a row of
    radius 0 encloses the jet at its center up to rounding.  Returns val
    (B,), dz (B, n), dzz and dzzb (B, n, n) as _Disc arrays with fields mid
    and rad: each entry of the jet at each point of the row's polydisc lies
    in its disc.  Raises EvalError when a divisor's disc may contain 0 or a
    bound is not finite.  Replays the expression's tape on its disc
    registers, which the first enclosure builds from the prelude.
    """
    centers = _as_points(ast, centers)
    points = _Disc(centers, np.broadcast_to(np.asarray(radii, float), centers.shape))
    B, n = centers.shape
    tape = _tape(ast, centers)
    code, outputs = tape.program(("val", "dz", "dzzb", "dzz"))
    registers = tape.replay(points, code)

    def full(name):
        slot = outputs[name]
        block = _Disc.of(0.0 if slot is None else registers[slot])
        shape = (B,) + (n,) * name.count("z")
        if not (np.all(np.isfinite(block.mid)) and np.all(np.isfinite(block.rad))):
            raise EvalError("non-finite bound in enclosure")
        return _Disc(np.broadcast_to(block.mid, shape), np.broadcast_to(block.rad, shape))
    return Jet(full("val"), dz=full("dz"), dzz=full("dzz"), dzzb=full("dzzb"))


def sample_box(box, count: int, seed) -> np.ndarray:
    """`count` pseudorandom points of C^n in the (2n, 2) box, from one stream
    filled row by row.

    The seed is an int or a tuple of ints, as numpy.random.default_rng
    takes it.  Row i is drawn after rows 0..i-1, so a shorter request
    returns a prefix of a longer one with the same seed.
    """
    box = np.asarray(box, float)
    rng = np.random.default_rng(seed)
    reals = box[:, 0] + rng.random((count, box.shape[0])) * (box[:, 1] - box[:, 0])
    return reals.view(complex)


def check_real_valued(ast: Ast, box: np.ndarray, a: np.ndarray | None = None,
                      frame: np.ndarray | None = None) -> bool:
    """Sampled realness check: max |Im rho| at REALNESS_TRIALS random points
    of the box, at most REALNESS_EPS times the scale 1 + max |rho|.

    With a (S, n) and frame (S, n, m), the points w are drawn in the m-variable
    box and rho is checked at a_k + frame_k w on every map k, each against its
    own scale, in one evaluation; the result is True iff every map passes.
    """
    pts = sample_box(box, REALNESS_TRIALS, REALNESS_SEED)
    if frame is None:
        vals = eval_raw(ast, pts)[None, :]
    else:
        z = np.asarray(a)[:, None, :] + pts @ np.swapaxes(frame, 1, 2)
        vals = eval_raw(ast, z.reshape(-1, z.shape[2])).reshape(z.shape[:2])
    scale = 1.0 + np.max(np.abs(vals), axis=1)
    return bool(np.all(np.max(np.abs(vals.imag), axis=1) <= REALNESS_EPS * scale))
