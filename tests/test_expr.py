from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levislice
from levislice import expr as E
from levislice import levi, pipeline
from levislice.catalog import CATALOG, parse_domain_file
from fd_oracle import fd_wirtinger_jet
from oracles import DiscWalk, compose_with_affine

BALL = "abs2(z1)+abs2(z2)-1"
SADDLE = "re(z2)-abs2(z1)"
DATA = Path(__file__).parent / "data"


def random_points(rng, n, count, scale=1.0):
    return scale * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_infers_dimension():
    assert E.parse(BALL).n == 2
    assert E.parse(SADDLE).n == 2
    assert E.parse("re(z3)-abs2(z1)-abs2(z2)").n == 3
    assert E.parse("1+2*i").n == 0


def test_parse_syntax_error_position():
    with pytest.raises(E.ExprSyntaxError) as err:
        E.parse("z1 + *")
    assert err.value.position == 5


def test_parse_rejects_variable_index_zero():
    with pytest.raises(E.ExprSyntaxError):
        E.parse("z0 + 1")


def test_parse_rejects_unknown_function():
    with pytest.raises(E.ExprSyntaxError):
        E.parse("sin(z1)")


def test_parse_rejects_fractional_exponent():
    with pytest.raises(E.ExprSyntaxError):
        E.parse("z1^1.5")


@pytest.mark.parametrize("open_, close", [("(", ")"), ("exp(", ")"), ("-", "")])
def test_parse_caps_nesting_depth(open_, close):
    # parentheses, calls and unary minus signs nest; the cap leaves room on
    # the Python stack for its caller
    levels = E.MAX_NESTING - 1
    assert E.parse(open_ * levels + "z1" + close * levels).n == 1
    with pytest.raises(E.ExprSyntaxError, match=f"nested deeper than {E.MAX_NESTING}"):
        E.parse(open_ * 2 * levels + "z1" + close * 2 * levels)


def test_parse_takes_a_long_sum():
    ast = E.parse("+".join(["abs2(z1)"] * 1200) + "+abs2(z3)")
    assert ast.n == 3
    assert E.eval_raw(ast, [[1, 0, 2]])[0] == 1204


def test_parse_grammar_shapes(rng):
    # unary minus binds after the power, per the grammar
    ast = E.parse("-z1^2")
    pts = random_points(rng, 1, 5)
    expected = -pts[:, 0] ** 2
    assert np.allclose(E.eval_raw(ast, pts), expected)


def test_numbers_with_exponents():
    ast = E.parse("1e-05 + .5 + 2.25e+1")
    assert E.eval_raw(ast, np.zeros((1, 1), complex))[0] == pytest.approx(23.00001)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_ball_at_boundary_point():
    jet = E.eval_jet(E.parse(BALL), [1, 0])
    assert jet.val == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(jet.dz, [1, 0])
    assert np.allclose(jet.dzzb, np.eye(2))
    assert np.allclose(jet.dzz, 0)


def test_jet_saddle_at_origin():
    jet = E.eval_jet(E.parse(SADDLE), [0, 0])
    assert jet.val == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(jet.dz, [0, 0.5])
    assert np.allclose(jet.dzzb, np.diag([-1.0, 0.0]))
    assert np.allclose(jet.dzz, 0)


def test_jet_saddle3_at_origin():
    jet = E.eval_jet(E.parse("re(z3)-abs2(z1)-abs2(z2)"), [0, 0, 0])
    assert np.allclose(jet.dz, [0, 0, 0.5])
    assert np.allclose(jet.dzzb, np.diag([-1.0, -1.0, 0.0]))


def test_jet_division_by_zero():
    ast = E.parse("1/z1")
    with pytest.raises(E.EvalError):
        E.eval_jet(ast, [0.0])


def test_jet_matches_finite_differences(rng):
    for text in (BALL, SADDLE, "abs2(z1)^2+abs2(z2)-1",
                 "exp(re(z1))*abs2(z2)", "im(z1*z2)+abs2(z1-z2)/(2+abs2(z2))"):
        ast = E.parse(text)
        for point in random_points(rng, ast.n, 5, scale=0.7):
            jet = E.eval_jet(ast, point)
            val, grad, mixed, holo = fd_wirtinger_jet(ast, point)
            scale = 1.0 + max(abs(val), np.max(np.abs(grad)),
                              np.max(np.abs(mixed)), np.max(np.abs(holo)))
            assert abs(jet.val - val) <= 1e-6 * scale
            assert np.max(np.abs(jet.dz - grad)) <= 1e-6 * scale
            assert np.max(np.abs(jet.dzzb - mixed)) <= 1e-6 * scale
            assert np.max(np.abs(jet.dzz - holo)) <= 1e-6 * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_mixed_hessian_hermitian_for_real_expressions(seed):
    rng = np.random.default_rng(seed)
    ast = E.parse("abs2(z1)^2+re(z1*conj(z2))+exp(im(z2))-abs2(z2)")
    pts = random_points(rng, 2, 8, scale=0.8)
    jets = E.eval_jet_batch(ast, pts)
    gap = np.abs(jets.dzzb - np.conj(np.swapaxes(jets.dzzb, 1, 2)))
    assert np.max(gap) <= 1e-12
    sym_gap = np.abs(jets.dzz - np.swapaxes(jets.dzz, 1, 2))
    assert np.max(sym_gap) <= 1e-12


def test_conj_swaps_jet_blocks(rng):
    base = E.parse("z1*z1*conj(z2)+exp(z2)")
    flipped = E.parse("conj(z1*z1*conj(z2)+exp(z2))")
    pts = random_points(rng, 2, 6)
    j1 = E.eval_jet_batch(base, pts)
    j2 = E.eval_jet_batch(flipped, pts)
    # mixed(conj u) = conj(mixed u)^T, holo(conj u) = conj(antiholo u)
    assert np.allclose(j2.dzzb, np.conj(np.swapaxes(j1.dzzb, 1, 2)))


def test_mixed_only_jets_match_full_jets(rng):
    ast = E.parse("abs2(z1)^2+re(z1*conj(z2))+exp(im(z2))/(2+abs2(z1))")
    pts = random_points(rng, 2, 7, scale=0.8)
    full = E.eval_jet_batch(ast, pts)
    mixed_only = E.eval_jet_batch(ast, pts, holo=False)
    assert mixed_only.dzz is None and full.dzz is not None
    assert np.array_equal(mixed_only.dzzb, full.dzzb)
    assert np.array_equal(mixed_only.dz, full.dz)
    assert np.array_equal(mixed_only.val, full.val)


def test_every_jet_entry_point_returns_the_one_jet_type(rng):
    ast = E.parse(SADDLE)
    pts = random_points(rng, 2, 5)
    full = E.eval_jet_batch(ast, pts)
    mixed_only = E.eval_jet_batch(ast, pts, holo=False)
    jets = (full, mixed_only, E.eval_jet(ast, pts[0]), E.enclose_jet_batch(ast, pts, 0.1))
    assert all(type(jet) is E.Jet for jet in jets)
    assert len(full) == len(mixed_only) == len(jets[3]) == 5
    assert full.val.dtype == np.float64 and isinstance(jets[2].val, float)
    assert mixed_only.dzz is None and full.dzz is not None
    assert not any(hasattr(mod, name) for mod in (E, levislice, levislice.levi)
                   for name in ("WirtingerJet", "Tolerances"))


def test_only_a_batch_jet_has_a_length(rng):
    ast = E.parse(BALL)
    assert len(E.eval_jet_batch(ast, random_points(rng, 2, 3))) == 3
    with pytest.raises(TypeError, match="single-point jet"):
        len(E.eval_jet(ast, [1, 0]))


# ---------------------------------------------------------------------------
# the tape: one trace per expression, replayed per batch
# ---------------------------------------------------------------------------

def shifted(node, by):
    """node with its operand indices moved up by `by`."""
    kind, *args = node
    if kind in ("var", "const"):
        return node
    if kind == "pow":
        return (kind, args[0] + by, args[1])
    return (kind, *(k + by for k in args))


def apply(kind, *tables, extra=()):
    """The tables one after another, then kind applied to their roots."""
    nodes, roots = (), []
    for table in tables:
        nodes += tuple(shifted(node, len(nodes)) for node in table)
        roots.append(len(nodes) - 1)
    return nodes + ((kind, *roots, *extra),)


def abs2_of(u):
    """abs2 as the parser builds it: one argument node, read twice."""
    return u + (("conj", len(u) - 1), ("mul", len(u) - 1, len(u)))


CONSTS = st.sampled_from([0j, 0.5 + 0j, -1.25 + 0.5j, 2j, -3.0 + 0j])
TWO = (("const", 2 + 0j),)
# node tables built directly, not parsed: an equal subexpression may occur
# twice, and only abs2 shares its argument
TREES = st.recursive(
    st.one_of(st.integers(1, 3).map(lambda j: (("var", j),)),
              CONSTS.map(lambda c: (("const", c),))),
    lambda inner: st.one_of(
        inner.map(lambda u: apply("conj", u)), inner.map(lambda u: apply("exp", u)),
        inner.map(abs2_of),
        st.builds(lambda u, e: apply("pow", u, extra=(e,)), inner, st.integers(0, 4)),
        st.builds(lambda u, v: apply("add", u, v), inner, inner),
        st.builds(lambda u, v: apply("sub", u, v), inner, inner),
        st.builds(lambda u, v: apply("mul", u, v), inner, inner),
        # a denominator that cannot vanish
        st.builds(lambda u, v: apply("div", u, apply("add", TWO, abs2_of(v))),
                  inner, inner)),
    max_leaves=12)
# the root blocks read by eval_raw, eval_value_grad and eval_jet_batch
# with holo False and True, the keys of the tape's programs
PROGRAMS = [("val",), ("val", "dz"), ("val", "dz", "dzzb"), ("val", "dz", "dzzb", "dzz")]


def same_bits(x, y) -> bool:
    """Equal shape, dtype and bytes, so signed zeros and nan payloads count."""
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def same_bits_but_nan(x, y) -> bool:
    """As same_bits, except that NaNs need only sit at the same places: the
    real and imaginary parts are compared one by one."""
    x, y = (np.ascontiguousarray(np.atleast_1d(v)) for v in (x, y))
    if x.shape != y.shape or x.dtype != y.dtype:
        return False
    x, y = x.view(np.float64), y.view(np.float64)
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and same_bits(x[~nan], y[~nan])


def replayed(tape, pts, blocks) -> dict:
    code, outputs = tape.program(blocks)
    registers = tape.replay(pts, code)
    return {name: None if s is None else registers[s] for name, s in outputs.items()}


def row(block, B, k):
    block = np.asarray(block)
    return np.broadcast_to(block, (B,) + block.shape[1:])[k]


@settings(max_examples=60, deadline=None)
@given(nodes=TREES, seed=st.integers(0, 2**32 - 1))
# exp overflows on some rows: their dzzb is NaN batched and alone, in other bits
@example(nodes=abs2_of(apply("exp", apply("exp", apply("exp", (("var", 1),))))), seed=0)
def test_replay_matches_direct_walk_bit_for_bit(nodes, seed):
    rng = np.random.default_rng(seed)
    ast = E.Ast(nodes, 3)
    for B in (1, 7, 200):
        pts = random_points(rng, 3, B)
        tape = E._tape(ast, pts)
        direct = E._Walk(nodes, pts, 3).run()
        for blocks in PROGRAMS:
            for name, block in replayed(tape, pts, blocks).items():
                reference = getattr(direct, name)
                assert (block is None) == (reference is None), name
                assert block is None or same_bits(block, reference), name
        # each row equals its point evaluated alone, up to the bits of a
        # NaN, which numpy may set differently for another batch length;
        # the other programs run a subset of these instructions on the same
        # operands
        blocks = replayed(tape, pts, PROGRAMS[-1])
        for k in range(B):
            alone = replayed(tape, pts[k:k + 1], PROGRAMS[-1])
            for name, block in blocks.items():
                assert block is None or same_bits_but_nan(
                    row(block, B, k), row(alone[name], 1, 0)), name
    assert len(ast._tapes) == 1


TEXTS = st.recursive(
    st.sampled_from(["z1", "z2", "z3", "0.5", "2", "i"]),
    lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(E._FUNCS), inner),
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        inner.map("-({})".format)),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(text=TEXTS)
def test_parse_emits_each_node_once_after_its_operands(text):
    nodes = E.parse(text).nodes
    assert len(set(nodes)) == len(nodes)
    read = set()
    for k, (kind, *args) in enumerate(nodes):
        operands = args[:{"var": 0, "const": 0, "pow": 1}.get(kind, 2)]
        assert all(0 <= i < k for i in operands), (k, kind, args)
        read.update(operands)
    # the root is the last node, and the only one no node reads
    assert read == set(range(len(nodes) - 1))


def test_parse_shares_equal_subexpressions():
    assert E.parse("abs2(z1)+abs2(z1)").nodes == (
        ("var", 1), ("conj", 0), ("mul", 0, 1), ("add", 2, 2))


@pytest.mark.filterwarnings("error")
def test_long_expression_hashes_prints_and_compares():
    text = parse_domain_file(DATA / "long_sum.dom").rho
    a, b = E.parse(text), E.parse(text)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith("Ast(nodes=")
    assert E.parse("z1+z2") != E.parse("z2+z1")


@pytest.fixture
def traces(monkeypatch):
    """The arguments of every trace made while the test runs."""
    calls = []
    trace = E._trace

    def counted(*args):
        calls.append(args)
        return trace(*args)
    monkeypatch.setattr(E, "_trace", counted)
    return calls


def test_theorem_pipeline_traces_its_expression_once(traces):
    domain = CATALOG["saddle3"].domain()
    run = pipeline.verify_theorem(domain, 200, seed=7)
    assert run.reclassification is not None  # the whole witness chain ran
    # the probes and the containment proof replay one tape
    assert [args[1:] for args in traces] == [(3,)]
    assert list(domain.ast._tapes) == [3]
    assert domain.ast._tapes[3].discs is not None


def test_tapes_stay_out_of_expression_identity(traces, rng):
    a, b = E.parse(SADDLE), E.parse(SADDLE)
    before = hash(a)
    pts = random_points(rng, 2, 3)
    for ast in (a, b, a, b):
        E.eval_jet_batch(ast, pts)
    assert len(traces) == 2  # a re-parsed expression traces its own tape
    assert a == b == E.parse(SADDLE)
    assert hash(a) == hash(b) == before
    assert repr(a) == repr(E.parse(SADDLE))


def test_enclosures_leave_the_float_tape_as_it_was(traces, rng):
    ast = E.parse("exp(re(z1^3)/(1+abs2(z2)))-im(z2)")
    pts = random_points(rng, 2, 3, scale=0.5)
    E.eval_jet_batch(ast, pts)
    tape = ast._tapes[2]
    code, registers, programs = list(tape.code), list(tape.registers), dict(tape.programs)
    for radius in (0.01, 0.0, 0.02):
        E.enclose_jet_batch(ast, pts, radius)
    # the enclosures replay the program of eval_jet_batch on the disc
    # registers, built once from the prelude
    assert len(traces) == 1 and list(ast._tapes) == [2]
    assert tape.programs[DISC_BLOCKS] is programs[DISC_BLOCKS]
    assert len(tape.discs) == len(registers)
    assert {type(tape.discs[s]) for s in tape.leaves} == {E._Disc}
    # the float registers, code and programs are as they were, to their
    # objects
    assert tape.code == code and tape.programs == programs
    assert all(now is then for now, then in zip(tape.registers, registers))
    assert len(tape.registers) == len(registers)


def test_cached_tape_raises_where_a_divisor_vanishes(rng):
    ast = E.parse("abs2(z2)+1/z1")
    E.eval_value_grad(ast, random_points(rng, 2, 4))
    tape = ast._tapes[2]
    bad = np.array([[0.5, 1j], [0.0, 1.0]])
    for evaluate in (E.eval_raw, E.eval_jet_batch):
        with pytest.raises(E.EvalError, match="non-finite value in evaluation"):
            evaluate(ast, bad)
    # eval_value_grad returns the zero-divisor row as NaN, and the other row
    # as it is alone
    value, grad = E.eval_value_grad(ast, bad)
    alone_value, alone_grad = E.eval_value_grad(ast, bad[:1])
    assert np.isnan(value[1]) and np.isnan(grad[1, 0])
    assert same_bits(value[:1], alone_value) and same_bits(grad[:1], alone_grad)
    assert ast._tapes == {2: tape}


def test_constant_zero_divisor_raises_on_every_call(traces, rng):
    # the zero divisor is a NaN constant on the tape, which is kept
    ast = E.parse("abs2(z1)+1/(2-2)")
    for _ in range(3):
        with pytest.raises(E.EvalError, match="non-finite value in evaluation"):
            E.eval_raw(ast, random_points(rng, 1, 4))
    assert len(traces) == 1 and list(ast._tapes) == [1]


def test_disc_trace_that_raises_caches_nothing(traces, rng):
    # the disc of the constant divisor 2 - 2 holds 0, so running the prelude
    # on discs raises, keeps no disc registers, and raises again on every
    # enclosure, with no new trace
    ast = E.parse("abs2(z1)+1/(2-2)")
    with pytest.raises(E.EvalError):
        E.eval_raw(ast, random_points(rng, 1, 4))
    for _ in range(3):
        with pytest.raises(E.EvalError, match="may contain zero"):
            E.enclose_jet_batch(ast, random_points(rng, 1, 2), 0.01)
        assert ast._tapes[1].discs is None
    assert [args[1:] for args in traces] == [(1,)]
    assert list(ast._tapes) == [1]


def test_pruned_programs_are_pure_dataflow(rng):
    # every instruction of a program is read by a later one or is an output:
    # nothing is kept for a side effect, divisions included
    ast = E.parse("abs2(z1)/(2+abs2(z2))+re(1/(z1-3))+exp(im(z2))/(1+abs2(z1-z2))")
    pts = random_points(rng, 2, 5)
    E.eval_raw(ast, pts)
    E.eval_value_grad(ast, pts)
    E.eval_jet_batch(ast, pts, holo=False)
    E.eval_jet_batch(ast, pts, holo=True)
    tape = ast._tapes[2]
    assert sorted(tape.programs) == sorted(PROGRAMS)
    for blocks, (code, outputs) in tape.programs.items():
        read = set(outputs.values())
        for fn, a, b, out, _ in reversed(code):
            assert out in read, (blocks, fn)
            read.update((a, b))


def test_zero_power_of_a_zero_divisor_is_one(rng):
    # the tape prunes the unused base, so its division by zero never runs
    ast = E.parse("abs2(z2)+(1/(z1-z1))^0")
    pts = random_points(rng, 2, 3)
    assert same_bits(E.eval_raw(ast, pts), E.eval_raw(E.parse("abs2(z2)+1"), pts))


def test_replay_releases_every_intermediate(rng):
    # only the outputs outlive a replay, beside the tape's own constants;
    # this keeps the peak memory of a large batch near the walk's
    ast = E.parse("abs2(z1+z2)^2+exp(re(z1))*abs2(z2)/(2+abs2(z1-z2))-1")
    pts = random_points(rng, 2, 5)
    E.eval_raw(ast, pts)
    E.eval_value_grad(ast, pts)
    E.eval_jet_batch(ast, pts, holo=False)
    E.eval_jet_batch(ast, pts, holo=True)
    tape = ast._tapes[2]
    assert sorted(tape.programs) == sorted(PROGRAMS)
    for blocks, (code, outputs) in tape.programs.items():
        registers = tape.replay(pts, code)
        held = {s for s, (now, constant) in enumerate(zip(registers, tape.registers))
                if now is not None and now is not constant}
        assert held == {s for s in outputs.values()
                        if s is not None and tape.registers[s] is None}
        assert held, blocks


def test_each_program_is_pruned_once_per_tape_and_blocks(rng):
    ast = E.parse("abs2(z1)^2+re(z1*conj(z2))-1")
    built = {}
    for _ in range(3):
        for cols in (2, 3):
            pts = random_points(rng, cols, 4)
            E.eval_raw(ast, pts)
            E.eval_value_grad(ast, pts)
            E.eval_jet_batch(ast, pts, holo=False)
            tape = ast._tapes[cols]
            assert sorted(tape.programs) == sorted(PROGRAMS[:3])
            for blocks, program in tape.programs.items():
                assert built.setdefault((cols, blocks), program) is program
    assert sorted(ast._tapes) == [2, 3] and len(built) == 6


@pytest.mark.parametrize("dtype", [np.complex64, np.float64, np.int64])
def test_points_of_any_dtype_replay_the_complex_tape(dtype, traces, rng):
    ast = E.parse("abs2(z1)^2+re(z1*conj(z2))+exp(im(z2))/(2+abs2(z1))")
    pts = 4 * random_points(rng, 2, 6)
    pts = (pts if np.issubdtype(dtype, np.complexfloating) else pts.real).astype(dtype)

    def every_block(points):
        value, grad = E.eval_value_grad(ast, points)
        jet = E.eval_jet_batch(ast, points)
        return (E.eval_raw(ast, points), value, grad,
                jet.val, jet.dz, jet.dzzb, jet.dzz)
    for got, want in zip(every_block(pts), every_block(pts.astype(complex))):
        assert same_bits(got, want)
    assert len(traces) == 1 and list(ast._tapes) == [2]


# ---------------------------------------------------------------------------
# enclosures: the tape replayed on disc registers, per batch of polydiscs
# ---------------------------------------------------------------------------

DISC_BLOCKS = PROGRAMS[-1]  # the blocks an enclosure reads


def live(nodes):
    """nodes, with each node the root does not read made a constant.  A zero
    power reads no base: the tape prunes the base, which the walk forms."""
    read = {len(nodes) - 1}
    for k in range(len(nodes) - 1, -1, -1):
        kind, *args = nodes[k]
        if k in read and kind not in ("var", "const") and (kind, args[-1]) != ("pow", 0):
            read.update(args[:1] if kind in ("conj", "exp", "pow") else args)
    return tuple(node if k in read else ("const", 0j) for k, node in enumerate(nodes))


def parts(block) -> tuple:
    return (block.mid, block.rad) if isinstance(block, E._Disc) else (block,)


@settings(max_examples=60, deadline=None)
@given(nodes=TREES, seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-3, 0.5, 4.0]))
# a zero power of a divisor whose disc holds 0: the walk raises, the tape
# prunes the base
@example(nodes=apply("pow", apply("div", TWO, apply("sub", (("var", 1),), TWO)),
                     extra=(0,)), seed=0, scale=4.0)
def test_disc_replay_matches_direct_disc_walk_bit_for_bit(nodes, seed, scale):
    rng = np.random.default_rng(seed)
    ast = E.Ast(nodes, 3)
    for B in (1, 2, 7):
        centers = random_points(rng, 3, B)
        discs = E._Disc(centers, np.broadcast_to(scale * rng.random((B, 1)), centers.shape))
        # a divisor's disc may hold 0 at scale 0.5 and 4, and both then raise
        try:
            want = DiscWalk(live(nodes), discs, 3).run()
        except E.EvalError:
            want = None
        try:
            got = replayed(E._tape(ast, centers), discs, DISC_BLOCKS)
        except E.EvalError:
            got = None
        assert (got is None) == (want is None)
        for name, block in (got or {}).items():
            reference = getattr(want, name)
            assert (block is None) == (reference is None), name
            assert block is None or (type(block) is type(reference) and all(
                same_bits(x, y) for x, y in zip(parts(block), parts(reference)))), name
    assert list(ast._tapes) == [3]


def test_zero_power_of_a_disc_around_zero_is_one():
    # the disc walk raises on the base 1/(z1 - z1); the tape prunes it
    ast = E.parse("abs2(z2)+(1/(z1-z1))^0")
    centers, radius = np.array([[0.5, 0.25j]]), 0.1
    discs = E._Disc(centers, np.full(centers.shape, radius))
    with pytest.raises(E.EvalError, match="may contain zero"):
        DiscWalk(ast.nodes, discs, 2).run()
    got = E.enclose_jet_batch(ast, centers, radius)
    want = E.enclose_jet_batch(E.parse("abs2(z2)+1"), centers, radius)
    for name in DISC_BLOCKS:
        assert all(same_bits(x, y) for x, y in zip(parts(getattr(got, name)),
                                                   parts(getattr(want, name)))), name


def test_disc_tape_keeps_the_rounding_of_its_constants():
    # the product (0.1+0.2i)*0.3 rounds; the prelude folds it into one
    # complex number on floats, and into a disc that holds the exact product
    # on discs
    ast = E.parse("(0.1+0.2*i)*0.3*z1")
    centers = np.array([[0.5 + 0.5j]])
    E.eval_raw(ast, centers)
    E.enclose_jet_batch(ast, centers, 0.0)
    tape = ast._tapes[1]
    (_, (c, _), _), = [op for op in tape.code if len(op[1]) == 2]
    disc, folded = tape.discs[c], tape.registers[c]
    assert isinstance(disc, E._Disc) and disc.rad > 0.0
    assert type(folded) is np.complex128 and same_bits(folded, disc.mid)
    # the sum 0.1+0.2i and its terms, which only the prelude reads, are kept
    # in neither register file
    released = [out for _, _, out in tape.prelude
                if out != c and out not in tape.blocks.values()]
    assert released and all(tape.registers[s] is None and tape.discs[s] is None
                            for s in released)
    exact = (Fraction(0.1) * Fraction(0.3), Fraction(0.2) * Fraction(0.3))
    mid = (Fraction(disc.mid.real), Fraction(disc.mid.imag))
    assert mid != exact
    assert sum((x - y) ** 2 for x, y in zip(mid, exact)) <= Fraction(float(disc.rad)) ** 2


# ---------------------------------------------------------------------------
# structural zeros: missing jet blocks come back as full-shape zeros
# ---------------------------------------------------------------------------

def jets_on_every_path(ast, pts):
    """Evaluate through every public batch entry point; check they agree."""
    raw = E.eval_raw(ast, pts)
    value, grad = E.eval_value_grad(ast, pts)
    full = E.eval_jet_batch(ast, pts, holo=True)
    mixed_only = E.eval_jet_batch(ast, pts, holo=False)
    B, n = pts.shape
    assert raw.shape == value.shape == (B,)
    assert grad.shape == (B, n) and full.dzzb.shape == full.dzz.shape == (B, n, n)
    for block in (raw, grad, full.dz, full.dzzb, full.dzz, mixed_only.dzzb):
        assert block.dtype == np.complex128
    assert mixed_only.dzz is None
    assert np.array_equal(value, raw.real)
    for jets in (full, mixed_only):
        assert np.array_equal(jets.val, value)
        assert np.array_equal(jets.dz, grad)
    assert np.array_equal(mixed_only.dzzb, full.dzzb)
    return value, grad, full.dzzb, full.dzz


def test_constant_expression_has_zero_blocks(rng):
    pts = random_points(rng, 2, 5)
    value, grad, mixed, holo = jets_on_every_path(E.parse("3"), pts)
    assert np.array_equal(value, np.full(5, 3.0))
    for block in (grad, mixed, holo):
        assert not np.any(block)
        assert not np.any(np.signbit(block.real)) and not np.any(np.signbit(block.imag))


def test_unused_variable_has_zero_derivatives(rng):
    pts = random_points(rng, 2, 6)
    _, grad, mixed, holo = jets_on_every_path(E.parse("abs2(z1)-1"), pts)
    assert not np.any(grad[:, 1])
    assert not np.any(mixed[:, 1, :]) and not np.any(mixed[:, :, 1])
    assert not np.any(holo)
    assert np.allclose(grad[:, 0], np.conj(pts[:, 0]))
    assert np.array_equal(mixed[:, 0, 0], np.ones(6))


@pytest.mark.parametrize("text", ["z1^0", "z1-z1", "2/(3+abs2(z1))", "exp(2)+abs2(z2)"])
def test_constant_heavy_jets_match_finite_differences(text, rng):
    ast = E.parse(text)
    pts = random_points(rng, 2, 4, scale=0.7)
    value, grad, mixed, holo = jets_on_every_path(ast, pts)
    for k, point in enumerate(pts):
        fd_val, fd_grad, fd_mixed, fd_holo = fd_wirtinger_jet(ast, point)
        scale = 1.0 + max(abs(fd_val), np.max(np.abs(fd_mixed)))
        assert abs(value[k] - fd_val) <= 1e-6 * scale
        assert np.max(np.abs(grad[k] - fd_grad)) <= 1e-6 * scale
        assert np.max(np.abs(mixed[k] - fd_mixed)) <= 1e-6 * scale
        assert np.max(np.abs(holo[k] - fd_holo)) <= 1e-6 * scale


def test_variable_values_do_not_alias_points(rng):
    pts = random_points(rng, 2, 3)
    before = pts.copy()
    raw = E.eval_raw(E.parse("z1"), pts)
    assert not np.shares_memory(raw, pts)
    raw[:] = 99.0
    assert np.array_equal(pts, before)


# ---------------------------------------------------------------------------
# midpoint-radius discs: each operation encloses its exact results
# ---------------------------------------------------------------------------

EXACT = np.array([0.5 - 2j, 3.0, -1j])
DISC_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "inv": lambda x, y: 1.0 / y,
    "conj": lambda x, y: np.conj(x),
    "exp": lambda x, y: np.exp(x),
    "index": lambda x, y: x[..., ::-1],
    "exact_mul": lambda x, y: EXACT * x,
    "exact_sub": lambda x, y: EXACT - x,
}


def random_disc(rng, scale):
    mid = 2.0 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return E._Disc(mid, scale * rng.random(3))


def points_in(rng, disc, count):
    """count points of each disc, in extended precision and strictly inside."""
    shape = (count,) + disc.shape
    offset = (1 - 1e-9) * np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))
    return disc.mid.astype(np.clongdouble) + disc.rad * offset.astype(np.clongdouble)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
       op=st.sampled_from(sorted(DISC_OPS)))
def test_disc_operations_enclose_exact_results(seed, scale, op):
    rng = np.random.default_rng(seed)
    x, y = random_disc(rng, scale), random_disc(rng, scale)
    fn = DISC_OPS[op]
    if op == "inv" and not np.all(y.gap() > 0):
        with pytest.raises(E.EvalError):
            fn(x, y)
        return
    out = fn(x, y)
    exact = fn(points_in(rng, x, 200), points_in(rng, y, 200))
    assert np.all(np.abs(exact - out.mid) <= out.rad)


def test_disc_walk_matches_float_walk_at_thin_points(rng):
    ast = E.parse("exp(re(z1^3)/(1+abs2(z2)))-im(z2)")
    pts = random_points(rng, 2, 5, scale=0.6)
    enc = E.enclose_jet_batch(ast, pts, 0.0)
    jet = E.eval_jet_batch(ast, pts)
    for disc, values in [(enc.val, jet.val), (enc.dz, jet.dz),
                         (enc.dzz, jet.dzz), (enc.dzzb, jet.dzzb)]:
        assert np.all(np.abs(values - disc.mid) <= disc.rad)
        assert np.max(disc.rad) <= 1e-10


def test_disc_division_by_a_disc_around_zero():
    with pytest.raises(E.EvalError):
        E.enclose_jet_batch(E.parse("1/z1"), [[0.1 + 0j]], 0.2)


# ---------------------------------------------------------------------------
# realness
# ---------------------------------------------------------------------------

def test_check_real_valued():
    one, two = (np.array([[-1.0, 1.0]] * (2 * n)) for n in (1, 2))
    assert E.check_real_valued(E.parse("abs2(z1)-1"), one)
    assert not E.check_real_valued(E.parse("z1"), one)
    assert E.check_real_valued(E.parse("re(z1)+im(z2)"), two)
    assert not E.check_real_valued(E.parse("z1*z2+1"), two)


def test_realness_points_are_the_box_samples_of_its_seed(monkeypatch):
    drawn = []
    eval_raw = E.eval_raw

    def recorded(ast, points):
        drawn.append(points)
        return eval_raw(ast, points)
    monkeypatch.setattr(E, "eval_raw", recorded)
    box = CATALOG["ball"].box()
    assert E.check_real_valued(E.parse(BALL), box)
    assert np.array_equal(drawn[0], levi.sample_box_points(
        box, E.REALNESS_TRIALS, E.REALNESS_SEED))


def test_check_real_valued_on_affine_maps():
    # abs2(z1)+z2 is real exactly where z2 is; the first map keeps z2 = 0.5
    ast = E.parse("abs2(z1)+z2")
    box = np.array([[-2.0, 2.0]] * 4)
    a = np.array([[0, 0.5], [0, 0.5]], complex)
    frame = np.array([[[1, 0], [0, 0]], [[1, 0], [0, 1]]], complex)
    assert E.check_real_valued(ast, box, a=a[:1], frame=frame[:1])
    assert not E.check_real_valued(ast, box, a=a, frame=frame)
    composed = [compose_with_affine(ast, a[k], frame[k, :, 0], frame[k, :, 1])
                for k in range(2)]
    assert [E.check_real_valued(c, box) for c in composed] == [True, False]


# ---------------------------------------------------------------------------
# affine composition
# ---------------------------------------------------------------------------

def test_compose_identity_slice(rng):
    ast = E.parse(BALL)
    composed = compose_with_affine(ast, [0, 0], [1, 0], [0, 1])
    pts = random_points(rng, 2, 10)
    assert np.allclose(E.eval_raw(composed, pts), E.eval_raw(ast, pts))


def test_compose_projects_coordinates(rng):
    ast = E.parse("re(z2)")
    composed = compose_with_affine(ast, [0, 0], [0, 1], [1, 0])
    w = random_points(rng, 2, 10)
    assert np.allclose(E.eval_raw(composed, w), w[:, 0].real)


def test_compose_worked_witness_slice(rng):
    # rho = re(z2)-abs2(z1) through a=(0,-0.1), b=(0,0.1), c=(1,0)
    # gives rho_h = 0.1*re(w1) - 0.1 - abs2(w2)
    ast = E.parse(SADDLE)
    composed = compose_with_affine(ast, [0, -0.1], [0, 0.1], [1, 0])
    w = random_points(rng, 2, 20)
    expected = 0.1 * w[:, 0].real - 0.1 - np.abs(w[:, 1]) ** 2
    assert np.allclose(E.eval_raw(composed, w).real, expected, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_compose_value_consistency(seed):
    rng = np.random.default_rng(seed)
    ast = E.parse("abs2(z1)^2+abs2(z2)-1")
    a, b, c = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
    composed = compose_with_affine(ast, a, b, c)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z = a + b * w[0] + c * w[1]
    v1 = E.eval_raw(composed, w[None, :])[0]
    v2 = E.eval_raw(ast, z[None, :])[0]
    assert abs(v1 - v2) <= 1e-12 * (1 + abs(v2))
