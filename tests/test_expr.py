import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levislice import expr as E
from fd_oracle import fd_wirtinger_jet
from oracles import compose_with_affine

BALL = "abs2(z1)+abs2(z2)-1"
SADDLE = "re(z2)-abs2(z1)"


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
    assert jet.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(jet.grad, [1, 0])
    assert np.allclose(jet.mixed, np.eye(2))
    assert np.allclose(jet.holo, 0)


def test_jet_saddle_at_origin():
    jet = E.eval_jet(E.parse(SADDLE), [0, 0])
    assert jet.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(jet.grad, [0, 0.5])
    assert np.allclose(jet.mixed, np.diag([-1.0, 0.0]))
    assert np.allclose(jet.holo, 0)


def test_jet_saddle3_at_origin():
    jet = E.eval_jet(E.parse("re(z3)-abs2(z1)-abs2(z2)"), [0, 0, 0])
    assert np.allclose(jet.grad, [0, 0, 0.5])
    assert np.allclose(jet.mixed, np.diag([-1.0, -1.0, 0.0]))


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
            assert abs(jet.value - val) <= 1e-6 * scale
            assert np.max(np.abs(jet.grad - grad)) <= 1e-6 * scale
            assert np.max(np.abs(jet.mixed - mixed)) <= 1e-6 * scale
            assert np.max(np.abs(jet.holo - holo)) <= 1e-6 * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_mixed_hessian_hermitian_for_real_expressions(seed):
    rng = np.random.default_rng(seed)
    ast = E.parse("abs2(z1)^2+re(z1*conj(z2))+exp(im(z2))-abs2(z2)")
    pts = random_points(rng, 2, 8, scale=0.8)
    jets = E.eval_jet_batch(ast, pts)
    gap = np.abs(jets.mixed - np.conj(np.swapaxes(jets.mixed, 1, 2)))
    assert np.max(gap) <= 1e-12
    sym_gap = np.abs(jets.holo - np.swapaxes(jets.holo, 1, 2))
    assert np.max(sym_gap) <= 1e-12


def test_conj_swaps_jet_blocks(rng):
    base = E.parse("z1*z1*conj(z2)+exp(z2)")
    flipped = E.Ast(E.Conj(base.root), base.n)
    pts = random_points(rng, 2, 6)
    j1 = E.eval_jet_batch(base, pts)
    j2 = E.eval_jet_batch(flipped, pts)
    # mixed(conj u) = conj(mixed u)^T, holo(conj u) = conj(antiholo u)
    assert np.allclose(j2.mixed, np.conj(np.swapaxes(j1.mixed, 1, 2)))


def test_jet_walk_releases_every_intermediate(rng):
    # abs2 shares its argument; the shared jet is read twice, then dropped
    ast = E.parse("abs2(z1+z2)^2+exp(re(z1))*abs2(z2)-1")
    walk = E._Walk(ast.root, random_points(rng, 2, 4), 2, True)
    walk.eval(ast.root)
    assert walk.memo == {}
    assert set(walk.uses.values()) == {0}


def test_mixed_only_jets_match_full_jets(rng):
    ast = E.parse("abs2(z1)^2+re(z1*conj(z2))+exp(im(z2))/(2+abs2(z1))")
    pts = random_points(rng, 2, 7, scale=0.8)
    full = E.eval_jet_batch(ast, pts)
    mixed_only = E.eval_jet_batch(ast, pts, holo=False)
    assert mixed_only.holo is None and full.holo is not None
    assert np.array_equal(mixed_only.mixed, full.mixed)
    assert np.array_equal(mixed_only.grad, full.grad)
    assert np.array_equal(mixed_only.value, full.value)


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
    assert grad.shape == (B, n) and full.mixed.shape == full.holo.shape == (B, n, n)
    for block in (raw, grad, full.grad, full.mixed, full.holo, mixed_only.mixed):
        assert block.dtype == np.complex128
    assert mixed_only.holo is None
    assert np.array_equal(value, raw.real)
    for jets in (full, mixed_only):
        assert np.array_equal(jets.value, value)
        assert np.array_equal(jets.grad, grad)
    assert np.array_equal(mixed_only.mixed, full.mixed)
    return value, grad, full.mixed, full.holo


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
    for disc, values in [(enc.val, jet.value), (enc.dz, jet.grad),
                         (enc.dzz, jet.holo), (enc.dzzb, jet.mixed)]:
        assert np.all(np.abs(values - disc.mid) <= disc.rad)
        assert np.max(disc.rad) <= 1e-10


def test_disc_division_by_a_disc_around_zero():
    with pytest.raises(E.EvalError):
        E.enclose_jet_batch(E.parse("1/z1"), [[0.1 + 0j]], 0.2)


# ---------------------------------------------------------------------------
# realness
# ---------------------------------------------------------------------------

def test_check_real_valued():
    assert E.check_real_valued(E.parse("abs2(z1)-1"), 50, 3)
    assert not E.check_real_valued(E.parse("z1"), 50, 3)
    assert E.check_real_valued(E.parse("re(z1)+im(z2)"), 50, 3)
    assert not E.check_real_valued(E.parse("z1*z2+1"), 50, 3)


def test_check_real_valued_on_affine_maps():
    # abs2(z1)+z2 is real exactly where z2 is; the first map keeps z2 = 0.5
    ast = E.parse("abs2(z1)+z2")
    box = np.array([[-2.0, 2.0]] * 4)
    a = np.array([[0, 0.5], [0, 0.5]], complex)
    frame = np.array([[[1, 0], [0, 0]], [[1, 0], [0, 1]]], complex)
    assert E.check_real_valued(ast, 64, 0, box=box, a=a[:1], frame=frame[:1])
    assert not E.check_real_valued(ast, 64, 0, box=box, a=a, frame=frame)
    composed = [compose_with_affine(ast, a[k], frame[k, :, 0], frame[k, :, 1])
                for k in range(2)]
    assert [E.check_real_valued(c, 64, 0, box=box) for c in composed] == [True, False]


# ---------------------------------------------------------------------------
# printing round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    BALL, SADDLE, "exp(z1^3/(1+abs2(z2)))-im(z2)", "-(z1-conj(z2))^4+2.5e-3*i",
])
def test_print_parse_round_trip(text, rng):
    ast = E.parse(text)
    again = E.parse(E.to_string(ast))
    pts = random_points(rng, max(ast.n, 1), 10, scale=0.6)
    v1 = E.eval_raw(ast, pts)
    v2 = E.eval_raw(again, pts)
    assert np.max(np.abs(v1 - v2)) <= 1e-12 * (1 + np.max(np.abs(v1)))


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
