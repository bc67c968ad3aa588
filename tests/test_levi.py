import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levislice import catalog
from levislice import expr as E
from levislice import levi
from levislice import pipeline
from levislice.catalog import CATALOG
from oracles import (compose_with_affine, levi_form_at, newton_reference,
                     project_to_boundary, pulled_back_mixed, reports_one_by_one)
from rotated import rotated_domain

DATA = Path(__file__).parent / "data"


def domain_of(name):
    return CATALOG[name].domain()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_domain_rejects_complex_valued_rho():
    with pytest.raises(levi.DomainError):
        levi.make_domain("z1+z2")


def test_make_domain_rejects_bad_box():
    with pytest.raises(levi.DomainError):
        levi.make_domain("abs2(z1)-1", box=np.array([[1.0, -1.0], [0.0, 1.0]]))
    # the width of the first box overflows although its bounds are finite
    for lo, hi in [(-1e308, 1e308), (-np.inf, 1.0), (0.0, np.nan)]:
        with pytest.raises(levi.DomainError, match="finite width"):
            levi.make_domain("abs2(z1)+abs2(z2)-1", box=np.array([[lo, hi]] * 4))


@pytest.mark.filterwarnings("error")
def test_domains_compare_and_hash_by_identity():
    spec = catalog.parse_domain_file(DATA / "long_sum.dom")
    a, b = (levi.make_domain(spec.rho, spec.box()) for _ in range(2))
    assert a == a and a != b and a.ast == b.ast
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
    assert repr(a).startswith("Domain(ast=Ast(nodes=")


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_ball_from_outside():
    dom = domain_of("ball")
    pt = project_to_boundary(dom, [2, 0])
    assert np.allclose(pt, [1, 0], atol=1e-8)


def test_project_ball_from_inside_radial():
    dom = domain_of("ball")
    pt = project_to_boundary(dom, [0.5, 0])
    assert np.allclose(pt, [1, 0], atol=1e-8)


def test_project_saddle_quadric():
    dom = domain_of("saddle2")
    pt = project_to_boundary(dom, [0, 0.3])
    value = E.eval_raw(dom.ast, pt[None, :])[0].real
    assert abs(value) <= 1e-9 * 3
    assert np.allclose(pt, [0, 0], atol=1e-8)


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

def test_sample_boundary_ball_residuals():
    dom = domain_of("ball")
    pts = levi.sample_boundary(dom, 100, seed=7)
    assert len(pts) >= 50
    residuals = np.abs(np.sum(np.abs(pts) ** 2, axis=1) - 1.0)
    assert np.max(residuals) <= 1e-8


def test_sample_boundary_box_misses_boundary():
    box = np.array([[2.0, 3.0]] * 4)
    dom = levi.Domain(E.parse("abs2(z1)+abs2(z2)-1"), box)
    with pytest.raises(levi.BoundaryNotFoundError):
        levi.sample_boundary(dom, 40, seed=1)


def test_sample_boundary_single_point():
    pts = levi.sample_boundary(domain_of("ball"), 1, seed=11)
    assert pts.shape == (1, 2)


def _eval_sizes(monkeypatch) -> list[int]:
    """Record the batch size of every eval_value_grad call from here on."""
    sizes = []
    value_grad = E.eval_value_grad

    def recorded(ast, points):
        sizes.append(len(points))
        return value_grad(ast, points)

    monkeypatch.setattr(E, "eval_value_grad", recorded)
    return sizes


def _same_bits(x, y) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_packed_newton_matches_each_row_alone(monkeypatch):
    # the ball from inside, outside, far away and from its centre, where the
    # gradient vanishes: rows converge at different iterations and one fails
    dom = domain_of("ball")
    starts = np.concatenate([levi.sample_box_points(dom.box, 12, seed=4),
                             [[0, 0], [30, 40j], [1e-3, 0], [1e5, -1e5j]]])
    sizes = _eval_sizes(monkeypatch)
    w, done = levi._newton(dom.ast, starts)
    assert len(set(sizes)) >= 4               # the pack shrank at least three times
    assert not done[12] and done.sum() == len(starts) - 1
    for i in range(len(starts)):
        alone, done_alone = levi._newton(dom.ast, starts[i:i + 1])
        assert _same_bits(w[i], alone[0]) and done[i] == done_alone[0]


def test_packed_newton_on_slice_frames_matches_each_row_alone(monkeypatch):
    dom = rotated_domain("ellipsoid", 3, seed=5)
    points = levi.classify(dom, 6, seed=2).points
    a, frame = pipeline.sweep_slices(dom, points, 6, seed=2)
    box = levi.square_box(2, pipeline.SLICE_WINDOW)
    rows = np.repeat(np.arange(6), 5)
    starts = levi.sample_box_points(box, 30, seed=2)
    sizes = _eval_sizes(monkeypatch)
    w, done = levi._newton(dom.ast, starts, a[rows], frame[rows])
    assert len(set(sizes)) >= 3
    for i, k in enumerate(rows):
        alone, done_alone = levi._newton(dom.ast, starts[i:i + 1],
                                         a[k:k + 1], frame[k:k + 1])
        assert _same_bits(w[i], alone[0]) and done[i] == done_alone[0]


def _one_newton_run(sizes, count: int) -> bool:
    """Whether the recorded batch sizes are those of one packed Newton run
    on count starts: it starts with all of them and its pack only shrinks."""
    return (0 < len(sizes) <= 50 and sizes[0] == count
            and sizes == sorted(sizes, reverse=True))


def test_projection_drops_only_points_that_fail_to_evaluate(monkeypatch):
    # the extra term is 0 except at re(z1) = 0.5, where it divides by zero
    ast = E.parse("abs2(z1)+abs2(z2)-1+0*(1/(re(z1)-0.5))")
    starts = np.array([[0.3, 0.2j], [0.5, 0.3], [2.0, 0.0], [0.1j, -0.9]], complex)
    sizes = _eval_sizes(monkeypatch)
    pts, ok = levi._newton(ast, starts)
    assert ok.tolist() == [True, False, True, True]
    assert _one_newton_run(sizes, len(starts))
    for i in (0, 2, 3):
        alone, ok_alone = levi._newton(ast, starts[i:i + 1])
        assert ok_alone[0] and _same_bits(pts[i], alone[0])


def test_projection_splits_off_a_row_that_overflows_partway(monkeypatch):
    # from re(z1) = -10 the first step jumps to re(z1) ~ 2e4, where exp
    # overflows: the row fails on its second evaluation, not its first
    ast = E.parse("exp(re(z1))+abs2(z2)-1")
    starts = np.array([[0.5, 0.3], [-10, 0], [-1, 2j], [-30, 0.1]], complex)
    sizes = _eval_sizes(monkeypatch)
    alone, ok_alone = levi._newton(ast, starts[1:2])
    assert sizes == [1, 1] and not ok_alone[0]
    # it stops where it failed, not at its start
    assert np.isinf(E.eval_value_grad(ast, alone)[0][0])
    del sizes[:]
    pts, ok = levi._newton(ast, starts)
    assert ok.tolist() == [True, False, True, True]
    assert _one_newton_run(sizes, len(starts))
    for i in (0, 2, 3):
        alone, ok_alone = levi._newton(ast, starts[i:i + 1])
        assert ok_alone[0] and _same_bits(pts[i], alone[0])


def test_classify_projects_in_one_newton_run(monkeypatch):
    # steep.dom's rho overflows on most of its box; each failed row drops out
    # of the one run instead of splitting the batch and restarting Newton
    dom = catalog.load_domain_spec(str(DATA / "steep.dom")).domain()
    sizes = _eval_sizes(monkeypatch)
    with pytest.raises(levi.BoundaryNotFoundError):
        levi.classify(dom, 2000, 1)
    assert _one_newton_run(sizes, 2000)


def test_newton_accepts_only_points_within_tolerance_of_the_boundary():
    # on steep.dom the gradient overflows near some iterates: a row whose
    # 2|grad rho| is inf would pass |rho| <= BOUNDARY_EPS (1 + 2|grad rho|)
    # at any finite rho, so such a row fails instead
    dom = catalog.load_domain_spec(str(DATA / "steep.dom")).domain()
    starts = levi.sample_box_points(dom.box, 2000, 1)
    w, done = levi._newton(dom.ast, starts)
    vals, grads = E.eval_value_grad(dom.ast, w[done])
    big = np.abs(grads).max(axis=1)
    rgn = 2.0 * big * np.linalg.norm(grads / big[:, None], axis=1)
    assert done.any() and np.all(np.isfinite(rgn))
    assert np.all(np.abs(vals) <= levi.BOUNDARY_EPS * (1.0 + rgn))


def test_newton_converges_where_the_gradient_is_below_the_floor():
    # on tiny_ball.dom |d rho| = 1e-9 |z|: Newton tests no gradient floor,
    # so every row converges, and only the Levi stage calls it degenerate
    dom = catalog.load_domain_spec(str(DATA / "tiny_ball.dom")).domain()
    starts = levi.sample_box_points(dom.box, 50, 1)
    w, done = levi._newton(dom.ast, starts)
    assert done.all()
    vals, grads = E.eval_value_grad(dom.ast, w)
    rgn = 2.0 * np.linalg.norm(grads, axis=1)
    assert np.all(rgn < levi.GRAD_FLOOR)
    assert np.all(np.abs(vals) <= levi.BOUNDARY_EPS * (1.0 + rgn))
    ref, ref_done = newton_reference(dom.ast, starts)
    assert _same_bits(w, ref) and ref_done.all()


def test_newton_fails_a_non_finite_point_where_rho_stays_finite():
    # rho leaves z1 out, so a non-finite z1 leaves rho and its gradient finite
    ast = E.parse("abs2(z2)-1")
    starts = np.array([[np.nan, 0.5], [0.3, 2.0], [np.inf, 0.2j]], complex)
    w, done = levi._newton(ast, starts)
    assert done.tolist() == [False, True, False]
    assert _same_bits(w[[0, 2]], starts[[0, 2]])
    alone, _ = levi._newton(ast, starts[1:2])
    assert _same_bits(w[1], alone[0])


def test_gradient_norms_survive_overflow_and_keep_the_bits_of_finite_rows():
    # one norm rule for Newton and the Levi stage, linalg.row_norms: a finite
    # row whose squares overflow gets a finite norm, a non-finite row NaN,
    # any other row the bits of np.linalg.norm
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    g[3] *= 1e160
    g[4, 1] = np.inf
    g[5, 0] = np.nan
    gn = levi.la.row_norms(g)
    assert np.array_equal(gn[:3], np.linalg.norm(g[:3], axis=1))
    assert gn[3] == pytest.approx(1e160 * np.linalg.norm(g[3] / 1e160), rel=1e-15)
    assert np.isnan(gn[4]) and np.isnan(gn[5])


@functools.lru_cache(maxsize=None)
def newton_case(name: str):
    """(ast, box, a, frame) of a Newton input: an ambient domain (a and frame
    None), loaded without its realness check, which overflow.dom fails, or
    the forward-sweep slices of a rotated ellipsoid, with the w-box."""
    if name.startswith("rot"):
        dom = rotated_domain("ellipsoid", int(name[-1]), seed=5)
        a, frame = pipeline.sweep_slices(dom, levi.classify(dom, 6, seed=2).points,
                                         6, seed=2)
        return dom.ast, levi.square_box(2, pipeline.SLICE_WINDOW), a, frame
    spec = catalog.load_domain_spec(name if name == "ball" else str(DATA / f"{name}.dom"))
    return E.parse(spec.rho), spec.box(), None, None


# starts where rho or the point is not finite (the cylinder's rho stays
# finite where z2 is not), the ball's centre, where the gradient vanishes,
# and starts far away
SPECIAL_STARTS = np.array([[np.nan, 0.5], [0.3, np.inf], [np.inf, 0.2j], [0, 0],
                           [1e5, -1e5j], [-1e5j, 1e5]])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["ball", "steep", "overflow", "cylinder",
                             "rot-ellipsoid3", "rot-ellipsoid4"]),
       seed=st.integers(0, 2**16), count=st.integers(1, 80))
def test_newton_matches_the_reference_bit_for_bit(name, seed, count):
    ast, box, a, frame = newton_case(name)
    starts = np.concatenate([levi.sample_box_points(box, count, seed),
                             SPECIAL_STARTS])
    if frame is not None:
        rows = np.random.default_rng(seed).integers(0, len(a), len(starts))
        a, frame = a[rows], frame[rows]
    w, done = levi._newton(ast, starts, a, frame)
    want_w, want_done = newton_reference(ast, starts, a, frame)
    assert _same_bits(w, want_w) and _same_bits(done, want_done)


def test_sample_boundary_deterministic_per_index():
    dom = domain_of("ball")
    a = levi.sample_box_points(dom.box, 10, seed=3)
    b = levi.sample_box_points(dom.box, 5, seed=3)
    assert np.array_equal(a[:5], b)


# ---------------------------------------------------------------------------
# Levi form
# ---------------------------------------------------------------------------

def test_levi_form_ball():
    dom = domain_of("ball")
    assert levi_form_at(dom, [1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_levi_form_saddle_origin():
    dom = domain_of("saddle2")
    assert levi_form_at(dom, [0, 0], [1, 0]) == pytest.approx(-1.0, abs=1e-12)


def test_levi_form_zero_vector():
    dom = domain_of("saddle2")
    assert levi_form_at(dom, [0, 0], [0, 0]) == 0.0


def test_levi_form_phase_and_scale_invariance(rng):
    dom = domain_of("polyball")
    M = project_to_boundary(dom, [0.7, 0.6])
    Z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    base = levi_form_at(dom, M, Z)
    for theta in rng.random(5) * 2 * np.pi:
        rotated = levi_form_at(dom, M, np.exp(1j * theta) * Z)
        assert rotated == pytest.approx(base, abs=1e-12 * (1 + abs(base)))
    for t in (0.5, 2.0, -3.0):
        scaled = levi_form_at(dom, M, t * Z)
        assert scaled == pytest.approx(t * t * base, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# restricted minimum
# ---------------------------------------------------------------------------

def test_restricted_levi_min_ball():
    dom = domain_of("ball")
    probe = levi.restricted_levi_min(dom, [1, 0])
    assert probe.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert abs(np.sum(E.eval_jet(dom.ast, probe.point).dz * probe.direction)) <= 1e-10


def test_restricted_levi_min_saddle_origin():
    probe = levi.restricted_levi_min(domain_of("saddle2"), [0, 0])
    assert probe.lambda_min == pytest.approx(-1.0, abs=1e-12)
    # direction is (1, 0) up to phase
    assert abs(abs(probe.direction[0]) - 1.0) <= 1e-12
    assert abs(probe.direction[1]) <= 1e-12


def test_restricted_levi_min_saddle3_origin():
    probe = levi.restricted_levi_min(domain_of("saddle3"), [0, 0, 0])
    assert probe.lambda_min == pytest.approx(-1.0, abs=1e-12)
    assert abs(probe.direction[2]) <= 1e-10  # minimizer lies in span{e1, e2}


@pytest.mark.filterwarnings("error")
def test_restricted_levi_min_raises_where_the_gradient_vanishes():
    # d rho = conj(z) is zero at the centre of the ball
    with pytest.raises(levi.DegenerateGradientError) as err:
        levi.restricted_levi_min(domain_of("ball"), [0, 0])
    assert isinstance(err.value, levi.DomainError)


def test_restricted_min_equals_levi_at_direction(rng):
    # lambda_min is attained: the Levi form at the reported direction
    dom = domain_of("saddle2")
    for pt in levi.sample_boundary(dom, 20, seed=5):
        probe = levi.restricted_levi_min(dom, pt)
        attained = levi_form_at(dom, pt, probe.direction)
        assert attained == pytest.approx(probe.lambda_min, abs=1e-10)


def test_restricted_min_lower_bounds_random_tangents(rng):
    from levislice import linalg as la
    dom = domain_of("polyball")
    M = project_to_boundary(dom, [0.8, 0.7 + 0.2j])
    probe = levi.restricted_levi_min(dom, M)
    g = E.eval_jet(dom.ast, M).dz
    basis = la.tangent_null_basis(g[None], np.linalg.norm(g)[None])[0]
    for _ in range(50):
        coeff = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        W = basis @ coeff
        W /= np.linalg.norm(W)
        assert levi_form_at(dom, M, W) >= probe.lambda_min - 1e-9


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_ball_pseudoconvex():
    report = levi.classify(domain_of("ball"), 200, seed=7)
    assert report.verdict == levi.VERDICT_PSEUDOCONVEX
    assert report.worst_probe.lambda_min == pytest.approx(1.0, abs=1e-8)


def test_classify_saddle_nonpseudoconvex():
    report = levi.classify(domain_of("saddle2"), 200, seed=7)
    assert report.verdict == levi.VERDICT_NONPSEUDOCONVEX
    assert report.worst_probe.lambda_min <= -0.9


def test_classify_polyball_pseudoconvex():
    report = levi.classify(domain_of("polyball"), 200, seed=7)
    assert report.verdict == levi.VERDICT_PSEUDOCONVEX
    assert all(p.lambda_min >= -1e-7 for p in report.probes)


def test_classify_tangency_invariant():
    dom = domain_of("saddle3")
    report = levi.classify(dom, 50, seed=2)
    for probe in report.probes:
        g = E.eval_jet(dom.ast, probe.point).dz
        assert abs(np.sum(g * probe.direction)) <= 1e-10
        assert np.linalg.norm(probe.direction) == pytest.approx(1.0, abs=1e-12)


def test_classify_positive_scaling_of_rho_keeps_verdict_sign():
    base = CATALOG["saddle2"]
    dom = levi.make_domain(base.rho, box=base.box())
    scaled = levi.make_domain(f"2*({base.rho})", box=base.box())
    r1 = levi.classify(dom, 60, seed=9)
    r2 = levi.classify(scaled, 60, seed=9)
    assert r1.verdict == r2.verdict == levi.VERDICT_NONPSEUDOCONVEX
    # probes land on the same boundary; values scale by the constant
    assert r2.worst_probe.lambda_min == pytest.approx(
        2 * r1.worst_probe.lambda_min, rel=1e-6)


@pytest.mark.parametrize("kind", ["ellipsoid", "saddle"])
def test_batched_classify_matches_pointwise_minimum(kind):
    dom = rotated_domain(kind, 4, seed=41)
    report = levi.classify(dom, 120, seed=5)
    assert report.verdict == (levi.VERDICT_PSEUDOCONVEX if kind == "ellipsoid"
                              else levi.VERDICT_NONPSEUDOCONVEX)
    for i, M in enumerate(report.points):
        assert report.lambdas[i] == pytest.approx(
            levi.restricted_levi_min(dom, M).lambda_min, abs=1e-12)
        # independent route: SVD null space of Z -> grad . Z, then eigvalsh
        jet = E.eval_jet(dom.ast, M)
        null = np.linalg.svd(jet.dz[None, :])[2][1:].conj().T
        restricted = null.T @ jet.dzzb @ null.conj()
        scale = 1.0 + np.max(np.abs(jet.dzzb))
        assert report.lambdas[i] == pytest.approx(
            np.linalg.eigvalsh(restricted)[0], abs=1e-12 * scale)
        Z = report.directions[i]
        assert levi_form_at(dom, M, Z) == pytest.approx(
            report.lambdas[i], abs=1e-12 * scale)


@pytest.mark.parametrize("name", ["ball", "polyball", "rot-ellipsoid3"])
def test_batched_slices_match_composed_slice_domains(monkeypatch, name):
    # the batched sweep against classify on the symbolic slice rho(a + b w1 + c w2),
    # each composed domain started from its slice's block of the one stream
    dom = (rotated_domain("ellipsoid", 3, seed=17) if name.startswith("rot")
           else domain_of(name))
    points = levi.classify(dom, 12, seed=23).points
    bases, frames = pipeline.sweep_slices(dom, points, 12, seed=23)
    reports = levi.classify_slices(dom, bases, frames, pipeline.SLICE_WINDOW,
                                   pipeline.SLICE_PROBES, seed=23)
    assert len(reports) == 12
    box = levi.square_box(2, pipeline.SLICE_WINDOW)
    blocks = levi.sample_box_points(box, 12 * pipeline.SLICE_PROBES, 23).reshape(
        12, pipeline.SLICE_PROBES, 2)
    for a, frame, block, report in zip(bases, frames, blocks, reports):
        composed = compose_with_affine(dom.ast, a, frame[:, 0], frame[:, 1])
        dom_h = levi.make_domain(composed, box=box)
        with monkeypatch.context() as m:
            m.setattr(levi, "sample_box_points", lambda *_, block=block: block)
            oracle = levi.classify(dom_h, pipeline.SLICE_PROBES, seed=0)
        assert report.verdict == oracle.verdict == levi.VERDICT_PSEUDOCONVEX
        assert report.sample_count == oracle.sample_count
        assert report.degenerate_count == oracle.degenerate_count
        assert report.worst_probe.lambda_min == pytest.approx(
            oracle.worst_probe.lambda_min, abs=1e-12)


@functools.lru_cache(maxsize=None)
def boundary_jets(kind: str, n: int):
    """Jets at the boundary points that 40 box samples of a rotated domain in
    C^n reach."""
    dom = rotated_domain(kind, n, seed=n)
    return E.eval_jet_batch(dom.ast, levi.sample_boundary(dom, 40, seed=n),
                            holo=False)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ellipsoid", "saddle"]), n=st.integers(2, 5),
       seed=st.integers(0, 2**16))
def test_closed_form_slice_minimum_equals_the_eigensolve(kind, n, seed):
    # random frames of random scales through boundary points: the slice's
    # closed form against the Householder basis and eigensolve of _levi_min
    # on the oracle's pulled-back 2 x 2 mixed Hessian
    jets = boundary_jets(kind, n)
    B = len(jets.dz)
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal((B, n, 2)) + 1j * rng.standard_normal((B, n, 2))
    frame *= 10.0 ** rng.uniform(-2, 2, (B, 1, 1))
    grad = levi._pulled_back_grad(jets.dz, frame)
    mixed = pulled_back_mixed(jets.dzzb, frame)
    ok, lam, Z, gn = levi._slice_levi_min(grad, jets.dzzb, frame)
    want_ok, want_lam, want_Z, want_gn = levi._levi_min(grad, mixed)
    assert _same_bits(ok, want_ok) and _same_bits(gn, want_gn) and ok.all()
    scale = np.abs(mixed).max(axis=(1, 2))
    assert np.all(np.abs(lam - want_lam) <= 1e-12 * scale)
    assert np.all(np.abs(Z - want_Z) <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ellipsoid", "saddle"]), n=st.integers(2, 5),
       seed=st.integers(0, 2**16), rows=st.sampled_from(["some", "all", "none"]))
def test_levi_min_rows_below_the_floor_leave_the_others_bit_for_bit(kind, n, seed,
                                                                     rows):
    # gradients of random rows scaled below GRAD_FLOOR, some to exactly zero:
    # they come out nan and zeros and are counted, and every other row is
    # what it is classified alone; with RuntimeWarning an error (pyproject.toml),
    # no row warns
    jets = boundary_jets(kind, n)
    B = len(jets.dz)
    rng = np.random.default_rng(seed)
    low = {"some": rng.random(B) < 0.3, "all": np.ones(B, bool),
           "none": np.zeros(B, bool)}[rows]
    scale = np.where(rng.random(B) < 0.3, 0.0, rng.uniform(1e-6, 0.99, B))
    norms = np.linalg.norm(jets.dz, axis=1)
    grad = jets.dz * np.where(low, scale * levi.GRAD_FLOOR / norms, 1.0)[:, None]
    ok, lam, Z, gn = levi._levi_min(grad, jets.dzzb)
    assert _same_bits(ok, ~low)
    assert np.isnan(lam[low]).all() and not Z[low].any()
    for i in np.flatnonzero(ok):
        alone = levi._levi_min(grad[i:i + 1], jets.dzzb[i:i + 1])
        assert all(_same_bits(got[i:i + 1], want)
                   for got, want in zip((ok, lam, Z, gn), alone))
    [report] = levi._reports(np.zeros(B, int), 1, grad, ok, lam, Z, gn)
    assert report.degenerate_count == low.sum() and report.sample_count == B
    assert _same_bits(report.lambdas, lam[ok])


@pytest.mark.filterwarnings("error")
def test_slice_rows_below_the_gradient_floor_count_as_degenerate():
    # |d rho| = 7e-9 |z|: Newton, which tests no floor, accepts the samples,
    # and the Levi stage finds every row below the floor
    dom = levi.make_domain("7e-9*(abs2(z1)+abs2(z2)-1)")
    [report] = levi.classify_slices(dom, np.zeros((1, 2)), np.eye(2)[None], 2.0,
                                    40, 0)
    assert report.verdict == levi.VERDICT_DEGENERATE and report.worst is None
    assert report.degenerate_count == report.sample_count == 40
    # a zero and a tiny gradient among ordinary rows: nan and zeros for them,
    # and Z = (g2, -g1)/|g| with its larger entry made real positive
    grad = np.array([[0.6, 0.8j], [0, 0], [1e-9, 0], [3, 4]], complex)
    mixed = np.repeat(np.diag([2.0, 5.0])[None].astype(complex), 4, axis=0)
    ok, lam, Z, gn = levi._slice_levi_min(grad, mixed, np.repeat(np.eye(2)[None], 4, 0))
    assert ok.tolist() == [True, False, False, True]
    assert np.isnan(lam[1:3]).all() and not Z[1:3].any()
    assert np.allclose(Z[[0, 3]], [[0.8, 0.6j], [0.8, -0.6]], rtol=0, atol=1e-15)
    assert np.allclose(lam[[0, 3]], [2 * 0.64 + 5 * 0.36] * 2, rtol=1e-15)


def same_reports(got, want) -> bool:
    return all(_same_bits(getattr(got, f), getattr(want, f))
               for f in ("points", "lambdas", "directions", "grad_norms")) and (
        (got.worst, got.verdict, got.degenerate_count, got.sample_count)
        == (want.worst, want.verdict, want.degenerate_count, want.sample_count))


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(0, 12), min_size=1, max_size=6),
       seed=st.integers(0, 2**16), degenerate=st.floats(0.0, 0.5),
       nan=st.booleans())
def test_segment_reports_match_a_loop_over_the_slices(sizes, seed, degenerate, nan):
    # lambdas from a few values, so that minima tie and the first must win;
    # slices without rows, with more than 10% degenerate rows, and one slice,
    # as classify has, all occur
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    B = len(rows)
    ok = rng.random(B) >= degenerate
    lam = np.where(ok, rng.choice([-1.0, -1e-8, 0.0, 2.0, -0.0], B), np.nan)
    if nan and B:
        lam[rng.integers(B)] = np.nan
    points = rng.standard_normal((B, 3)) + 1j * rng.standard_normal((B, 3))
    Z = rng.standard_normal((B, 3)) + 1j * rng.standard_normal((B, 3))
    gn = rng.random(B)
    got = levi._reports(rows, len(sizes), points, ok, lam, Z, gn)
    want = reports_one_by_one(rows, len(sizes), points, ok, lam, Z, gn)
    assert len(got) == len(sizes)
    assert all(same_reports(g, w) for g, w in zip(got, want))


def test_segment_reports_of_a_slice_without_rows_and_of_ties():
    rows = np.array([0, 0, 0, 2, 2, 2])
    ok = np.ones(6, bool)
    lam = np.array([1.0, -2.0, -2.0, 0.5, 0.5, 0.7])
    points = np.arange(6.0)[:, None] + 0j
    reports = levi._reports(rows, 3, points, ok, lam, points, np.ones(6))
    assert [r.worst for r in reports] == [1, None, 0]
    assert [r.verdict for r in reports] == [levi.VERDICT_NONPSEUDOCONVEX,
                                           levi.VERDICT_DEGENERATE,
                                           levi.VERDICT_PSEUDOCONVEX]
    assert reports[1].sample_count == reports[1].degenerate_count == 0
    assert reports[2].points[:, 0].real.tolist() == [3.0, 4.0, 5.0]


def test_classify_is_the_one_segment_report():
    dom = rotated_domain("saddle", 3, seed=11)
    report = levi.classify(dom, 80, seed=4)
    points = levi.sample_boundary(dom, 80, 4)
    jets = E.eval_jet_batch(dom.ast, points, holo=False)
    [want] = reports_one_by_one(np.zeros(len(points), int), 1, points,
                                *levi._levi_min(jets.dz, jets.dzzb))
    assert same_reports(report, want) and report.worst is not None


def test_classify_slices_rejects_a_window_without_interior():
    dom = domain_of("ball")
    with pytest.raises(levi.DomainError):
        levi.classify_slices(dom, np.zeros((1, 2)), np.eye(2)[None], 0.0, 10, 0)


def test_classify_slices_reports_a_slice_that_misses_the_boundary():
    # the second slice lies far outside the ball: rho_h >= 3 on its window
    dom = domain_of("ball")
    bases = np.array([[0, 0], [5, 5]], complex)
    frames = np.repeat(np.eye(2, dtype=complex)[None] * 0.1, 2, axis=0)
    frames[0] = np.eye(2)
    with pytest.raises(levi.BoundaryNotFoundError):
        levi.classify_slices(dom, bases, frames, 2.0, 20, 0)
