from pathlib import Path

import numpy as np
import pytest

from levislice import catalog
from levislice import expr as E
from levislice import levi
from levislice import pipeline
from levislice.catalog import CATALOG
from oracles import compose_with_affine, levi_form_at, project_to_boundary
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


def test_newton_fails_a_non_finite_point_where_rho_stays_finite():
    # rho leaves z1 out, so a non-finite z1 leaves rho and its gradient finite
    ast = E.parse("abs2(z2)-1")
    starts = np.array([[np.nan, 0.5], [0.3, 2.0], [np.inf, 0.2j]], complex)
    w, done = levi._newton(ast, starts)
    assert done.tolist() == [False, True, False]
    assert _same_bits(w[[0, 2]], starts[[0, 2]])
    alone, _ = levi._newton(ast, starts[1:2])
    assert _same_bits(w[1], alone[0])


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
    basis = la.tangent_null_basis(g, levi.GRAD_FLOOR)
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pulled_back_mixed_equals_the_row_major_einsum(rng, n):
    for rows in (1, 7, 600):
        frame = rng.standard_normal((rows, n, 2)) + 1j * rng.standard_normal((rows, n, 2))
        mixed = rng.standard_normal((rows, n, n)) + 1j * rng.standard_normal((rows, n, n))
        want = np.einsum("bli,blm,bmj->bij", frame, mixed, np.conj(frame))
        got = levi._pulled_back_mixed(mixed, frame)
        assert got.flags.c_contiguous and _same_bits(got, want)


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
