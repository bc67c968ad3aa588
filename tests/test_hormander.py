import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levislice import expr as E
from levislice import hormander as hm
from levislice import levi
from levislice.catalog import CATALOG, parse_domain_file
from oracles import levi_form_at, quadratic_as_expression, real_form_matrix
from rotated import rotated_domain


DATA = Path(__file__).parent / "data"


def domain_of(name):
    return CATALOG[name].domain()


def saddle2_witness():
    dom = domain_of("saddle2")
    probe = levi.restricted_levi_min(dom, [0, 0])
    return dom, probe, hm.build_quadratic_witness(dom, probe)


def worst_probe_witness(dom, count, seed):
    probe = levi.classify(dom, count, seed).worst_probe
    return dom, hm.build_quadratic_witness(dom, probe)


# a cubic saddle whose witness needs two halvings; its holo2 is nonzero
HALVING_RHO = "re(z2)-abs2(z1)+50*abs2(z1)*re(z1)"


def halving_witness():
    return worst_probe_witness(
        levi.make_domain(HALVING_RHO, levi.square_box(2, 1.0)), 200, 1)


def holo_saddle3_witness():
    spec = parse_domain_file(DATA / "holo_saddle3.dom")
    return worst_probe_witness(spec.domain(), 200, 3)


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def test_build_saddle2_origin():
    _, probe, q = saddle2_witness()
    assert probe.lambda_min == pytest.approx(-1.0, abs=1e-12)
    assert q.eps == pytest.approx(0.5, abs=1e-12)
    assert q.radius == pytest.approx(0.1, abs=1e-14)
    assert np.allclose(q.lin, [0, 0.5])
    assert np.allclose(q.mixed2, np.diag([-1.0, 0.0]))
    assert np.allclose(q.holo2, 0)


def test_build_rejects_nonnegative_probe():
    dom = domain_of("ball")
    probe = levi.restricted_levi_min(dom, [1, 0])
    with pytest.raises(hm.WitnessPreconditionError):
        hm.build_quadratic_witness(dom, probe)


def test_eval_quadratic_hand_values():
    # q = re(z2) - |z1|^2 + 0.5(|z1|^2 + |z2|^2) at the saddle origin
    _, _, q = saddle2_witness()
    assert hm.eval_quadratic(q, [0.5, 0]) == pytest.approx(-0.125, abs=1e-14)
    assert hm.eval_quadratic(q, [0, 0.1]) == pytest.approx(0.105, abs=1e-14)
    assert hm.eval_quadratic(q, q.center) == pytest.approx(0.0, abs=1e-15)


def test_quadratic_matches_taylor_plus_bump(rng):
    # q - (second-order jet of rho) = eps * |z - M|^2, to rounding
    dom, _, q = saddle2_witness()
    jet = E.eval_jet(dom.ast, q.center)
    for _ in range(50):
        d = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        taylor = (2 * np.sum(jet.dz * d).real
                  + np.einsum("jk,j,k->", jet.dzz, d, d).real
                  + np.einsum("jk,j,k->", jet.dzzb, d, np.conj(d)).real)
        expected = taylor + q.eps * np.vdot(d, d).real
        assert hm.eval_quadratic(q, q.center + d) == pytest.approx(
            expected, abs=1e-12)


WITNESSES = {
    "rot_saddle2": lambda: worst_probe_witness(rotated_domain("saddle", 2, 31), 50, 1),
    "rot_saddle3": lambda: worst_probe_witness(rotated_domain("saddle", 3, 37), 50, 1),
    "rot_saddle4": lambda: worst_probe_witness(rotated_domain("saddle", 4, 41), 50, 1),
    "holo_saddle3": holo_saddle3_witness,
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_real_form_matches_complex_formula(name, rng):
    # q(M + d) = 2 Re(lin.d) + Re(d^T H d) + Re(d^T M dbar) + eps |d|^2
    _, q = WITNESSES[name]()
    n = len(q.center)
    d = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
    d *= (q.radius * rng.random(200) ** (1 / (2 * n))
          / np.linalg.norm(d, axis=1))[:, None]
    terms = np.stack([
        2 * (d @ q.lin).real,
        np.einsum("bj,jk,bk->b", d, q.holo2, d).real,
        np.einsum("bj,jk,bk->b", d, q.mixed2, np.conj(d)).real,
        q.eps * np.sum(np.abs(d) ** 2, axis=1),
    ])
    scale = np.max(np.sum(np.abs(terms), axis=0))
    batch = hm.eval_quadratic(q, q.center + d)
    assert np.max(np.abs(batch - terms.sum(axis=0))) <= 1e-13 * scale
    single = [hm.eval_quadratic(q, z) for z in q.center + d[:5]]
    assert np.max(np.abs(np.subtract(single, batch[:5]))) <= 1e-15 * scale
    assert hm.eval_quadratic(q, q.center) == 0.0


def test_witnesses_with_holo2_are_covered():
    # the holo2 term of q is pinned only if some tested witness has one
    assert np.any(np.abs(holo_saddle3_witness()[1].holo2.imag) > 0.1)
    assert np.any(np.abs(halving_witness()[1].holo2) > 0.1)


def test_levi_of_quadratic_is_half_lambda():
    dom, probe, q = saddle2_witness()
    record = hm.verify_quadratic_witness(dom, q, samples=2000, seed=5)
    assert record.levi_value == pytest.approx(probe.lambda_min / 2, abs=1e-12)


def test_quadratic_expression_cross_check(rng):
    # the rendered expression, re-parsed, has the same values and Levi form
    dom, _, q = saddle2_witness()
    ast = E.parse(quadratic_as_expression(q))
    pts = 0.3 * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
    direct = hm.eval_quadratic(q, pts)
    parsed = E.eval_raw(ast, pts).real
    assert np.max(np.abs(direct - parsed)) <= 1e-10
    qdom = levi.make_domain(ast, box=levi.square_box(2, 2.0))
    bumped = q.mixed2 + q.eps * np.eye(2)
    assert levi_form_at(qdom, q.center, q.direction) == pytest.approx(
        levi.levi_form(bumped[None], q.direction[None])[0], abs=1e-10)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

SCALES = [10.0 ** k for k in range(-3, 4)]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       mid_scale=st.sampled_from(SCALES), rad_scale=st.sampled_from(SCALES),
       pattern=st.sampled_from(["dense", "sparse", "row", "column"]))
def test_norm_bound_covers_every_matrix_in_the_discs(n, seed, mid_scale, rad_scale,
                                                     pattern):
    # _norm_bound(dev) bounds ||X||_2 for every X in the discs, and so
    # |Re(d^T X d)| and |Re(d^T X dbar)| over |d|^2 and the spectral norm of
    # each form's real 2n x 2n matrix; the zero patterns of the midpoints
    # make row and column sums differ
    rng = np.random.default_rng(seed)
    keep = {"dense": np.ones((n, n), bool), "sparse": rng.random((n, n)) < 0.4,
            "row": np.arange(n)[:, None] == 0, "column": np.arange(n)[None, :] == 0}
    mid = mid_scale * keep[pattern] * (rng.standard_normal((n, n))
                                       + 1j * rng.standard_normal((n, n)))
    rad = rad_scale * rng.random((n, n))
    bound = hm._norm_bound(SimpleNamespace(mid=mid, rad=rad)) * (1.0 + 1e-12)
    d = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
    dd = np.sum(np.abs(d) ** 2, axis=1)
    # matrices on the discs' edges: the one that moves each entry away from 0
    # first, then random phases
    for u in [np.exp(1j * np.angle(mid))] + [
            np.exp(2j * np.pi * rng.random((n, n))) for _ in range(3)]:
        X = mid + rad * u
        assert np.linalg.norm(X, 2) <= bound
        for conjugate in (False, True):
            right = np.conj(d) if conjugate else d
            values = np.abs(np.einsum("bj,jk,bk->b", d, X, right).real) / dd
            assert values.max() <= bound
            assert np.linalg.norm(real_form_matrix(X, conjugate), 2) <= bound


@pytest.mark.parametrize("n", [1, 2, 4])
def test_real_form_matrix_reproduces_the_forms(n, rng):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
    x = d.view(float)
    for conjugate in (False, True):
        S = real_form_matrix(X, conjugate)
        right = np.conj(d) if conjugate else d
        assert np.array_equal(S, S.T)
        assert np.allclose(np.einsum("ba,ac,bc->b", x, S, x),
                           np.einsum("bj,jk,bk->b", d, X, right).real)


def test_verify_saddle2():
    dom, _, q = saddle2_witness()
    record = hm.verify_quadratic_witness(dom, q, samples=2000, seed=5)
    assert record.all_passed
    assert record.levi_value == pytest.approx(-0.5, abs=1e-12)
    assert record.radius >= 1e-4
    assert record.samples == 2000


def test_verify_saddle3():
    dom = domain_of("saddle3")
    probe = levi.restricted_levi_min(dom, [0, 0, 0])
    q = hm.build_quadratic_witness(dom, probe)
    record = hm.verify_quadratic_witness(dom, q, samples=2000, seed=5)
    assert record.all_passed
    assert record.levi_value == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_halves_radius(seed):
    # the sampling fallback; values written from the complex-coordinate
    # implementation
    dom, q = halving_witness()
    halvings, radius = hm.sample_containment(dom, q, 2000, seed)
    assert halvings == 2
    assert radius == 0.046907330972367864


def test_proof_halves_radius():
    # the cubic term's Hessian spread is below eps only on a smaller ball
    dom, q = halving_witness()
    record = hm.verify_quadratic_witness(dom, q, samples=2000, seed=1)
    assert record.all_passed
    assert record.method == "proven"
    assert record.halvings == 4
    assert record.radius == q.radius / 16
    assert record.hessian_bound < q.eps
    assert record.exception_radius < record.radius


PROVEN = {**WITNESSES, "halving": halving_witness}


@pytest.mark.parametrize("name", sorted(PROVEN))
def test_proof_agrees_with_sampling(name):
    # at the proven radius, 1e5 random points find no violation
    dom, q = PROVEN[name]()
    record = hm.verify_quadratic_witness(dom, q, samples=2000, seed=1)
    assert record.all_passed and record.method == "proven"
    at_proof = dataclasses.replace(q, radius=record.radius)
    assert hm.sample_containment(dom, at_proof, 100000, 7) == (0, record.radius)


# exp and / in rho, and a pole of 1/(z2 - 0.08) inside the first polydisc
EXP_DIV_RHO = "exp(re(z1)-abs2(z2))/(3+re(z1)+abs2(z2))-re(z2)"
POLE_RHO = "re(z2)-abs2(z1)+0.001*re(1/(z2-0.08))+0.0125"

# polydiscs D(q.center, q.radius): the witnesses', and one for EXP_DIV_RHO
ENCLOSED = {**PROVEN, "exp_div": lambda: (
    levi.make_domain(EXP_DIV_RHO, levi.square_box(2, 1.0)),
    dataclasses.replace(saddle2_witness()[2],
                        center=np.array([0.2 + 0.1j, -0.1 + 0.3j]), radius=0.3))}


@pytest.mark.parametrize("name", sorted(ENCLOSED))
def test_polydisc_enclosure_contains_jets(name, rng):
    dom, q = ENCLOSED[name]()
    n = len(q.center)
    enc = E.enclose_jet_batch(dom.ast, q.center[None], q.radius)
    u = np.sqrt(rng.random((2000, n))) * np.exp(2j * np.pi * rng.random((2000, n)))
    jets = E.eval_jet_batch(dom.ast, q.center + q.radius * u)
    for disc, values in [(enc.val, jets.val), (enc.dz, jets.dz),
                         (enc.dzz, jets.dzz), (enc.dzzb, jets.dzzb)]:
        assert np.all(np.abs(values - disc.mid) <= disc.rad)


def test_proof_across_a_pole():
    dom = levi.make_domain(POLE_RHO, levi.square_box(2, 1.0))
    q = hm.build_quadratic_witness(dom, levi.restricted_levi_min(dom, [0, 0]))
    with pytest.raises(E.EvalError):
        hm.containment_bounds(dom, q, q.radius)
    record = hm.verify_quadratic_witness(dom, q, samples=2000, seed=1)
    assert record.all_passed
    assert record.method == "sampled" or record.halvings >= 1


def test_verify_raises_when_containment_never_holds():
    # with -lin, {q < 0} lies on the outside of the boundary at every radius
    dom, q = halving_witness()
    flipped = dataclasses.replace(q, lin=-q.lin)
    with pytest.raises(hm.ContainmentError):
        hm.verify_quadratic_witness(dom, flipped, samples=2000, seed=1)


def test_verify_rejects_tiny_sample_count():
    dom, _, q = saddle2_witness()
    with pytest.raises(ValueError):
        hm.verify_quadratic_witness(dom, q, samples=99)


def test_verify_flags_nontangent_direction():
    dom, _, q = saddle2_witness()
    tampered = dataclasses.replace(q, direction=np.array([0, 1], complex))
    record = hm.verify_quadratic_witness(dom, tampered, samples=500, seed=1)
    assert not record.checks["direction_tangent"]
    assert not record.all_passed


def test_verify_flags_oversized_bump():
    # eps = 2|lambda| makes the Levi form at Z positive: check 4 must fail
    dom, probe, q = saddle2_witness()
    tampered = dataclasses.replace(q, eps=2 * abs(probe.lambda_min))
    record = hm.verify_quadratic_witness(dom, tampered, samples=500, seed=1)
    assert not record.checks["negative_levi"]


def test_verify_deterministic():
    dom, _, q = saddle2_witness()
    r1 = hm.verify_quadratic_witness(dom, q, samples=1000, seed=9)
    r2 = hm.verify_quadratic_witness(dom, q, samples=1000, seed=9)
    assert r1 == r2


def test_verify_sampled_negative_set_inside_domain(rng):
    # direct statistical restatement of containment at the final radius
    dom, _, q = saddle2_witness()
    record = hm.verify_quadratic_witness(dom, q, samples=2000, seed=2)
    d = record.radius * (rng.standard_normal((5000, 2))
                         + 1j * rng.standard_normal((5000, 2)))
    d *= (rng.random(5000) ** 0.25 / np.linalg.norm(d, axis=1))[:, None]
    zs = q.center[None, :] + record.radius * d
    qv = hm.eval_quadratic(q, zs)
    rv = E.eval_raw(dom.ast, zs).real
    assert not np.any((qv < 0) & (rv >= 0))
