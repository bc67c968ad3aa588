import dataclasses
from pathlib import Path

import numpy as np
import pytest

from levislice import expr as E
from levislice import levi
from levislice import slicing as sl
from levislice.catalog import CATALOG, parse_domain_file
from oracles import (OffPlaneError, compose_with_affine, levi_form_at, phi,
                     phi_inv, pulled_back_mixed, slice_gradient_check)
from rotated import rotated_domain


DATA = Path(__file__).parent / "data"


def domain_of(name):
    return CATALOG[name].domain()


WITNESS_A = np.array([0, -0.1], complex)
WITNESS_B = np.array([0, 0.1], complex)
WITNESS_C = np.array([1, 0], complex)


# ---------------------------------------------------------------------------
# slice construction and maps
# ---------------------------------------------------------------------------

def test_make_slice_canonical():
    s = sl.make_slice([0, 0, 0], [1, 0, 0], [0, 1, 0])
    assert np.allclose(phi(s, [1, 2]), [1, 2, 0])


def test_make_slice_rejects_colinear():
    with pytest.raises(sl.SliceError):
        sl.make_slice([0, 0], [1, 0], [2, 0])


def test_make_slice_witness_vectors():
    s = sl.make_slice(WITNESS_A, WITNESS_B, WITNESS_C)
    assert np.allclose(phi(s, [0, 0]), WITNESS_A)
    assert np.allclose(phi(s, [1, 0]), [0, 0])  # phi(mu) = M


def test_phi_inv_round_trip(rng):
    s = sl.make_slice(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                      rng.standard_normal(3) + 1j * rng.standard_normal(3),
                      rng.standard_normal(3) + 1j * rng.standard_normal(3))
    for _ in range(100):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.max(np.abs(phi_inv(s, phi(s, w)) - w)) <= 1e-10


def test_phi_inv_witness_point():
    s = sl.make_slice(WITNESS_A, WITNESS_B, WITNESS_C)
    assert np.allclose(phi_inv(s, [0, 0]), [1, 0], atol=1e-12)


def test_phi_inv_off_plane():
    s = sl.make_slice([0, 0, 0], [1, 0, 0], [0, 1, 0])
    with pytest.raises(OffPlaneError):
        phi_inv(s, [0, 0, 1])


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def pulled_back(dom, s, w):
    """Value, gradient and mixed Hessian of rho_h at w by the chain rule: the
    gradient as levi's slice classification pulls it back, the mixed Hessian
    by the oracle's congruence."""
    jet = E.eval_jet(dom.ast, phi(s, w), holo=False)
    frame = s.frame[None]
    return (jet.val, levi._pulled_back_grad(jet.dz[None], frame)[0],
            pulled_back_mixed(jet.dzzb[None], frame)[0])


def test_pullback_canonical_ball():
    dom = domain_of("ball")
    s = sl.make_slice([0, 0], [1, 0], [0, 1])
    _, grad, mixed = pulled_back(dom, s, [1, 0])
    assert np.allclose(grad, [1, 0])
    assert np.allclose(mixed, np.eye(2))


def test_pullback_witness_slice_hand_values():
    # rho_h = 0.1*re(w1) - 0.1 - abs2(w2): grad (0.05, 0), mixed diag(0, -1)
    dom = domain_of("saddle2")
    s = sl.make_slice(WITNESS_A, WITNESS_B, WITNESS_C)
    _, grad, mixed = pulled_back(dom, s, [1, 0])
    assert np.allclose(grad, [0.05, 0], atol=1e-14)
    assert np.allclose(mixed, np.diag([0.0, -1.0]), atol=1e-14)


def test_pullback_preserves_hermitian_symmetry(rng):
    dom = domain_of("polyball")
    s = sl.make_slice([0, 0], [1, 0], [0, 1j])
    for _ in range(10):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _, _, mixed = pulled_back(dom, s, w)
        assert np.max(np.abs(mixed - mixed.conj().T)) <= 1e-12


def test_two_path_pullback_equality(rng):
    # chain rule vs symbolic substitution, componentwise
    for name in ("ball", "polyball", "saddle2", "saddle3", "shell"):
        dom = domain_of(name)
        n = dom.n
        for _ in range(20):
            a, b, c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                       for _ in range(3))
            s = sl.make_slice(a, b, c)
            w = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            value, grad, mixed = pulled_back(dom, s, w)
            jet = E.eval_jet(compose_with_affine(dom.ast, a, b, c), w, holo=False)
            scale = 1.0 + max(abs(jet.val), np.max(np.abs(jet.dz)),
                              np.max(np.abs(jet.dzzb)))
            assert abs(value - jet.val) <= 1e-9 * scale
            assert np.max(np.abs(grad - jet.dz)) <= 1e-9 * scale
            assert np.max(np.abs(mixed - jet.dzzb)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# gradient check (local defining function criterion)
# ---------------------------------------------------------------------------

def test_slice_gradient_check_witness():
    dom = domain_of("saddle2")
    s = sl.make_slice(WITNESS_A, WITNESS_B, WITNESS_C)
    assert slice_gradient_check(s, dom, [1, 0])


def test_slice_gradient_check_canonical_ball():
    dom = domain_of("ball")
    s = sl.make_slice([0, 0], [1, 0], [0, 1])
    assert slice_gradient_check(s, dom, [1, 0])


def test_slice_gradient_check_both_tangent():
    # at M=(1,0,0) on the 3-sphere the tangent space is {Z1 = 0}
    dom = domain_of("ball3")
    s = sl.make_slice([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert not slice_gradient_check(s, dom, [0, 0])


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------

def test_witness_slice_saddle2_worked_example():
    # b is the unit normal (M - p0)/t, so M sits at w = (t, 0)
    dom = domain_of("saddle2")
    probe = levi.restricted_levi_min(dom, [0, 0])
    cert = sl.witness_slice(dom, probe)
    assert np.allclose(cert.p0, [0, -0.1], atol=1e-12)
    assert cert.t == pytest.approx(0.1)
    assert np.allclose(cert.slice.a, cert.p0)
    assert np.allclose(cert.slice.b, [0, 1], atol=1e-12)
    assert cert.lambda_slice == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(cert.mu, [0.1, 0], atol=1e-12)
    assert np.allclose(cert.zeta, [0, 1])


def test_witness_slice_saddle3():
    dom = domain_of("saddle3")
    probe = levi.restricted_levi_min(dom, [0, 0, 0])
    cert = sl.witness_slice(dom, probe)
    assert np.allclose(cert.p0, [0, 0, -0.1], atol=1e-12)
    assert cert.lambda_slice == pytest.approx(-1.0, abs=1e-12)


def test_witness_slice_rejects_positive_probe():
    dom = domain_of("ball")
    probe = levi.restricted_levi_min(dom, [1, 0])
    with pytest.raises(sl.WitnessError):
        sl.witness_slice(dom, probe)


@pytest.mark.parametrize("seed", [1, 3])
def test_witness_slice_tangency_is_relative_to_the_gradient(seed):
    # |d rho| = 5e7 at the witness points of scaled_saddle.dom, where
    # |sum_j (d rho)_j Z_j| rounds to 3.5e-9 (seed 1) and 1.2e-10 (seed 3):
    # an absolute bound of 1e-10 rejected both tangent directions
    dom = parse_domain_file(DATA / "scaled_saddle.dom").domain()
    probe = levi.classify(dom, 50, seed).worst_probe
    cert = sl.witness_slice(dom, probe)
    assert cert.lambda_slice == pytest.approx(probe.lambda_min, rel=1e-9)
    # a direction off the tangent space still fails, at any scale
    tampered = dataclasses.replace(probe, direction=np.array([0, 1], complex))
    with pytest.raises(sl.WitnessError, match="not tangent"):
        sl.witness_slice(dom, tampered)


def test_inward_step_halves_until_inside():
    # a steep ellipsoid: the first step of 0.1 (1 + |M|) overshoots across
    # the thin z1 direction for probes with a large normal component in z1
    dom = levi.make_domain("100*abs2(z1)+abs2(z2)-1", box=levi.square_box(2, 1.5))
    M = levi.classify(dom, 25, seed=3).points
    _, grads = E.eval_value_grad(dom.ast, M)
    p0, t = sl.inward_step(dom, M, grads)
    assert np.all(E.eval_raw(dom.ast, p0).real < -levi.BOUNDARY_EPS)
    first = 0.1 * (1.0 + np.linalg.norm(M, axis=1))
    halvings = np.log2(first / t)
    assert np.allclose(halvings, np.round(halvings)) and 0 < np.sum(halvings > 0) < 25
    nu = np.conj(grads) / np.linalg.norm(grads, axis=1)[:, None]
    assert np.allclose(p0, M - t[:, None] * nu, atol=1e-15)


def test_inward_step_raises_when_no_step_gets_inside():
    # (3, 0) lies outside the ball by more than its first step of 0.4
    dom = domain_of("ball")
    M = np.array([[0.6, 0.8], [3.0, 0.0]], complex)
    with pytest.raises(sl.SliceError) as err:
        sl.inward_step(dom, M, np.conj(M))
    assert type(err.value) is sl.SliceError
    assert "1 of 2" in str(err.value) and "witness" not in str(err.value)


def test_witness_invariants_on_sampled_probes():
    for name in ("saddle2", "shell"):
        dom = domain_of(name)
        report = levi.classify(dom, 50, seed=3)
        for probe in report.probes:
            if probe.lambda_min >= -levi.LEVI_EPS:
                continue
            cert = sl.witness_slice(dom, probe)
            assert float(E.eval_raw(dom.ast, cert.p0[None, :])[0].real) < 0
            transported = levi_form_at(dom, cert.M, cert.Z)
            assert cert.lambda_slice == pytest.approx(
                transported, abs=1e-9 * (1 + abs(transported)))
            _, grad, _ = pulled_back(dom, cert.slice, cert.mu)
            assert abs(grad[1]) <= 1e-10


def test_witness_frame_is_orthonormal_and_places_M_at_mu():
    domains = [domain_of("saddle2"), domain_of("shell"),
               rotated_domain("saddle", 2, seed=3), rotated_domain("saddle", 3, seed=7),
               rotated_domain("saddle", 4, seed=23)]
    for dom in domains:
        report = levi.classify(dom, 50, seed=3)
        bad = [p for p in report.probes if p.lambda_min < -levi.LEVI_EPS]
        assert bad
        for probe in bad:
            cert = sl.witness_slice(dom, probe)
            b, c = cert.slice.b, cert.slice.c
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(b, c)) <= 1e-10
            assert np.linalg.norm(cert.slice.a + cert.slice.frame @ cert.mu - cert.M) <= (
                1e-12 * (1.0 + np.linalg.norm(cert.M)))


def test_forward_direction_random_slices_of_ball(rng):
    # slices of known-pseudoconvex domains stay pseudoconvex at samples
    dom = domain_of("ball")
    boundary = levi.sample_boundary(dom, 20, seed=13)
    for k in range(20):
        M = boundary[k % len(boundary)]
        g = E.eval_jet(dom.ast, M).dz
        a = M - 0.05 * np.conj(g) / np.linalg.norm(g)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        composed = compose_with_affine(dom.ast, a, b / np.linalg.norm(b),
                                       c / np.linalg.norm(c))
        dom_h = levi.make_domain(composed, box=levi.square_box(2, 2.0))
        report = levi.classify(dom_h, 25, seed=k)
        assert report.verdict == levi.VERDICT_PSEUDOCONVEX
