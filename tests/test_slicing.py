import numpy as np
import pytest

from levislice import expr as E
from levislice import levi
from levislice import slicing as sl
from levislice.catalog import CATALOG
from oracles import (OffPlaneError, compose_with_affine, levi_form_at, phi_inv,
                     slice_gradient_check)


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
    assert np.allclose(sl.phi(s, [1, 2]), [1, 2, 0])


def test_make_slice_rejects_colinear():
    with pytest.raises(sl.SliceError):
        sl.make_slice([0, 0], [1, 0], [2, 0])


def test_make_slice_witness_vectors():
    s = sl.make_slice(WITNESS_A, WITNESS_B, WITNESS_C)
    assert np.allclose(sl.phi(s, [0, 0]), WITNESS_A)
    assert np.allclose(sl.phi(s, [1, 0]), [0, 0])  # phi(mu) = M


def test_phi_inv_round_trip(rng):
    s = sl.make_slice(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                      rng.standard_normal(3) + 1j * rng.standard_normal(3),
                      rng.standard_normal(3) + 1j * rng.standard_normal(3))
    for _ in range(100):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.max(np.abs(phi_inv(s, sl.phi(s, w)) - w)) <= 1e-10


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

def test_pullback_canonical_ball():
    dom = domain_of("ball")
    s = sl.make_slice([0, 0], [1, 0], [0, 1])
    jet = E.eval_jet(dom.ast, sl.phi(s, [1, 0]))
    jh = sl.pullback_jet(s, jet)
    assert np.allclose(jh.grad, [1, 0])
    assert np.allclose(jh.mixed, np.eye(2))


def test_pullback_witness_slice_hand_values():
    # rho_h = 0.1*re(w1) - 0.1 - abs2(w2): grad (0.05, 0), mixed diag(0, -1)
    dom = domain_of("saddle2")
    s = sl.make_slice(WITNESS_A, WITNESS_B, WITNESS_C)
    jet = E.eval_jet(dom.ast, sl.phi(s, [1, 0]))
    jh = sl.pullback_jet(s, jet)
    assert np.allclose(jh.grad, [0.05, 0], atol=1e-14)
    assert np.allclose(jh.mixed, np.diag([0.0, -1.0]), atol=1e-14)


def test_pullback_preserves_hermitian_symmetry(rng):
    dom = domain_of("polyball")
    s = sl.make_slice([0, 0], [1, 0], [0, 1j])
    for _ in range(10):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        jh = sl.pullback_jet(s, E.eval_jet(dom.ast, sl.phi(s, w)))
        assert np.max(np.abs(jh.mixed - jh.mixed.conj().T)) <= 1e-12
        assert np.max(np.abs(jh.holo - jh.holo.T)) <= 1e-12


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
            jet1 = sl.pullback_jet(s, E.eval_jet(dom.ast, sl.phi(s, w)))
            composed = compose_with_affine(dom.ast, a, b, c)
            jet2 = E.eval_jet(composed, w)
            scale = 1.0 + max(abs(jet2.value), np.max(np.abs(jet2.grad)),
                              np.max(np.abs(jet2.mixed)), np.max(np.abs(jet2.holo)))
            assert abs(jet1.value - jet2.value) <= 1e-9 * scale
            assert np.max(np.abs(jet1.grad - jet2.grad)) <= 1e-9 * scale
            assert np.max(np.abs(jet1.mixed - jet2.mixed)) <= 1e-9 * scale
            assert np.max(np.abs(jet1.holo - jet2.holo)) <= 1e-9 * scale


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
    dom = domain_of("saddle2")
    probe = levi.restricted_levi_min(dom, [0, 0])
    cert = sl.witness_slice(dom, probe)
    assert np.allclose(cert.p0, [0, -0.1], atol=1e-12)
    assert cert.t == pytest.approx(0.1)
    assert np.allclose(cert.slice.a, cert.p0)
    assert np.allclose(cert.slice.b, np.asarray(cert.M) - cert.p0)
    assert cert.lambda_slice == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(cert.mu, [1, 0])
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


def test_witness_invariants_on_sampled_probes():
    for name in ("saddle2", "shell"):
        dom = domain_of(name)
        report = levi.classify(dom, 50, seed=3)
        for probe in report.probes:
            if probe.lambda_min >= -dom.tol.levi_eps:
                continue
            cert = sl.witness_slice(dom, probe)
            assert float(E.eval_raw(dom.ast, cert.p0[None, :])[0].real) < 0
            transported = levi_form_at(dom, cert.M, cert.Z)
            assert cert.lambda_slice == pytest.approx(
                transported, abs=1e-9 * (1 + abs(transported)))
            jh = sl.pullback_jet(cert.slice, E.eval_jet(dom.ast, cert.M))
            assert abs(jh.grad[1]) <= 1e-10


def test_forward_direction_random_slices_of_ball(rng):
    # slices of known-pseudoconvex domains stay pseudoconvex at samples
    dom = domain_of("ball")
    boundary = levi.sample_boundary(dom, 20, seed=13)
    for k in range(20):
        M = boundary[k % len(boundary)]
        g = E.eval_jet(dom.ast, M).grad
        a = M - 0.05 * np.conj(g) / np.linalg.norm(g)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        composed = compose_with_affine(dom.ast, a, b / np.linalg.norm(b),
                                       c / np.linalg.norm(c))
        dom_h = levi.make_domain(composed, box=levi.square_box(2, 2.0))
        report = levi.classify(dom_h, 25, seed=k)
        assert report.verdict == levi.VERDICT_PSEUDOCONVEX
